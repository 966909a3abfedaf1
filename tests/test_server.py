"""The HTTP profile daemon: ingest, equivalence, artifacts, GC, restart."""

import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.hsd.records import BranchProfile, HotSpotRecord
from repro.hsd.serialize import make_provenance, records_to_dict
from repro.obs import default_registry
from repro.obs.render import stage_table
from repro.server import (
    DaemonClient,
    ProfileDaemon,
    ServerConfig,
    start_daemon_thread,
)
from repro.service import (
    AGGREGATOR_STATE_VERSION,
    ArtifactStore,
    ClientRun,
    ContractTolerance,
    FarmConfig,
    FleetProfile,
    MergePolicy,
    canonical_json,
    checkpoint_key,
    equivalence_diffs,
    merge_runs,
    pack_fleet,
    simulate_fleet,
)
from repro.hsd.serialize import document_from_json
from repro.service.wal import WriteAheadLog, wal_dir

BENCH, INPUT, SCALE = "181.mcf", "A", 0.2

#: The snapshot travels through ``FleetProfile.to_dict``, which rounds
#: the provenance agreement score to six decimals on the wire; every
#: other field (counters, run ids, epochs, branch sets) is exact.  The
#: relaxation absorbs wire rounding only — not aggregation divergence.
WIRE_CONTRACT = ContractTolerance(agreement_abs_tol=5e-7)


def rec(index, branches, detected=0):
    """branches = {address: (executed, taken)}"""
    return HotSpotRecord(
        index=index,
        detected_at_branch=detected,
        branches={
            addr: BranchProfile(addr, executed, taken)
            for addr, (executed, taken) in branches.items()
        },
    )


def doc_text(i, tenant=None):
    """One pinned-seed synthetic profile document as NDJSON-safe text.

    ``tenant`` stamps ``meta.benchmark``, which the daemon's flat
    ``POST /profiles`` uses to demultiplex; unstamped documents fold
    into the default tenant.
    """
    rng = random.Random(1000 + i)
    phase = i % 5
    base = 0x100 * (phase + 1)
    branches = {}
    for b in range(4 + phase % 3):
        executed = 50 + rng.randrange(200)
        branches[base + 8 * b] = (executed, rng.randrange(executed + 1))
    run_id = (f"{tenant}#client-{i:04d}" if tenant
              else f"client-{i:04d}")
    meta = {"provenance": make_provenance(run_id, seed=i, epoch=i % 3)}
    if tenant is not None:
        meta["benchmark"] = tenant
    return json.dumps(records_to_dict([rec(0, branches, detected=base)], meta))


def runs_of(texts):
    """Batch-ingest the same texts locally for comparison."""
    runs = []
    for text in texts:
        doc = document_from_json(text)
        runs.append(ClientRun.from_document(doc.run_id, doc))
    return runs


def daemon_config(**overrides):
    defaults = dict(
        benchmark=BENCH, input_name=INPUT, port=0, scale=SCALE, tag="test"
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def launch_server(store_dir):
    """``repro server`` as a subprocess; ``(process, banner, port)``."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            str(Path(__file__).resolve().parent.parent / "src"),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "server",
            "--bench", f"{BENCH}/{INPUT}", "--listen", "127.0.0.1:0",
            "--scale", str(SCALE), "--store", store_dir,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    banner = proc.stdout.readline()
    port = int(re.search(r":(\d+) ", banner).group(1))
    return proc, banner, port


class TestIngestEquivalence:
    N_DOCS = 1000

    @pytest.fixture(scope="class")
    def posted(self, tmp_path_factory):
        """Daemon fed N pinned docs over HTTP; returns (texts, snapshot)."""
        store = ArtifactStore(str(tmp_path_factory.mktemp("store")))
        texts = [doc_text(i) for i in range(self.N_DOCS)]
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                for start in range(0, len(texts), 250):
                    status, body = client.tenant().upload(
                        texts[start:start + 250]
                    )
                    assert status == 200
                    assert body["folded"] == 250
                status, snap = client.tenant().snapshot()
                assert status == 200
        return texts, snap

    def test_snapshot_equivalent_to_batch_merge(self, posted):
        texts, snap = posted
        wire = FleetProfile.from_dict(snap["fleet"])
        batch = merge_runs(runs_of(texts))
        assert equivalence_diffs(batch, wire, WIRE_CONTRACT) == []

    def test_wire_digest_matches_reserialized_profile(self, posted):
        _, snap = posted
        assert FleetProfile.from_dict(snap["fleet"]).digest() == snap["digest"]

    def test_corrupt_documents_quarantine_as_4xx_never_500(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                status, body = client.tenant().upload([
                    doc_text(0),
                    "this is not json",
                    '{"format": "wrong"}',
                    doc_text(1),
                ])
                assert status == 400
                assert body["folded"] == 2
                stages = {r["stage"] for r in body["rejected"]}
                assert stages == {"parse", "schema"}
                assert all(r["line"] in (2, 3) for r in body["rejected"])
                status, health = client.healthz()
                assert status == 200
                assert health["quarantined"] == 2
                assert health["documents"] == 2

    def test_truncated_upload_is_a_400_not_a_500(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            payload = doc_text(0).encode()
            sock = socket.create_connection(("127.0.0.1", handle.port), 5)
            try:
                head = (
                    f"POST /profiles HTTP/1.1\r\n"
                    f"Host: x\r\nContent-Length: {len(payload) + 500}\r\n"
                    f"\r\n"
                ).encode()
                sock.sendall(head + payload[: len(payload) // 2])
                sock.shutdown(socket.SHUT_WR)
                response = b""
                while chunk := sock.recv(4096):
                    response += chunk
            finally:
                sock.close()
            assert b"HTTP/1.1 400" in response
            assert b"truncated" in response
            # The daemon survives and keeps serving.
            with DaemonClient.for_daemon(handle) as client:
                assert client.healthz()[0] == 200

    def test_duplicate_content_dedups(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                texts = [doc_text(i) for i in range(8)]
                assert client.tenant().upload(texts)[0] == 200
                status, body = client.tenant().upload(texts)
                assert status == 200
                assert body["folded"] == 0
                assert body["duplicates"] == 8
                assert body["documents"] == 8

    def test_empty_aggregator_snapshot_is_404(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                assert client.tenant().snapshot()[0] == 404

    def test_routing_errors(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                assert client.request("GET", "/nope")[0] == 404
                assert client.request("DELETE", "/profiles")[0] == 405
                assert client.request("POST", "/artifacts/abc")[0] == 405


class TestArtifactsAndRepack:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        """A repacked daemon over a real simulated fleet."""
        root = tmp_path_factory.mktemp("repack")
        profiles = root / "profiles"
        store = ArtifactStore(str(root / "store"))
        simulate_fleet(BENCH, INPUT, runs=6, out_dir=str(profiles),
                       base_seed=0, epochs=2, scale=SCALE)
        texts = [p.read_text() for p in sorted(profiles.glob("*.json"))]
        handle = start_daemon_thread(daemon_config(), store=store)
        client = DaemonClient.for_daemon(handle)
        assert client.tenant().upload(texts)[0] == 200
        status, repack = client.tenant().repack()
        assert status == 200
        yield client, store, repack
        client.close()
        handle.stop()

    def test_artifact_get_round_trips_store_bytes(self, served):
        client, store, repack = served
        assert repack["artifacts"]
        for key in repack["artifacts"]:
            status, raw = client.artifact(key)
            assert status == 200
            assert raw == canonical_json(store.get(key))

    def test_repack_matches_local_pack_fleet(self, served, tmp_path):
        client, _, repack = served
        status, snap = client.tenant().snapshot()
        assert status == 200
        fleet = FleetProfile.from_dict(snap["fleet"])
        config = FarmConfig(
            benchmark=BENCH, input_name=INPUT, scale=SCALE,
            pipeline=None, shard_size=1,
        )
        local_store = ArtifactStore(str(tmp_path / "local-store"))
        local = pack_fleet(fleet, config, store=local_store)
        # Wire rounding can nudge the profile digest, so compare the
        # packed payloads — byte-identical artifacts either way.
        assert [o.payload for o in local.outcomes] == [
            json.loads(client.artifact(key)[1])
            for key in repack["artifacts"]
        ]

    def test_artifact_miss_is_404(self, served):
        client, _, _ = served
        assert client.artifact("0" * 40)[0] == 404
        # A key aimed at the hit-sidecar namespace is a plain miss.
        assert client.artifact("0" * 40 + ".hits")[0] == 404

    def test_dashboard_renders_fleet_and_repack(self, served):
        client, _, repack = served
        status, page = client.tenant(f"{BENCH}/{INPUT}").dashboard()
        assert status == 200
        assert "Merged fleet snapshot" in page
        assert "Last repack" in page
        assert f"/artifacts/{repack['artifacts'][0]}" in page

    def test_index_page_links_tenant_dashboards(self, served):
        client, _, _ = served
        status, page = client.dashboard()
        assert status == 200
        assert "tenant index" in page
        assert f'href="/tenants/{BENCH}/{INPUT}/"' in page
        status, index = client.tenants()
        assert status == 200
        assert index["default"] == f"{BENCH}/{INPUT}"
        assert f"{BENCH}/{INPUT}" in index["tenants"]

    def test_metrics_snapshot_counts_requests(self, served):
        client, _, _ = served
        status, body = client.metrics()
        assert status == 200
        assert body["server"]["requests"] > 0
        assert any(key.startswith("server.requests")
                   for key in body["metrics"]["counters"])


class TestWireHardening:
    def raw(self, port, payload):
        """One raw exchange; reads until the server closes."""
        sock = socket.create_connection(("127.0.0.1", port), 5)
        try:
            sock.settimeout(5)
            sock.sendall(payload)
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        finally:
            sock.close()
        return response

    def test_duplicate_content_length_is_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            response = self.raw(handle.port, (
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 0\r\nContent-Length: 5\r\n\r\n"
            ))
        assert b"HTTP/1.1 400" in response
        assert b"duplicate content-length" in response

    def test_repeated_benign_headers_list_combine(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            response = self.raw(handle.port, (
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Accept: application/json\r\nAccept: text/html\r\n"
                b"Connection: close\r\n\r\n"
            ))
        assert b"HTTP/1.1 200" in response

    def test_handler_crash_closes_the_keep_alive_connection(
        self, tmp_path, monkeypatch
    ):
        from repro.server import routes

        async def boom(daemon, request):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(routes._EXACT, ("POST", "/boom"), boom)
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            body = b'{"unread": "body"}'
            response = self.raw(handle.port, (
                b"POST /boom HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            ))
        # Exactly one response: the 500 must close the connection
        # instead of letting the unread body desynchronize keep-alive
        # framing into a spurious second (400) response.
        assert b"HTTP/1.1 500" in response
        assert response.count(b"HTTP/1.1") == 1
        assert b"Connection: close" in response


class TestAggregatorLocking:
    def test_checkpoint_serializes_state_under_the_lock(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        daemon = ProfileDaemon(daemon_config(), store=store)
        tenant = daemon.registry.default
        assert tenant.aggregator.ingest_text(doc_text(0))
        locked_during = []
        original = tenant.aggregator.to_state

        def spy():
            locked_during.append(tenant.lock.locked())
            return original()

        tenant.aggregator.to_state = spy
        assert daemon.checkpoint()
        assert locked_during == [True]

    def test_snapshot_helper_holds_the_lock(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        daemon = ProfileDaemon(daemon_config(), store=store)
        tenant = daemon.registry.default
        assert tenant.aggregator.ingest_text(doc_text(0))
        locked_during = []
        original = tenant.aggregator.snapshot

        def spy():
            locked_during.append(tenant.lock.locked())
            return original()

        tenant.aggregator.snapshot = spy
        tenant.snapshot()
        assert locked_during == [True]

    def test_concurrent_ingest_and_snapshot_never_500(self, tmp_path):
        """Uploads racing snapshots/checkpoints must never tear state.

        Unsynchronized, the worker-thread ``to_state()``/``snapshot()``
        iterations race event-loop ingest mutations into
        ``RuntimeError: dictionary changed size during iteration``
        (surfacing as 500s) — the lock makes this deterministic."""
        store = ArtifactStore(str(tmp_path / "store"))
        texts = [doc_text(i) for i in range(240)]
        failures = []
        done = threading.Event()
        with start_daemon_thread(daemon_config(), store=store) as handle:

            def post():
                try:
                    with DaemonClient.for_daemon(handle) as client:
                        for start in range(0, len(texts), 8):
                            status, _ = client.tenant().upload(
                                texts[start:start + 8]
                            )
                            if status != 200:
                                failures.append(("post", status))
                finally:
                    done.set()

            def snap():
                with DaemonClient.for_daemon(handle) as client:
                    while not done.is_set():
                        status, _ = client.tenant().snapshot()
                        if status not in (200, 404):
                            failures.append(("snapshot", status))

            threads = [threading.Thread(target=post)] + [
                threading.Thread(target=snap) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestStoreGC:
    def put_n(self, store, n, size=200):
        for i in range(n):
            store.put(f"key-{i}", {"index": i, "pad": "x" * size})

    def test_get_stamps_hit_sidecar(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put("k", {"v": 1})
        assert not os.path.exists(store.sidecar_of("k"))
        store.get("k")
        store.get("k")
        stamp = json.loads(Path(store.sidecar_of("k")).read_text())
        assert stamp["hit_count"] == 2
        assert stamp["key"] == "k"
        (entry,) = store.entries()
        assert entry.hit_count == 2
        assert entry.last_hit == stamp["last_hit"]

    def test_evict_drops_least_recently_hit_first(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self.put_n(store, 4)
        # Hit 2 and 0, in that order: LRU order is 1, 3, 2, 0.
        store.get("key-2")
        time.sleep(0.02)
        store.get("key-0")
        per_entry = store.total_bytes() // 4
        evicted = store.evict(per_entry * 2 + per_entry // 2)
        assert evicted == ["key-1", "key-3"]
        assert store.get("key-0") is not None
        assert store.get("key-2") is not None
        assert not os.path.exists(store.path_of("key-1"))
        assert not os.path.exists(store.sidecar_of("key-1"))
        assert store.stats.evictions == 2

    def test_evict_never_touches_pinned_keys(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self.put_n(store, 3)
        store.pin("key-0")
        evicted = store.evict(0)
        assert "key-0" not in evicted
        assert sorted(evicted) == ["key-1", "key-2"]
        # Still over the (zero) cap because of the pin — by design.
        assert store.get("key-0") is not None

    def test_hits_suffixed_keys_cannot_alias_sidecars(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put("k", {"v": 1})
        assert store.get("k") is not None  # writes the read stamp
        with pytest.raises(ValueError):
            store.put("k.hits", {"evil": True})
        with pytest.raises(ValueError):
            store.pin("k.hits")
        # Reading the colliding key is a plain miss and must not
        # corrupt-delete k's sidecar.
        assert store.get("k.hits") is None
        stamp = json.loads(Path(store.sidecar_of("k")).read_text())
        assert stamp["hit_count"] == 1
        assert [entry.key for entry in store.entries()] == ["k"]

    def test_evict_on_disabled_store_is_a_noop(self):
        store = ArtifactStore("off")
        assert store.evict(0) == []

    def test_gc_counters_surface_in_stage_table(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self.put_n(store, 2)
        store.get("key-0")
        store.evict(0)
        table = stage_table([], default_registry().snapshot())
        assert "artifact reads stamped" in table
        assert "artifact store bytes" in table

    def test_daemon_sweep_bounds_store_and_keeps_checkpoint(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self.put_n(store, 6, size=500)
        config = daemon_config(gc_max_bytes=1200, gc_interval=0.05)
        with start_daemon_thread(config, store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                assert client.tenant().upload([doc_text(0)])[0] == 200
                deadline = time.time() + 5
                while handle.daemon.gc_sweeps < 2 and time.time() < deadline:
                    time.sleep(0.05)
            assert handle.daemon.gc_sweeps >= 2
        slot = checkpoint_key("test", MergePolicy())
        keys = {entry.key for entry in store.entries()}
        # The junk entries were evicted under the cap; the (pinned)
        # checkpoint slot survives even though it alone may exceed it.
        assert slot in keys
        assert not any(key.startswith("key-") for key in keys)


class TestRestart:
    def test_checkpoint_restart_never_double_counts(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        texts = [doc_text(i) for i in range(24)]
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                assert client.tenant().upload(texts)[0] == 200
                first = client.tenant().snapshot()[1]

        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                status, health = client.healthz()
                assert health["checkpoint"] == "restored"
                assert health["documents"] == len(texts)
                # Replaying every upload is pure dedup: nothing folds
                # twice, and the snapshot digest is unchanged.
                status, body = client.tenant().upload(texts)
                assert status == 200
                assert body["folded"] == 0
                assert body["duplicates"] == len(texts)
                second = client.tenant().snapshot()[1]
        assert first["digest"] == second["digest"]

    def test_sigterm_checkpoints_and_subprocess_restart_resumes(
        self, tmp_path
    ):
        store_dir = str(tmp_path / "store")

        def launch():
            return launch_server(store_dir)

        proc, banner, port = launch()
        try:
            assert "checkpoint cold" in banner
            with DaemonClient("127.0.0.1", port) as client:
                texts = [doc_text(i) for i in range(6)]
                assert client.tenant().upload(texts)[0] == 200
                other = [doc_text(i, tenant="999.go/B") for i in range(4)]
                assert client.tenant("999.go/B").upload(other)[0] == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

        store = ArtifactStore(store_dir)
        slot = checkpoint_key("server", MergePolicy())
        assert store.get(slot) is not None
        # The named tenant checkpoints under its own derived slot.
        other_slot = checkpoint_key("server:999.go/B", MergePolicy())
        assert store.get(other_slot) is not None

        proc, banner, port = launch()
        try:
            # Every tenant resumes, not just the first to see traffic.
            assert "checkpoint restored" in banner
            assert "[2/2 tenant(s)]" in banner
            with DaemonClient("127.0.0.1", port) as client:
                status, health = client.healthz()
                assert health["documents"] == 10
                assert health["tenants"][f"{BENCH}/{INPUT}"] == {
                    "documents": 6, "duplicates": 0, "quarantined": 0,
                    "checkpoint": "restored",
                }
                assert health["tenants"]["999.go/B"]["documents"] == 4
                assert (health["tenants"]["999.go/B"]["checkpoint"]
                        == "restored")
                # Replaying an upload after restart is pure dedup.
                status, body = client.tenant("999.go/B").upload(
                    [doc_text(i, tenant="999.go/B") for i in range(4)]
                )
                assert status == 200
                assert body["folded"] == 0
                assert body["duplicates"] == 4
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()


class TestMultiTenant:
    """The PR-10 tentpole: many binaries behind one daemon."""

    TENANTS = (f"{BENCH}/{INPUT}", "999.go/B", "256.bzip2/C")

    def test_flat_upload_demuxes_by_stamp(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                docs = [
                    doc_text(0),                                # unstamped
                    doc_text(1, tenant="999.go/B"),
                    doc_text(2, tenant=f"{BENCH}/{INPUT}"),     # = default
                ]
                status, body = client.tenant().upload(docs)
                assert status == 200
                assert body["folded"] == 3
                assert body["tenants"] == {
                    f"{BENCH}/{INPUT}": 2, "999.go/B": 1,
                }
                # `documents` on the flat route is the cross-tenant sum.
                assert body["documents"] == 3
                status_a, snap_a = client.tenant(
                    f"{BENCH}/{INPUT}"
                ).snapshot()
                status_b, snap_b = client.tenant("999.go/B").snapshot()
                assert status_a == 200 and status_b == 200
                assert snap_a["digest"] != snap_b["digest"]
                # The flat snapshot aliases the default tenant.
                _, flat = client.request_json("GET", "/snapshot")
                assert flat["digest"] == snap_a["digest"]
                assert flat["tenant"] == f"{BENCH}/{INPUT}"

    def test_scoped_upload_quarantines_misrouted_stamps(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                gcc = client.tenant("gcc/train")
                status, body = gcc.upload([
                    doc_text(0, tenant="gcc/train"),
                    doc_text(1, tenant="999.go/B"),  # misaddressed
                    doc_text(2),                     # unstamped: pinned
                ])
                assert status == 400
                assert body["folded"] == 2
                assert body["tenant"] == "gcc/train"
                (reject,) = body["rejected"]
                assert reject["stage"] == "route"
                assert reject["tenant"] == "gcc/train"
                # The misroute never creates (or bleeds into) the
                # stamped tenant.
                _, index = client.tenants()
                assert "999.go/B" not in index["tenants"]
                assert index["tenants"]["gcc/train"]["documents"] == 2
                assert index["tenants"]["gcc/train"]["quarantined"] == 1

    def test_unroutable_stamp_quarantines_into_default(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                bad = json.loads(doc_text(0))
                bad["meta"]["benchmark"] = "no spaces allowed"
                worse = json.loads(doc_text(1))
                worse["meta"]["benchmark"] = 123
                status, body = client.tenant().upload(
                    [json.dumps(bad), json.dumps(worse)]
                )
                assert status == 400
                assert [r["stage"] for r in body["rejected"]] == [
                    "route", "route",
                ]
                assert all(r["tenant"] == f"{BENCH}/{INPUT}"
                           for r in body["rejected"])
                _, health = client.healthz()
                assert health["quarantined"] == 2

    def test_tenant_name_validation_and_reserved_segments(self, tmp_path):
        from repro.server import check_tenant_name

        assert check_tenant_name("gcc/train") is None
        assert check_tenant_name("181.mcf/A") is None
        for bad in ("", "repack", "a/profiles", "x/snapshot",
                    "a//b", "/a", "a/", "sp ace", "x" * 200):
            assert check_tenant_name(bad) is not None, bad
        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                # A reserved-suffix name can never become a tenant.
                status, body = client.tenant("bad/repack").upload(
                    [doc_text(0)]
                )
                assert status == 400
                assert "reserved" in body["error"]
                # Reads of unknown tenants are 404s, never creations.
                assert client.tenant("nope/X").snapshot()[0] == 404
                assert client.tenant("nope/X").repack()[0] == 404
                assert client.request("GET", "/tenants/nope/X/")[0] == 404
                _, index = client.tenants()
                assert list(index["tenants"]) == [f"{BENCH}/{INPUT}"]

    def test_concurrent_multi_tenant_hammer(self, tmp_path):
        """N uploader threads × T interleaved tenants on one daemon.

        The acceptance bar: per-tenant wire snapshots digest-equal to
        per-tenant local streaming merges (no cross-tenant bleed),
        while snapshots and dashboards render concurrently.
        """
        from repro.service import IncrementalAggregator

        store = ArtifactStore(str(tmp_path / "store"))
        per_tenant = {
            name: [doc_text(i, tenant=name) for i in range(64)]
            for name in self.TENANTS
        }
        interleaved = []
        for i in range(64):
            for name in self.TENANTS:
                interleaved.append(per_tenant[name][i])
        n_uploaders = 4
        shards = [interleaved[k::n_uploaders] for k in range(n_uploaders)]
        failures = []
        done = threading.Event()

        with start_daemon_thread(daemon_config(), store=store) as handle:

            def upload(shard):
                try:
                    with DaemonClient.for_daemon(handle) as client:
                        flat = client.tenant()
                        for start in range(0, len(shard), 8):
                            status, _ = flat.upload(shard[start:start + 8])
                            if status != 200:
                                failures.append(("upload", status))
                except Exception as exc:  # noqa: BLE001 - recorded
                    failures.append(("upload", repr(exc)))

            def watch():
                with DaemonClient.for_daemon(handle) as client:
                    while not done.is_set():
                        status, _ = client.tenant(
                            self.TENANTS[1]
                        ).snapshot()
                        if status not in (200, 404):
                            failures.append(("snapshot", status))
                        status, _ = client.request("GET", "/")
                        if status != 200:
                            failures.append(("dashboard", status))

            uploaders = [
                threading.Thread(target=upload, args=(shard,))
                for shard in shards
            ]
            watcher = threading.Thread(target=watch)
            for thread in uploaders:
                thread.start()
            watcher.start()
            for thread in uploaders:
                thread.join(timeout=300)
            done.set()
            watcher.join(timeout=30)
            assert not any(t.is_alive() for t in uploaders + [watcher])
            assert failures == []

            with DaemonClient.for_daemon(handle) as client:
                for name in self.TENANTS:
                    status, snap = client.tenant(name).snapshot()
                    assert status == 200
                    local = IncrementalAggregator(MergePolicy())
                    for text in per_tenant[name]:
                        assert local.ingest_text(text)
                    fleet = local.snapshot()
                    assert snap["digest"] == fleet.digest()
                    wire = FleetProfile.from_dict(snap["fleet"])
                    assert equivalence_diffs(
                        fleet, wire, WIRE_CONTRACT
                    ) == []
                _, health = client.healthz()
                assert health["documents"] == 64 * len(self.TENANTS)

    def test_named_tenant_repack_packs_its_own_benchmark(self, tmp_path):
        profiles = tmp_path / "profiles"
        store = ArtifactStore(str(tmp_path / "store"))
        simulate_fleet("099.go", "A", runs=4, out_dir=str(profiles),
                       base_seed=0, epochs=1, scale=SCALE)
        texts = [p.read_text() for p in sorted(profiles.glob("*.json"))]
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                # simulate_fleet stamps meta.benchmark, so the flat
                # route demuxes these into the 099.go/A tenant.
                status, body = client.tenant().upload(texts)
                assert status == 200
                assert body["tenants"] == {"099.go/A": len(texts)}
                status, repack = client.tenant("099.go/A").repack()
                assert status == 200
                assert repack["tenant"] == "099.go/A"
                snap = client.tenant("099.go/A").snapshot()[1]
                fleet = FleetProfile.from_dict(snap["fleet"])
                local = pack_fleet(
                    fleet,
                    FarmConfig(benchmark="099.go", input_name="A",
                               scale=SCALE, pipeline=None, shard_size=1),
                    store=ArtifactStore(str(tmp_path / "local")),
                )
                assert [o.payload for o in local.outcomes] == [
                    json.loads(client.artifact(key)[1])
                    for key in repack["artifacts"]
                ]
                # The per-tenant dashboard shows that repack.
                _, page = client.tenant("099.go/A").dashboard()
                assert f"/artifacts/{repack['artifacts'][0]}" in page

    def test_thread_restart_resumes_every_tenant(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        second = "999.go/B"
        texts_a = [doc_text(i) for i in range(8)]
        texts_b = [doc_text(i, tenant=second) for i in range(5)]
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                assert client.tenant().upload(texts_a)[0] == 200
                assert client.tenant(second).upload(texts_b)[0] == 200
                first_a = client.tenant().snapshot()[1]["digest"]
                first_b = client.tenant(second).snapshot()[1]["digest"]

        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                _, health = client.healthz()
                # Both resumed eagerly (tenant directory), not only
                # the first to see traffic.
                for name in (f"{BENCH}/{INPUT}", second):
                    assert health["tenants"][name]["checkpoint"] == \
                        "restored"
                # Replaying an upload is pure dedup per tenant.
                body = client.tenant(second).upload(texts_b)[1]
                assert body["folded"] == 0
                assert body["duplicates"] == len(texts_b)
                assert client.tenant().snapshot()[1]["digest"] == first_a
                assert client.tenant(second).snapshot()[1]["digest"] \
                    == first_b

    def test_gc_never_evicts_any_tenant_checkpoint_slot(self, tmp_path):
        from repro.server import tenant_directory_key

        store = ArtifactStore(str(tmp_path / "store"))
        for i in range(6):
            store.put(f"key-{i}", {"index": i, "pad": "x" * 500})
        config = daemon_config(gc_max_bytes=1, gc_interval=0.05)
        with start_daemon_thread(config, store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                assert client.tenant().upload([doc_text(0)])[0] == 200
                assert client.tenant("999.go/B").upload(
                    [doc_text(1, tenant="999.go/B")]
                )[0] == 200
                deadline = time.time() + 5
                while (handle.daemon.gc_sweeps < 2
                       and time.time() < deadline):
                    time.sleep(0.05)
            assert handle.daemon.gc_sweeps >= 2
        keys = {entry.key for entry in store.entries()}
        # Under an impossible 1-byte budget every unpinned artifact is
        # gone, yet every tenant's checkpoint slot and the tenant
        # directory survive — pinned state is never GC fodder.
        assert checkpoint_key("test", MergePolicy()) in keys
        assert checkpoint_key("test:999.go/B", MergePolicy()) in keys
        assert tenant_directory_key("test") in keys
        assert not any(key.startswith("key-") for key in keys)


DEFAULT = f"{BENCH}/{INPUT}"
OTHER = "999.go/B"


def http_states(client):
    """``{tenant: (documents, duplicates, quarantined, digest)}`` of a
    live daemon; the digest is ``None`` before a tenant's first fold."""
    status, health = client.healthz()
    assert status == 200
    states = {}
    for name, counters in health["tenants"].items():
        status, snap = client.tenant(name).snapshot()
        states[name] = (
            counters["documents"], counters["duplicates"],
            counters["quarantined"], snap["digest"] if status == 200 else None,
        )
    return states


def reference_states(posts):
    """What a daemon that never crashed holds after ``posts`` — the
    same per-line routing an upload does, with no store at all."""
    daemon = ProfileDaemon(daemon_config(), store=ArtifactStore("off"))
    for scope, lines in posts:
        pinned = daemon.registry.get(scope) if scope else None
        for line in lines:
            daemon.route_text(line, pinned=pinned)
    states = {}
    for tenant in daemon.registry.tenants():
        counters = tenant.counters()
        try:
            digest = tenant.snapshot().digest()
        except ServiceError:
            digest = None
        states[tenant.name] = (
            counters["documents"], counters["duplicates"],
            counters["quarantined"], digest,
        )
    return states


def post_all(client, posts):
    """Upload every ``(scope, lines)`` post; each must be acknowledged."""
    bodies = []
    for scope, lines in posts:
        status, body = client.tenant(scope).upload(lines)
        assert status in (200, 400), (status, body)
        assert "truncated" not in body
        bodies.append(body)
    return bodies


def abandon(handle):
    """The in-process crash model: stop the daemon without the final
    checkpoint its shutdown path would write."""
    handle.daemon.checkpoint = lambda *args, **kwargs: False
    handle.stop()


#: Two tenants' uploads with replays and a quarantined line, plus a
#: third tenant that only ever receives quarantined lines.
CRASH_POSTS = [
    (None, [doc_text(0), doc_text(1, tenant=OTHER), "not json"]),
    (OTHER, [doc_text(2, tenant=OTHER), doc_text(1, tenant=OTHER)]),
    (None, [doc_text(0), doc_text(3)]),
    ("gcc/train", ["{broken", '{"format": "wrong"}']),
    (OTHER, [doc_text(4, tenant=OTHER), doc_text(5, tenant=DEFAULT)]),
    (None, [doc_text(6), doc_text(7, tenant=OTHER), doc_text(3)]),
    (None, [doc_text(8)]),
]


class TestCrashDurability:
    """An acknowledged line survives any crash, counted exactly once."""

    def test_kill_9_loses_no_acknowledged_line(self, tmp_path):
        store_dir = str(tmp_path / "store")
        proc, banner, port = launch_server(store_dir)
        try:
            with DaemonClient("127.0.0.1", port) as client:
                post_all(client, CRASH_POSTS)
            # SIGKILL right after the last acknowledged POST: no
            # drain, no final checkpoint.
            proc.kill()
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

        proc, banner, port = launch_server(store_dir)
        try:
            assert "[3/3 tenant(s)]" in banner, banner
            with DaemonClient("127.0.0.1", port) as client:
                _, health = client.healthz()
                assert {name: counters["checkpoint"]
                        for name, counters in health["tenants"].items()} \
                    == dict.fromkeys((DEFAULT, OTHER, "gcc/train"),
                                     "restored")
                assert http_states(client) == reference_states(CRASH_POSTS)
                # Re-POSTing everything folds nothing.
                assert [body["folded"]
                        for body in post_all(client, CRASH_POSTS)] \
                    == [0] * len(CRASH_POSTS)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_crash_point_equals_a_daemon_that_never_crashed(
        self, data
    ):
        line = st.one_of(
            st.builds(doc_text, st.integers(0, 5)),
            st.builds(lambda i: doc_text(i, tenant=OTHER),
                      st.integers(0, 5)),
            st.builds(lambda i: doc_text(i, tenant=DEFAULT),
                      st.integers(0, 5)),
            st.sampled_from(["not json", '{"format": "wrong"}']),
        )
        posts = data.draw(st.lists(
            st.tuples(st.sampled_from([None, OTHER]),
                      st.lists(line, min_size=1, max_size=4)),
            min_size=1, max_size=6,
        ))
        crash = data.draw(st.integers(0, len(posts)))
        # Also crash between a durable checkpoint and the deletion of
        # the log segments it covers: replay must skip their records.
        keep_covered = data.draw(st.booleans())
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(os.path.join(root, "store"))
            handle = start_daemon_thread(daemon_config(), store=store)
            with mock.patch.object(
                WriteAheadLog, "drop_before",
                (lambda self, segment: None) if keep_covered
                else WriteAheadLog.drop_before,
            ), DaemonClient.for_daemon(handle) as client:
                post_all(client, posts[:crash])
            abandon(handle)
            with start_daemon_thread(daemon_config(), store=store) as handle:
                with DaemonClient.for_daemon(handle) as client:
                    assert http_states(client) == \
                        reference_states(posts[:crash])
                    post_all(client, posts[crash:])
                    assert http_states(client) == reference_states(posts)

    def test_torn_tail_is_dropped_counted_and_served(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        handle = start_daemon_thread(daemon_config(), store=store)
        with DaemonClient.for_daemon(handle) as client:
            post_all(client, CRASH_POSTS)
        abandon(handle)
        # Cut the default tenant's newest record (the last POST's only
        # line) mid-record, as a crash during its append would.
        directory = wal_dir(store.root, checkpoint_key("test", MergePolicy()))
        segment = os.path.join(directory, sorted(os.listdir(directory))[-1])
        data = Path(segment).read_bytes()
        assert data.endswith(b"\n") and doc_text(8).encode() in data
        os.truncate(segment, len(data) - 20)

        registry = default_registry()
        torn = registry.counter("service.agg.wal.torn")
        with start_daemon_thread(daemon_config(), store=store) as handle:
            assert registry.counter("service.agg.wal.torn") == torn + 1
            with DaemonClient.for_daemon(handle) as client:
                assert http_states(client) == \
                    reference_states(CRASH_POSTS[:-1])
                status, metrics = client.metrics()
                table = stage_table([], metrics["metrics"])
                assert "torn WAL records" in table
                # The dropped line was never acknowledged; re-sent, it
                # folds.
                status, body = client.tenant().upload([doc_text(8)])
                assert status == 200 and body["folded"] == 1
                assert http_states(client) == reference_states(CRASH_POSTS)

    def test_concurrent_uploads_racing_checkpoints_survive_a_crash(
        self, tmp_path
    ):
        tenants = (DEFAULT, OTHER, "256.bzip2/C")
        per_tenant = {name: [doc_text(i, tenant=name) for i in range(36)]
                      for name in tenants}
        interleaved = [per_tenant[name][i]
                       for i in range(36) for name in tenants]
        shards = [interleaved[k::4] for k in range(4)]
        store = ArtifactStore(str(tmp_path / "store"))
        # The GC tick checkpoints dirty tenants while uploads append.
        config = daemon_config(gc_max_bytes=10 ** 9, gc_interval=0.01)
        failures = []
        deadline = time.monotonic() + 120
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            handle = start_daemon_thread(config, store=store)

            def upload(shard):
                try:
                    with DaemonClient.for_daemon(handle) as client:
                        cursor = 0
                        while cursor < len(shard):
                            if time.monotonic() > deadline:
                                failures.append("deadline")
                                return
                            size = 1 + cursor % 4
                            status, _ = client.tenant().upload(
                                shard[cursor:cursor + size]
                            )
                            if status != 200:
                                failures.append(status)
                            cursor += size
                except Exception as exc:  # noqa: BLE001 - recorded
                    failures.append(repr(exc))

            threads = [threading.Thread(target=upload, args=(shard,))
                       for shard in shards]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150)
            assert not any(thread.is_alive() for thread in threads)
            abandon(handle)
        finally:
            sys.setswitchinterval(previous)
        assert failures == []
        assert handle.daemon.checkpoints > 0

        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                for name in tenants:
                    status, snap = client.tenant(name).snapshot()
                    assert status == 200
                    wire = FleetProfile.from_dict(snap["fleet"])
                    assert wire.runs == 36
                    assert equivalence_diffs(
                        merge_runs(runs_of(per_tenant[name])), wire,
                        WIRE_CONTRACT,
                    ) == []

    def test_not_durable_upload_is_a_503(self, tmp_path, monkeypatch):
        from repro.service import artifacts

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        store = ArtifactStore(str(tmp_path / "store"))
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                monkeypatch.setattr(WriteAheadLog, "append", disk_full)
                # A failed append falls back to a full checkpoint...
                status, body = client.tenant().upload([doc_text(0)])
                assert status == 200 and body["folded"] == 1
                # ...and when that fails too, nothing is acknowledged.
                monkeypatch.setattr(artifacts, "atomic_write", disk_full)
                registry = default_registry()
                before = registry.counter("server.ingest.not_durable")
                status, body = client.tenant().upload([doc_text(1)])
                assert status == 503
                assert "durable" in body["error"] and body["hint"]
                assert registry.counter("server.ingest.not_durable") == \
                    before + 1
                monkeypatch.undo()
                # The disk is back: the retry is acknowledged.
                status, body = client.tenant().upload([doc_text(1)])
                assert status == 200 and body["duplicates"] == 1
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                _, health = client.healthz()
                assert health["documents"] == 2

    def test_gc_tick_and_repack_write_no_needless_checkpoint(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        config = daemon_config(gc_max_bytes=10 ** 9, gc_interval=0.02)
        with start_daemon_thread(config, store=store) as handle:
            daemon = handle.daemon
            with DaemonClient.for_daemon(handle) as client:
                post_all(client, CRASH_POSTS)
                deadline = time.time() + 5
                while any(t.dirty for t in daemon.registry.tenants()) \
                        and time.time() < deadline:
                    time.sleep(0.02)
                assert not any(t.dirty for t in daemon.registry.tenants())
                written, sweeps = daemon.checkpoints, daemon.gc_sweeps
                while daemon.gc_sweeps < sweeps + 3 \
                        and time.time() < deadline:
                    time.sleep(0.02)
                _, health = client.healthz()
                wal = health["wal"][DEFAULT]
                assert wal["checkpoint_position"] == wal["position"] > 0
                # Idle sweeps and a repack leave the checkpoints alone.
                assert client.tenant().repack()[0] == 200
                assert daemon.checkpoints == written
                _, page = client.tenant(DEFAULT).dashboard()
                assert "WAL bytes" in page and "checkpoint position" in page

    def test_pre_wal_checkpoint_restores_with_an_empty_log(self, tmp_path):
        from repro.service import IncrementalAggregator

        store = ArtifactStore(str(tmp_path / "store"))
        agg = IncrementalAggregator(MergePolicy())
        for i in range(3):
            assert agg.ingest_text(doc_text(i))
        state = agg.to_state()
        # The checkpoint payload as written before the WAL existed.
        assert store.put(checkpoint_key("test", MergePolicy()), {
            "kind": "aggregator-checkpoint",
            "agg_version": AGGREGATOR_STATE_VERSION,
            "state_digest": agg.state_digest(state),
            "state": state,
        })
        with start_daemon_thread(daemon_config(), store=store) as handle:
            with DaemonClient.for_daemon(handle) as client:
                _, health = client.healthz()
                assert health["tenants"][DEFAULT]["documents"] == 3
                assert health["tenants"][DEFAULT]["checkpoint"] == "restored"
                assert health["wal"][DEFAULT] == {
                    "bytes": 0, "position": 0, "checkpoint_position": 0,
                }
                assert client.tenant().upload([doc_text(0)])[1][
                    "duplicates"] == 1


class TestCliSurface:
    def _server_args(self, *argv):
        from repro.cli import build_parser

        args = build_parser().parse_args(list(argv))
        args.pipeline = None
        return args

    def test_server_flags_build_the_config(self):
        from repro.cli import _server_config_from_args

        args = self._server_args("server", "--bench", "181.mcf/A")
        config = _server_config_from_args(args)
        assert (config.host, config.port) == ("127.0.0.1", 8080)
        assert config.benchmark == "181.mcf"
        assert config.shard_size == 1 and config.store is None
        assert config.tag == "server"

    def test_server_profiles_flag_sets_profiles_dir(self):
        from repro.cli import _server_config_from_args, build_parser

        args = self._server_args(
            "server", "--bench", "181.mcf/A", "--profiles", "p",
            "--listen", "0.0.0.0:0",
        )
        config = _server_config_from_args(args)
        assert (config.host, config.port) == ("0.0.0.0", 0)
        assert config.profiles_dir == "p"
        # `repro server` is the only way to run the daemon.
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "serve", "--bench", "181.mcf/A", "--profiles", "p",
                "--listen", "0.0.0.0:0",
            ])

    def test_server_config_file_with_flag_overrides(self, tmp_path):
        from repro.cli import _server_config_from_args

        path = tmp_path / "server.json"
        base = ServerConfig(
            benchmark=BENCH, input_name=INPUT, port=7777, scale=SCALE,
            tag="filed", gc_max_bytes=4096,
        )
        path.write_text(json.dumps(base.to_dict()))
        args = self._server_args(
            "server", "--config", str(path), "--listen", "127.0.0.1:0",
        )
        config = _server_config_from_args(args)
        # File values survive where no flag overrides them...
        assert config.benchmark == BENCH
        assert config.tag == "filed"
        assert config.gc_max_bytes == 4096
        assert config.scale == SCALE
        # ...and explicit flags win.
        assert config.port == 0
        # The embedded pipeline section normalizes to a full document.
        from repro.api import PipelineConfig

        assert PipelineConfig.from_dict(config.pipeline)

    def test_server_config_file_unknown_keys_are_a_typed_error(
        self, tmp_path
    ):
        from repro.cli import _server_config_from_args

        path = tmp_path / "server.json"
        path.write_text(json.dumps({"benchmark": BENCH, "bogus": 1}))
        args = self._server_args("server", "--config", str(path))
        with pytest.raises(SystemExit, match="unknown key"):
            _server_config_from_args(args)
        with pytest.raises(ValueError, match="unknown key"):
            ServerConfig.from_dict({"benchmark": BENCH, "bogus": 1})

    def test_server_requires_bench_or_config(self):
        from repro.cli import _server_config_from_args

        with pytest.raises(SystemExit, match="--bench"):
            _server_config_from_args(self._server_args("server"))

    def test_parse_listen_rejects_garbage(self):
        from repro.cli import _parse_listen

        assert _parse_listen("127.0.0.1:8080") == ("127.0.0.1", 8080)
        with pytest.raises(SystemExit):
            _parse_listen("8080")
        with pytest.raises(SystemExit):
            _parse_listen("host:port")
