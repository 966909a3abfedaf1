"""Fleet profile service: aggregation, artifact store, packing farm."""

import json
import os

import pytest

from repro.errors import ProfileError, ReproError, ServiceError
from repro.hsd.records import BranchProfile, HotSpotRecord
from repro.hsd.serialize import ProfileFormatError, save_profile, make_provenance
from repro.service import (
    ArtifactStore,
    FarmConfig,
    MergePolicy,
    ClientRun,
    ingest_dir,
    ingest_paths,
    merge_runs,
    pack_fleet,
)
from repro.service.clients import simulate_fleet


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


def client(run_id, records, epoch=0, seed=None):
    return ClientRun(
        run_id=run_id, seed=seed, epoch=epoch, path="", records=records
    )


class TestMerge:
    def test_same_hot_spot_clusters_across_runs(self):
        record = {0x10: (100, 90), 0x18: (80, 10)}
        runs = [client(f"r{i}", [rec(0, record)]) for i in range(3)]
        fleet = merge_runs(runs)
        assert len(fleet.phases) == 1
        phase = fleet.phases[0]
        assert phase.provenance.run_ids == ["r0", "r1", "r2"]
        assert phase.provenance.detections == 3
        assert phase.provenance.agreement == pytest.approx(1.0)

    def test_dissimilar_records_stay_separate_phases(self):
        runs = [
            client("r0", [rec(0, {0x10: (100, 90)})]),
            client("r1", [rec(0, {0x99: (100, 90)})]),
        ]
        fleet = merge_runs(runs)
        assert len(fleet.phases) == 2

    def test_execution_weighted_counter_averaging(self):
        # Weight = each record's total executed count: the heavy run
        # (400) pulls the consensus 4x harder than the light one (100).
        runs = [
            client("light", [rec(0, {0x10: (100, 90)})]),
            client("heavy", [rec(0, {0x10: (400, 320)})]),
        ]
        (phase,) = merge_runs(runs).phases
        merged = phase.record.branches[0x10]
        assert merged.executed == round((100 * 100 + 400 * 400) / 500)
        assert merged.taken == round((100 * 90 + 400 * 320) / 500)

    def test_branch_quorum_drops_minority_branches(self):
        shared = {0x10: (100, 90), 0x18: (100, 20),
                  0x20: (100, 80), 0x28: (100, 50)}
        outlier = dict(shared)
        # Only 1 of 3 contributors saw it — and 1-of-5 missing stays
        # under the 30% similarity rule, so the record still clusters.
        outlier[0x80] = (50, 45)
        runs = [
            client("r0", [rec(0, shared)]),
            client("r1", [rec(0, shared)]),
            client("r2", [rec(0, outlier)]),
        ]
        (phase,) = merge_runs(runs).phases
        assert set(phase.record.branches) == set(shared)
        assert 0x80 not in phase.record.branches

    def test_min_runs_quorum_drops_lonely_phases(self):
        runs = [
            client("r0", [rec(0, {0x10: (100, 90)})]),
            client("r1", [rec(0, {0x10: (100, 90)})]),
            client("r2", [rec(1, {0x99: (100, 90)})]),
        ]
        fleet = merge_runs(runs, MergePolicy(min_runs=2))
        assert len(fleet.phases) == 1
        assert 0x10 in fleet.phases[0].record.branches

    def test_provenance_epochs_and_staleness(self):
        runs = [
            client("r0", [rec(0, {0x10: (100, 90)})], epoch=1),
            client("r1", [rec(0, {0x10: (100, 90)})], epoch=3),
            client("r2", [rec(0, {0x99: (100, 90)})], epoch=7),
        ]
        fleet = merge_runs(runs)
        assert fleet.max_epoch == 7
        stale, fresh = fleet.phases
        assert (stale.provenance.first_epoch, stale.provenance.last_epoch) == (1, 3)
        assert stale.provenance.staleness == 4
        assert fresh.provenance.staleness == 0

    def test_merge_without_usable_runs_raises_typed_error(self):
        with pytest.raises(ServiceError):
            merge_runs([])

    def test_digest_is_deterministic_and_content_sensitive(self):
        runs = [client("r0", [rec(0, {0x10: (100, 90)})])]
        assert merge_runs(runs).digest() == merge_runs(runs).digest()
        heavier = [client("r0", [rec(0, {0x10: (200, 180)})])]
        assert merge_runs(runs).digest() != merge_runs(heavier).digest()


class TestIngest:
    def write_good(self, path, run_id, epoch=0):
        save_profile(
            path,
            [rec(0, {0x10: (100, 90)})],
            meta={"provenance": make_provenance(run_id, seed=1, epoch=epoch)},
        )

    def test_corrupt_documents_are_quarantined_not_raised(self, tmp_path):
        self.write_good(tmp_path / "good-b.json", "run-b")
        self.write_good(tmp_path / "good-a.json", "run-a")
        (tmp_path / "truncated.json").write_text('{"format": "vacuum-pack')
        (tmp_path / "stale.json").write_text(
            json.dumps({"format": "vacuum-packing-profile", "version": 99})
        )
        (tmp_path / "no-records.json").write_text(
            json.dumps({"format": "vacuum-packing-profile", "version": 2})
        )
        result = ingest_dir(tmp_path)
        assert [run.run_id for run in result.runs] == ["run-a", "run-b"]
        assert len(result.rejected) == 3
        assert all(
            r.exception_type == "ProfileFormatError" for r in result.rejected
        )
        assert all(r.hint for r in result.rejected)

    def test_v1_document_ingests_with_default_epoch(self, tmp_path):
        document = {
            "format": "vacuum-packing-profile",
            "version": 1,
            "meta": {},
            "records": [
                {"index": 0, "detected_at_branch": 0,
                 "branches": [{"address": 16, "executed": 10, "taken": 9}]}
            ],
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(document))
        (run,) = ingest_paths([path]).runs
        assert run.epoch == 0
        assert run.run_id == "v1"  # falls back to the file stem
        assert run.records[0].branches[16].taken == 9

    def test_missing_directory_is_a_service_error(self, tmp_path):
        with pytest.raises(ServiceError) as info:
            ingest_dir(tmp_path / "nope")
        assert isinstance(info.value, ReproError)


class TestStalenessEdges:
    def test_reobservation_at_fleet_max_epoch_resets_staleness(self):
        # A phase last corroborated at the fleet's newest epoch is
        # fresh, no matter how long ago it was first seen.
        runs = [
            client("r0", [rec(0, {0x10: (100, 90)})], epoch=1),
            client("r1", [rec(0, {0x10: (100, 90)})], epoch=5),
            client("r2", [rec(1, {0x99: (100, 90)})], epoch=5),
        ]
        fleet = merge_runs(runs)
        assert fleet.max_epoch == 5
        phase = next(
            p for p in fleet.phases if 0x10 in p.record.branches
        )
        assert phase.provenance.first_epoch == 1
        assert phase.provenance.last_epoch == 5
        assert phase.provenance.staleness == 0

    def test_epoch_window_ages_out_old_runs(self):
        old = client("old", [rec(0, {0x10: (100, 90)})], epoch=0)
        new = client("new", [rec(1, {0x99: (100, 90)})], epoch=10)
        fleet = merge_runs([old, new], MergePolicy(epoch_window=2))
        assert fleet.aged_out == 1
        (phase,) = fleet.phases
        assert 0x99 in phase.record.branches

    def test_replayed_ingest_does_not_resurrect_aged_out_phase(self):
        # The same stale document arriving twice (an upload replay)
        # must not out-vote the window: aged-out is decided purely by
        # epoch, not by how many copies showed up.
        old = client("old", [rec(0, {0x10: (100, 90)})], epoch=0)
        replay = client("old-again", [rec(0, {0x10: (100, 90)})], epoch=0)
        new = client("new", [rec(1, {0x99: (100, 90)})], epoch=10)
        fleet = merge_runs([old, replay, new], MergePolicy(epoch_window=2))
        assert fleet.aged_out == 2
        assert all(
            0x10 not in p.record.branches for p in fleet.phases
        )

    def test_max_epoch_skew_clamps_a_runaway_clock(self):
        from repro import obs

        honest = [
            client(f"r{i}", [rec(0, {0x10: (100, 90)})], epoch=i)
            for i in range(3)
        ]
        skewed = client("skewed", [rec(1, {0x99: (100, 90)})],
                        epoch=10_000)
        policy = MergePolicy(epoch_window=4, max_epoch_skew=2)
        before = obs.default_registry().counter(
            "service.merge.epoch_clamped"
        )
        fleet = merge_runs(honest + [skewed], policy)
        # Ceiling = median honest epoch (1) + skew (2): one bad clock
        # cannot define the fleet max epoch and age everyone else out.
        assert fleet.max_epoch == 3
        assert fleet.aged_out == 0
        assert len(fleet.phases) == 2
        assert obs.default_registry().counter(
            "service.merge.epoch_clamped"
        ) == before + 1

    def test_aged_out_phase_that_recurs_gets_a_fresh_cluster(self):
        # Streaming decay semantics: once every contribution to a
        # cluster has aged out of the epoch window, the cluster goes
        # dormant — a later recurrence of the same hot spot founds a
        # *fresh* cluster whose epoch bounds start at the recurrence,
        # not at the long-dead sightings.
        from repro.service import IncrementalAggregator

        policy = MergePolicy(epoch_window=2)
        agg = IncrementalAggregator(policy)
        shape = {0x10: (100, 90), 0x18: (80, 10)}
        agg.ingest_run(client("old", [rec(0, shape)], epoch=0))
        agg.ingest_run(client("new", [rec(0, {0x99: (100, 90)})], epoch=10))
        fleet = agg.snapshot()
        assert fleet.aged_out == 1
        assert all(0x10 not in p.record.branches for p in fleet.phases)

        agg.ingest_run(client("recur", [rec(0, shape)], epoch=10))
        fleet = agg.snapshot()
        phase = next(
            p for p in fleet.phases if 0x10 in p.record.branches
        )
        # Fresh provenance: only the recurrence contributes.
        assert phase.provenance.run_ids == ["recur"]
        assert phase.provenance.first_epoch == 10
        assert phase.provenance.last_epoch == 10
        assert phase.provenance.staleness == 0
        # And the batch aggregator agrees on the final state.
        batch = merge_runs([
            client("old", [rec(0, shape)], epoch=0),
            client("new", [rec(0, {0x99: (100, 90)})], epoch=10),
            client("recur", [rec(0, shape)], epoch=10),
        ], policy)
        from repro.service import profiles_equivalent
        assert profiles_equivalent(fleet, batch)

    def test_skew_clamp_interacts_with_aging_order_invariantly(self):
        # A runaway clock must not age the honest fleet out — and that
        # must hold no matter whether the skewed document arrives
        # first or last.  The clamp ceiling (median + skew) and the
        # window are both evaluated lazily at snapshot time, so an
        # early skewed arrival cannot define a transient max epoch
        # that permanently evicts honest runs.
        import itertools

        from repro.service import IncrementalAggregator, equivalence_diffs

        policy = MergePolicy(epoch_window=4, max_epoch_skew=2)
        honest = [
            client(f"r{i}", [rec(0, {0x10: (100, 90)})], epoch=i)
            for i in range(3)
        ]
        skewed = client("skewed", [rec(1, {0x99: (100, 90)})],
                        epoch=10_000)
        batch = merge_runs(honest + [skewed], policy)
        assert batch.max_epoch == 3  # median 1 + skew 2
        assert batch.aged_out == 0
        for order in itertools.permutations(honest + [skewed]):
            agg = IncrementalAggregator(policy)
            for run in order:
                agg.ingest_run(run)
            snap = agg.snapshot()
            assert snap.max_epoch == 3
            assert snap.aged_out == 0
            assert not equivalence_diffs(batch, snap)

    def test_skewed_clock_cannot_age_itself_into_a_fresh_cluster(self):
        # The clamp caps the skewed run's *effective* epoch at the
        # ceiling, so it stays inside the window (aging uses clamped
        # epochs, not raw ones) — streaming and batch agree.
        from repro.service import IncrementalAggregator, profiles_equivalent

        policy = MergePolicy(epoch_window=1, max_epoch_skew=1)
        runs = [
            client("r0", [rec(0, {0x10: (100, 90)})], epoch=2),
            client("r1", [rec(0, {0x10: (100, 90)})], epoch=2),
            client("skewed", [rec(1, {0x99: (100, 90)})], epoch=50),
        ]
        batch = merge_runs(runs, policy)
        # Ceiling = median (2) + skew (1) = 3: the skewed run lands at
        # effective epoch 3, max epoch 3, window covers 2..3 — nobody
        # ages out, and the skewed phase reports the clamped epoch.
        assert batch.aged_out == 0
        skew_phase = next(
            p for p in batch.phases if 0x99 in p.record.branches
        )
        assert skew_phase.provenance.last_epoch == 3
        agg = IncrementalAggregator(policy)
        for run in reversed(runs):  # skewed-first arrival order
            agg.ingest_run(run)
        assert profiles_equivalent(agg.snapshot(), batch)

    def test_window_and_skew_participate_in_the_policy_fingerprint(self):
        plain = MergePolicy().fingerprint()
        windowed = MergePolicy(epoch_window=2).fingerprint()
        skewed = MergePolicy(max_epoch_skew=2).fingerprint()
        assert len({plain, windowed, skewed}) == 3

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            MergePolicy(epoch_window=-1)
        with pytest.raises(ValueError):
            MergePolicy(max_epoch_skew=-1)


class TestServiceCounters:
    def test_ingest_quarantine_counts_by_exception_type_and_stage(
        self, tmp_path
    ):
        from repro import obs

        (tmp_path / "bad.json").write_text('{"format": "vacuum-pack')
        before = obs.default_registry().counter(
            "service.ingest.quarantined",
            exception_type="ProfileFormatError", stage="parse",
        )
        result = ingest_dir(tmp_path)
        assert len(result.rejected) == 1
        assert result.rejected[0].stage == "parse"
        assert "[ProfileFormatError/parse]" in result.rejected[0].render()
        assert obs.default_registry().counter(
            "service.ingest.quarantined",
            exception_type="ProfileFormatError", stage="parse",
        ) == before + 1

    def test_quarantine_counts_only_after_provenance_validation(
        self, tmp_path
    ):
        # The document parses and its stamp is a JSON object, but the
        # stamp itself is unusable: the counter must attribute the
        # failure to the provenance stage (and fire exactly once,
        # after all validation) instead of mislabeling it as a parse
        # failure on the way in.
        from repro import obs

        document = {
            "format": "vacuum-packing-profile",
            "version": 2,
            "meta": {"provenance": {
                "run_id": "r0", "seed": 1, "epoch": "not-an-epoch",
            }},
            "records": [],
        }
        (tmp_path / "bad-stamp.json").write_text(json.dumps(document))
        registry = obs.default_registry()
        before_prov = registry.counter(
            "service.ingest.quarantined",
            exception_type="ProfileFormatError", stage="provenance",
        )
        before_parse = registry.counter(
            "service.ingest.quarantined",
            exception_type="ProfileFormatError", stage="parse",
        )
        result = ingest_dir(tmp_path)
        assert not result.runs
        assert len(result.rejected) == 1
        assert result.rejected[0].stage == "provenance"
        assert registry.counter(
            "service.ingest.quarantined",
            exception_type="ProfileFormatError", stage="provenance",
        ) == before_prov + 1
        assert registry.counter(
            "service.ingest.quarantined",
            exception_type="ProfileFormatError", stage="parse",
        ) == before_parse

    def test_unreadable_file_is_attributed_to_the_read_stage(
        self, tmp_path
    ):
        result = ingest_paths([tmp_path / "missing.json"])
        assert len(result.rejected) == 1
        assert result.rejected[0].stage == "read"
        assert result.rejected[0].exception_type == "FileNotFoundError"

    def test_corrupt_artifact_is_counted_and_rewritable(self, tmp_path):
        from repro import obs

        store = ArtifactStore(root=str(tmp_path))
        payload = {"packages": [{"name": "pkg0"}], "coverage": 0.5}
        key = "k" * 40
        assert store.put(key, payload)
        path = store.path_of(key)
        with open(path, "rb") as handle:
            body = handle.read()
        with open(path, "wb") as handle:
            handle.write(body[: len(body) // 2])

        before = obs.default_registry().counter("service.artifacts.corrupt")
        assert store.get(key) is None  # detected, deleted, counted
        assert not os.path.exists(path)
        assert obs.default_registry().counter(
            "service.artifacts.corrupt"
        ) == before + 1
        # The slot is clean again: a rewrite round-trips bit-exact.
        assert store.put(key, payload)
        assert store.get(key) == payload


class TestProfileFormatErrorHierarchy:
    def test_reparented_onto_typed_errors(self):
        error = ProfileFormatError("boom")
        assert isinstance(error, ProfileError)
        assert isinstance(error, ReproError)
        assert error.hint  # carries the remediation hint machinery
        assert error.phase is None


class TestArtifactStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ArtifactStore(root=str(tmp_path))
        payload = {"packages": [{"name": "pkg0"}], "coverage": 0.5}
        assert store.get("k" * 40) is None
        assert store.stats.misses == 1
        assert store.put("k" * 40, payload)
        assert store.get("k" * 40) == payload
        assert store.stats.hits == 1
        assert store.stats.puts == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(root=str(tmp_path))
        store.put("k" * 40, {"a": 1})
        path = store.path_of("k" * 40)
        with open(path, "w") as handle:
            handle.write("{not json")
        assert store.get("k" * 40) is None
        assert store.stats.errors == 1
        assert not os.path.exists(path)

    def test_misnamed_entry_is_never_trusted(self, tmp_path):
        """An entry copied under the wrong key fails its stamp check."""
        store = ArtifactStore(root=str(tmp_path))
        store.put("a" * 40, {"a": 1})
        with open(store.path_of("a" * 40), "rb") as src:
            body = src.read()
        with open(store.path_of("b" * 40), "wb") as dst:
            dst.write(body)
        assert store.get("b" * 40) is None
        assert store.stats.errors == 1

    def test_disabled_store_never_stores(self, tmp_path):
        store = ArtifactStore(root="off")
        assert not store.enabled
        assert not store.put("k" * 40, {"a": 1})
        assert store.get("k" * 40) is None
        assert store.stats.puts == 0


BENCH, INPUT, SCALE = "181.mcf", "A", 0.2
FLEET_RUNS = 16


@pytest.fixture(scope="module")
def fleet_profiles(tmp_path_factory):
    """16 simulated client profiles of one binary, divergent seeds."""
    out = tmp_path_factory.mktemp("fleet-profiles")
    clients = simulate_fleet(
        BENCH, INPUT, runs=FLEET_RUNS, out_dir=out,
        base_seed=7, epochs=4, scale=SCALE,
    )
    assert len(clients) == FLEET_RUNS
    return out


class TestFleetEndToEnd:
    def test_sixteen_clients_merge_into_consensus_phases(self, fleet_profiles):
        ingest = ingest_dir(fleet_profiles)
        assert len(ingest.runs) == FLEET_RUNS
        assert not ingest.rejected
        fleet = merge_runs(ingest)
        assert fleet.runs == FLEET_RUNS
        assert len(fleet.phases) >= 2
        # The benchmark's phase structure is stable across client
        # seeds, so each fleet phase should be broadly corroborated.
        major = [p for p in fleet.phases
                 if len(p.provenance.run_ids) >= FLEET_RUNS // 2]
        assert len(major) >= 2
        for phase in major:
            assert phase.provenance.agreement > 0.5
            assert phase.record.branches

    def test_serial_and_parallel_farms_are_byte_identical(
        self, fleet_profiles, tmp_path
    ):
        fleet = merge_runs(ingest_dir(fleet_profiles))
        config = FarmConfig(benchmark=BENCH, input_name=INPUT, scale=SCALE)
        serial_store = ArtifactStore(root=str(tmp_path / "serial"))
        parallel_store = ArtifactStore(root=str(tmp_path / "parallel"))
        serial = pack_fleet(fleet, config, jobs=1, store=serial_store)
        parallel = pack_fleet(fleet, config, jobs=4, store=parallel_store)

        assert serial.phase_set() == parallel.phase_set()
        assert [o.key for o in serial.outcomes] == [
            o.key for o in parallel.outcomes
        ]
        serial_files = sorted(os.listdir(serial_store.root))
        assert serial_files == sorted(os.listdir(parallel_store.root))
        assert serial_files  # the farm actually persisted artifacts
        for name in serial_files:
            with open(os.path.join(serial_store.root, name), "rb") as a:
                with open(os.path.join(parallel_store.root, name), "rb") as b:
                    assert a.read() == b.read()

    def test_second_request_is_served_from_the_artifact_store(
        self, fleet_profiles, tmp_path
    ):
        fleet = merge_runs(ingest_dir(fleet_profiles))
        config = FarmConfig(benchmark=BENCH, input_name=INPUT, scale=SCALE)
        store = ArtifactStore(root=str(tmp_path / "store"))
        cold = pack_fleet(fleet, config, jobs=1, store=store)
        assert cold.hit_rate == 0.0
        warm = pack_fleet(fleet, config, jobs=1, store=store)
        assert warm.hit_rate >= 0.9
        assert [o.payload for o in warm.outcomes] == [
            o.payload for o in cold.outcomes
        ]

    def test_serve_cli_reports_cache_hits_on_second_invocation(
        self, fleet_profiles, tmp_path
    ):
        from repro.cli import main

        store = tmp_path / "cli-store"
        args = [
            "serve", "--profiles", str(fleet_profiles),
            "--bench", f"{BENCH}/{INPUT}", "--scale", str(SCALE),
            "--jobs", "2", "--store", str(store),
        ]
        assert main(args + ["--out", str(tmp_path / "cold.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "warm.json")]) == 0
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert warm["pack"]["cache"]["hit_rate"] >= 0.9
        assert warm["pack"]["phase_set"] == cold["pack"]["phase_set"]
        assert warm["merge"]["profile_digest"] == cold["merge"]["profile_digest"]
        assert warm["ingest"]["runs"] == FLEET_RUNS
        # The streaming fold serve runs equals the batch oracle.
        assert cold["merge"]["profile_digest"] == merge_runs(
            ingest_dir(fleet_profiles)
        ).digest()

    def test_pack_records_accepts_merged_consensus_records(
        self, fleet_profiles
    ):
        from repro.postlink import VacuumPacker
        from repro.workloads.suite import load_benchmark

        fleet = merge_runs(ingest_dir(fleet_profiles))
        workload = load_benchmark(BENCH, INPUT, scale=SCALE)
        result = VacuumPacker().pack_records(workload, fleet.records)
        assert result.packages
        assert result.coverage.package_fraction > 0.0


class TestFarmErrors:
    def test_unknown_benchmark_is_a_service_error(self):
        fleet = merge_runs([client("r0", [rec(0, {0x10: (100, 90)})])])
        with pytest.raises(ServiceError):
            pack_fleet(
                fleet,
                FarmConfig(benchmark="nope", input_name="A"),
                store=ArtifactStore(root="off"),
            )

    def test_empty_fleet_is_a_service_error(self):
        fleet = merge_runs([client("r0", [rec(0, {0x10: (100, 90)})])])
        fleet.phases = []
        with pytest.raises(ServiceError):
            pack_fleet(
                fleet,
                FarmConfig(benchmark=BENCH, input_name=INPUT),
                store=ArtifactStore(root="off"),
            )
