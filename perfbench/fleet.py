"""The two daemon workloads: ``fleet_ingest`` and ``fleet_refresh``.

Both drive a ``repro server`` subprocess (fresh on-disk artifact store,
fresh checkpoint tag, fresh trace cache) through
:class:`repro.server.DaemonClient` over **one** keep-alive connection,
in a closed loop: the next request leaves only when the previous reply
is in.  The daemon receives nothing but the generated documents.

* ``fleet_ingest`` — a converged fleet keeps uploading.  Documents are
  counter-scaled copies of a small simulated 134.perl/C fleet (the
  ``repro bench agg_scale`` construction), so signatures repeat and
  only the dedup ledger and run-id sets grow; they are stamped
  round-robin for three tenants, posted 1-4 per ``POST /profiles``,
  and every :data:`REPLAY_EVERY`-th line is a byte-identical replay.
  HTTP, parse/validate, fold and the per-POST checkpoint do all the
  work.  One connection: with two, checkpoint threads contend for the
  daemon's interpreter lock and the rate gets slower and noisier.
* ``fleet_refresh`` — the re-optimization loop.  Each epoch brings
  freshly simulated 099.go/A clients (weakly biased branches, so most
  documents open new signature groups), uploads them in batches of
  :data:`REFRESH_BATCH`, then ``POST /repack`` and one
  ``GET /artifacts/<key>`` per returned key, against a daemon started
  with ``--jobs 2``.  Snapshot clustering, the farm and its workers'
  pipeline layers, and artifact reads do the work.

The simulated clients themselves are the same for every seed (behavior
seeds from :data:`POOL_SEED`); the seed draws the arrival order — of
the ingest documents, with their replays and POST sizes, and of the
clients over the refresh epochs.  A fresh small fleet per seed would
change the binary's merged phases, and with them the packing work and
quality, by 20-50% from seed to seed (measured over 099.go/A fleets of
16 and 48 clients: 4-8 phases), which would drown every bound; a fixed
pool in seeded order keeps the total repack work within a few percent.

Both end by packing the final merged snapshot of the default tenant as
one binary and running the Figure-10 timing model on it, outside the
stream clock, so every run reports the paper's quality numbers.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

from repro.api import PipelineConfig
from repro.hsd.records import BranchProfile, HotSpotRecord
from repro.hsd.serialize import (
    document_from_json,
    make_provenance,
    records_to_dict,
)
from repro.service import (
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
from repro.workloads.suite import load_benchmark

from harness import (
    BenchFailure,
    Context,
    Daemon,
    Outcome,
    check_pack,
    evaluate,
    percentile,
    phase,
    set_up,
    use_trace_cache,
)

#: The wire snapshot rounds the agreement score to six decimals; every
#: other field is exact (the daemon tests use the same contract).
WIRE_CONTRACT = ContractTolerance(agreement_abs_tol=5e-7)

#: Behavior seed base of every simulated client pool.
POOL_SEED = 0

INGEST_BENCH = ("134.perl", "C")
INGEST_TENANTS = ("134.perl/C", "fleet.alpha/C", "fleet.beta/C")
#: Base clients simulated per set-up; documents are scaled copies.
INGEST_BASE_RUNS = 8
#: Documents per second of ``--seconds``: the stream's size depends on
#: ``--seconds`` alone, never on how fast the daemon turns out to be.
INGEST_DOCS_PER_SECOND = 55
#: Every REPLAY_EVERY-th uploaded line replays an earlier document.
REPLAY_EVERY = 16

REFRESH_BENCH = ("099.go", "A")
REFRESH_CLIENTS = 6
REFRESH_BATCH = 4
REFRESH_JOBS = 2
#: Seconds of ``--seconds`` per refresh epoch (sizes the epoch count).
REFRESH_EPOCH_SECONDS = 3.0
#: Timed packs and Figure-10 runs of the final snapshot (medians).
QUALITY_REPEATS = 5


# ---------------------------------------------------------------------------
# document synthesis
# ---------------------------------------------------------------------------

def _scaled(base: ClientRun, factor: float) -> List[HotSpotRecord]:
    """``base``'s records with every counter scaled by ``factor``."""
    records = []
    for record in base.records:
        branches = {}
        for address, profile in record.branches.items():
            executed = int(profile.executed * factor)
            branches[address] = BranchProfile(
                address, executed, min(int(profile.taken * factor), executed)
            )
        records.append(HotSpotRecord(
            index=record.index,
            detected_at_branch=record.detected_at_branch,
            branches=branches,
        ))
    return records


def _simulate(bench: Tuple[str, str], runs: int, out: str,
              **kwargs) -> List[str]:
    """Profile ``runs`` pool clients; their document texts."""
    simulate_fleet(bench[0], bench[1], runs=runs, out_dir=out,
                   base_seed=POOL_SEED, **kwargs)
    return [path.read_text() for path in sorted(Path(out).iterdir())]


def _runs_of(texts: List[str]) -> List[ClientRun]:
    runs = []
    for text in texts:
        doc = document_from_json(text)
        runs.append(ClientRun.from_document(doc.run_id, doc))
    return runs


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _upload(ctx: Context, flat, lines: List[str], fresh: int,
            latencies: List[float]) -> Dict:
    started = time.perf_counter()
    status, body = flat.upload(lines)
    latencies.append(time.perf_counter() - started)
    ctx.ledger.record(status == 200, f"POST /profiles -> {status}")
    ctx.ledger.tally(len(lines), len(body.get("rejected", ())),
                     "rejected line(s)")
    if body.get("folded") != fresh or \
            body.get("duplicates") != len(lines) - fresh:
        raise BenchFailure(
            f"check replay_dedup failed: posted {fresh} fresh and "
            f"{len(lines) - fresh} replayed line(s), daemon folded "
            f"{body.get('folded')} and deduplicated {body.get('duplicates')}"
        )
    return body


def _check_snapshot(ctx: Context, client, tenant: str,
                    texts: List[str]) -> FleetProfile:
    """The tenant's wire snapshot equals a local batch merge."""
    status, body = client.tenant(tenant).snapshot()
    ctx.ledger.record(status == 200, f"GET snapshot {tenant} -> {status}")
    if status != 200:
        raise BenchFailure(f"check snapshot failed: {tenant} -> {status}")
    wire = FleetProfile.from_dict(body["fleet"])
    diffs = equivalence_diffs(merge_runs(_runs_of(texts)), wire,
                              WIRE_CONTRACT)
    if diffs:
        raise BenchFailure(
            f"check snapshot_equivalence failed for {tenant}: {diffs[:3]}"
        )
    return wire


def _quality(ctx: Context, copies, fleet: FleetProfile, name: str):
    """Pack the merged snapshot as one binary; Figure-10 evaluate it."""
    packer = PipelineConfig().packer()
    records = [merged.record for merged in fleet.phases]
    with phase("bench.quality"):
        evaluation = evaluate(
            ctx, name, copies,
            lambda workload: packer.pack_records(workload, records),
            timings=QUALITY_REPEATS,
        )
    check_pack(ctx, evaluation, differential=False)
    return evaluation


def _metric_counters(client) -> Dict[str, float]:
    status, body = client.metrics()
    if status != 200:
        raise BenchFailure(f"check metrics failed: GET /metrics -> {status}")
    totals: Dict[str, float] = {}
    for key, value in body["metrics"].get("counters", {}).items():
        name = key.split("{", 1)[0]
        totals[name] = totals.get(name, 0) + value
    return totals


def _stop(ctx: Context, daemon: Daemon) -> None:
    code = daemon.stop()
    ctx.ledger.record(code == 0, f"daemon exit {code}")
    if code != 0:
        raise BenchFailure(f"check daemon_exit failed: exit code {code}")


def _quality_metrics(evaluation) -> Dict[str, float]:
    return {
        "pack_s": evaluation.pack_s,
        "figure10_s": evaluation.figure10_s,
        "coverage": evaluation.coverage,
        "speedup": evaluation.speedup,
        "code_growth_pct": evaluation.code_growth_pct,
    }


# ---------------------------------------------------------------------------
# fleet_ingest
# ---------------------------------------------------------------------------

@dataclass
class IngestSetup:
    daemon: Daemon
    store: str
    tag: str
    #: POST bodies: (lines, number of fresh lines).
    posts: List[Tuple[List[str], int]]
    #: Unique documents per tenant (the local merge oracle).
    by_tenant: Dict[str, List[str]]
    #: Fresh builds of the default tenant's binary, one per timed pack.
    copies: List


def _ingest_setup(ctx: Context, attempt: int, trace_out: str):
    use_trace_cache(ctx.fresh_dir(f"setup{attempt}", "traces"))
    base_runs = _runs_of(_simulate(
        INGEST_BENCH, INGEST_BASE_RUNS,
        ctx.fresh_dir(f"setup{attempt}", "fleet"), epochs=4,
    ))
    if not base_runs:
        raise BenchFailure("check fleet_simulation failed: no profiles")
    # Document j copies pool client j % N scaled by 1 + (j % 7) / 4
    # for tenant j % 3, whatever the seed: every tenant merges the
    # same multiset, and the seed draws the arrival order.
    count = max(2 * REPLAY_EVERY, ctx.seconds * INGEST_DOCS_PER_SECOND)
    texts: List[str] = []
    by_tenant: Dict[str, List[str]] = {t: [] for t in INGEST_TENANTS}
    for j in range(count):
        tenant = INGEST_TENANTS[j % len(INGEST_TENANTS)]
        base = base_runs[j % len(base_runs)]
        meta = {
            "benchmark": tenant,
            "provenance": make_provenance(
                f"{tenant}#s{ctx.seed}-{j:06d}", seed=j,
                epoch=base.epoch,
            ),
        }
        text = json.dumps(records_to_dict(
            _scaled(base, 1.0 + 0.25 * (j % 7)), meta
        ), sort_keys=True)
        texts.append(text)
        by_tenant[tenant].append(text)
    rng = random.Random(f"fleet_ingest:{ctx.seed}")
    rng.shuffle(texts)
    lines: List[Tuple[str, bool]] = []
    for j, text in enumerate(texts):
        lines.append((text, True))
        if (j + 1) % REPLAY_EVERY == 0:
            lines.append((texts[rng.randrange(j + 1)], False))
    posts = []
    cursor = 0
    while cursor < len(lines):
        size = rng.randint(1, 4)
        chunk = lines[cursor:cursor + size]
        posts.append(([text for text, _ in chunk],
                      sum(1 for _, fresh in chunk if fresh)))
        cursor += size
    copies = [load_benchmark(*INGEST_BENCH) for _ in range(QUALITY_REPEATS)]
    store = ctx.fresh_dir(f"setup{attempt}", "store")
    tag = f"ingest-{ctx.seed}-{attempt}"
    daemon = Daemon(ctx, INGEST_TENANTS[0], store, tag,
                    trace_cache=ctx.fresh_dir(f"setup{attempt}",
                                              "daemon-traces"),
                    trace_out=trace_out)
    return IngestSetup(daemon, store, tag, posts, by_tenant, copies)


def run_fleet_ingest(ctx: Context, trace_out: str = None) -> Outcome:
    setup, setup_s = set_up(
        ctx, lambda attempt, last: _ingest_setup(
            ctx, attempt, trace_out if last else None
        ),
        discard=lambda earlier: earlier.daemon.stop(),
    )
    daemon = setup.daemon
    try:
        latencies: List[float] = []
        folded = duplicates = 0
        with daemon.client() as client:
            flat = client.tenant()
            with phase("bench.stream"):
                started = time.perf_counter()
                for lines, fresh in setup.posts:
                    body = _upload(ctx, flat, lines, fresh, latencies)
                    folded += body["folded"]
                    duplicates += body["duplicates"]
                stream_s = time.perf_counter() - started
            rss_mb = daemon.rss_mb()
            counters = _metric_counters(client)
            with phase("bench.check"):
                snapshots = {
                    tenant: _check_snapshot(ctx, client, tenant, texts)
                    for tenant, texts in setup.by_tenant.items()
                }
        evaluation = _quality(ctx, setup.copies,
                              snapshots[INGEST_TENANTS[0]],
                              INGEST_TENANTS[0])
        _stop(ctx, daemon)
    finally:
        daemon.kill()

    p95 = percentile(latencies, 95)
    beyond = sum(1 for value in latencies if value > p95)
    fifth = max(1, len(latencies) // 5)
    first = sum(len(lines) for lines, _ in setup.posts[:fifth])
    last = sum(len(lines) for lines, _ in setup.posts[-fifth:])
    decay = (last / sum(latencies[-fifth:])) / (first / sum(latencies[:fifth]))
    slots = [checkpoint_key(setup.tag, MergePolicy())] + [
        checkpoint_key(f"{setup.tag}:{tenant}", MergePolicy())
        for tenant in INGEST_TENANTS[1:]
    ]
    slot_bytes = sum(
        os.path.getsize(os.path.join(setup.store, f"{key}.json"))
        for key in slots
        if os.path.exists(os.path.join(setup.store, f"{key}.json"))
    )
    metrics = {
        "setup_s": setup_s,
        "stream_s": stream_s,
        "peak_rss_mb": rss_mb,
        **_quality_metrics(evaluation),
    }
    details = {
        "ingest_docs_per_s": (folded / stream_s, "docs/s"),
        "upload_p50_ms": (1000 * median(latencies), "ms"),
        "upload_p95_ms": (1000 * p95, "ms"),
        "posts_beyond_p95": (beyond, "count"),
        "posts": (len(latencies), "count"),
        "daemon_rss_mb": (rss_mb, "MB"),
    }
    return Outcome(
        metrics=metrics,
        details=details,
        layer_inputs={
            "client_post_s": sum(latencies),
            "posts": len(latencies),
            "docs": folded,
            "duplicates": duplicates,
            "new_groups": counters.get("service.agg.new_clusters", 0),
            "matched": counters.get("service.agg.matched", 0),
            "checkpoint_bytes": slot_bytes,
            "ingest_decay": decay,
        },
        daemon_trace=trace_out or "",
    )


# ---------------------------------------------------------------------------
# fleet_refresh
# ---------------------------------------------------------------------------

@dataclass
class RefreshSetup:
    daemon: Daemon
    epochs: List[List[str]]
    #: Fresh builds of the binary, one per timed final-snapshot pack.
    copies: List


def _refresh_setup(ctx: Context, attempt: int, trace_out: str):
    use_trace_cache(ctx.fresh_dir(f"setup{attempt}", "traces"))
    count = max(2, round(ctx.seconds / REFRESH_EPOCH_SECONDS))
    pool = _simulate(
        REFRESH_BENCH, count * REFRESH_CLIENTS,
        ctx.fresh_dir(f"setup{attempt}", "fleet"),
    )
    random.Random(f"fleet_refresh:{ctx.seed}").shuffle(pool)
    epochs = []
    for epoch in range(count):
        texts = []
        for text in pool[epoch * REFRESH_CLIENTS:
                         (epoch + 1) * REFRESH_CLIENTS]:
            document = json.loads(text)
            document["meta"]["provenance"]["epoch"] = epoch
            texts.append(json.dumps(document, sort_keys=True))
        epochs.append(texts)
    copies = [load_benchmark(*REFRESH_BENCH)
              for _ in range(QUALITY_REPEATS)]
    daemon = Daemon(ctx, "/".join(REFRESH_BENCH),
                    ctx.fresh_dir(f"setup{attempt}", "store"),
                    f"refresh-{ctx.seed}-{attempt}",
                    trace_cache=ctx.fresh_dir(f"setup{attempt}",
                                              "daemon-traces"),
                    jobs=REFRESH_JOBS, trace_out=trace_out)
    return RefreshSetup(daemon, epochs, copies)


@dataclass
class RefreshTally:
    """Client-side observations of the refresh epochs."""

    epoch_s: List[float] = field(default_factory=list)
    post_latencies: List[float] = field(default_factory=list)
    #: Client latency of the repack and artifact requests.
    other_request_s: float = 0.0
    shards: int = 0
    cached: int = 0
    #: Seconds of every shard packed (not served from the store).
    shard_s: List[float] = field(default_factory=list)
    #: Slowest shard per repack, summed over repacks.
    shard_max_s: float = 0.0


def _refresh_epoch(ctx: Context, client, texts: List[str],
                   tally: RefreshTally) -> List[bytes]:
    """Upload one epoch, repack, fetch every artifact; their bytes."""
    flat = client.tenant()
    with phase("bench.epoch"):
        started = time.perf_counter()
        for at in range(0, len(texts), REFRESH_BATCH):
            batch = texts[at:at + REFRESH_BATCH]
            _upload(ctx, flat, batch, len(batch), tally.post_latencies)
        sent = time.perf_counter()
        status, body = flat.repack()
        tally.other_request_s += time.perf_counter() - sent
        ctx.ledger.record(status == 200, f"POST /repack -> {status}")
        if status != 200:
            raise BenchFailure(f"check repack failed: {status} {body}")
        fetched = []
        for key in body["artifacts"]:
            sent = time.perf_counter()
            status, raw = client.artifact(key)
            tally.other_request_s += time.perf_counter() - sent
            ctx.ledger.record(status == 200, f"GET artifact -> {status}")
            fetched.append(raw)
        tally.epoch_s.append(time.perf_counter() - started)
    shards = body["report"]["pack"]["shards"]
    for shard in shards:
        ctx.ledger.record(
            not shard["degraded"] and not shard["diagnostics"],
            f"farm shard {shard['shard']} degraded or quarantined",
        )
        tally.shards += 1
        tally.cached += bool(shard["cached"])
        if not shard["cached"]:
            tally.shard_s.append(shard["seconds"])
    tally.shard_max_s += max((s["seconds"] for s in shards), default=0.0)
    return fetched


def run_fleet_refresh(ctx: Context, trace_out: str = None) -> Outcome:
    setup, setup_s = set_up(
        ctx, lambda attempt, last: _refresh_setup(
            ctx, attempt, trace_out if last else None
        ),
        discard=lambda earlier: earlier.daemon.stop(),
    )
    daemon = setup.daemon
    tally = RefreshTally()
    uploaded: List[str] = []
    try:
        with daemon.client() as client:
            with phase("bench.stream"):
                for texts in setup.epochs:
                    fetched = _refresh_epoch(ctx, client, texts, tally)
                    uploaded.extend(texts)
            rss_mb = daemon.rss_mb()
            counters = _metric_counters(client)
            with phase("bench.check"):
                fleet = _check_snapshot(ctx, client, "/".join(REFRESH_BENCH),
                                        uploaded)
                local = pack_fleet(
                    fleet,
                    FarmConfig(benchmark=REFRESH_BENCH[0],
                               input_name=REFRESH_BENCH[1],
                               pipeline=PipelineConfig().to_dict()),
                    jobs=REFRESH_JOBS,
                    store=ArtifactStore(ctx.fresh_dir("local-store")),
                )
                expected = [canonical_json(o.payload) for o in local.outcomes]
                if fetched != expected:
                    raise BenchFailure(
                        "check artifact_bytes failed: the last epoch's "
                        "artifacts differ from a local pack_fleet of the "
                        "final snapshot"
                    )
        evaluation = _quality(ctx, setup.copies, fleet,
                              "/".join(REFRESH_BENCH))
        _stop(ctx, daemon)
    finally:
        daemon.kill()

    refresh_s = sum(tally.epoch_s)
    metrics = {
        "setup_s": setup_s,
        "stream_s": refresh_s,
        "peak_rss_mb": rss_mb,
        **_quality_metrics(evaluation),
    }
    details = {
        "refresh_s": (refresh_s, "s"),
        "epochs": (len(tally.epoch_s), "count"),
        "daemon_rss_mb": (rss_mb, "MB"),
    }
    return Outcome(
        metrics=metrics,
        details=details,
        layer_inputs={
            "client_post_s": sum(tally.post_latencies),
            "client_request_s": (
                sum(tally.post_latencies) + tally.other_request_s
            ),
            "posts": len(tally.post_latencies),
            "docs": len(uploaded),
            "duplicates": 0,
            "new_groups": counters.get("service.agg.new_clusters", 0),
            "matched": counters.get("service.agg.matched", 0),
            "shards": tally.shards,
            "hit_rate": tally.cached / tally.shards if tally.shards else 0.0,
            "shard_busy_s": sum(tally.shard_s),
            "shard_max_s": tally.shard_max_s,
        },
        daemon_trace=trace_out or "",
    )
