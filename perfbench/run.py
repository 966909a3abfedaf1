"""Layered benchmark of the Vacuum Packing reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_ingest --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``fleet_ingest``, ``fleet_refresh``, ``offline_pack`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with tracing off.  ``--trace 1`` first repeats that untraced
run in a child process, then a traced pass on the same inputs; it
prints the per-layer breakdown, the blocking-path remainder and the
tracing overhead, and writes a Chrome trace under
``perfbench/.work/traces/``.  The last line of standard output is
always one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import harness

#: (name, unit) of every end-to-end metric, reported on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("stream_s", "s"),
    ("pack_s", "s"),
    ("figure10_s", "s"),
    ("peak_rss_mb", "MB"),
    ("coverage", "fraction"),
    ("speedup", "x"),
    ("code_growth_pct", "%"),
)

#: (name, unit) of every per-layer metric of a traced run.
PER_LAYER = (
    ("server.post.calls", "count"),
    ("server.post.busy_s", "s"),
    ("server.transport_s", "s"),
    ("server.route.busy_s", "s"),
    ("aggregate.validate.busy_s", "s"),
    ("aggregate.fold.busy_s", "s"),
    ("aggregate.fold.docs", "count"),
    ("aggregate.fold.duplicates", "count"),
    ("aggregate.fold.new_groups", "count"),
    ("aggregate.fold.matched", "count"),
    ("aggregate.checkpoint.calls", "count"),
    ("aggregate.checkpoint.per_post", "ratio"),
    ("aggregate.checkpoint.busy_s", "s"),
    ("aggregate.checkpoint.serialize_s", "s"),
    ("aggregate.checkpoint.digest_s", "s"),
    ("artifacts.put.busy_s", "s"),
    ("artifacts.put.bytes_per_doc", "bytes"),
    ("aggregate.checkpoint.bytes", "bytes"),
    ("aggregate.ingest_decay", "ratio"),
    ("aggregate.snapshot.calls", "count"),
    ("aggregate.snapshot.busy_s", "s"),
    ("aggregate.snapshot.groups", "count"),
    ("aggregate.snapshot.phases", "count"),
    ("farm.pack_fleet.busy_s", "s"),
    ("farm.shards", "count"),
    ("farm.hit_rate", "fraction"),
    ("farm.shard.busy_s", "s"),
    ("farm.shard.max_s", "s"),
    ("artifacts.get.calls", "count"),
    ("artifacts.get.busy_s", "s"),
    ("engine.run.busy_s", "s"),
    ("engine.branches", "count"),
    ("engine.branches_per_s", "1/s"),
    ("hsd.consume.busy_s", "s"),
    ("hsd.records", "count"),
    ("regions.identify.busy_s", "s"),
    ("regions.count", "count"),
    ("packages.construct.busy_s", "s"),
    ("packages.count", "count"),
    ("packages.static_instructions", "count"),
    ("optimize.busy_s", "s"),
    ("optimize.block_costs.busy_s", "s"),
    ("postlink.rewrite.busy_s", "s"),
    ("postlink.validate.busy_s", "s"),
    ("postlink.coverage.busy_s", "s"),
    ("cpu.timing.busy_s", "s"),
    ("cpu.instructions", "count"),
    ("cpu.instructions_per_s", "1/s"),
)

WORKLOADS = ("fleet_ingest", "fleet_refresh", "offline_pack")

#: Seconds after which a run gives up and reports itself failed, so a
#: hung program can never keep the benchmark past its time limit.
WATCHDOG_SECONDS = 170
#: Share of that budget the untraced reference run of ``--trace 1`` gets.
CHILD_SECONDS = 90


def _runner(workload: str):
    import fleet
    import offline

    return {
        "fleet_ingest": fleet.run_fleet_ingest,
        "fleet_refresh": fleet.run_fleet_refresh,
        "offline_pack": offline.run_offline_pack,
    }[workload]


def _print_outcome(title: str, outcome) -> None:
    print(f"== {title}")
    units = dict(END_TO_END)
    for name, _ in END_TO_END:
        print(f"  {name:<28} {outcome.metrics[name]:>14.6f} {units[name]}")
    for name, (value, unit) in outcome.details.items():
        print(f"  {name:<28} {value:>14.6f} {unit}")


def _layer_metrics(stats, inputs):
    """The per-layer metric values of one traced pass."""
    def busy(key):
        return stats[key].busy_s

    def calls(key):
        return stats[key].calls

    def size(key, name):
        return stats[key].sizes.get(name, 0)

    docs = inputs.get("docs", 0)
    posts = calls("server.post")
    return {
        "server.post.calls": posts,
        "server.post.busy_s": busy("server.post"),
        "server.transport_s": (
            inputs.get("client_post_s", 0.0) - busy("server.post")
        ),
        "server.route.busy_s": stats["server.route"].self_s,
        "aggregate.validate.busy_s": stats["aggregate.validate"].self_s,
        "aggregate.fold.busy_s": busy("aggregate.fold"),
        "aggregate.fold.docs": calls("aggregate.fold"),
        "aggregate.fold.duplicates": inputs.get("duplicates", 0),
        "aggregate.fold.new_groups": inputs.get("new_groups", 0),
        "aggregate.fold.matched": inputs.get("matched", 0),
        "aggregate.checkpoint.calls": calls("aggregate.checkpoint"),
        "aggregate.checkpoint.per_post": (
            calls("aggregate.checkpoint") / posts if posts else 0.0
        ),
        "aggregate.checkpoint.busy_s": busy("aggregate.checkpoint"),
        "aggregate.checkpoint.serialize_s": busy(
            "aggregate.checkpoint.serialize"
        ),
        "aggregate.checkpoint.digest_s": busy("aggregate.checkpoint.digest"),
        "artifacts.put.busy_s": busy("artifacts.put"),
        "artifacts.put.bytes_per_doc": (
            size("artifacts.put", "bytes") / docs if docs else 0.0
        ),
        "aggregate.checkpoint.bytes": inputs.get("checkpoint_bytes", 0),
        "aggregate.ingest_decay": inputs.get("ingest_decay", 0.0),
        "aggregate.snapshot.calls": calls("aggregate.snapshot"),
        "aggregate.snapshot.busy_s": busy("aggregate.snapshot"),
        "aggregate.snapshot.groups": (
            inputs.get("new_groups", 0) if calls("aggregate.snapshot") else 0
        ),
        "aggregate.snapshot.phases": size("aggregate.snapshot", "phases"),
        "farm.pack_fleet.busy_s": busy("farm.pack_fleet"),
        "farm.shards": inputs.get("shards", 0),
        "farm.hit_rate": inputs.get("hit_rate", 0.0),
        "farm.shard.busy_s": inputs.get("shard_busy_s", 0.0),
        "farm.shard.max_s": inputs.get("shard_max_s", 0.0),
        "artifacts.get.calls": calls("artifacts.get"),
        "artifacts.get.busy_s": busy("artifacts.get"),
        "engine.run.busy_s": busy("engine.run"),
        "engine.branches": size("engine.run", "branches"),
        "engine.branches_per_s": (
            size("engine.run", "branches") / busy("engine.run")
            if busy("engine.run") else 0.0
        ),
        "hsd.consume.busy_s": busy("hsd.consume"),
        "hsd.records": size("hsd.consume", "records"),
        "regions.identify.busy_s": busy("regions.identify"),
        "regions.count": calls("regions.identify"),
        "packages.construct.busy_s": busy("packages.construct"),
        "packages.count": size("packages.construct", "packages"),
        "packages.static_instructions": size(
            "packages.construct", "static_instructions"
        ),
        "optimize.busy_s": busy("optimize"),
        "optimize.block_costs.busy_s": busy("optimize.block_costs"),
        "postlink.rewrite.busy_s": busy("postlink.rewrite"),
        "postlink.validate.busy_s": busy("postlink.validate"),
        "postlink.coverage.busy_s": busy("postlink.coverage"),
        "cpu.timing.busy_s": busy("cpu.timing"),
        "cpu.instructions": size("cpu.timing", "instructions"),
        "cpu.instructions_per_s": (
            size("cpu.timing", "instructions") / busy("cpu.timing")
            if busy("cpu.timing") else 0.0
        ),
    }


def _blocking_path(workload, nodes, windows, inputs):
    """(total, attributed, remainder) seconds along the blocking path."""
    import layers

    if workload == "fleet_ingest":
        # Per POST as the server sees it: the dispatch span; whatever
        # no named layer inside it explains is the remainder.
        roots = [n for n in layers.within(nodes, windows["bench.stream"])
                 if n.name == layers.PREFIX + "server.post"]
        total = sum(n.seconds for n in roots)
        remainder = sum(layers.self_seconds(n) for n in roots)
        return total, total - remainder, remainder
    if workload == "fleet_refresh":
        # Per epoch, client side: request latency splits into transport
        # and daemon dispatch; gaps between requests are client time.
        epochs = [n for n in nodes if n.name == "bench.epoch"]
        total = sum(n.seconds for n in epochs)
        spans = [(n.start, n.end) for n in epochs]
        roots = [n for n in layers.within(nodes, spans)
                 if n.parent is None and n.side == "daemon"]
        dispatch_self = sum(layers.self_seconds(n) for n in roots)
        requests = inputs["client_request_s"]
        remainder = dispatch_self + (total - requests)
        return total, total - remainder, remainder
    roots = [n for n in nodes if n.name == "bench.input"]
    total = sum(n.seconds for n in roots)
    remainder = sum(layers.self_seconds(n) for n in roots)
    return total, total - remainder, remainder


def _write_chrome(path, bench_spans, bench_origin, daemon_doc):
    """One Chrome trace: the benchmark (pid 1) and the daemon (pid 2);
    spans merged home from each farm worker task get their own track."""
    import layers
    from repro.obs.render import to_chrome

    events = to_chrome(bench_spans)["traceEvents"]
    for event in events:
        event["pid"] = 1
    events.append({"ph": "M", "name": "process_name", "pid": 1,
                   "tid": 0, "args": {"name": "benchmark"}})
    metrics = {}
    if daemon_doc is not None:
        shift = (daemon_doc["benchOrigin"] - bench_origin) * 1e6
        daemon_events = [e for e in daemon_doc["traceEvents"]
                         if e.get("ph") == "X"]
        by_id = {e["args"]["span_id"]: e for e in daemon_events}
        for event in daemon_events:
            track, probe = 0, event
            while probe is not None:
                if probe["name"] == layers.WORKER_ROOT:
                    track = probe["args"]["span_id"]
                    break
                probe = by_id.get(probe["args"]["parent_id"])
            events.append(dict(event, pid=2, tid=track,
                               ts=event["ts"] + shift))
        events.append({"ph": "M", "name": "process_name", "pid": 2,
                       "tid": 0, "args": {"name": "repro server"}})
        metrics = daemon_doc.get("metrics", {})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "metrics": metrics}, handle)


@dataclass
class TracedRun:
    """The traced pass of a ``--trace 1`` run and its breakdown."""

    traced: object
    #: Every span of both processes, as :class:`layers.Node`.
    nodes: list
    #: Benchmark phase name -> its (start, end) windows.
    windows: dict
    #: Layer key -> :class:`layers.LayerStats` over stream + quality.
    stats: dict
    setup_stats: dict
    wall: float
    setup_wall: float
    #: (total, attributed, remainder) seconds on the blocking path.
    blocking: tuple
    trace_path: str

    def per_layer(self):
        values = _layer_metrics(self.stats, self.traced.layer_inputs)
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER}


def run_untraced_child(args) -> dict:
    """The same run with tracing off, in a fresh process; its result.

    The child gets its own process group, so a timeout takes its
    daemon and farm workers down with it.
    """
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=harness.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=CHILD_SECONDS)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if child.returncode != 0 or not lines:
        raise harness.BenchFailure(
            f"untraced reference run failed ({child.returncode}): "
            f"{err[-500:]}"
        )
    return json.loads(lines[-1])


def run_traced(ctx, workload):
    """The traced pass on this run's inputs, and its breakdown."""
    import layers
    from repro import obs
    from repro.obs.render import load_export

    layers.install()
    trace_path = ctx.trace_file()
    origin = time.monotonic()
    tracer = obs.enable_tracing()
    try:
        traced = _runner(workload)(ctx, trace_out=ctx.path("daemon.json"))
    finally:
        obs.disable_tracing()

    bench_spans = tracer.spans()
    nodes = layers.build_forest(bench_spans, origin, "bench")
    daemon_doc = None
    if traced.daemon_trace:
        with open(traced.daemon_trace) as handle:
            daemon_doc = json.load(handle)
        spans, _ = load_export(traced.daemon_trace)
        nodes += layers.build_forest(spans, daemon_doc["benchOrigin"],
                                     "daemon")
    _write_chrome(trace_path, bench_spans, origin, daemon_doc)

    windows = {
        name: [(n.start, n.end) for n in nodes if n.name == name]
        for name in ("bench.setup", "bench.stream", "bench.quality")
    }
    measured = windows["bench.stream"] + windows["bench.quality"]
    return TracedRun(
        traced=traced,
        nodes=nodes,
        windows=windows,
        stats=layers.layer_stats(layers.within(nodes, measured)),
        setup_stats=layers.layer_stats(
            layers.within(nodes, windows["bench.setup"])
        ),
        wall=sum(hi - lo for lo, hi in measured),
        setup_wall=sum(hi - lo for lo, hi in windows["bench.setup"]),
        blocking=_blocking_path(workload, nodes, windows,
                                traced.layer_inputs),
        trace_path=trace_path,
    )


def _print_traced(workload, seed, plain: dict, run: TracedRun) -> None:
    import layers

    _print_outcome(f"{workload} traced (seed {seed})", run.traced)
    print(f"== per-layer breakdown, stream + quality ({run.wall:.3f}s wall)")
    print(layers.render_table(run.stats, run.wall))
    print(f"== per-layer breakdown, set-up ({run.setup_wall:.3f}s wall)")
    print(layers.render_table(run.setup_stats, run.setup_wall))
    total, attributed, remainder = run.blocking
    share = attributed / total if total else 0.0
    print(f"== blocking path: {total:.4f}s, layers {attributed:.4f}s "
          f"({share:.1%}), remainder {remainder:.4f}s")
    print("== tracing overhead (traced vs untraced; setup_s is one set-up "
          "against the median of three)")
    for name, unit in END_TO_END:
        before = plain["metrics"][name]["value"]
        after = run.traced.metrics[name]
        change = (after - before) / before if before else 0.0
        print(f"  {name:<20} {before:>12.6f} -> {after:>12.6f} {unit} "
              f"({change:+.1%})")
    print(f"== chrome trace: {os.path.relpath(run.trace_path, harness.ROOT)}"
          f" (open it at https://ui.perfetto.dev)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not harness.checkout_has_program():
        print(f"run.py: no program under {harness.SRC} "
              f"(run from a checkout of the repository)", file=sys.stderr)
        return 2
    harness.use_checkout_sources()
    scratch = os.path.join(harness.WORK, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    harness.isolate_environment(scratch)
    ctx = harness.Context(workload=args.workload, seed=args.seed,
                          seconds=args.seconds, trace=bool(args.trace),
                          scratch=scratch)
    correct = True
    metrics = {}

    def give_up(signum, frame):
        raise harness.BenchFailure(
            f"run exceeded {WATCHDOG_SECONDS}s and was abandoned"
        )

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        harness.warm_native_kernel()
        if args.trace:
            plain = run_untraced_child(args)
            ctx.ledger.tally(plain["attempted"], plain["failed"],
                             "untraced reference run")
            correct = plain["correct"]
            traced = run_traced(ctx, args.workload)
            _print_traced(args.workload, args.seed, plain, traced)
            metrics = traced.per_layer()
        else:
            outcome = _runner(args.workload)(ctx)
            _print_outcome(f"{args.workload} (seed {args.seed})", outcome)
            metrics = {
                name: {"value": outcome.metrics[name], "unit": unit}
                for name, unit in END_TO_END
            }
    except harness.BenchFailure as exc:
        correct = False
        print(f"FAILED: {exc}")
    except Exception:  # a crash is a failed run, reported like one
        correct = False
        traceback.print_exc(file=sys.stdout)
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)
    ledger = ctx.ledger
    print(f"== error_rate {ledger.error_rate:.6f} fraction "
          f"({ledger.failed} of {ledger.attempted} operations failed)")
    for reason in ledger.reasons:
        print(f"  failed: {reason}")
    correct = correct and ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
