"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables/figures or run the pipeline on
one benchmark input:

.. code-block:: console

   python -m repro table1
   python -m repro figure8 --scale 0.5
   python -m repro figure10 --bench 130.li/B --bench 181.mcf/A
   python -m repro table3 --out /tmp/table3.txt
   python -m repro ablations
   python -m repro pack 134.perl B --scale 0.5
   python -m repro faults --seed 0 --trials 5 --jobs 4
   python -m repro trace pack 134.perl --export chrome
   python -m repro stats trace-pack.json
   python -m repro server --bench 181.mcf/A --listen 127.0.0.1:8080

Flags are uniform across subcommands: ``--jobs N`` (or ``REPRO_JOBS``)
fans work out across processes with deterministic, serial-identical
results; ``--out PATH`` writes the command's report next to printing
it; ``--seed N`` seeds whatever the command randomizes; and ``--config
pipeline.json`` loads a :class:`repro.api.PipelineConfig` document —
its pipeline knobs apply wherever the command builds a packer, and its
``obs`` options (tracing) apply to every command.

``repro trace <cmd> [args...]`` runs any other subcommand with span
tracing enabled, prints the per-stage time/size table, and writes the
ledger (``--export chrome|jsonl``, ``--trace-out PATH``); ``repro
stats <ledger>`` re-renders the table from a written ledger.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.experiments import (
    run_bbb_ablation,
    run_figure8,
    run_figure9,
    run_figure10,
    run_max_blocks_ablation,
    run_ordering_ablation,
    run_table1,
    run_table3,
)
from repro.workloads.suite import SUITE, BenchmarkInput


def _parse_entries(specs: Optional[Sequence[str]]) -> Optional[List[BenchmarkInput]]:
    if not specs:
        return None
    by_name = {entry.full_name: entry for entry in SUITE}
    entries = []
    for spec in specs:
        if spec not in by_name:
            known = ", ".join(sorted(by_name))
            raise SystemExit(f"unknown benchmark {spec!r}; known: {known}")
        entries.append(by_name[spec])
    return entries


def _emit(text: str, out: Optional[str]) -> None:
    print(text)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
        print(f"\n(written to {out})")


def _load_pipeline_config(path: Optional[str]):
    """The ``--config pipeline.json`` document, or ``None``."""
    if not path:
        return None
    from repro.api import PipelineConfig

    try:
        return PipelineConfig.load(path)
    except OSError as exc:
        raise SystemExit(f"repro: cannot read --config {path}: {exc}")
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"repro: bad --config {path}: {exc}")


def _base_config(args: argparse.Namespace):
    """The command's base PipelineConfig (``--config`` or defaults)."""
    from repro.api import PipelineConfig

    return getattr(args, "pipeline", None) or PipelineConfig()


def _cmd_experiment(args: argparse.Namespace) -> int:
    entries = _parse_entries(args.bench)
    runners = {
        "table1": run_table1,
        "figure8": run_figure8,
        "table3": run_table3,
        "figure9": run_figure9,
        "figure10": run_figure10,
    }
    report = runners[args.command](
        entries=entries, scale=args.scale, verbose=args.verbose,
        jobs=args.jobs,
    )
    _emit(report.render(), args.out)
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    parts = [
        run_max_blocks_ablation(scale=args.scale, jobs=args.jobs).render(),
        "",
        run_bbb_ablation(scale=args.scale, jobs=args.jobs).render(),
        "",
        run_ordering_ablation(scale=args.scale, jobs=args.jobs).render(),
    ]
    _emit("\n".join(parts), args.out)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.workloads.suite import load_benchmark

    config = _base_config(args)
    if args.classic:
        config = config.replace(classic=True)
    if args.strict:
        config = config.replace(strict=True)
    workload = load_benchmark(args.benchmark, args.input, scale=args.scale)
    result = config.packer().pack(workload)
    print(f"benchmark          : {args.benchmark}/{args.input}")
    print(f"static instructions: {workload.program.static_size():,}")
    print(f"dynamic branches   : {result.profile.summary.branches:,}")
    print(f"raw detections     : {result.profile.raw_detections}")
    print(f"unique phases      : {result.profile.phase_count}")
    print(f"packages           : {len(result.packages)}")
    for package in result.packages:
        linked = sum(1 for e in package.exits if e.is_linked)
        print(f"  {package.name}: root={package.root} "
              f"size={package.static_size()} exits={len(package.exits)} "
              f"linked={linked}")
    row = result.expansion_row()
    print(f"code growth        : +{row['pct_increase']:.1f}% "
          f"(selected {row['pct_selected']:.1f}%, "
          f"replication {row['replication']:.2f}x)")
    print(f"coverage           : {result.coverage.package_fraction:.1%}")
    if result.validation is not None:
        status = "ok" if result.validation.ok else "FAILED"
        print(f"validation         : {status} "
              f"({result.validation.checks} checks)")
    for diag in result.diagnostics:
        print(f"  quarantine: {diag.render()}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments.fault_campaign import run_fault_campaign
    from repro.hsd.faults import ALL_FAULT_MODES, FaultSpec

    try:
        FaultSpec(modes=tuple(args.mode or ALL_FAULT_MODES), rate=args.rate)
    except ValueError as exc:
        raise SystemExit(f"repro faults: {exc}")
    report = run_fault_campaign(
        entries=_parse_entries(args.bench),
        scale=args.scale,
        seed=args.seed,
        trials=args.trials,
        modes=args.mode or ALL_FAULT_MODES,
        rate=args.rate,
        strict=args.strict,
        verbose=args.verbose,
        jobs=args.jobs,
        config=getattr(args, "pipeline", None),
    )
    _emit(report.render(), args.out)
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        mispatch_launch,
        parse_budget,
        parse_seed_range,
        replay_case,
        resolve_corpus,
        run_fuzz,
    )

    mutator = mispatch_launch if args.inject_mispatch else None
    if args.replay:
        case, report = replay_case(args.replay, mutate_packed=mutator)
        program = case.workload.program
        print(f"replay {args.replay}: seed {case.seed}, "
              f"{len(program.functions)} function(s)"
              + (f" — {case.note}" if case.note else ""))
        print(report.render())
        return 0 if report.ok else 1

    try:
        seeds = parse_seed_range(args.seed_range)
        budget = parse_budget(args.budget)
    except ValueError as exc:
        raise SystemExit(f"repro fuzz: {exc}")
    report = run_fuzz(
        seeds,
        jobs=args.jobs,
        budget=budget,
        corpus=resolve_corpus(args.corpus),
        shrink=not args.no_shrink,
        mutate_packed=mutator,
    )
    _emit(report.render(), args.out)
    return 0 if report.ok else 1


def _parse_bench_spec(spec: str) -> tuple:
    benchmark, _, input_name = spec.partition("/")
    if not benchmark or not input_name:
        raise SystemExit(
            f"expected NAME/INPUT (e.g. 181.mcf/A), got {spec!r}"
        )
    return benchmark, input_name


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import simulate_fleet

    benchmark, input_name = _parse_bench_spec(args.bench)
    clients = simulate_fleet(
        benchmark,
        input_name,
        runs=args.runs,
        out_dir=args.out,
        base_seed=args.seed,
        epochs=args.epochs,
        scale=args.scale,
    )
    summary = {
        "benchmark": args.bench,
        "profiles": len(clients),
        "out_dir": args.out,
        "runs": [
            {"run_id": c.run_id, "seed": c.seed, "epoch": c.epoch,
             "phases": c.phases, "path": c.path}
            for c in clients
        ],
    }
    print(_json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _parse_listen(spec: str) -> tuple:
    host, _, port_text = spec.rpartition(":")
    if not host or not port_text:
        raise SystemExit(
            f"expected HOST:PORT (e.g. 127.0.0.1:8080), got {spec!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"--listen port must be an integer, got "
                         f"{port_text!r}")
    return host, port


def _server_config_from_args(args: argparse.Namespace):
    """The daemon's ServerConfig: ``--config server.json`` + overrides.

    ``repro server --config`` takes a :class:`repro.api.ServerConfig`
    document (not a pipeline document — the pipeline section nests
    inside it); explicit flags override file values.
    """
    from repro.api import PipelineConfig, ServerConfig

    base = None
    if args.config:
        try:
            base = ServerConfig.load(args.config)
        except OSError as exc:
            raise SystemExit(
                f"repro: cannot read --config {args.config}: {exc}"
            )
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"repro: bad --config {args.config}: {exc}")

    if base is None and not args.bench:
        raise SystemExit(
            "repro server: --bench NAME/INPUT or --config SERVER.json "
            "is required"
        )

    changes = {}
    if args.bench:
        benchmark, input_name = _parse_bench_spec(args.bench)
        changes["benchmark"] = benchmark
        changes["input_name"] = input_name
    if args.listen:
        changes["host"], changes["port"] = _parse_listen(args.listen)
    elif base is None:
        changes["host"], changes["port"] = "127.0.0.1", 8080
    for attr, key in (
        ("scale", "scale"),
        ("jobs", "jobs"),
        ("shard_size", "shard_size"),
        ("profiles", "profiles_dir"),
        ("gc_max_bytes", "gc_max_bytes"),
        ("gc_interval", "gc_interval"),
        ("checkpoint_tag", "tag"),
        ("store", "store"),
    ):
        value = getattr(args, attr)
        if value is not None:
            changes[key] = value

    pipeline = PipelineConfig()
    if base is not None and base.pipeline is not None:
        pipeline = PipelineConfig.from_dict(base.pipeline)
    if args.classic:
        pipeline = pipeline.replace(classic=True)
    changes["pipeline"] = pipeline.to_dict()

    if base is None:
        base = ServerConfig(
            benchmark=changes.pop("benchmark"),
            input_name=changes.pop("input_name"),
        )
    return base.replace(**changes)


def _cmd_server(args: argparse.Namespace) -> int:
    from repro.server import ProfileDaemon

    config = _server_config_from_args(args)
    # The daemon resolves the artifact store from config.store.
    return ProfileDaemon(config).run()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.experiments.parallel import resolve_jobs
    from repro.service import (
        ArtifactStore,
        FarmConfig,
        IncrementalAggregator,
        build_report,
        default_store,
        pack_fleet,
    )

    benchmark, input_name = _parse_bench_spec(args.bench)
    pipeline = _base_config(args)
    if args.classic:
        pipeline = pipeline.replace(classic=True)
    try:
        store = (
            ArtifactStore(args.store) if args.store else default_store()
        )
        # A fresh fold of the directory as it is now, never a restored
        # checkpoint: a deleted document must not stay merged.  The
        # resumable service is `repro server`.
        aggregator = IncrementalAggregator()
        aggregator.ingest_dir(args.profiles)
        fleet = aggregator.snapshot()
        config = FarmConfig(
            benchmark=benchmark,
            input_name=input_name,
            scale=args.scale,
            pipeline=pipeline.to_dict(),
            shard_size=args.shard_size,
        )
        packed = pack_fleet(fleet, config, jobs=args.jobs, store=store)
    except ServiceError as exc:
        message = f"repro serve: {exc}"
        if exc.hint:
            message += f" (hint: {exc.hint})"
        raise SystemExit(message)
    report = build_report(
        aggregator.ingest_view(), fleet, packed, config, store,
        jobs=resolve_jobs(args.jobs),
    )
    _emit(report.to_json(), args.out)
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    import tempfile

    from repro.errors import ServiceError
    from repro.service import (
        ArtifactStore,
        ControllerConfig,
        DriftSpec,
        run_controller,
    )

    benchmark, input_name = _parse_bench_spec(args.bench)
    pipeline = _base_config(args)
    try:
        config = ControllerConfig(
            benchmark=benchmark,
            input_name=input_name,
            scale=args.scale,
            epochs=args.epochs,
            clients_per_epoch=args.clients,
            base_seed=args.seed,
            epoch_window=args.epoch_window,
            shard_size=args.shard_size,
            drift=DriftSpec(
                epoch=args.drift_epoch,
                severity=args.severity,
                warm_bias=args.warm_bias,
                seed=args.seed,
            ),
            decay_threshold=args.decay_threshold,
            min_staleness=args.min_staleness,
            patience=args.patience,
            pipeline=pipeline.to_dict(),
        )
    except ValueError as exc:
        raise SystemExit(f"repro drift: {exc}")
    store = ArtifactStore(args.store) if args.store else ArtifactStore("off")
    try:
        if args.work_dir:
            report = run_controller(
                config, args.work_dir, jobs=args.jobs, store=store,
                verbose=args.verbose,
            )
        else:
            with tempfile.TemporaryDirectory(prefix="repro-drift-") as work:
                report = run_controller(
                    config, work, jobs=args.jobs, store=store,
                    verbose=args.verbose,
                )
    except ServiceError as exc:
        message = f"repro drift: {exc}"
        if exc.hint:
            message += f" (hint: {exc.hint})"
        raise SystemExit(message)
    print(report.render())
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"\n(written to {args.out})")
    return 0 if report.recovered else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from repro.experiments.chaos_campaign import run_chaos_campaign
    from repro.service import ALL_SERVICE_FAULT_MODES

    modes = tuple(args.mode or ALL_SERVICE_FAULT_MODES)
    unknown = [m for m in modes if m not in ALL_SERVICE_FAULT_MODES]
    if unknown:
        known = ", ".join(ALL_SERVICE_FAULT_MODES)
        raise SystemExit(
            f"repro chaos: unknown mode(s) {', '.join(unknown)}; "
            f"known: {known}"
        )
    benchmark, input_name = _parse_bench_spec(args.bench)
    report = run_chaos_campaign(
        benchmark=benchmark,
        input_name=input_name,
        scale=args.scale,
        seed=args.seed,
        trials=args.trials,
        modes=modes,
        runs=args.runs,
        epochs=args.epochs,
        shard_size=args.shard_size,
        jobs=args.jobs,
        work_dir=args.work_dir,
        verbose=args.verbose,
        config=getattr(args, "pipeline", None),
    )
    print(report.render())
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(
                _json.dumps(report.to_dict(), indent=2, sort_keys=True)
                + "\n"
            )
        print(f"\n(written to {args.out})")
    return 0 if report.ok else 1


def _extract_trace_flags(rest: List[str]):
    """Pull ``--export``/``--trace-out`` out of a REMAINDER list.

    argparse's REMAINDER swallows every token after the wrapped
    command, including flags meant for ``repro trace`` itself, so they
    are extracted by hand wherever they appear.
    """
    fmt, out, cleaned = "chrome", None, []
    tokens = list(rest)
    while tokens:
        token = tokens.pop(0)
        name, eq, inline = token.partition("=")
        if name not in ("--export", "--trace-out"):
            cleaned.append(token)
            continue
        if eq:
            value = inline
        elif tokens:
            value = tokens.pop(0)
        else:
            raise SystemExit(f"repro trace: {name} needs a value")
        if name == "--export":
            fmt = value
        else:
            out = value
    return fmt, out, cleaned


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.render import EXPORT_FORMATS, stage_table, write_export

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    fmt, out, cleaned = _extract_trace_flags(rest)
    if fmt not in EXPORT_FORMATS:
        raise SystemExit(
            f"repro trace: --export must be one of "
            f"{', '.join(EXPORT_FORMATS)}, got {fmt!r}"
        )
    if not cleaned:
        raise SystemExit(
            "repro trace: expected a repro command to run, e.g. "
            "`repro trace pack 134.perl`"
        )
    command = cleaned[0]
    if command in ("trace", "stats"):
        raise SystemExit(f"repro trace: cannot trace {command!r}")
    out = out or f"trace-{command}.{'json' if fmt == 'chrome' else 'jsonl'}"

    obs.reset_metrics()
    tracer = obs.enable_tracing()
    try:
        with obs.span(f"repro.{command}"):
            status = main(cleaned)
    except SystemExit as exc:
        status = int(exc.code) if isinstance(exc.code, int) else 1
    finally:
        obs.disable_tracing()
    metrics = obs.default_registry().snapshot()
    write_export(out, tracer.spans(), metrics, fmt=fmt)
    print()
    print(stage_table(tracer.spans(), metrics))
    print(f"\n(trace written to {out})")
    return status


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.render import load_export, stage_table, write_export

    try:
        spans, metrics = load_export(args.ledger)
    except OSError as exc:
        raise SystemExit(f"repro stats: {exc}")
    except ValueError as exc:
        raise SystemExit(f"repro stats: {exc}")
    print(stage_table(spans, metrics))
    if args.out:
        write_export(args.out, spans, metrics, fmt=args.export)
        print(f"\n(re-exported to {args.out})")
    return 0


def _parents(*names: str) -> List[argparse.ArgumentParser]:
    """Shared flag groups; one spelling of each flag for every command."""
    registry = {}

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PIPELINE.json", default=None,
                        help="PipelineConfig document; pipeline knobs "
                             "apply where the command packs, obs options "
                             "apply everywhere")
    registry["config"] = config

    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--scale", type=float, default=None,
                       help="dynamic-budget scale (default: REPRO_SCALE "
                            "or 1.0)")
    registry["scale"] = scale

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=None,
                      help="worker processes (0 = one per CPU; "
                           "default REPRO_JOBS or serial)")
    registry["jobs"] = jobs

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="also write the output to this file")
    registry["out"] = out

    verbose = argparse.ArgumentParser(add_help=False)
    verbose.add_argument("--verbose", action="store_true",
                         help="print per-item progress")
    registry["verbose"] = verbose

    bench_filter = argparse.ArgumentParser(add_help=False)
    bench_filter.add_argument("--bench", action="append",
                              metavar="NAME/INPUT",
                              help="restrict to one input (repeatable)")
    registry["bench_filter"] = bench_filter

    # Shared by the one-shot fleet request (serve) and the daemon
    # (server), so both spell the packing knobs identically.
    fleet = argparse.ArgumentParser(add_help=False)
    fleet.add_argument("--bench", required=True, metavar="NAME/INPUT",
                       help="benchmark binary to pack")
    fleet.add_argument("--classic", action="store_true",
                       help="also apply the classic clean-up passes")
    fleet.add_argument("--shard-size", type=int, default=1,
                       help="merged phases per farm shard (default 1)")
    fleet.add_argument("--store", default=None,
                       help="artifact store root (default "
                            "REPRO_ARTIFACT_STORE or "
                            "~/.cache/repro/artifacts; 'off' disables)")
    registry["fleet"] = fleet

    return [registry[name] for name in names]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vacuum Packing (MICRO 2002) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("table1", "benchmark/input inventory with measured sizes"),
        ("figure8", "coverage under the four formation configurations"),
        ("table3", "code expansion from package construction"),
        ("figure9", "hot-spot branch categorization"),
        ("figure10", "speedup from relayout + rescheduling"),
    ]:
        cmd = sub.add_parser(
            name, help=help_text,
            parents=_parents("config", "scale", "jobs", "out", "verbose",
                             "bench_filter"),
        )
        cmd.set_defaults(func=_cmd_experiment)

    abl = sub.add_parser(
        "ablations", help="run the three ablation studies",
        parents=_parents("config", "scale", "jobs", "out"),
    )
    abl.set_defaults(func=_cmd_ablations)

    pack = sub.add_parser(
        "pack", help="run the pipeline on one input",
        parents=_parents("config", "scale"),
    )
    pack.add_argument("benchmark", nargs="?", default="134.perl",
                      help="Table 1 benchmark (default 134.perl)")
    pack.add_argument("input", nargs="?", default="A")
    pack.add_argument("--classic", action="store_true",
                      help="also apply the classic clean-up passes")
    pack.add_argument("--strict", action="store_true",
                      help="raise on the first phase failure instead of "
                           "quarantining it")
    pack.set_defaults(func=_cmd_pack)

    faults = sub.add_parser(
        "faults",
        help="fault-injection campaign over lossy hardware profiles",
        parents=_parents("config", "scale", "jobs", "out", "verbose",
                         "bench_filter"),
    )
    faults.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (trial i uses seed+i)")
    faults.add_argument("--trials", type=int, default=20,
                        help="faulty packs per benchmark input")
    faults.add_argument("--rate", type=float, default=0.25,
                        help="per-record fault probability for each mode")
    faults.add_argument("--mode", action="append",
                        help="fault mode to enable (repeatable; default all)")
    faults.add_argument("--strict", action="store_true",
                        help="pack without the quarantine loop (errors are "
                             "counted as campaign failures)")
    faults.set_defaults(func=_cmd_faults)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing (generator + oracle stack)",
        parents=_parents("config", "jobs", "out"),
    )
    fuzz.add_argument("--seed-range", default="0:50", metavar="LO:HI",
                      help="half-open seed interval to fuzz (default 0:50)")
    fuzz.add_argument("--budget", default=None, metavar="TIME",
                      help="stop scheduling after this long (e.g. 60s, 2m)")
    fuzz.add_argument("--corpus", default=None,
                      help="corpus directory (default REPRO_FUZZ_CORPUS; "
                           "unset = no persistence)")
    fuzz.add_argument("--replay", metavar="CASE.json",
                      help="re-run one persisted repro file and exit")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report failures without minimizing them")
    fuzz.add_argument("--inject-mispatch", action="store_true",
                      help="sabotage one launch point per pack (proves the "
                           "oracles catch rewriter bugs; forces serial)")
    fuzz.set_defaults(func=_cmd_fuzz)

    ingest = sub.add_parser(
        "ingest",
        help="simulate a client fleet: N profiling runs -> profile docs",
        parents=_parents("config", "scale"),
    )
    ingest.add_argument("--bench", required=True, metavar="NAME/INPUT",
                        help="benchmark binary the fleet runs")
    ingest.add_argument("--runs", type=int, default=16,
                        help="simulated client runs (default 16)")
    ingest.add_argument("--seed", type=int, default=0,
                        help="client i profiles with behavior seed "
                             "base+i (default 0)")
    ingest.add_argument("--epochs", type=int, default=1,
                        help="spread runs over this many staleness "
                             "epochs (default 1)")
    ingest.add_argument("--out", required=True,
                        help="directory for the profile documents")
    ingest.set_defaults(func=_cmd_ingest)

    serve = sub.add_parser(
        "serve",
        help="fleet request: ingest profiles -> merge -> sharded pack "
             "-> JSON report",
        parents=_parents("config", "scale", "jobs", "out", "fleet"),
    )
    serve.add_argument("--profiles", required=True,
                       help="directory of client profile documents")
    serve.set_defaults(func=_cmd_serve)

    server = sub.add_parser(
        "server",
        help="long-running multi-tenant HTTP profile daemon: "
             "streaming NDJSON ingest routed per meta.benchmark, "
             "/tenants/<name>/{profiles,snapshot,repack}, /artifacts, "
             "dashboards, store GC",
        parents=_parents("scale", "jobs"),
    )
    server.add_argument("--config", metavar="SERVER.json", default=None,
                        help="ServerConfig document (repro.api."
                             "ServerConfig.to_dict); explicit flags "
                             "override file values")
    server.add_argument("--bench", metavar="NAME/INPUT", default=None,
                        help="default tenant's benchmark binary "
                             "(required unless --config provides it)")
    server.add_argument("--classic", action="store_true",
                        help="also apply the classic clean-up passes")
    server.add_argument("--shard-size", type=int, default=None,
                        help="merged phases per farm shard (default 1)")
    server.add_argument("--store", default=None,
                        help="artifact store root (default "
                             "REPRO_ARTIFACT_STORE or "
                             "~/.cache/repro/artifacts; 'off' disables)")
    server.add_argument("--listen", default=None,
                        metavar="HOST:PORT",
                        help="bind address (port 0 = ephemeral; "
                             "default 127.0.0.1:8080)")
    server.add_argument("--profiles", default=None,
                        help="directory of profile documents preloaded "
                             "(routed per meta.benchmark) on boot")
    server.add_argument("--gc-max-bytes", type=int, default=None,
                        help="artifact-store byte cap enforced by "
                             "periodic LRU eviction (default: GC off)")
    server.add_argument("--gc-interval", type=float, default=None,
                        help="seconds between GC sweeps (default 30)")
    server.add_argument("--checkpoint-tag", default=None, dest="checkpoint_tag",
                        help="aggregator checkpoint slot identity "
                             "(default 'server'); daemons sharing a "
                             "store and tag resume each other's state")
    server.set_defaults(func=_cmd_server)

    drift = sub.add_parser(
        "drift",
        help="continuous re-optimization loop: simulate epochs, inject "
             "drift, detect decay, re-pack, measure time-to-recover",
        parents=_parents("config", "scale", "jobs", "out", "verbose"),
    )
    drift.add_argument("--bench", required=True, metavar="NAME/INPUT",
                       help="benchmark binary the fleet runs")
    drift.add_argument("--epochs", type=int, default=6,
                       help="service epochs to simulate (default 6)")
    drift.add_argument("--clients", type=int, default=4,
                       help="client profiling runs per epoch (default 4)")
    drift.add_argument("--seed", type=int, default=0,
                       help="base seed for clients and the drift draw")
    drift.add_argument("--drift-epoch", type=int, default=2,
                       help="epoch at which fleet behavior drifts "
                            "(default 2)")
    drift.add_argument("--severity", type=float, default=0.5,
                       help="fraction of cold guards that warm up "
                            "(default 0.5)")
    drift.add_argument("--warm-bias", type=float, default=0.4,
                       help="taken probability a warmed guard acquires "
                            "(default 0.4)")
    drift.add_argument("--epoch-window", type=int, default=2,
                       help="epochs of profiles a re-aggregation looks "
                            "back over (default 2)")
    drift.add_argument("--decay-threshold", type=float, default=0.1,
                       help="relative coverage decay that counts as a "
                            "strike (default 0.1)")
    drift.add_argument("--min-staleness", type=int, default=1,
                       help="artifact staleness before decay counts "
                            "(default 1)")
    drift.add_argument("--patience", type=int, default=1,
                       help="consecutive decayed epochs before a re-pack "
                            "(default 1)")
    drift.add_argument("--shard-size", type=int, default=1,
                       help="merged phases per farm shard (default 1)")
    drift.add_argument("--store", default=None,
                       help="artifact store root (default: off for a "
                            "self-contained run)")
    drift.add_argument("--work-dir", default=None,
                       help="keep per-epoch profiles here (default: a "
                            "temporary directory)")
    drift.set_defaults(func=_cmd_drift)

    chaos = sub.add_parser(
        "chaos",
        help="fleet chaos campaign: inject service-scale faults and "
             "check the farm self-heals to the fault-free pack",
        parents=_parents("config", "scale", "jobs", "out", "verbose"),
    )
    chaos.add_argument("--bench", default="181.mcf/A", metavar="NAME/INPUT",
                       help="benchmark binary the fleet runs "
                            "(default 181.mcf/A)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign seed (fleet, fault placement, "
                            "backoff)")
    chaos.add_argument("--trials", type=int, default=1,
                       help="injections per fault mode (default 1)")
    chaos.add_argument("--mode", action="append",
                       help="fault mode to enable (repeatable; "
                            "default all)")
    chaos.add_argument("--runs", type=int, default=6,
                       help="simulated client runs (default 6)")
    chaos.add_argument("--epochs", type=int, default=2,
                       help="staleness epochs the fleet spans (default 2)")
    chaos.add_argument("--shard-size", type=int, default=1,
                       help="merged phases per farm shard (default 1)")
    chaos.add_argument("--work-dir", default=None,
                       help="keep trial state here (default: a temporary "
                            "directory)")
    chaos.set_defaults(func=_cmd_chaos)

    trace = sub.add_parser(
        "trace",
        help="run any repro command with span tracing; prints the "
             "per-stage table and writes the ledger",
    )
    trace.add_argument("rest", nargs=argparse.REMAINDER,
                       metavar="COMMAND [args...]",
                       help="the repro command to trace; accepts "
                            "--export chrome|jsonl and --trace-out PATH")
    trace.set_defaults(func=_cmd_trace)

    stats = sub.add_parser(
        "stats",
        help="render the per-stage table from a written trace ledger",
        parents=_parents("out"),
    )
    stats.add_argument("ledger", help="a ledger written by repro trace")
    stats.add_argument("--export", choices=("chrome", "jsonl"),
                       default="chrome",
                       help="format for --out re-export (default chrome)")
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # `repro server --config` is a ServerConfig document, parsed by the
    # command itself; everywhere else --config is a pipeline document.
    if getattr(args, "command", None) == "server":
        args.pipeline = None
    else:
        args.pipeline = _load_pipeline_config(getattr(args, "config", None))
    if args.pipeline is not None and args.pipeline.obs.trace:
        from repro.api import _traced

        with _traced(args.pipeline):
            return args.func(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
