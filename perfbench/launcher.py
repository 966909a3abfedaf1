"""Start ``repro server`` the way the benchmark needs it.

Usage::

    python3 perfbench/launcher.py [--trace-out FILE] [--delay LAYER=S] \\
        -- server --bench 134.perl/C --listen 127.0.0.1:0 ...

Without ``--trace-out`` this is exactly ``python -m repro <args>``.
With it, the launcher enables ``repro.obs`` tracing (which also asks
farm workers to capture their spans), wraps the layer entry points
(:mod:`layers`), runs the normal CLI, and when the daemon has stopped
writes its ledger as a Chrome ``trace_event`` document through
:mod:`repro.obs.render`, stamped with the tracer's origin on the
monotonic clock so the benchmark can align it with its own spans.
``--delay`` injects a fixed sleep into one layer's wrapper; the
attribution self-check uses it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness
import layers


def _parse_delay(text: str):
    name, _, seconds = text.partition("=")
    return name, float(seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--delay", action="append", default=[],
                        type=_parse_delay, metavar="LAYER=SECONDS")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    if args.delay and args.trace_out is None:
        parser.error("--delay needs --trace-out")

    harness.use_checkout_sources()
    from repro import obs
    from repro.cli import main as repro_main
    from repro.obs.render import to_chrome

    if args.trace_out is None:
        return repro_main(cli)
    layers.install(dict(args.delay))
    origin = time.monotonic()
    tracer = obs.enable_tracing()
    try:
        return repro_main(cli)
    finally:
        obs.disable_tracing()
        document = to_chrome(tracer.spans(), obs.default_registry().snapshot())
        document["benchOrigin"] = origin
        with open(args.trace_out, "w") as handle:
            json.dump(document, handle)


if __name__ == "__main__":
    sys.exit(main())
