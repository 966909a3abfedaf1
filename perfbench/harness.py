"""Shared plumbing of the layered benchmark.

Everything the three workloads have in common lives here: the
per-run directory layout and child-process environment (every store,
trace cache and native-kernel build stays inside the checkout), the
daemon subprocess handle, the Figure-10 evaluation of a packed binary,
operation/failure accounting, and the small statistics helpers.

Nothing in this module imports :mod:`repro` at import time: ``run.py``
first checks that the checkout holds the program and only then puts
``src/`` on ``sys.path``.
"""

from __future__ import annotations

import gc
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes: per-run scratch, traces, the
#: native-kernel build.  Listed in the repository's ``.gitignore``.
WORK = os.path.join(HERE, ".work")

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

_BANNER = re.compile(r"listening on http://[^:]+:(\d+) ")


class BenchFailure(Exception):
    """A named output check failed; the run is not correct."""


def checkout_has_program() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_checkout_sources() -> None:
    """Import :mod:`repro` from this checkout, never an installed copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def reset_vmhwm() -> None:
    """Restart this process's peak-RSS mark from its current RSS."""
    gc.collect()
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def vmhwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM line in /proc/{pid}/status")


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    """Attempted and failed operations of one run (``error_rate``)."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 20:
            self.reasons.append(what)

    def record(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Context:
    """One benchmark invocation: workload, seed, size and layout."""

    workload: str
    seed: int
    seconds: int
    trace: bool
    #: Per-run scratch directory, removed when the run ends.
    scratch: str
    ledger: Ledger = field(default_factory=Ledger)
    #: Fixed delays injected into wrapped entry points (self-check).
    delays: Dict[str, float] = field(default_factory=dict)

    def path(self, *parts: str) -> str:
        path = os.path.join(self.scratch, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def fresh_dir(self, *parts: str) -> str:
        path = os.path.join(self.scratch, *parts)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def trace_file(self) -> str:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        return os.path.join(
            WORK, "traces", f"{self.workload}-seed{self.seed}.json"
        )


#: Environment knobs of the program: a run measures its defaults, so
#: none may leak in from the caller's shell.
PROGRAM_KNOBS = (
    "REPRO_OBS", "REPRO_ENGINE", "REPRO_SCALE", "REPRO_JOBS", "REPRO_CHAOS",
    "REPRO_NATIVE", "REPRO_BATCH_KERNEL", "REPRO_ARTIFACT_STORE",
    "REPRO_TRACE_CACHE",
)


def isolate_environment(scratch: str) -> None:
    """Clear the program's knobs and pin every cache and temporary
    file inside the checkout (the native-kernel build included), for
    this process and every child it starts — a run never touches
    ``~/.cache`` or ``/tmp``."""
    for name in PROGRAM_KNOBS:
        os.environ.pop(name, None)
    os.environ["PYTHONPATH"] = SRC
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(WORK, "native")
    os.environ["XDG_CACHE_HOME"] = os.path.join(WORK, "xdg")
    os.environ["REPRO_ARTIFACT_STORE"] = os.path.join(scratch, "store")
    # Compilers and tempfile users write here instead of /tmp.
    os.environ["TMPDIR"] = os.path.join(scratch, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    tempfile.tempdir = None
    use_trace_cache(os.path.join(scratch, "traces"))


def use_trace_cache(path: str) -> None:
    """Point this process at the (empty) trace cache ``path``."""
    from repro.engine.trace_cache import reset_default_cache

    os.environ["REPRO_TRACE_CACHE"] = path
    reset_default_cache()


def warm_native_kernel() -> None:
    """Build (once per checkout) the native kernel the engine and the
    detector share, so no timed region ever pays a compile."""
    from repro.engine.native import native_kernel

    native_kernel()


# ---------------------------------------------------------------------------
# the daemon subprocess
# ---------------------------------------------------------------------------

class Daemon:
    """``repro server`` started through the benchmark's launcher."""

    def __init__(
        self,
        ctx: Context,
        bench: str,
        store: str,
        tag: str,
        trace_cache: str,
        jobs: Optional[int] = None,
        trace_out: Optional[str] = None,
    ):
        args = [
            sys.executable, os.path.join(HERE, "launcher.py"),
        ]
        if trace_out:
            args += ["--trace-out", trace_out]
        for name, seconds in sorted(ctx.delays.items()):
            args += ["--delay", f"{name}={seconds}"]
        args += [
            "--", "server", "--bench", bench, "--listen", "127.0.0.1:0",
            "--store", store, "--checkpoint-tag", tag,
        ]
        if jobs is not None:
            args += ["--jobs", str(jobs)]
        env = dict(os.environ, REPRO_TRACE_CACHE=trace_cache,
                   REPRO_ARTIFACT_STORE=store)
        # Tracing is the launcher's call (--trace-out), never inherited.
        env.pop("REPRO_OBS", None)
        self.log_path = ctx.path("logs", f"daemon-{tag}.log")
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.port = self._read_port(timeout=60.0)
        # Keep draining stdout so the daemon never blocks on a full pipe.
        self._drain = threading.Thread(
            target=self._pump, name="daemon-stdout", daemon=True
        )
        self._drain.start()

    def _read_port(self, timeout: float) -> int:
        found: List[int] = []

        def scan() -> None:
            for line in self.process.stdout:
                self._log.write(line)
                match = _BANNER.search(line)
                if match:
                    found.append(int(match.group(1)))
                    return

        reader = threading.Thread(target=scan, daemon=True)
        reader.start()
        reader.join(timeout)
        if not found:
            self.kill()
            raise BenchFailure(
                f"daemon did not print its banner within {timeout:g}s "
                f"(log: {self.log_path})"
            )
        return found[0]

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._log.write(line)

    def client(self):
        from repro.server import DaemonClient

        return DaemonClient("127.0.0.1", self.port, timeout=60.0)

    def rss_mb(self) -> float:
        return vmhwm_mb(self.process.pid)

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, then wait for the final checkpoint and exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchFailure("daemon did not stop after SIGTERM")
        self._drain.join(timeout=5.0)
        self._log.close()
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30.0)
        if not self._log.closed:
            self._log.close()


# ---------------------------------------------------------------------------
# phases and packing quality
# ---------------------------------------------------------------------------

def set_up(ctx: Context, build, discard=None):
    """Run ``build(attempt, last)`` :data:`SETUP_REPEATS` times (once
    when tracing) and keep the last set-up; ``discard`` releases each
    earlier one (a daemon to stop).  Returns (setup, median seconds).
    """
    repeats = 1 if ctx.trace else SETUP_REPEATS
    seconds = []
    setup = None
    for attempt in range(repeats):
        if setup is not None and discard is not None:
            discard(setup)
        started = time.perf_counter()
        with phase("bench.setup"):
            setup = build(attempt, attempt == repeats - 1)
        seconds.append(time.perf_counter() - started)
    return setup, median(seconds)


@dataclass
class Outcome:
    """What one workload pass measured."""

    #: End-to-end metrics by name (every workload reports all of them).
    metrics: Dict[str, float]
    #: The workload's own headline numbers, printed: name -> (value, unit).
    details: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer inputs measured outside the trace (client side).
    layer_inputs: Dict[str, float] = field(default_factory=dict)
    #: Daemon trace file of a traced pass ("" when none).
    daemon_trace: str = ""


@contextmanager
def phase(name: str, **attributes):
    """A benchmark-side span (no-op while tracing is off)."""
    from repro.obs import span

    with span(name, **attributes) as entry:
        yield entry


@dataclass
class Evaluation:
    """One packed binary: pack cost, Figure-10 cost, paper quality."""

    name: str
    pack_s: float
    figure10_s: float
    coverage: float
    speedup: float
    code_growth_pct: float
    result: object = field(default=None, repr=False)


def evaluate(ctx: Context, name: str, copies: Sequence, pack,
             timings: int) -> Evaluation:
    """Pack one input and evaluate it under the Figure-10 model.

    ``copies`` are freshly built instances of the same input, one per
    timed pack: each ``pack(copy)`` (a ``repro`` pack call returning a
    :class:`~repro.postlink.vacuum.PackResult`) starts from an empty
    trace cache and an unlinked program, so every repetition does the
    same work.  The timing model runs the original and the packed
    binary ``timings`` times.  Packs and timing runs alternate, so
    both sets of samples spread over the whole evaluation rather than
    one slow spell of the host; ``pack_s`` and ``figure10_s`` are the
    medians.
    """
    from repro.cpu.timing import TimingSimulator
    from repro.optimize.passes import baseline_block_costs, packed_block_costs

    label = name.replace("/", "_")
    pack_times: List[float] = []
    timing_times: List[float] = []
    for step in range(max(len(copies), timings)):
        if step < len(copies):
            use_trace_cache(ctx.fresh_dir("caches", f"{label}-{step}"))
            with phase("bench.pack", input=name):
                started = time.perf_counter()
                result = pack(copies[step])
                pack_times.append(time.perf_counter() - started)
        if step < timings:
            workload = result.workload
            with phase("bench.figure10", input=name):
                started = time.perf_counter()
                baseline = TimingSimulator(
                    workload.program, baseline_block_costs(workload.program)
                ).run(workload)
                costs = packed_block_costs(
                    result.packed.program, result.packed.package_names
                )
                packed = TimingSimulator(
                    result.packed.program, costs
                ).run(workload)
                timing_times.append(time.perf_counter() - started)
    return Evaluation(
        name=name,
        pack_s=median(pack_times),
        figure10_s=median(timing_times),
        coverage=result.coverage.package_fraction,
        speedup=baseline.cycles / packed.cycles,
        code_growth_pct=result.expansion_row()["pct_increase"],
        result=result,
    )


def check_pack(ctx: Context, evaluation: Evaluation,
               differential: bool) -> None:
    """Every pack validates clean; optionally replays clean too."""
    from repro.postlink.validate import differential_check

    result = evaluation.result
    clean = (not result.diagnostics and result.validation is not None
             and result.validation.ok)
    ctx.ledger.record(clean, f"pack {evaluation.name}: quarantine or "
                             f"validation failure")
    if not clean:
        raise BenchFailure(
            f"check pack_validation failed for {evaluation.name}: "
            + "; ".join(d.render() for d in result.diagnostics[:3])
        )
    if differential:
        report = differential_check(result.workload, result.packed)
        if not report.ok:
            raise BenchFailure(
                f"check differential failed for {evaluation.name}: "
                f"{report.render()}"
            )
