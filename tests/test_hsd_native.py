"""The native HSD port against the detector fed event by event.

:func:`repro.hsd.native.try_consume` (the ``hsd_stream`` C port behind
:meth:`~repro.engine.listeners.HSDListener.consume_trace`) must leave
the listener exactly as calling it once per retired branch does: the
same raw and accepted records, with each record's branch dict in the
same order (serialized documents preserve it), the same residual BBB
sets, HDC, timers and stats.  Both sides go through the listener,
because :meth:`HotSpotFilter.accept` mutates the records it accepts.

The comparison holds under ``REPRO_NATIVE=off`` too; there the port
cannot load, and the counter ``hsd.native.events`` must say so.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.listeners import HSDListener
from repro.engine.native import native_kernel
from repro.engine.trace_cache import image_for, record_trace
from repro.fuzz import load_case
from repro.hsd import HotSpotDetector, HSDConfig
from repro.obs.metrics import MetricsRegistry, swap_registry
from repro.workloads.suite import load_benchmark
from tests.test_batched_engine import CORPUS_FILES, SUITE_INPUTS

#: The paper's Table 2 BBB (512 sets x 4 ways), a small and a large one.
GEOMETRIES = {
    "table2": HSDConfig(),
    "64x2": HSDConfig(bbb_sets=64, bbb_ways=2),
    "1024x8": HSDConfig(bbb_sets=1024, bbb_ways=8),
}


def _records(records):
    return [
        (
            record.index,
            record.detected_at_branch,
            [(a, p.executed, p.taken) for a, p in record.branches.items()],
        )
        for record in records
    ]


def listener_state(listener):
    """Everything the port commits, in comparable form."""
    detector = listener.detector
    bbb = detector.bbb
    return {
        "raw": _records(detector.records),
        "accepted": _records(listener.unique_records),
        "raw_detections": listener.raw_detections,
        "bbb": [
            [
                (a, e.executed, e.taken, e.candidate, e.last_use)
                for a, e in entries.items()
            ]
            for entries in bbb._sets
        ],
        "bbb_tick": bbb._tick,
        "misses_untracked": bbb.misses_untracked,
        "hdc": detector.hdc,
        "timers": (
            detector._branches_since_refresh,
            detector._branches_since_clear,
            detector._tick_at_last_refresh,
        ),
        "stats": detector.stats,
    }


def per_event(listener, uids, takens):
    for uid, taken in zip(uids, takens):
        listener(uid, taken, 0)


def consumed(listener, uids, takens):
    """``listener.consume_trace(uids, takens)`` and the events the
    native port took, from ``hsd.native.events``."""
    registry = MetricsRegistry()
    previous = swap_registry(registry)
    try:
        listener.consume_trace(uids, takens)
    finally:
        swap_registry(previous)
    return registry.counter("hsd.native.events")


def assert_port_matches(workload, config):
    address_of = dict(image_for(workload.program).instruction_address)
    trace = record_trace(workload)
    stream = HSDListener(HotSpotDetector(config), address_of)
    events = consumed(stream, trace.uids, trace.taken)
    assert events == (len(trace) if native_kernel() is not None else 0)
    oracle = HSDListener(HotSpotDetector(config), address_of)
    per_event(oracle, trace.uids.tolist(), trace.taken.tolist())
    assert listener_state(stream) == listener_state(oracle)
    return stream


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize(
    "bench,input_name", SUITE_INPUTS,
    ids=[f"{b}/{i}" for b, i in SUITE_INPUTS],
)
def test_suite_port_matches_per_event(bench, input_name, geometry):
    workload = load_benchmark(bench, input_name, scale=0.05)
    stream = assert_port_matches(workload, GEOMETRIES[geometry])
    if geometry == "table2":
        assert stream.raw_detections > 0


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_port_matches_per_event(path, geometry):
    assert_port_matches(load_case(path).workload, GEOMETRIES[geometry])


def test_port_declines_a_detector_that_has_observed():
    """A detector with history takes ``observe_stream`` for the rest of
    the stream, and still ends where the per-event path does."""
    workload = load_benchmark("130.li", "B", scale=0.05)
    address_of = dict(image_for(workload.program).instruction_address)
    trace = record_trace(workload)
    uids, takens = trace.uids.tolist(), trace.taken.tolist()
    head = len(uids) // 3
    stream = HSDListener(HotSpotDetector(), address_of)
    per_event(stream, uids[:head], takens[:head])
    assert consumed(stream, trace.uids[head:], trace.taken[head:]) == 0
    oracle = HSDListener(HotSpotDetector(), address_of)
    per_event(oracle, uids, takens)
    assert listener_state(stream) == listener_state(oracle)
    assert stream.raw_detections > 0
