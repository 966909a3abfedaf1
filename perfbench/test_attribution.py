"""Attribution self-check of the traced breakdown.

Injects a fixed delay into one wrapped entry point — every
``ArtifactStore.put`` the daemon makes — on a short traced
``fleet_ingest`` run, and checks that the benchmark pins it where it
belongs: the delay appears in ``artifacts.put`` busy time and in the
client-observed ``upload_p50_ms``, while the self time of every other
daemon layer on the upload path stays put.  Run from the repository
root::

    python3 -m pytest perfbench/test_attribution.py
"""

from __future__ import annotations

import os
import shutil

import pytest

import harness
import layers

#: Seconds slept inside every wrapped ``ArtifactStore.put`` call.
DELAY = 0.02
SEED = 11
SECONDS = 3


@pytest.fixture(scope="module")
def runs():
    if not harness.checkout_has_program():
        pytest.skip("no program in this checkout")
    harness.use_checkout_sources()
    import run

    results = {}
    for label, delays in (("plain", {}),
                          ("delayed", {"artifacts.put": DELAY})):
        scratch = os.path.join(harness.WORK,
                               f"selfcheck-{label}-{os.getpid()}")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        harness.isolate_environment(scratch)
        ctx = harness.Context(
            workload="fleet_ingest", seed=SEED, seconds=SECONDS, trace=True,
            scratch=scratch, delays=delays,
        )
        try:
            harness.warm_native_kernel()
            results[label] = run.run_traced(ctx, "fleet_ingest")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        assert ctx.ledger.failed == 0, ctx.ledger.reasons
    return daemon_stream(results["plain"]), daemon_stream(results["delayed"])


def daemon_stream(run):
    """Layer stats of the daemon during the upload stream — the layers
    on the delayed call's path — and the run's client latencies."""
    window = run.windows["bench.stream"]
    nodes = (n for n in layers.within(run.nodes, window)
             if n.side == "daemon")
    return layers.layer_stats(nodes), run.traced.details


def test_delay_lands_in_the_wrapped_layer(runs):
    (plain, _), (delayed, _) = runs
    before = plain["artifacts.put"]
    after = delayed["artifacts.put"]
    assert before.calls == after.calls > 0
    injected = DELAY * after.calls
    grown = after.busy_s - before.busy_s
    assert 0.9 * injected <= grown <= 1.1 * injected + 0.05


def test_delay_reaches_client_latency(runs):
    (_, plain), (_, delayed) = runs
    p50 = "upload_p50_ms"
    grown = delayed[p50][0] - plain[p50][0]
    # Every POST checkpoints at least one tenant, hence one put.
    assert grown >= 0.8 * DELAY * 1000


def test_other_layers_self_time_unchanged(runs):
    """No other layer absorbs the delay.  The slack is host noise on
    the layer's own time plus 5% of the injected total: a layer the
    delay leaked into would move by seconds."""
    (plain, _), (delayed, _) = runs
    injected = DELAY * delayed["artifacts.put"].calls
    for key, before in plain.items():
        if key == "artifacts.put" or not before.calls:
            continue
        after = delayed[key]
        assert after.calls == before.calls, key
        assert abs(after.self_s - before.self_s) <= \
            0.5 * before.self_s + 0.05 * injected, \
            (key, before.self_s, after.self_s)
