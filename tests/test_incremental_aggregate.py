"""Streaming incremental aggregation: the determinism contract.

The contract under test (``docs/service.md``, "Streaming
aggregation"): ingest order must not change the merged fleet profile
beyond :data:`repro.service.aggregate.CONTRACT`, and the streaming
:class:`~repro.service.aggregate.IncrementalAggregator` must match the
from-scratch batch aggregator within that tolerance — on synthetic
fleets (hypothesis, arbitrary permutations) and on every workload in
the Table 1 suite (real profiles).  Plus the operational properties
that make streaming deployable: checkpoint/restore through the
artifact store with every corruption path degrading to a cold start,
per-path dedup so a restarted service re-scans without re-ingesting,
and the ``service.agg.*`` observability counters.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.hsd.records import BranchProfile, HotSpotRecord
from repro.service import (
    AGGREGATOR_STATE_VERSION,
    ArtifactStore,
    ClientRun,
    IncrementalAggregator,
    MergePolicy,
    checkpoint_key,
    equivalence_diffs,
    merge_runs,
    profiles_equivalent,
    simulate_fleet,
)
from repro.workloads.suite import SUITE


def rec(index, branches, detected=None):
    """branches = {address: (executed, taken)}"""
    return HotSpotRecord(
        index=index,
        detected_at_branch=detected if detected is not None else min(branches),
        branches={
            addr: BranchProfile(addr, executed, taken)
            for addr, (executed, taken) in branches.items()
        },
    )


def client(run_id, records, epoch=0, seed=0):
    return ClientRun(
        run_id=run_id, seed=seed, epoch=epoch,
        path=f"{run_id}.json", records=records,
    )


def stream(runs, policy=None):
    agg = IncrementalAggregator(policy)
    for run in runs:
        agg.ingest_run(run)
    return agg


# ---------------------------------------------------------------------------
# hypothesis: order invariance on synthetic fleets
# ---------------------------------------------------------------------------

#: Phase families with disjoint address ranges and biases kept clear of
#: the 0.7 similarity threshold, so the section 3.1 criterion is an
#: equivalence relation on the generated records — the regime the
#: determinism contract is stated for (well-separated phases).
@st.composite
def fleets(draw):
    n_families = draw(st.integers(1, 4))
    families = []
    for k in range(n_families):
        n_branches = draw(st.integers(3, 8))
        base = {}
        for i in range(n_branches):
            executed = draw(st.integers(100, 10_000))
            ratio = draw(st.one_of(
                st.floats(0.0, 0.6), st.floats(0.8, 1.0),
            ))
            base[0x10000 * (k + 1) + 8 * i] = (executed, ratio)
        families.append(base)
    n_runs = draw(st.integers(2, 8))
    runs = []
    for j in range(n_runs):
        member_of = draw(
            st.lists(st.integers(0, n_families - 1), min_size=1,
                     max_size=n_families, unique=True)
        )
        records = []
        for slot, k in enumerate(sorted(member_of)):
            factor = draw(st.floats(0.5, 4.0))
            branches = {}
            for address, (executed, ratio) in families[k].items():
                scaled = max(50, int(executed * factor))
                branches[address] = (scaled, min(int(scaled * ratio), scaled))
            records.append(rec(slot, branches))
        runs.append(client(
            f"r{j:02d}", records,
            epoch=draw(st.integers(0, 3)), seed=j,
        ))
    return runs


POLICIES = [
    MergePolicy(),
    MergePolicy(epoch_window=2),
    MergePolicy(epoch_window=2, max_epoch_skew=1),
    MergePolicy(branch_quorum=0.8, min_runs=2),
]


class TestOrderInvariance:
    @settings(max_examples=40, deadline=None)
    @given(fleets(), st.integers(0, len(POLICIES) - 1), st.randoms())
    def test_permuting_ingest_order_stays_within_contract(
        self, runs, policy_index, rng
    ):
        policy = POLICIES[policy_index]
        batch = merge_runs(
            sorted(runs, key=lambda r: r.run_id), policy
        )
        shuffled = list(runs)
        rng.shuffle(shuffled)
        snap = stream(shuffled, policy).snapshot()
        assert equivalence_diffs(batch, snap) == []

    @settings(max_examples=20, deadline=None)
    @given(fleets(), st.randoms())
    def test_two_streaming_orders_agree_with_each_other(self, runs, rng):
        a = list(runs)
        b = list(runs)
        rng.shuffle(b)
        snap_a = stream(a).snapshot()
        snap_b = stream(b).snapshot()
        assert equivalence_diffs(snap_a, snap_b) == []
        # Merged counters are integer sums divided once, so when the
        # orders agree on membership (always, for separated phases)
        # the snapshots are bit-identical, not merely within tolerance.
        assert snap_a.digest() == snap_b.digest()

    def test_contract_tolerance_catches_real_divergence(self):
        # equivalence_diffs must actually report, not rubber-stamp.
        a = stream([client("r0", [rec(0, {0x10: (100, 90)})])]).snapshot()
        b = stream([client("r0", [rec(0, {0x10: (200, 90)})])]).snapshot()
        diffs = equivalence_diffs(a, b)
        assert diffs and "executed" in diffs[0]
        c = stream([client("r1", [rec(0, {0x10: (100, 90)})])]).snapshot()
        assert any("run_ids" in d for d in equivalence_diffs(a, c))


# ---------------------------------------------------------------------------
# the whole Table 1 suite: real profiles, streaming == batch
# ---------------------------------------------------------------------------

SUITE_SCALE = 0.1
SUITE_CLIENTS = 3


@pytest.fixture(scope="module")
def suite_fleets(tmp_path_factory):
    """A small real fleet per suite workload (batched engine)."""
    root = tmp_path_factory.mktemp("suite-fleets")
    dirs = {}
    for entry in SUITE:
        out = root / entry.full_name.replace("/", "_")
        simulate_fleet(
            entry.benchmark, entry.input_name, runs=SUITE_CLIENTS,
            out_dir=out, base_seed=3, epochs=2, scale=SUITE_SCALE,
        )
        dirs[entry.full_name] = out
    return dirs


class TestSuiteEquivalence:
    def test_streaming_matches_batch_on_every_suite_workload(
        self, suite_fleets
    ):
        from repro.service import ingest_dir

        failures = {}
        for name, out in suite_fleets.items():
            paths = sorted(out.glob("*.json"))
            batch = merge_runs(ingest_dir(out))
            for order in (paths, list(reversed(paths))):
                agg = IncrementalAggregator()
                for path in order:
                    assert agg.ingest_path(path)
                diffs = equivalence_diffs(batch, agg.snapshot())
                if diffs:
                    failures[name] = diffs
                    break
        assert not failures, failures

    def test_membership_weights_and_provenance_agree_exactly(
        self, suite_fleets
    ):
        # Spot-check the strongest form on one workload: identical
        # membership/provenance and bit-identical counters mean the
        # profile digests (and hence all artifact-store keys
        # downstream) coincide.
        name, out = sorted(suite_fleets.items())[0]
        from repro.service import ingest_dir

        batch = merge_runs(ingest_dir(out))
        agg = IncrementalAggregator()
        agg.ingest_paths(sorted(out.glob("*.json")))
        snap = agg.snapshot()
        assert [p.provenance.to_dict() for p in snap.phases] == [
            p.provenance.to_dict() for p in batch.phases
        ]
        assert snap.digest() == batch.digest()


# ---------------------------------------------------------------------------
# checkpoint / restore and its corruption paths
# ---------------------------------------------------------------------------

def small_fleet():
    return [
        client("r0", [rec(0, {0x10: (100, 90), 0x18: (80, 10)})], epoch=0),
        client("r1", [rec(0, {0x10: (140, 120), 0x18: (90, 12)})], epoch=1),
        client("r2", [rec(1, {0x99: (500, 100)})], epoch=1),
    ]


class TestCheckpoint:
    def make_store(self, tmp_path):
        return ArtifactStore(root=str(tmp_path / "store"))

    def checkpoint(self, tmp_path, policy=None):
        store = self.make_store(tmp_path)
        agg = stream(small_fleet(), policy)
        assert agg.save_checkpoint(store, "t")
        return store, agg

    def entry_path(self, store, policy=None):
        return store.path_of(checkpoint_key("t", policy or MergePolicy()))

    def test_restore_resumes_without_reingesting(self, tmp_path):
        store, agg = self.checkpoint(tmp_path)
        found = IncrementalAggregator.load_checkpoint(store, "t")
        assert found is not None
        back = found.aggregator
        assert back.documents == agg.documents
        assert profiles_equivalent(back.snapshot(), agg.snapshot())
        # The restored state keeps absorbing: both sides fold one more
        # document and still agree with a from-scratch batch merge.
        extra = client("r9", [rec(0, {0x10: (90, 80), 0x18: (70, 9)})],
                       epoch=1)
        agg.ingest_run(extra)
        back.ingest_run(extra)
        batch = merge_runs(
            sorted(small_fleet() + [extra], key=lambda r: r.run_id)
        )
        assert profiles_equivalent(back.snapshot(), batch)
        assert back.snapshot().digest() == agg.snapshot().digest()

    def test_truncated_checkpoint_is_a_miss_then_cold_start(self, tmp_path):
        store, _ = self.checkpoint(tmp_path)
        path = self.entry_path(store)
        body = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(body[: len(body) // 2])
        before = obs.default_registry().counter("service.agg.checkpoint.miss")
        assert IncrementalAggregator.load_checkpoint(store, "t") is None
        assert obs.default_registry().counter(
            "service.agg.checkpoint.miss"
        ) == before + 1

    def test_stale_state_version_is_refused(self, tmp_path):
        store, _ = self.checkpoint(tmp_path)
        path = self.entry_path(store)
        entry = json.loads(open(path).read())
        entry["payload"]["agg_version"] = AGGREGATOR_STATE_VERSION + 1
        # Rewrite through the store so the outer stamp stays valid:
        # only the aggregator-level version check can catch this.
        key = checkpoint_key("t", MergePolicy())
        assert store.put(key, entry["payload"])
        before = obs.default_registry().counter(
            "service.agg.checkpoint.corrupt"
        )
        assert IncrementalAggregator.load_checkpoint(store, "t") is None
        assert obs.default_registry().counter(
            "service.agg.checkpoint.corrupt"
        ) == before + 1

    def test_hash_mismatched_state_is_never_trusted(self, tmp_path):
        store, _ = self.checkpoint(tmp_path)
        key = checkpoint_key("t", MergePolicy())
        payload = json.loads(open(self.entry_path(store)).read())["payload"]
        payload["state"]["documents"] = 999  # tamper; digest now stale
        assert store.put(key, payload)
        assert IncrementalAggregator.load_checkpoint(store, "t") is None

    def test_policy_mismatch_is_a_plain_miss(self, tmp_path):
        store, _ = self.checkpoint(tmp_path, MergePolicy())
        assert IncrementalAggregator.load_checkpoint(
            store, "t", MergePolicy(epoch_window=2)
        ) is None

    def test_malformed_state_shape_degrades_to_cold_start(self, tmp_path):
        store, agg = self.checkpoint(tmp_path)
        key = checkpoint_key("t", MergePolicy())
        state = agg.to_state()
        del state["groups"][0]["buckets"]
        assert store.put(key, {
            "kind": "aggregator-checkpoint",
            "agg_version": AGGREGATOR_STATE_VERSION,
            "state_digest": agg.state_digest(state),
            "state": state,
        })
        assert IncrementalAggregator.load_checkpoint(store, "t") is None

    def test_disabled_store_checkpoints_are_clean_misses(self):
        store = ArtifactStore(root="off")
        agg = stream(small_fleet())
        assert not agg.save_checkpoint(store, "t")
        assert IncrementalAggregator.load_checkpoint(store, "t") is None


class TestPathDedup:
    def write_fleet(self, out):
        from repro.hsd.serialize import make_provenance, save_profile

        out.mkdir(exist_ok=True)
        for i in range(4):
            save_profile(
                out / f"client-{i}.json",
                [rec(0, {0x10: (100 + i, 90)})],
                meta={"provenance": make_provenance(f"r{i}", i, 0)},
            )

    def test_rescanning_an_unchanged_directory_is_a_noop(self, tmp_path):
        out = tmp_path / "fleet"
        self.write_fleet(out)
        agg = IncrementalAggregator()
        assert agg.ingest_paths(out.glob("*.json")) == 4
        digest = agg.snapshot().digest()
        assert agg.ingest_paths(out.glob("*.json")) == 0
        assert agg.duplicates == 4
        assert agg.documents == 4
        assert agg.snapshot().digest() == digest

    def test_changed_content_at_a_seen_path_is_refolded(self, tmp_path):
        from repro.hsd.serialize import make_provenance, save_profile

        out = tmp_path / "fleet"
        self.write_fleet(out)
        agg = IncrementalAggregator()
        agg.ingest_paths(out.glob("*.json"))
        save_profile(
            out / "client-0.json",
            [rec(0, {0x10: (900, 90)})],
            meta={"provenance": make_provenance("r0b", 0, 1)},
        )
        assert agg.ingest_paths(out.glob("*.json")) == 1
        assert agg.documents == 5

    def test_quarantined_paths_reject_with_stage_and_counter(self, tmp_path):
        out = tmp_path / "fleet"
        out.mkdir()
        (out / "bad.json").write_text("{nope")
        registry = obs.default_registry()
        before = registry.counter(
            "service.ingest.quarantined",
            exception_type="ProfileFormatError", stage="parse",
        )
        agg = IncrementalAggregator()
        assert agg.ingest_paths(out.glob("*.json")) == 0
        assert len(agg.rejected) == 1
        assert agg.rejected[0].stage == "parse"
        assert registry.counter(
            "service.ingest.quarantined",
            exception_type="ProfileFormatError", stage="parse",
        ) == before + 1
        # Rejected documents never enter the live state.
        assert agg.documents == 0


class TestAggCounters:
    def test_matched_new_clusters_folded_and_aged_out(self):
        registry = obs.default_registry()
        before = {
            name: registry.counter(f"service.agg.{name}")
            for name in ("matched", "new_clusters", "folded", "aged_out")
        }
        agg = IncrementalAggregator(MergePolicy(epoch_window=1))
        agg.ingest_run(client("r0", [rec(0, {0x10: (100, 90)})], epoch=0))
        agg.ingest_run(client("r1", [rec(0, {0x10: (120, 100)})], epoch=0))
        agg.ingest_run(client("r2", [rec(0, {0x99: (50, 10)})], epoch=9))
        agg.snapshot()
        after = {
            name: registry.counter(f"service.agg.{name}")
            for name in ("matched", "new_clusters", "folded", "aged_out")
        }
        assert after["folded"] - before["folded"] == 3
        assert after["new_clusters"] - before["new_clusters"] == 2
        assert after["matched"] - before["matched"] == 1
        assert after["aged_out"] - before["aged_out"] == 2
        # aged_out reports the delta, not the running total, so a
        # second snapshot with no new arrivals adds nothing.
        agg.snapshot()
        assert registry.counter("service.agg.aged_out") == after["aged_out"]
