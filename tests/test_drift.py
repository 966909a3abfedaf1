"""Drift injection, the decay detector, and the re-optimization loop."""

import pytest

from repro.service import (
    ArtifactStore,
    ControllerConfig,
    DriftDetector,
    DriftSpec,
    apply_drift,
    run_controller,
)
from repro.workloads.suite import load_benchmark

BENCH, INPUT, SCALE = "181.mcf", "A", 0.2


def _cold_positions(behavior, cold_before):
    """Indices (within the pristine cold list) that are now warm."""
    still_cold = set(behavior.default_cold_branches())
    return [
        position for position, uid in enumerate(cold_before)
        if uid not in still_cold
    ]


class TestApplyDrift:
    def test_warms_a_severity_fraction_of_cold_guards(self):
        workload = load_benchmark(BENCH, INPUT, scale=SCALE)
        behavior = workload.behavior
        cold = behavior.default_cold_branches()
        assert cold  # the generator pins never-taken guards at 0.0
        spec = DriftSpec(epoch=2, severity=0.5, warm_bias=0.4)
        warmed = apply_drift(behavior, spec)
        assert 0 < warmed <= len(cold)
        assert len(behavior.default_cold_branches()) == len(cold) - warmed
        for uid in set(cold) - set(behavior.default_cold_branches()):
            assert behavior.prob(uid, phase=0) == spec.warm_bias

    def test_extreme_severities(self):
        workload = load_benchmark(BENCH, INPUT, scale=SCALE)
        cold = workload.behavior.default_cold_branches()
        assert apply_drift(workload.behavior, DriftSpec(severity=0.0)) == 0
        assert apply_drift(
            workload.behavior, DriftSpec(severity=1.0)
        ) == len(cold)
        assert workload.behavior.default_cold_branches() == []

    def test_idempotent_for_a_given_spec(self):
        workload = load_benchmark(BENCH, INPUT, scale=SCALE)
        spec = DriftSpec(severity=0.5)
        first = apply_drift(workload.behavior, spec)
        assert first > 0
        # Surviving cold guards keep their losing draws: nothing new.
        assert apply_drift(workload.behavior, spec) == 0

    def test_same_structural_branches_across_seeded_rebuilds(self):
        # Clients rebuild their own workload instances; uids differ but
        # registration order is identical, so the same drift must hit
        # the same *positions* in each instance's cold list.
        spec = DriftSpec(severity=0.5, seed=3)
        positions = []
        for _ in range(2):
            workload = load_benchmark(BENCH, INPUT, scale=SCALE)
            cold = workload.behavior.default_cold_branches()
            apply_drift(workload.behavior, spec)
            positions.append(_cold_positions(workload.behavior, cold))
        assert positions[0] == positions[1]
        assert positions[0]  # something actually warmed

    def test_restore_biases_undoes_drift(self):
        workload = load_benchmark(BENCH, INPUT, scale=SCALE)
        behavior = workload.behavior
        pristine = behavior.bias_snapshot()
        cold = behavior.default_cold_branches()
        apply_drift(behavior, DriftSpec(severity=1.0))
        assert behavior.default_cold_branches() == []
        behavior.restore_biases(pristine)
        assert behavior.default_cold_branches() == cold

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DriftSpec(severity=1.5)
        with pytest.raises(ValueError):
            DriftSpec(warm_bias=0.0)
        with pytest.raises(ValueError):
            DriftSpec(epoch=-1)


class TestDriftDetector:
    def test_both_gates_must_open(self):
        detector = DriftDetector(decay_threshold=0.1, min_staleness=2)
        assert not detector.observe(decay=0.5, staleness=1)  # fresh
        assert not detector.observe(decay=0.05, staleness=5)  # fits
        assert detector.observe(decay=0.5, staleness=2)

    def test_patience_debounces_single_epoch_blips(self):
        detector = DriftDetector(decay_threshold=0.1, min_staleness=1,
                                 patience=2)
        assert not detector.observe(decay=0.3, staleness=1)
        assert not detector.observe(decay=0.0, staleness=2)  # blip ended
        assert detector.strikes == 0
        assert not detector.observe(decay=0.3, staleness=3)
        assert detector.observe(decay=0.3, staleness=4)

    def test_reset_clears_strikes(self):
        detector = DriftDetector(patience=1)
        assert detector.observe(decay=0.5, staleness=1)
        detector.reset()
        assert detector.strikes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(decay_threshold=-0.1)
        with pytest.raises(ValueError):
            DriftDetector(patience=0)


class TestControllerEndToEnd:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        # A private store: the user's default store would leak artifacts
        # out of the suite and, once warm, turn every re-pack into a hit.
        return ArtifactStore(str(tmp_path_factory.mktemp("store")))

    @pytest.fixture(scope="class")
    def report(self, store, tmp_path_factory):
        config = ControllerConfig(
            benchmark=BENCH,
            input_name=INPUT,
            scale=SCALE,
            epochs=5,
            clients_per_epoch=3,
            epoch_window=2,
            drift=DriftSpec(epoch=2, severity=0.5),
        )
        work = tmp_path_factory.mktemp("controller")
        return run_controller(config, work, jobs=2, store=store)

    def test_repacks_pack_into_the_private_store(self, report, store):
        farm = report.document["farm"]
        assert farm["packed_shards"] > 0
        assert farm["store_root"] == store.root

    def test_drift_is_detected_and_recovered(self, report):
        recovery = report.document["recovery"]
        assert recovery["drift_epoch"] == 2
        assert recovery["warmed_branches"] > 0
        assert recovery["detected_epoch"] is not None
        assert recovery["repack_epochs"]
        assert report.recovered
        assert report.time_to_recover is not None
        assert report.time_to_recover >= 0

    def test_probe_coverage_decays_at_the_drift_epoch(self, report):
        rows = {row["epoch"]: row for row in report.document["epochs"]}
        assert rows[2]["drifted"]
        assert rows[2]["probe_coverage"] < rows[1]["probe_coverage"]
        assert rows[2]["decay"] > 0.1
        recovery = report.document["recovery"]
        assert recovery["drifted_coverage"] < recovery["pre_drift_coverage"]
        assert (
            recovery["post_recovery_coverage"]
            >= recovery["drifted_coverage"]
        )

    def test_event_log_tells_the_story_in_order(self, report):
        kinds = [event["kind"] for event in report.document["events"]]
        assert kinds.index("ship") < kinds.index("drift")
        assert kinds.index("drift") <= kinds.index("detect")
        assert kinds.index("detect") <= kinds.index("repack")
        assert "recover" in kinds

    def test_render_mentions_recovery(self, report):
        text = report.render()
        assert "recovered in" in text
        assert "drift at epoch 2" in text

    def test_document_round_trips_through_json(self, report):
        import json

        document = json.loads(report.to_json())
        assert document["controller_version"] == 1
        assert len(document["epochs"]) == 5


class TestControllerStreamingOracle:
    def test_shipped_fleets_equal_the_batch_merge_of_every_epoch(
        self, tmp_path, monkeypatch
    ):
        """The controller folds every upload into one aggregator and
        lets its merge policy age old epochs; each fleet it ships must
        equal the batch oracle over every epoch directory written so
        far (not just the window's: the policy, not the file set, ages
        the old epochs)."""
        import repro.service.controller as controller
        from repro.service import ArtifactStore, ingest_paths, merge_runs

        config = ControllerConfig(
            benchmark=BENCH,
            input_name=INPUT,
            scale=SCALE,
            epochs=7,
            clients_per_epoch=3,
            epoch_window=1,
            drift=DriftSpec(epoch=3, severity=0.5),
        )
        work = tmp_path / "work"
        shipped = []
        pack_fleet = controller.pack_fleet

        def spy(fleet, *args, **kwargs):
            oracle = merge_runs(
                ingest_paths(work.glob("epoch-*/*.json")),
                config.merge_policy(),
            )
            shipped.append((fleet, oracle))
            return pack_fleet(fleet, *args, **kwargs)

        monkeypatch.setattr(controller, "pack_fleet", spy)
        report = run_controller(
            config, work, jobs=1, store=ArtifactStore("off")
        )
        repacks = report.document["recovery"]["repack_epochs"]
        assert repacks and len(shipped) == 1 + len(repacks)
        for fleet, oracle in shipped:
            assert fleet.digest() == oracle.digest()
        # The window really aged epochs out of a re-pack.
        assert any(fleet.aged_out for fleet, _ in shipped)
