"""Tests for the CPU timing substrate: predictors, caches, block timing."""

import dataclasses

import pytest

from repro.cpu import (
    BranchTargetBuffer,
    FetchHierarchy,
    GsharePredictor,
    MemoryHierarchyConfig,
    ReturnAddressStack,
    SetAssociativeCache,
    TimingSimulator,
)
from repro.engine import BehaviorModel, BlockExecutor, ExecutionLimits, PhaseScript
from repro.engine.executor import StopReason
from repro.engine.native import _STACK_CAP
from repro.isa.assembler import assemble
from repro.optimize import baseline_block_costs
from repro.postlink.rewriter import clone_program
from repro.workloads.base import Workload
from repro.workloads.suite import load_benchmark


class TestGshare:
    def test_learns_constant_direction(self):
        predictor = GsharePredictor()
        for _ in range(20):
            predictor.predict_and_update(0x1000, True)
        assert predictor.predict_and_update(0x1000, True)
        assert predictor.stats.accuracy > 0.8

    def test_learns_alternating_pattern(self):
        predictor = GsharePredictor()
        correct_late = 0
        for i in range(400):
            correct = predictor.predict_and_update(0x1000, i % 2 == 0)
            if i >= 200:
                correct_late += correct
        assert correct_late > 190  # history disambiguates the pattern

    def test_random_stream_near_chance(self):
        from repro.engine.behavior import hash_unit

        predictor = GsharePredictor()
        hits = sum(
            predictor.predict_and_update(0x1000, hash_unit(1, i, 3) < 0.5)
            for i in range(4000)
        )
        assert 0.4 < hits / 4000 < 0.65

    def test_history_length(self):
        predictor = GsharePredictor(history_bits=10)
        assert predictor.table_size == 1024


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=1024, ways=4)
        assert not btb.lookup_and_update(0x1000)
        assert btb.lookup_and_update(0x1000)

    def test_capacity_eviction(self):
        btb = BranchTargetBuffer(entries=4, ways=1)
        addresses = [0x1000 + 8 * 4 * i for i in range(3)]  # same set
        for address in addresses:
            btb.lookup_and_update(address)
        # Oldest was evicted from the 1-way set.
        assert not btb.lookup_and_update(addresses[0])


class TestRAS:
    def test_push_pop_matches(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop_and_check(0x100)

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack()
        assert ras.pop() is None
        assert not ras.pop_and_check(0x100)

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        for address in (1, 2, 3):
            ras.push(address)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None  # 1 was dropped at overflow


class TestCaches:
    def test_cache_hit_after_fill(self):
        cache = SetAssociativeCache(size_bytes=1024, line_bytes=64, ways=2)
        assert not cache.access(5)
        assert cache.access(5)
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1

    def test_lru_within_set(self):
        cache = SetAssociativeCache(size_bytes=128, line_bytes=64, ways=2)
        # One set when sets = 128/(64*2) = 1.
        cache.access(0)
        cache.access(1)
        cache.access(0)  # refresh 0
        cache.access(2)  # evict 1
        assert cache.access(0)
        assert not cache.access(1)

    def test_fetch_hierarchy_penalties(self):
        config = MemoryHierarchyConfig(
            l1i_bytes=1024, l2_bytes=4096, l2_latency=10, memory_latency=100
        )
        hierarchy = FetchHierarchy(config)
        first = hierarchy.fetch_penalty(0x4000, 8)
        assert first == 100  # cold: L1 and L2 miss
        again = hierarchy.fetch_penalty(0x4000, 8)
        assert again == 0    # L1 hit

    def test_multi_line_block_counts_each_line(self):
        hierarchy = FetchHierarchy(MemoryHierarchyConfig(l1i_bytes=1024, l2_bytes=4096))
        penalty = hierarchy.fetch_penalty(0x4000, 200)  # spans 4 lines
        assert penalty == 4 * hierarchy.config.memory_latency

    def test_zero_size_block_free(self):
        hierarchy = FetchHierarchy()
        assert hierarchy.fetch_penalty(0x4000, 0) == 0


def timing_workload():
    program = assemble(
        """
        func main:
          entry:
            movi r1, 0
          loop:
            addi r1, r1, 1
            call work
          cond:
            slt r2, r1, r3
            brnz r2, loop
          done:
            halt
        func work:
          w0:
            add r4, r5, r6
            mul r7, r4, r4
            ret
        """
    )
    behavior = BehaviorModel(seed=5)
    cond_uid = next(
        uid for uid, loc in program.branch_block_index().items()
        if loc == ("main", "cond")
    )
    behavior.set_bias(cond_uid, 1.0)
    return Workload(
        "timing", program, behavior,
        PhaseScript.from_pairs([(0, 1 << 20)]),
        ExecutionLimits(max_branches=2000),
    )


def recursive_workload(depth: int) -> Workload:
    """``rec`` calls itself ``depth`` times, then unwinds to a halt."""
    program = assemble(
        """
        func main:
          entry:
            call rec
          done:
            halt
        func rec:
          top:
            addi r1, r1, 1
            brnz r1, deeper
          base:
            ret
          deeper:
            call rec
          back:
            ret
        """
    )
    (uid,) = program.branch_block_index()
    behavior = BehaviorModel(seed=5)
    behavior.set_phase_biases(uid, {0: 1.0, 1: 0.0})
    return Workload(
        "recursion", program, behavior,
        PhaseScript.from_pairs([(0, depth), (1, 1 << 20)]),
        ExecutionLimits(max_branches=depth + 10),
    )


def underflow_workload() -> Workload:
    """``main`` loops over a call, then returns with an empty stack."""
    program = assemble(
        """
        func main:
          entry:
            movi r1, 0
          loop:
            addi r1, r1, 1
            call work
          cond:
            brnz r2, loop
          out:
            ret
        func work:
          w0:
            ret
        """
    )
    (uid,) = program.branch_block_index()
    behavior = BehaviorModel(seed=5)
    behavior.set_bias(uid, 0.9)
    return Workload(
        "underflow", program, behavior,
        PhaseScript.from_pairs([(0, 1 << 20)]),
        ExecutionLimits(max_branches=2000),
    )


def btb_conflict_workload(sites: int = 6) -> Workload:
    """A loop of ``sites`` 256-instruction blocks, each ending in a
    taken transfer: the transfers sit 2 KB apart, so all of them share
    one BTB set, more than its four ways."""
    filler = "\n".join(["    add r4, r5, r6"] * 255)
    blocks = [
        f"  b{k}:\n{filler}\n    jump b{k + 1}" for k in range(sites - 1)
    ]
    blocks.append(f"  b{sites - 1}:\n{filler}\n    brnz r2, b0")
    program = assemble(
        "func main:\n" + "\n".join(blocks) + "\n  done:\n    halt\n"
    )
    (uid,) = program.branch_block_index()
    behavior = BehaviorModel(seed=5)
    behavior.set_bias(uid, 1.0)
    return Workload(
        "btb", program, behavior,
        PhaseScript.from_pairs([(0, 1 << 20)]),
        ExecutionLimits(max_branches=50),
    )


class TestTimingSimulator:
    def test_cycles_accumulate_components(self):
        workload = timing_workload()
        costs = baseline_block_costs(workload.program)
        result = TimingSimulator(workload.program, costs).run(workload)
        parts = (
            result.mispredict_cycles
            + result.fetch_bubble_cycles
            + result.icache_stall_cycles
            + result.btb_redirect_cycles
            + result.ras_penalty_cycles
        )
        assert result.cycles > parts
        assert result.instructions == result.summary.instructions

    def test_perfectly_biased_branch_predicts_well(self):
        workload = timing_workload()
        costs = baseline_block_costs(workload.program)
        result = TimingSimulator(workload.program, costs).run(workload)
        assert result.predictor_accuracy > 0.95

    def test_calls_and_returns_match_ras(self):
        workload = timing_workload()
        costs = baseline_block_costs(workload.program)
        result = TimingSimulator(workload.program, costs).run(workload)
        # Perfectly nested call/return: the RAS never mispredicts.
        assert result.ras_penalty_cycles == 0

    def test_taken_transfers_cost_bubbles(self):
        workload = timing_workload()
        costs = baseline_block_costs(workload.program)
        result = TimingSimulator(workload.program, costs).run(workload)
        # Each iteration: taken branch + call + ret = 3 bubbles.
        assert result.fetch_bubble_cycles >= 3 * 1900

    def test_deterministic(self):
        workload = timing_workload()
        costs = baseline_block_costs(workload.program)
        first = TimingSimulator(workload.program, costs).run(workload)
        second = TimingSimulator(workload.program, costs).run(workload)
        assert first.cycles == second.cycles

    @pytest.mark.parametrize("native", ["auto", "off"])
    def test_every_run_starts_cold(self, native, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", native)
        workload = timing_workload()
        costs = baseline_block_costs(workload.program)
        simulator = TimingSimulator(workload.program, costs)
        first = simulator.run(workload)
        second = simulator.run(workload)
        fresh = TimingSimulator(workload.program, costs).run(workload)
        assert first == second == fresh

    def test_native_walk_matches_the_hook_model(self, timing_paths):
        workload = timing_workload()
        costs = baseline_block_costs(workload.program)
        walk, oracle = timing_paths(workload.program, costs, workload)
        assert walk == oracle

    @pytest.mark.parametrize(
        "limits,stop",
        [
            (ExecutionLimits(max_instructions=2501),
             StopReason.INSTRUCTION_LIMIT),
            (ExecutionLimits(max_branches=333), StopReason.BRANCH_LIMIT),
            (ExecutionLimits(max_steps=1001), StopReason.STEP_LIMIT),
        ],
        ids=["instruction-limit", "branch-limit", "step-limit"],
    )
    def test_limited_run_matches_the_oracle(self, limits, stop, timing_paths):
        # The hooks charge a block before the limit checks, so the
        # last block of a limited run is charged on both paths.
        workload = dataclasses.replace(timing_workload(), limits=limits)
        costs = baseline_block_costs(workload.program)
        walk, oracle = timing_paths(workload.program, costs, workload)
        assert walk == oracle
        assert walk.summary.stop_reason is stop

    def test_stack_underflow_matches_the_oracle(self, timing_paths):
        # The final RET pops the (empty) RAS before the run underflows.
        workload = underflow_workload()
        costs = baseline_block_costs(workload.program)
        walk, oracle = timing_paths(workload.program, costs, workload)
        assert walk == oracle
        assert walk.summary.stop_reason is StopReason.STACK_UNDERFLOW

    def test_run_ending_before_the_stream_takes_the_oracle(self, timing_paths):
        # One more instruction per call: under the instruction limit the
        # binary stops before the original run's last recorded branch,
        # and the walk's end-of-stream check hands it to the oracle.
        workload = dataclasses.replace(
            timing_workload(), limits=ExecutionLimits(max_instructions=2501)
        )
        program = clone_program(workload.program)
        body = program.functions["work"].blocks[0].instructions
        body.insert(0, body[0].clone())
        costs = baseline_block_costs(program)
        walk, oracle = timing_paths(
            program, costs, workload, expect="reference"
        )
        assert walk == oracle
        assert walk.branches < workload.run().branches

    def test_small_caches_and_btb_evict_like_the_oracle(self, timing_paths):
        workload = dataclasses.replace(
            load_benchmark("130.li", "B", scale=0.05),
            limits=ExecutionLimits(max_branches=20_000),
        )
        costs = baseline_block_costs(workload.program)
        tiny = MemoryHierarchyConfig(
            l1i_bytes=1024, l2_bytes=4096, l1i_ways=2, l2_ways=4
        )
        walk, oracle = timing_paths(
            workload.program, costs, workload, hierarchy=tiny
        )
        assert walk == oracle
        assert walk.icache_miss_rate > 0.01
        assert walk.btb_redirect_cycles > 0

    def test_btb_set_conflicts_evict_the_least_recent(self, timing_paths):
        workload = btb_conflict_workload()
        costs = baseline_block_costs(workload.program)
        walk, oracle = timing_paths(workload.program, costs, workload)
        assert walk == oracle
        # Six transfers cycle through four ways, so under LRU every
        # taken transfer (one bubble each) misses the BTB.
        assert walk.btb_redirect_cycles == 2 * walk.fetch_bubble_cycles

    @pytest.mark.parametrize(
        "depth,path",
        [(100, "native"), (_STACK_CAP, "reference")],
        ids=["ras-overflow", "past-the-stack-cap"],
    )
    def test_recursion_matches_the_oracle(self, depth, path, timing_paths):
        workload = recursive_workload(depth)
        costs = baseline_block_costs(workload.program)
        walk, oracle = timing_paths(
            workload.program, costs, workload, expect=path
        )
        assert walk == oracle
        assert walk.summary.stop_reason is StopReason.HALTED
        # Past 32 frames the RAS has dropped the oldest return addresses.
        assert walk.ras_penalty_cycles > 0

    def test_inverted_branch_direction_fed_to_predictor(self, timing_paths):
        # A physically inverted branch (hot path = fallthrough) must
        # train the predictor on the *physical* direction.  The
        # original branch is 100%-taken; after inversion it is
        # physically 100% not-taken — equally predictable, and the hot
        # path no longer pays a taken bubble at the branch itself.
        program = assemble(
            """
            func main:
              entry:
                movi r1, 0
              loop:
                addi r1, r1, 1
                slt r2, r1, r3
              cond:
                brz r2, done
              tramp:
                jump loop
              done:
                halt
            """
        )
        cond_block = program.functions["main"].cfg.by_label["cond"]
        cond_block.meta["branch_inverted"] = True
        behavior = BehaviorModel(seed=5)
        behavior.set_bias(cond_block.terminator.uid, 1.0)  # original taken
        workload = Workload(
            "inv", program, behavior,
            PhaseScript.from_pairs([(0, 1 << 20)]),
            ExecutionLimits(max_branches=2000),
        )
        costs = baseline_block_costs(program)
        result, oracle = timing_paths(program, costs, workload)
        assert result == oracle
        assert result.summary.branches == 2000  # loops via the inversion
        assert result.predictor_accuracy > 0.95
        # Bubbles come only from the trampoline jump (1 per iteration).
        assert result.fetch_bubble_cycles <= 2001
