"""Runtime-compiled C kernels: recording, the HSD stream, replay.

One C source, compiled with the *system* C compiler at first use — no
new dependency, no build step — and driven via ctypes over flat numpy
arrays.  It holds three kernels:

* ``run_row`` — a ~150-line port of
  :meth:`repro.engine.compiled.CompiledExecutor._run_segments` over the
  flat :class:`~repro.engine.batched.BatchTables`.  It computes and
  records one run: each row of a fleet batch, and each single
  recording behind :func:`repro.engine.trace_cache.traced_run`;
* ``hsd_stream`` — the Hot Spot Detector's branch-stream walk
  (:mod:`repro.hsd.native`);
* ``timing_walk`` — a per-block walk that replays a recorded branch
  stream over a program's :class:`WalkTables`, checking the branch uid
  at every event.  With its model on it is the Figure-10 timing model
  (:class:`repro.cpu.timing.TimingSimulator`: gshare/BTB/RAS and
  L1I/L2 inline); with it off it is coverage's run of a packed binary
  (:func:`repro.postlink.coverage.measure_coverage`).

Bit-identity holds by construction: each kernel performs the identical
sequence of integer ops as the Python it ports (same splitmix64 mixer,
same uint64 -> float64 round-to-nearest conversion and exact
power-of-two scale for the unit draw, same phase-cursor/step-guard/push
ordering, same LRU ticks), and any situation it does not handle —
branchless cycles, step-guard crossings, stack growth beyond the
preallocated cap, a program that leaves the recorded stream — makes it
*bail* (negative return) so the caller reruns through the exact Python
path.

Controls: ``REPRO_NATIVE=off`` disables the kernels entirely; any
compile or load failure disables them for the process (every caller
then takes its Python path).  Shared objects are cached under
``~/.cache/repro-native/`` (override: ``REPRO_NATIVE_CACHE``) keyed by
source hash, so the one-time compile (~300 ms) is paid once per
machine, not per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.engine.compiled import CompiledProgram
from repro.engine.executor import ExecutionLimits, ExecutionSummary, StopReason
from repro.obs import inc, span

_SOURCE = r"""
#include <stdint.h>

static inline uint64_t mix64(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x ^= x >> 30; x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27; x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

/* Return 0 on completion; negative = bail, caller reruns the row in
 * the exact scalar engine (hazard block, step guard, stack/log cap). */
long run_row(
    const int32_t *seg_end, const uint8_t *seg_kind,
    const int64_t *seg_instr, const int64_t *seg_steps,
    const int64_t *seg_calls,
    const int32_t *seg_push_off, const int32_t *seg_push_cnt,
    const int32_t *seg_push_data,
    const uint8_t *f_valid, const int32_t *f_end, const uint8_t *f_kind,
    const int64_t *f_instr, const int64_t *f_steps, const int64_t *f_calls,
    const int32_t *f_push_off, const int32_t *f_push_cnt,
    const int32_t *f_push_data,
    const int32_t *u_next, const int32_t *u_push_off,
    const int32_t *u_push_cnt, const int32_t *u_push_data,
    const int32_t *branch_dense, const uint64_t *stable_fnv,
    const double *probs, int64_t nphase,
    const int64_t *script_phase, const int64_t *script_len, int64_t nsegs,
    int64_t entry, uint64_t seed,
    int64_t max_branches, int64_t step_guard,
    int64_t *occs,
    int32_t *stack, int64_t stack_cap,
    int32_t *logbuf, int64_t log_cap,
    int64_t *seg_cnt, int64_t *fused_cnt,
    int64_t *out)
{
    int64_t i = entry, j = -1;
    int64_t sp = 0, nev = 0;
    int64_t instructions = 0, branches = 0, taken_total = 0;
    int64_t calls = 0, steps = 0;
    int64_t seg_i = 0;
    int64_t cur_phase = script_phase[0];
    int64_t remaining = script_len[0];
    int64_t stop = 0;

    for (;;) {
        if (j < 0) {
            /* segment-step from block i to the next terminal */
            for (;;) {
                uint8_t k = seg_kind[i];
                if (k == 3) return -1;            /* branchless cycle */
                seg_cnt[i]++;
                instructions += seg_instr[i];
                steps += seg_steps[i];
                calls += seg_calls[i];
                if (steps > step_guard) return -2;
                int32_t pc = seg_push_cnt[i];
                if (pc) {
                    if (sp + pc > stack_cap) return -3;
                    const int32_t *pd = seg_push_data + seg_push_off[i];
                    for (int32_t q = 0; q < pc; q++) stack[sp++] = pd[q];
                }
                if (k == 0) { j = seg_end[i]; break; }
                if (k == 1) {                     /* RET */
                    if (!sp) { stop = 2; goto done; }
                    i = stack[--sp];
                    continue;
                }
                stop = 0; goto done;              /* HALT */
            }
        }
        /* branch event pending at block j */
        if (branches >= max_branches) { stop = 1; goto done; }
        int64_t phase = cur_phase;
        remaining--;
        if (remaining <= 0 && seg_i + 1 < nsegs) {
            seg_i++;
            cur_phase = script_phase[seg_i];
            remaining = script_len[seg_i];
        }
        int64_t dense = branch_dense[j];
        uint64_t occ = (uint64_t)occs[dense];
        occs[dense]++;
        uint64_t x = mix64(occ ^ seed);
        x = mix64(x ^ stable_fnv[dense]);
        /* (double)x rounds to nearest like numpy's uint64->float64
         * cast; the 2^-64 scale is exact. */
        int64_t taken =
            ((double)x / 18446744073709551616.0) < probs[dense * nphase + phase];
        branches++;
        taken_total += taken;
        if (nev >= log_cap) return -4;
        int64_t key = 2 * j + taken;
        logbuf[nev++] = (int32_t)key;
        if (f_valid[key]) {
            fused_cnt[key]++;
            instructions += f_instr[key];
            steps += f_steps[key];
            calls += f_calls[key];
            if (steps > step_guard) return -2;
            int32_t pc = f_push_cnt[key];
            if (pc) {
                if (sp + pc > stack_cap) return -3;
                const int32_t *pd = f_push_data + f_push_off[key];
                for (int32_t q = 0; q < pc; q++) stack[sp++] = pd[q];
            }
            uint8_t fk = f_kind[key];
            if (fk == 0) { j = f_end[key]; continue; }
            if (fk == 1) {                        /* RET */
                if (!sp) { stop = 2; goto done; }
                i = stack[--sp];
                j = -1;
                continue;
            }
            stop = 0; goto done;                  /* HALT */
        }
        /* unfused (walk too long / cycle inside): raw successor edge */
        {
            int32_t pc = u_push_cnt[key];
            if (pc) {
                if (sp + pc > stack_cap) return -3;
                const int32_t *pd = u_push_data + u_push_off[key];
                for (int32_t q = 0; q < pc; q++) stack[sp++] = pd[q];
            }
            i = u_next[key];
            j = -1;
        }
    }
done:
    out[0] = instructions;
    out[1] = branches;
    out[2] = taken_total;
    out[3] = calls;
    out[4] = steps;
    out[5] = stop;
    out[6] = nev;
    return 0;
}

/* Hot Spot Detector stream port (repro.hsd.detector.observe_stream):
 * the BBB as flat per-slot arrays over dense address ids.  All
 * semantics preserved exactly: LRU-among-non-candidates eviction with
 * first-tie-wins, contention misses, counter saturation freezing both
 * counters, refresh-timer stale eviction against the tick of the last
 * maintenance event, clear timer, and candidate-snapshot ordering by
 * set index then table insertion (allocation sequence).
 * Returns 0, or negative when an output buffer would overflow (the
 * caller falls back to the Python path; detector state is untouched
 * because all state lives in caller-provided scratch arrays). */
long hsd_stream(
    const int32_t *ev_id, const uint8_t *ev_taken, int64_t n,
    const int32_t *set_of,
    int32_t nsets, int32_t ways,
    int32_t counter_max, int32_t cand_thresh,
    int32_t step_c, int32_t step_n, int64_t hdc_max,
    int64_t refresh_interval, int64_t clear_interval,
    int32_t *slot_addr,
    int32_t *slot_exec, int32_t *slot_taken,
    uint8_t *slot_cand, int64_t *slot_last, int64_t *slot_seq,
    int64_t *det_at, int32_t *det_size, int64_t det_cap,
    int32_t *snap_id, int32_t *snap_exec, int32_t *snap_taken,
    int64_t snap_cap,
    int64_t *out)
{
    int64_t tick = 0, sr = 0, sc = 0, observed = 0;
    int64_t tick_maint = 0, alloc_counter = 0;
    int64_t hdc = hdc_max;
    int64_t misses = 0, refreshes = 0, clears = 0;
    int64_t ndet = 0, snap_len = 0;
    int64_t nslots = (int64_t)nsets * ways;

    for (int64_t e = 0; e < n; e++) {
        int32_t id = ev_id[e];
        int32_t tk = ev_taken[e];
        observed++; sr++; sc++; tick++;
        int64_t base = (int64_t)set_of[id] * ways;
        int64_t slot = -1;
        for (int32_t w = 0; w < ways; w++) {
            if (slot_addr[base + w] == id) { slot = base + w; break; }
        }
        if (slot < 0) {
            for (int32_t w = 0; w < ways; w++) {
                if (slot_addr[base + w] < 0) { slot = base + w; break; }
            }
            if (slot < 0) {
                for (int32_t w = 0; w < ways; w++) {
                    int64_t s = base + w;
                    if (!slot_cand[s] &&
                        (slot < 0 || slot_last[s] < slot_last[slot]))
                        slot = s;
                }
            }
            if (slot >= 0) {
                slot_addr[slot] = id;
                slot_exec[slot] = 0;
                slot_taken[slot] = 0;
                slot_cand[slot] = 0;
                slot_seq[slot] = ++alloc_counter;
            } else {
                misses++;
            }
        }
        if (slot >= 0) {
            slot_last[slot] = tick;
            if (slot_exec[slot] < counter_max) {
                slot_exec[slot]++;
                slot_taken[slot] += tk;
            }
            if (slot_exec[slot] >= cand_thresh) {
                slot_cand[slot] = 1;
                hdc -= step_c; if (hdc < 0) hdc = 0;
            } else {
                hdc += step_n; if (hdc > hdc_max) hdc = hdc_max;
            }
        } else {
            hdc += step_n; if (hdc > hdc_max) hdc = hdc_max;
        }
        if (hdc == 0) {
            if (ndet >= det_cap) return -1;
            det_at[ndet] = observed;
            int32_t count = 0;
            for (int32_t si = 0; si < nsets; si++) {
                int64_t sbase = (int64_t)si * ways;
                int64_t ord[64];
                int32_t m = 0;
                for (int32_t w = 0; w < ways; w++) {
                    int64_t s = sbase + w;
                    if (slot_addr[s] >= 0 && slot_cand[s]) ord[m++] = s;
                }
                for (int32_t a = 1; a < m; a++) {
                    int64_t key = ord[a];
                    int32_t b = a - 1;
                    while (b >= 0 && slot_seq[ord[b]] > slot_seq[key]) {
                        ord[b + 1] = ord[b];
                        b--;
                    }
                    ord[b + 1] = key;
                }
                for (int32_t a = 0; a < m; a++) {
                    if (snap_len >= snap_cap) return -2;
                    int64_t s = ord[a];
                    snap_id[snap_len] = slot_addr[s];
                    snap_exec[snap_len] = slot_exec[s];
                    snap_taken[snap_len] = slot_taken[s];
                    snap_len++;
                    count++;
                }
            }
            det_size[ndet] = count;
            ndet++;
            for (int64_t s = 0; s < nslots; s++) slot_addr[s] = -1;
            hdc = hdc_max; sr = 0; sc = 0; tick_maint = tick;
        } else {
            if (sr >= refresh_interval) {
                hdc = hdc_max; sr = 0;
                for (int64_t s = 0; s < nslots; s++)
                    if (slot_addr[s] >= 0 && slot_last[s] < tick_maint)
                        slot_addr[s] = -1;
                tick_maint = tick;
                refreshes++;
            }
            if (sc >= clear_interval) {
                for (int64_t s = 0; s < nslots; s++) slot_addr[s] = -1;
                hdc = hdc_max; sc = 0; sr = 0; tick_maint = tick;
                clears++;
            }
        }
    }
    out[0] = hdc; out[1] = sr; out[2] = sc; out[3] = tick;
    out[4] = tick_maint; out[5] = misses; out[6] = refreshes;
    out[7] = clears; out[8] = ndet; out[9] = snap_len;
    out[10] = alloc_counter;
    return 0;
}

/* One LRU set of `ways` slots at `base`: 1 on hit.  A miss fills an
 * empty slot (tick 0) or evicts the least tick; ticks never repeat,
 * so this matches the dict-of-ticks structures exactly. */
static int lru_touch(int64_t *key, int64_t *tick, int64_t base,
                     int64_t ways, int64_t k, int64_t now)
{
    for (int64_t w = 0; w < ways; w++) {
        int64_t s = base + w;
        if (tick[s] && key[s] == k) { tick[s] = now; return 1; }
    }
    int64_t victim = base;
    for (int64_t w = 0; w < ways; w++) {
        int64_t s = base + w;
        if (!tick[s]) { victim = s; break; }
        if (tick[s] < tick[victim]) victim = s;
    }
    key[victim] = k;
    tick[victim] = now;
    return 0;
}

/* Figure-10 timing walk (repro.cpu.timing.TimingSimulator.run): steps
 * blocks exactly as repro.engine.executor.BlockExecutor.run does (kind
 * numbering is the executor's KIND_*), takes each branch outcome from
 * a recorded (branch uid, taken) stream, and applies the _on_block /
 * _on_branch model inline: gshare, BTB, RAS and the L1I/L2 fetch
 * hierarchy.  With timed == 0 it skips the model and never touches
 * the per-block timing inputs or the predictor and cache state, for
 * callers that need only the summary (repro.postlink.coverage).  Stop
 * codes index repro.engine.executor.StopReason: 0 halted, 1 branch
 * limit, 2 instruction limit, 3 stack underflow, 4 step limit.
 * Returns 0; -1 when the program leaves the recorded stream (another
 * branch uid at an event, or a different branch count or stop reason
 * at the end); -2 when the continuation stack would outgrow
 * stack_cap.  All state lives in caller-provided arrays. */
long timing_walk(
    const uint8_t *kind, const int64_t *size,
    const int32_t *fall, const int32_t *target,
    const int32_t *cont_off, const int32_t *cont_cnt,
    const int32_t *cont_data, const int64_t *branch_uid,
    const int64_t *ev_uid, const uint8_t *ev_taken, int64_t nev,
    int64_t want_stop, int64_t entry,
    int64_t max_branches, int64_t max_instructions, int64_t max_steps,
    int32_t *stack, int64_t stack_cap,
    int64_t *visits, int64_t *out,
    int64_t timed,
    const int64_t *cost, const int64_t *addr, const int64_t *nbytes,
    const uint8_t *inverted, const int64_t *geo,
    uint8_t *pht, int64_t *btb_key, int64_t *btb_tick, int64_t *ras,
    int64_t *l1_key, int64_t *l1_tick, int64_t *l2_key, int64_t *l2_tick)
{
    enum { FALL, BRANCH, JUMP, CALL, RET, HALT };
    const int64_t resolution = geo[0], bubble = geo[1], redirect = geo[2];
    const int64_t hmask = geo[3], btb_sets = geo[4], btb_ways = geo[5];
    const int64_t ras_depth = geo[6], shift = geo[7];
    const int64_t l1_sets = geo[8], l1_ways = geo[9];
    const int64_t l2_sets = geo[10], l2_ways = geo[11];
    const int64_t l2_latency = geo[12], mem_latency = geo[13];

    int64_t i = entry, sp = 0, stop;
    int64_t instructions = 0, branches = 0, taken_total = 0;
    int64_t calls = 0, steps = 0;
    int64_t cycles = 0, mispredict = 0, bubbles = 0, stalls = 0;
    int64_t redirects = 0, ras_penalty = 0;
    int64_t predictions = 0, mispredictions = 0;
    int64_t l1_accesses = 0, l1_misses = 0;
    int64_t history = 0, btb_now = 0, l1_now = 0, l2_now = 0;
    int64_t ras_top = 0, ras_count = 0;
    int64_t ret_pending = 0, ret_known = 0, ret_addr = 0;

    for (;;) {
        if (++steps > max_steps) { stop = 4; break; }
        visits[i]++;
        instructions += size[i];
        uint8_t k = kind[i];
        int64_t tail = 0;                           /* terminator address */

        /* _on_block: runs before the limit checks below */
        if (timed) {
            int64_t a = addr[i], nb = nbytes[i];
            if (ret_pending) {
                if (!ret_known || ret_addr != a) ras_penalty += resolution;
                ret_pending = 0;
            }
            cycles += cost[i];
            if (nb > 0) {
                int64_t last = (a + nb - 1) >> shift;
                for (int64_t line = a >> shift; line <= last; line++) {
                    l1_accesses++;
                    if (lru_touch(l1_key, l1_tick, (line % l1_sets) * l1_ways,
                                  l1_ways, line, ++l1_now))
                        continue;
                    l1_misses++;
                    stalls += lru_touch(l2_key, l2_tick,
                                        (line % l2_sets) * l2_ways, l2_ways,
                                        line, ++l2_now)
                              ? l2_latency : mem_latency;
                }
            }
            tail = a + (nb > 8 ? nb - 8 : 0);
            if (k == JUMP) {
                bubbles += bubble;
                if (!lru_touch(btb_key, btb_tick,
                               ((tail >> 3) % btb_sets) * btb_ways,
                               btb_ways, tail, ++btb_now))
                    redirects += redirect;
            } else if (k == CALL) {
                bubbles += bubble;
                ras_top = (ras_top + 1) % ras_depth; /* overflow drops oldest */
                ras[ras_top] = a + nb;
                if (ras_count < ras_depth) ras_count++;
            } else if (k == RET) {
                bubbles += bubble;
                ret_pending = 1;
                ret_known = ras_count > 0;          /* underflow: no address */
                if (ret_known) {
                    ret_addr = ras[ras_top];
                    ras_top = (ras_top + ras_depth - 1) % ras_depth;
                    ras_count--;
                }
            }
        }

        if (instructions >= max_instructions) { stop = 2; break; }
        if (k == BRANCH) {
            if (branches >= max_branches) { stop = 1; break; }
            if (branches >= nev || ev_uid[branches] != branch_uid[i])
                return -1;
            int64_t taken = ev_taken[branches];
            branches++;
            taken_total += taken;

            /* _on_branch: gshare on the physical direction */
            if (timed) {
                int64_t physical = taken != inverted[i];
                int64_t idx = ((tail >> 3) ^ history) & hmask;
                int64_t counter = pht[idx];
                predictions++;
                if (physical && counter < 3) pht[idx] = (uint8_t)(counter + 1);
                else if (!physical && counter > 0)
                    pht[idx] = (uint8_t)(counter - 1);
                history = ((history << 1) | physical) & hmask;
                if ((counter >= 2) != physical) {
                    mispredictions++;
                    mispredict += resolution;
                } else if (physical) {
                    bubbles += bubble;
                    if (!lru_touch(btb_key, btb_tick,
                                   ((tail >> 3) % btb_sets) * btb_ways,
                                   btb_ways, tail, ++btb_now))
                        redirects += redirect;
                }
            }

            if (!taken) { i = fall[i]; continue; }
        } else if (k == FALL) {
            i = fall[i];
            continue;
        } else if (k == CALL) {
            calls++;
            if (sp >= stack_cap) return -2;
            stack[sp++] = fall[i];
            i = target[i];
            continue;
        } else if (k == RET) {
            if (!sp) { stop = 3; break; }
            i = stack[--sp];
            continue;
        } else if (k != JUMP) {
            stop = 0;                               /* HALT */
            break;
        }
        /* taken branch or jump: continuation pushes, then the target */
        int32_t pc = cont_cnt[i];
        if (pc) {
            if (sp + pc > stack_cap) return -2;
            const int32_t *pd = cont_data + cont_off[i];
            for (int32_t q = 0; q < pc; q++) stack[sp++] = pd[q];
        }
        i = target[i];
    }
    if (branches != nev || stop != want_stop) return -1;
    out[0] = instructions; out[1] = branches; out[2] = taken_total;
    out[3] = calls; out[4] = steps; out[5] = stop;
    out[6] = cycles; out[7] = mispredict; out[8] = bubbles;
    out[9] = stalls; out[10] = redirects; out[11] = ras_penalty;
    out[12] = predictions; out[13] = mispredictions;
    out[14] = l1_accesses; out[15] = l1_misses;
    return 0;
}
"""

#: Preallocated per-row continuation-stack slots; deeper recursion
#: bails to the scalar engine (which grows a Python list).
_STACK_CAP = 1 << 16

_i32p = np.ctypeslib.ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_i64p = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_u8p = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_u64p = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
_f64p = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")


#: ``timing_walk`` stop codes, in :class:`StopReason` order.
_STOPS = tuple(StopReason)
#: Stands in for an absent branch or instruction limit.
_UNLIMITED = (1 << 63) - 1


class TimingCounts(NamedTuple):
    """One ``timing_walk`` run: the execution summary, then the tallies
    the hook-driven model keeps on its ``TimingSimulator``."""

    summary: ExecutionSummary
    cycles: int
    mispredict_cycles: int
    fetch_bubbles: int
    icache_stalls: int
    btb_redirects: int
    ras_penalties: int
    predictions: int
    mispredictions: int
    l1i_accesses: int
    l1i_misses: int


def flatten_ragged(tuples: Sequence[Tuple[int, ...]]):
    """Ragged tuple-per-entry -> (offsets, counts, flat data) arrays."""
    offsets = np.zeros(len(tuples), dtype=np.int32)
    counts = np.zeros(len(tuples), dtype=np.int32)
    data: List[int] = []
    for k, tup in enumerate(tuples):
        offsets[k] = len(data)
        counts[k] = len(tup)
        data.extend(tup)
    return offsets, counts, np.asarray(data, dtype=np.int32)


class WalkTables:
    """A compiled program's block graph as the flat arrays
    ``timing_walk`` steps over; built once per program and shared by
    the timing model and coverage (:func:`walk_tables_for`)."""

    def __init__(self, cp: CompiledProgram):
        self.kind = np.asarray(cp.kind, dtype=np.uint8)
        self.size = np.asarray(cp.size, dtype=np.int64)
        self.fall = np.asarray(cp.fall, dtype=np.int32)
        self.target = np.asarray(cp.target, dtype=np.int32)
        self.cont_off, self.cont_cnt, self.cont_data = flatten_ragged(cp.conts)
        #: Branch origin uid per block (-1 for other kinds), checked
        #: against the recorded stream at every branch event.
        self.branch_uid = np.asarray(
            [cp.branch_uids[d] if d >= 0 else -1 for d in cp.branch_dense],
            dtype=np.int64,
        )


_WALK_TABLES: "WeakKeyDictionary[CompiledProgram, WalkTables]" = (
    WeakKeyDictionary()
)


def walk_tables_for(cp: CompiledProgram) -> WalkTables:
    tables = _WALK_TABLES.get(cp)
    if tables is None:
        tables = WalkTables(cp)
        _WALK_TABLES[cp] = tables
    return tables


_UNUSED_I64 = np.zeros(1, dtype=np.int64)
_UNUSED_U8 = np.zeros(1, dtype=np.uint8)
#: ``timing_walk``'s arguments from ``timed`` on, for a run with the
#: model off: a zero geometry, and placeholders the walk never reads.
_UNTIMED = (
    0, _UNUSED_I64, _UNUSED_I64, _UNUSED_I64, _UNUSED_U8,
    np.zeros(14, dtype=np.int64), _UNUSED_U8,
) + (_UNUSED_I64,) * 7


class RowState:
    """Reusable per-row scratch buffers (zeroed before each row)."""

    def __init__(self, nblocks: int, ndense: int, log_cap: int):
        self.occs = np.zeros(max(ndense, 1), dtype=np.int64)
        self.stack = np.zeros(_STACK_CAP, dtype=np.int32)
        self.log = np.zeros(max(log_cap, 1), dtype=np.int32)
        self.seg_cnt = np.zeros(nblocks, dtype=np.int64)
        self.fused_cnt = np.zeros(2 * nblocks, dtype=np.int64)
        self.out = np.zeros(8, dtype=np.int64)


class NativeKernel:
    """ctypes wrapper around the compiled ``run_row``, ``hsd_stream``
    and ``timing_walk``."""

    def __init__(self, lib: ctypes.CDLL):
        hsd = lib.hsd_stream
        hsd.restype = ctypes.c_long
        hsd.argtypes = [
            _i32p, _u8p, ctypes.c_int64,                # events
            _i32p,                                      # set_of
            ctypes.c_int32, ctypes.c_int32,             # geometry
            ctypes.c_int32, ctypes.c_int32,             # counters
            ctypes.c_int32, ctypes.c_int32,             # hdc steps
            ctypes.c_int64,                             # hdc_max
            ctypes.c_int64, ctypes.c_int64,             # timers
            _i32p, _i32p, _i32p, _u8p, _i64p, _i64p,    # slots
            _i64p, _i32p, ctypes.c_int64,               # detections
            _i32p, _i32p, _i32p, ctypes.c_int64,        # snapshots
            _i64p,                                      # out
        ]
        self.hsd_stream = hsd
        fn = lib.run_row
        fn.restype = ctypes.c_long
        fn.argtypes = [
            _i32p, _u8p, _i64p, _i64p, _i64p,          # segments
            _i32p, _i32p, _i32p,                        # seg pushes
            _u8p, _i32p, _u8p, _i64p, _i64p, _i64p,     # fused
            _i32p, _i32p, _i32p,                        # fused pushes
            _i32p, _i32p, _i32p, _i32p,                 # unfused edges
            _i32p, _u64p,                               # dense -> fnv
            _f64p, ctypes.c_int64,                      # probs
            _i64p, _i64p, ctypes.c_int64,               # phase script
            ctypes.c_int64, ctypes.c_uint64,            # entry, seed
            ctypes.c_int64, ctypes.c_int64,             # budgets
            _i64p, _i32p, ctypes.c_int64,               # occs, stack
            _i32p, ctypes.c_int64,                      # log
            _i64p, _i64p, _i64p,                        # counts, out
        ]
        self._run = fn
        walk = lib.timing_walk
        walk.restype = ctypes.c_long
        walk.argtypes = [
            _u8p, _i64p, _i32p, _i32p,                  # block graph
            _i32p, _i32p, _i32p, _i64p,                 # conts, branch uids
            _i64p, _u8p, ctypes.c_int64,                # recorded stream
            ctypes.c_int64, ctypes.c_int64,             # stop, entry
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # limits
            _i32p, ctypes.c_int64,                      # stack
            _i64p, _i64p,                               # visits, out
            ctypes.c_int64,                             # timed
            _i64p, _i64p, _i64p, _u8p,                  # timing inputs
            _i64p,                                      # geometry
            _u8p, _i64p, _i64p, _i64p,                  # pht, btb, ras
            _i64p, _i64p, _i64p, _i64p,                 # l1, l2
        ]
        self._timing_walk = walk

    def timing_walk(
        self,
        cp: CompiledProgram,
        static: Dict[int, Tuple[int, int, int, bool]],
        trace,
        limits: ExecutionLimits,
        machine,
        hierarchy,
        *,
        history_bits: int,
        btb_entries: int,
        btb_ways: int,
        ras_depth: int,
        btb_redirect: int,
    ) -> Optional[TimingCounts]:
        """One cold timing run of ``cp`` replaying ``trace`` (the
        recorded ``uids`` / ``taken`` stream and its ``summary``).

        ``static`` maps each block uid to its (cost, address, bytes,
        inverted-branch flag); ``machine`` gives the branch-resolution
        and taken-bubble penalties, ``hierarchy`` the fetch caches (a
        :class:`~repro.cpu.caches.MemoryHierarchyConfig`), and the
        keywords the gshare, BTB and RAS sizes and the BTB redirect
        penalty.  ``None`` when the program leaves the stream or its
        stack outgrows the cap (the caller reruns the hook model)."""
        line = hierarchy.line_bytes
        btb_sets = btb_entries // btb_ways
        l1_sets = hierarchy.l1i_bytes // (line * hierarchy.l1i_ways)
        l2_sets = hierarchy.l2_bytes // (line * hierarchy.l2_ways)
        geometry = np.asarray(
            [
                machine.branch_resolution, machine.taken_bubble,
                btb_redirect, (1 << history_bits) - 1,
                btb_sets, btb_ways, ras_depth, line.bit_length() - 1,
                l1_sets, hierarchy.l1i_ways, l2_sets, hierarchy.l2_ways,
                hierarchy.l2_latency, hierarchy.memory_latency,
            ],
            dtype=np.int64,
        )
        columns = np.asarray(
            [static[uid] for uid in cp.uid], dtype=np.int64
        ).reshape(-1, 4)

        def slots(n: int) -> np.ndarray:
            return np.zeros(n, dtype=np.int64)

        btb = btb_sets * btb_ways
        l1 = l1_sets * hierarchy.l1i_ways
        l2 = l2_sets * hierarchy.l2_ways
        counts = self._walk(
            cp, trace, limits,
            1,
            np.ascontiguousarray(columns[:, 0]),
            np.ascontiguousarray(columns[:, 1]),
            np.ascontiguousarray(columns[:, 2]),
            columns[:, 3].astype(np.uint8),
            geometry,
            # Cold structures: gshare counters weakly taken, as
            # GsharePredictor starts; the BTB and caches as (key, tick)
            # slots, where tick 0 marks an empty way; an empty RAS ring.
            np.full(1 << history_bits, 2, dtype=np.uint8),
            slots(btb), slots(btb), slots(ras_depth),
            slots(l1), slots(l1), slots(l2), slots(l2),
        )
        if counts is None:
            return None
        summary, tallies = counts
        return TimingCounts(summary, *tallies)

    def replay(
        self, cp: CompiledProgram, trace, limits: ExecutionLimits
    ) -> Optional[ExecutionSummary]:
        """The summary of ``cp`` replaying ``trace`` with the timing
        model off: the walk's block stepping and stream checks alone.
        ``None`` when the program leaves the stream or its stack
        outgrows the cap (the caller reruns the compiled replay)."""
        counts = self._walk(cp, trace, limits, *_UNTIMED)
        return None if counts is None else counts[0]

    def _walk(self, cp: CompiledProgram, trace, limits: ExecutionLimits,
              *model) -> Optional[Tuple[ExecutionSummary, List[int]]]:
        """``timing_walk`` over ``cp``'s shared :class:`WalkTables`;
        ``model`` is the C function's arguments from ``timed`` on.
        Returns the summary and the ten model tallies, or ``None``."""
        tables = walk_tables_for(cp)
        visits = np.zeros(len(cp.uid), dtype=np.int64)
        out = np.zeros(16, dtype=np.int64)  # six summary fields, ten tallies
        code = self._timing_walk(
            tables.kind, tables.size, tables.fall, tables.target,
            tables.cont_off, tables.cont_cnt, tables.cont_data,
            tables.branch_uid,
            np.ascontiguousarray(trace.uids, dtype=np.int64),
            np.ascontiguousarray(trace.taken, dtype=np.uint8),
            len(trace.uids),
            _STOPS.index(trace.summary.stop_reason),
            cp.entry_index,
            _UNLIMITED if limits.max_branches is None
            else limits.max_branches,
            _UNLIMITED if limits.max_instructions is None
            else limits.max_instructions,
            limits.max_steps,
            np.zeros(_STACK_CAP, dtype=np.int32), _STACK_CAP,
            visits, out,
            *model,
        )
        if code != 0:
            return None
        counts = out.tolist()
        summary = ExecutionSummary(
            instructions=counts[0],
            branches=counts[1],
            taken_branches=counts[2],
            calls=counts[3],
            steps=counts[4],
            stop_reason=_STOPS[counts[5]],
            block_visits={
                cp.uid[j]: n for j, n in enumerate(visits.tolist()) if n
            },
        )
        return summary, counts[6:]

    def row_state(self, tables, max_branches: int) -> RowState:
        return RowState(tables.nblocks, tables.ndense, max_branches)

    def run_row(
        self,
        tables,
        state: RowState,
        stable_fnv: np.ndarray,
        probs: np.ndarray,
        nphase: int,
        script_phase: np.ndarray,
        script_len: np.ndarray,
        seed: int,
        max_branches: int,
        step_guard: int,
    ) -> Optional[tuple]:
        """One row; ``None`` = bail (caller reruns the row exactly)."""
        state.occs.fill(0)
        state.seg_cnt.fill(0)
        state.fused_cnt.fill(0)
        t = tables
        code = self._run(
            t.seg_end, t.seg_kind, t.seg_instr, t.seg_steps, t.seg_calls,
            t.seg_push_off, t.seg_push_cnt, t.seg_push_data,
            t.f_valid, t.f_end, t.f_kind, t.f_instr, t.f_steps, t.f_calls,
            t.f_push_off, t.f_push_cnt, t.f_push_data,
            t.u_next, t.u_push_off, t.u_push_cnt, t.u_push_data,
            t.branch_dense, stable_fnv,
            np.ascontiguousarray(probs, dtype=np.float64), nphase,
            script_phase, script_len, len(script_phase),
            t.entry_index, seed,
            max_branches, step_guard,
            state.occs, state.stack, _STACK_CAP,
            state.log, len(state.log),
            state.seg_cnt, state.fused_cnt, state.out,
        )
        if code != 0:
            inc("engine.native.bails", code=int(code))
            return None
        o = state.out
        return (
            int(o[0]), int(o[1]), int(o[2]), int(o[3]), int(o[4]),
            int(o[5]), int(o[6]),
        )


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_NATIVE_CACHE")
    if configured:
        return configured
    return os.path.join(
        os.environ.get(
            "XDG_CACHE_HOME",
            os.path.join(os.path.expanduser("~"), ".cache"),
        ),
        "repro-native",
    )


def _compile() -> Optional[ctypes.CDLL]:
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"runrow-{digest}.so")
    if not os.path.exists(so_path):
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            c_path = os.path.join(tmp, "runrow.c")
            with open(c_path, "w") as fh:
                fh.write(_SOURCE)
            tmp_so = os.path.join(tmp, "runrow.so")
            for compiler in ("cc", "gcc", "clang"):
                try:
                    with span("engine.native.compile", compiler=compiler):
                        proc = subprocess.run(
                            [compiler, "-O2", "-fPIC", "-shared",
                             "-o", tmp_so, c_path],
                            capture_output=True,
                            timeout=60,
                        )
                except (OSError, subprocess.TimeoutExpired):
                    continue
                if proc.returncode == 0:
                    # Atomic publish: concurrent processes race benignly.
                    os.replace(tmp_so, so_path)
                    break
            else:
                return None
    try:
        return ctypes.CDLL(so_path)
    except OSError:
        return None


_KERNEL: Optional[NativeKernel] = None
_FAILED = False


def native_enabled() -> bool:
    """``REPRO_NATIVE`` kill switch (``off``/``0``/``no`` disable)."""
    return os.environ.get("REPRO_NATIVE", "auto").strip().lower() not in (
        "off", "0", "no", "false",
    )


def native_kernel() -> Optional[NativeKernel]:
    """The process-wide compiled kernel, or ``None`` when unavailable
    (no compiler, compile failure, or ``REPRO_NATIVE=off``)."""
    global _KERNEL, _FAILED
    if not native_enabled():
        return None
    if _KERNEL is not None:
        return _KERNEL
    if _FAILED:
        return None
    lib = _compile()
    if lib is None:
        _FAILED = True
        return None
    _KERNEL = NativeKernel(lib)
    return _KERNEL


__all__ = [
    "NativeKernel",
    "RowState",
    "TimingCounts",
    "WalkTables",
    "flatten_ragged",
    "native_enabled",
    "native_kernel",
    "walk_tables_for",
]
