"""Cycle-level out-of-order superscalar pipeline.

The machine of Table I: in-order front end (fetch through dispatch), a
random-queue IQ with position-based select (optionally partitioned for PUBS
and/or augmented with an age matrix), out-of-order issue constrained by the
function-unit mix, a reorder buffer committing in order, a load/store queue
with store-to-load forwarding, checkpointed misprediction recovery, and the
two-level cache hierarchy with a stream prefetcher.

Execution is oracle-assisted trace-driven: a :class:`~repro.isa.executor.
TraceCursor` supplies the architecturally-correct instruction stream; on a
branch misprediction the front end walks the *static* code along the
predicted path, injecting wrong-path uops that occupy rename registers, IQ
entries, LSQ entries and function units until recovery -- the resource
contention that makes issue priority matter.  Wrong-path branches never
redirect fetch themselves and wrong-path memory ops do not touch the cache
(standard trace-driven simplifications; see DESIGN.md).

With ``config.frontend_mode == "replay"`` the live functional executor is
replaced by a :class:`~repro.trace.replay.ReplayCursor` over a window of a
recorded trace (DESIGN.md §9): correct-path records come from typed
arrays, warmup restores cached post-skip checkpoints of the memory
hierarchy and the predictor complex instead of re-training them, and only
wrong-path fetch stays live (it is config-dependent, so it can never be
part of a shared trace).  Replay is bit-identical to live execution --
the golden-stats tests run both modes against the same expected stats.

Per-cycle processing order is commit, writeback, issue, dispatch, fetch, so
results written back in cycle ``c`` can feed an issue in cycle ``c`` only
through the pre-scheduled ready cycles (producers set their consumers'
earliest issue cycle at their own issue), giving back-to-back issue of
dependent single-cycle operations.

The issue stage keeps an *incremental ready set* instead of re-scanning the
whole IQ every cycle: at dispatch each uop either gets a known ready cycle
(all producers already scheduled) or registers as a waiter on its
not-yet-scheduled source registers; a producer's issue wakes its waiters.
This is valid because, while a uop is IQ-resident, each source's ready
cycle makes exactly one transition (unscheduled -> a fixed cycle): sources
cannot be re-renamed under a resident consumer (their registers are freed
only at the commit of a younger writer, which retires after the consumer),
and recovery only squashes uops younger than the branch.  The shifting and
circular organizations compact entry positions on release, so they keep
the legacy full-scan loop (slots there are not stable handles).

Most cycles of a miss-bound program do no work in any stage, so each
stage leaves an idle cycle early (DESIGN.md §7): commit when the ROB head
is missing or incomplete, issue when nothing is ready or due, dispatch
when the front end is empty or its head repeats last cycle's stall on a
full ROB, LSQ or register file with no commit since.  Each early exit
books exactly the counters the full path would.  :meth:`Pipeline.step`
still runs once per simulated cycle and calls all five stage methods.
Per-instruction traits (branch/memory class, function unit, latency,
sources) are predecoded on each :class:`~repro.isa.instruction.
StaticInst`, so the stages read attributes instead of calling predicates.
"""

from __future__ import annotations

import pickle
from collections import deque
from operator import itemgetter
from typing import Deque, Dict, List, Optional

import numpy as np

from ..branch.base import BranchPredictor
from ..branch.btb import BranchTargetBuffer
from ..branch.classic import BimodePredictor, GsharePredictor, TournamentPredictor
from ..branch.perceptron import PerceptronPredictor
from ..iq.age_matrix import AgeMatrix
from ..iq.distributed import DistributedIssueQueue, DistributedSelectLogic
from ..iq.ordered import CircularQueue, ShiftingQueue
from ..iq.queue import IssueQueue
from ..iq.select import SelectLogic
from ..isa.executor import (
    FLAG_COND_BRANCH,
    FLAG_MEM,
    FLAG_TAKEN,
    FunctionalExecutor,
    TraceCursor,
)
from ..isa.instruction import INST_BYTES, Program
from ..isa.opcodes import Opcode
from ..memory.hierarchy import MemoryHierarchy
from ..pubs.mode_switch import ModeSwitch
from ..pubs.slice_tracker import SliceTracker
from .config import ProcessorConfig
from .lsq import LoadStoreQueue
from .rename import Renamer
from .rob import ReorderBuffer
from .stats import SimStats
from .uop import NEVER, Uop

_slot_of = itemgetter(0)

#: Pipeline attributes the first member of a shared replay window
#: pickles for the rest -- the component set the warm-checkpoint store
#: persists, plus the I-line dedup mark the warm walk leaves behind.
_WARM_FIELDS = ("hierarchy", "predictor", "btb", "slice_tracker",
                "_last_ifetch_line")


def build_predictor(config: ProcessorConfig) -> BranchPredictor:
    """Instantiate the configured direction predictor."""
    p = config.predictor
    if p.kind == "perceptron":
        return PerceptronPredictor(p.history_length, p.table_size)
    if p.kind == "gshare":
        return GsharePredictor(p.table_size, p.history_length)
    if p.kind == "bimode":
        return BimodePredictor(p.table_size, p.history_length)
    if p.kind == "tournament":
        return TournamentPredictor()
    raise ValueError(f"unknown predictor kind: {p.kind}")


def _front_warm_config(config: ProcessorConfig) -> dict:
    """The configuration slice that shapes warmup-trained front-end state.

    The predictor and BTB are shaped by ``config.predictor``; the slice
    tracker's warm state additionally depends on the PUBS fields that size
    its tables or gate its training -- and, because training consumes each
    warm prediction outcome, on the predictor configuration too, which is
    why the three are checkpointed as one component.  Fields that only
    steer dispatch at *timing* time (priority entries, stall policy, mode
    switching) are deliberately excluded so sweeps over them share warm
    state.
    """
    p = config.pubs
    return {
        "predictor": config.predictor,
        "pubs": {
            "enabled": p.enabled,
            "blind": p.blind,
            "conf_counter_bits": p.conf_counter_bits,
            "conf_sets": p.conf_sets,
            "conf_assoc": p.conf_assoc,
            "conf_fold_width": p.conf_fold_width,
            "brslice_sets": p.brslice_sets,
            "brslice_assoc": p.brslice_assoc,
            "brslice_fold_width": p.brslice_fold_width,
            "word_width": p.word_width,
        },
    }


class DeadlockError(RuntimeError):
    """The pipeline made no commit progress for an implausible interval."""


class Pipeline:
    """One simulated core running one program."""

    def __init__(self, program: Program, config: ProcessorConfig = None,
                 mem_seed: int = 0, trace_source=None):
        self.config = config or ProcessorConfig.cortex_a72_like()
        cfg = self.config
        self.program = program
        self.mem_seed = mem_seed
        #: Optional :class:`~repro.trace.store.TraceStore` override for
        #: replay mode (tests inject a temp-dir store; None => the shared
        #: environment-selected store).  Ignored in live mode.
        self._trace_source = trace_source
        if cfg.frontend_mode == "replay":
            # No live executor: run() opens a one-member replay window
            # once the required trace length (skip + sample + margin) is
            # known, unless repro.batch installed a shared-window cursor.
            self.executor = None
            self.cursor = None
        else:
            self.executor = FunctionalExecutor(program, mem_seed=mem_seed)
            self.cursor = TraceCursor(self.executor)
        self.predictor = build_predictor(cfg)
        self.btb = BranchTargetBuffer(cfg.predictor.btb_sets, cfg.predictor.btb_assoc)
        self.hierarchy = MemoryHierarchy(cfg.memory)
        self.slice_tracker = SliceTracker(cfg.pubs)
        self.mode_switch = ModeSwitch(
            cfg.pubs.mode_switch_threshold_mpki,
            cfg.pubs.mode_switch_interval,
            enabled=cfg.pubs.enabled and cfg.pubs.mode_switch_enabled,
        )
        priority_entries = cfg.pubs.priority_entries if cfg.pubs.enabled else 0
        self.age_matrix = AgeMatrix(cfg.iq_size) if cfg.use_age_matrix else None
        if cfg.distributed_iq:
            self.iq = DistributedIssueQueue(cfg.iq_size, cfg.fu_pool,
                                            priority_entries, seed=cfg.seed)
            self.select_logic = DistributedSelectLogic(cfg.issue_width, cfg.fu_pool)
        elif cfg.iq_organization == "shifting":
            self.iq = ShiftingQueue(cfg.iq_size)
            self.select_logic = SelectLogic(cfg.issue_width, cfg.fu_pool)
        elif cfg.iq_organization == "circular":
            self.iq = CircularQueue(cfg.iq_size)
            self.select_logic = SelectLogic(cfg.issue_width, cfg.fu_pool)
        else:
            self.iq = IssueQueue(cfg.iq_size, priority_entries, seed=cfg.seed)
            self.select_logic = SelectLogic(cfg.issue_width, cfg.fu_pool,
                                            self.age_matrix)
        self.renamer = Renamer(cfg.int_phys_regs, cfg.fp_phys_regs)
        self.rob = ReorderBuffer(cfg.rob_size)
        self.lsq = LoadStoreQueue(cfg.lsq_size)
        self.stats = SimStats()

        self.cycle = 0
        self._next_seq = 0
        self._next_trace_seq = 0
        self._wrong_path_pc: Optional[int] = None  # None => fetching the trace
        self._fetch_resume_cycle = 0  # recovery redirect / I-miss stall
        #: Why fetch is stalled while ``cycle < _fetch_resume_cycle``
        #: ("recovery" or "l1i"); drives topdown bubble attribution.
        self._fetch_stall_reason = "fetch"
        #: Why the front end is empty when dispatch finds nothing: keeps
        #: the last stall's reason until a dispatch succeeds, so the
        #: pipeline-refill bubbles after a recovery or an I-miss are
        #: attributed to their cause, not to generic fetch bandwidth.
        self._bubble_reason = "fetch"
        #: Set by :meth:`_allocate_iq_slot` when the stall policy blocked
        #: dispatch on a full *priority* partition (vs. a full IQ), so
        #: the dispatch loop books the stall under the right cause.
        self._priority_blocked = False
        #: The front-end head that dispatch last found blocked on a full
        #: ROB, LSQ or register file, and that bucket.  Only a commit or
        #: a recovery can free those resources, so while neither happens
        #: the same head hits the same stall: :meth:`_dispatch` books it
        #: without re-checking.  :meth:`_commit` clears it; a recovery
        #: empties the front end, so the head never matches again.
        self._stalled_head: Optional[Uop] = None
        self._stalled_bucket = ""
        self._last_ifetch_line = -1
        self._frontend: Deque[Uop] = deque()
        self._frontend_capacity = cfg.fetch_width * (cfg.frontend_depth + 2)
        self._events: Dict[int, List[Uop]] = {}
        # Incremental ready-set state (see the module docstring).  Entry
        # handles are stable only in the random organizations (single or
        # distributed); shifting/circular compact positions on release, so
        # they fall back to the legacy full-scan issue loop.
        self._incremental_issue = cfg.distributed_iq or cfg.iq_organization == "random"
        self._wakeup: Dict[int, List[Uop]] = {}  # phys reg -> waiting uops
        self._ready_now: List[Uop] = []  # ready_at <= cycle, unissued
        self._ready_buckets: Dict[int, List[Uop]] = {}  # cycle -> uops
        self._forward_latency = 2  # store-to-load forwarding (L1-hit-like)
        self._commit_limit: Optional[int] = None
        #: Sampled-region detailed warmup still owed before measurement
        #: (consumed by the first ``run`` on a region config).
        self._pending_detail = 0
        #: Hierarchy-counter baselines at the measurement start, so
        #: region stats report the measured window, not the warm phases.
        self._mem_stats_base = (0, 0, 0)
        #: Optional callback invoked with every committing uop (fidelity
        #: checks, tracing).  Keep it cheap: it runs on the commit path.
        self.commit_hook = None
        #: Timeline records of the most recent misprediction recoveries:
        #: (pc, fetch, dispatch, issue, complete) cycles per Fig. 1.
        self.misprediction_log: Deque[tuple] = deque(maxlen=64)
        self._last_data_addr = 1 << 30  # for wrong-path address synthesis
        #: Runtime verification (repro.verify): a differential oracle at
        #: every commit and, at "full" level, periodic invariant sweeps.
        #: None when cfg.verify_level == "off" -- the unverified hot path
        #: pays one attribute check per cycle and per commit, nothing more.
        self.verifier = None
        if cfg.verify_level != "off":
            from ..verify import PipelineVerifier  # deferred: import cycle
            self.verifier = PipelineVerifier(
                self, cfg.verify_level, cfg.verify_interval,
                mem_seed=mem_seed)
        #: SMT-interference co-runner (repro.core.smt): None when disabled
        #: -- the uncontended hot path pays one attribute check per commit.
        #: Injects only during timed commits (never the warm phase), so
        #: live and replay runs see identical injection points.
        self._smt = None
        if cfg.smt.enabled:
            from .smt import SmtInterference
            self._smt = SmtInterference(cfg.smt)

    # ==================================================================
    # Public driver
    # ==================================================================

    def run(self, max_instructions: int, skip_instructions: int = 0,
            max_cycles: Optional[int] = None) -> SimStats:
        """Simulate until ``max_instructions`` commit.

        ``skip_instructions`` fast-forwards the functional executor before
        timing starts (the paper skips 16G instructions before its 100M
        sample).  ``max_cycles`` bounds runaway simulations; a run that
        exhausts it raises :class:`DeadlockError`.
        """
        if max_instructions < 1:
            raise ValueError("max_instructions must be positive")
        if self.config.frontend_mode == "replay":
            self._prepare_replay(max_instructions, skip_instructions)
        else:
            self._prewarm_regions()
            for _ in range(skip_instructions):
                self._warm(self.executor.step())
                self._next_trace_seq += 1
            self.cursor.release(self._next_trace_seq)
        if self.verifier is not None:
            self.verifier.on_skip(skip_instructions)
        if self._pending_detail:
            self._run_detail(self._pending_detail)
            self._pending_detail = 0
        self._commit_limit = self.stats.committed + max_instructions
        limit = max_cycles if max_cycles is not None else 500 * max_instructions + 100_000
        limit += self.cycle  # detail warmup spent cycles before measurement
        while self.stats.committed < self._commit_limit:
            self.step()
            if self.cycle > limit:
                raise DeadlockError(
                    f"no completion after {self.cycle} cycles "
                    f"({self.stats.committed} committed)"
                )
        self._finalize_stats()
        if self.verifier is not None:
            self.verifier.on_run_end()
        return self.stats

    def _run_detail(self, detail: int) -> None:
        """Run the region's detailed-warmup records, then discard stats.

        SMARTS-style: the ``detail`` records before the measured window
        go through the full timing model so measurement starts from a
        filled pipeline (in-flight ROB/IQ/LSQ contents, outstanding
        misses), not the cold one a fast-forwarded seat leaves behind.
        Their cycles and commits are discarded; only the warm state --
        including the instructions still in flight -- carries over.
        """
        self._commit_limit = self.stats.committed + detail
        limit = self.cycle + 500 * detail + 100_000
        while self.stats.committed < self._commit_limit:
            self.step()
            if self.cycle > limit:
                raise DeadlockError(
                    f"no completion during detailed warmup after "
                    f"{self.cycle} cycles ({self.stats.committed} committed)"
                )
        # Measurement starts here: fresh counters, and remember the
        # hierarchy's absolute miss counts so _finalize_stats reports
        # only the measured window's misses.
        self.stats = SimStats()
        self._mem_stats_base = (self.hierarchy.stats.l2_misses,
                                self.hierarchy.stats.l1d_misses,
                                self.hierarchy.stats.l1i_misses)

    def _prewarm_regions(self) -> None:
        """Install the program's cacheable data regions into the L2.

        Models resuming from a warmed checkpoint: regions are warmed oldest-
        first while they cumulatively fit in 3/4 of the LLC (their steady
        state); larger regions stay cold because their steady state *is*
        missing.
        """
        l2 = self.hierarchy.l2
        budget = l2.config.size_bytes * 3 // 4
        line = l2.config.line_bytes
        warmed = 0
        for start, size in self.program.warm_regions:
            if warmed + size > budget:
                continue
            warmed += size
            for addr in range(start, start + size, line):
                l2.install(addr)

    def _warm(self, record) -> None:
        """Train warm-state structures with one skipped instruction.

        The skip phase models fast-forwarding from a checkpoint: caches,
        the branch predictor, the BTB and the confidence table see the
        skipped stream (functionally, without timing), so timing starts
        from a representative microarchitectural state.
        """
        inst = record.inst
        line = inst.pc >> 6
        if line != self._last_ifetch_line:
            self.hierarchy.warm_ifetch(inst.pc)
            self._last_ifetch_line = line
        if record.mem_addr is not None:
            self.hierarchy.warm_data(record.mem_addr)
        elif inst.is_conditional_branch:
            predicted = self.predictor.predict(inst.pc)
            self.predictor.update(inst.pc, record.taken, predicted)
            if record.taken:
                self.btb.install(inst.pc, record.next_pc)
            if self.config.pubs.enabled:
                self.slice_tracker.on_branch_resolved(
                    inst.pc, correct=predicted == record.taken
                )

    # ------------------------------------------------------------------
    # Replay front end (frontend_mode == "replay")
    # ------------------------------------------------------------------

    def _prepare_replay(self, max_instructions: int,
                        skip_instructions: int) -> None:
        """Seat a replay run: trace, cursor, warm state, region, verifier.

        The one replay set-up routine, for a single run and for every
        batch member alike.  A fresh run without a cursor opens a
        one-member window over the trace it needs; :func:`repro.batch.
        run_batch` installs a cursor over its shared window instead.
        The first reader of a window restores the trained post-skip
        state of the memory hierarchy and of the predictor complex from
        (or records it into) the warm-checkpoint store, so a sweep
        trains each component once, not once per config; on a shared
        window it also pickles that state once for the later members,
        which is precisely how the store would deliver it to them.  On
        a resumed run (``run`` called again) warm training continues
        from the replay position on the live structures, as in live mode.
        """
        from ..trace.replay import open_window  # deferred: import cycle
        from ..trace.store import REPLAY_MARGIN, shared_store
        store = self._trace_source if self._trace_source is not None \
            else shared_store()
        if self.cycle or self.stats.committed or self._next_trace_seq:
            start = self.cursor.high
            trace = store.acquire(
                self.program, self.mem_seed,
                start + skip_instructions + max_instructions + REPLAY_MARGIN)
            if trace is not self.cursor.trace:
                self.cursor.attach(trace)
            self._prewarm_regions()
            self._warm_mem_span(trace, start, start + skip_instructions)
            self._warm_front_span(trace, start, start + skip_instructions)
            self._next_trace_seq += skip_instructions
            self.cursor.release(self._next_trace_seq)
            return
        region = self.config.replay_region
        if self.cursor is None:
            self.cursor = open_window(
                store, self.program, self.mem_seed, region,
                max_instructions, skip_instructions).cursor()
        window = self.cursor.window
        trace = window.trace
        # Timing (a region's discarded detail window first) starts at
        # the seat; warm microarchitectural state fast-forwards only
        # over the warmup before it, and the differential oracle (when
        # enabled) restarts from the nearest ArchCheckpoint <= the seat
        # instead of re-executing the whole prefix.
        seat = window.start
        if window.warm is not None:
            for name, value in zip(_WARM_FIELDS, pickle.loads(window.warm)):
                setattr(self, name, value)
            # Geometry-equal by batch signature; rebind so later field
            # reads see this run's own config object, not the snapshot's.
            self.slice_tracker.config = self.config.pubs
        else:
            if region is not None and region.warmup != seat:
                self._prewarm_regions()
                self._warm_mem_span(trace, seat - region.warmup, seat)
                self._warm_front_span(trace, seat - region.warmup, seat)
            elif seat > 0:
                # A full-prefix warmup is exactly the skip path's warm
                # phase: share its warm-checkpoint store.
                self._restore_or_train_warm(store, trace, seat)
            else:
                self._prewarm_regions()
            if window.shared:
                window.warm = pickle.dumps(
                    tuple(getattr(self, name) for name in _WARM_FIELDS),
                    protocol=pickle.HIGHEST_PROTOCOL)
        self._next_trace_seq = seat
        if region is not None:
            self._pending_detail = region.detail
            if self.verifier is not None:
                self.verifier.on_region(trace, seat)
        self.cursor.release(seat)

    def _restore_or_train_warm(self, store, trace, skip: int) -> None:
        """Restore warm components from checkpoints, training on a miss."""
        cfg = self.config
        mem_key = store.warm_key(self.program, self.mem_seed, skip, "mem",
                                 cfg.memory)
        warm = store.get_warm(mem_key)
        if warm is not None:
            (self.hierarchy,) = warm
        else:
            self._prewarm_regions()
            self._warm_mem_span(trace, 0, skip)
            store.put_warm(mem_key, (self.hierarchy,))
        front_key = store.warm_key(self.program, self.mem_seed, skip,
                                   "front", _front_warm_config(cfg))
        warm = store.get_warm(front_key)
        if warm is not None:
            self.predictor, self.btb, self.slice_tracker = warm
            # Geometry-equal by key; rebind so later field reads see the
            # run's own config object, not the snapshot's.
            self.slice_tracker.config = cfg.pubs
        else:
            self._warm_front_span(trace, 0, skip)
            store.put_warm(front_key,
                           (self.predictor, self.btb, self.slice_tracker))
        self._last_ifetch_line = trace.pcs[skip - 1] >> 6

    def _warm_mem_span(self, trace, start: int, end: int) -> None:
        """:meth:`_warm`'s memory-hierarchy half over trace records.

        Most records are neither an I-line change nor a memory access;
        the warm events are extracted vectorized, so the Python loop only
        visits records that touch the hierarchy -- same calls in the same
        order, so the resulting warm state is bit-identical to a
        per-record walk.
        """
        if end <= start:
            return
        pcs = trace.pcs
        mem_addrs = trace.mem_addrs
        hierarchy = self.hierarchy
        lines = np.frombuffer(pcs, dtype=np.uint32)[start:end] >> 6
        chg = np.empty(len(lines), dtype=bool)
        chg[0] = lines[0] != self._last_ifetch_line
        np.not_equal(lines[1:], lines[:-1], out=chg[1:])
        mem = (np.frombuffer(trace.flags, dtype=np.uint8)[start:end]
               & FLAG_MEM) != 0
        for off in np.nonzero(chg | mem)[0].tolist():
            i = start + off
            if chg[off]:
                hierarchy.warm_ifetch(pcs[i])
            if mem[off]:
                hierarchy.warm_data(mem_addrs[i])
        self._last_ifetch_line = int(lines[-1])

    def _warm_front_span(self, trace, start: int, end: int) -> None:
        """:meth:`_warm`'s predictor-complex half over trace records.

        Vectorizes the branch-record scan like :meth:`_warm_mem_span`:
        only conditional branches train the predictor complex, so the
        Python loop skips straight to them.
        """
        pcs = trace.pcs
        flags = trace.flags
        next_pcs = trace.next_pcs
        predictor = self.predictor
        btb = self.btb
        tracker = self.slice_tracker
        pubs_on = self.config.pubs.enabled
        seg = np.frombuffer(flags, dtype=np.uint8)[start:end]
        for off in np.nonzero(seg & FLAG_COND_BRANCH)[0].tolist():
            i = start + off
            f = flags[i]
            pc = pcs[i]
            taken = bool(f & FLAG_TAKEN)
            predicted = predictor.predict(pc)
            predictor.update(pc, taken, predicted)
            if taken:
                btb.install(pc, next_pcs[i])
            if pubs_on:
                tracker.on_branch_resolved(pc,
                                           correct=predicted == taken)

    def step(self) -> None:
        """Advance one clock cycle."""
        self.cycle += 1
        self.stats.cycles += 1
        self._commit()
        self._writeback()
        self._issue()
        self._dispatch()
        self._fetch()
        self.stats.iq_occupancy_sum += self.iq.occupancy
        if self.verifier is not None:
            self.verifier.on_cycle()

    def _finalize_stats(self) -> None:
        base_llc, base_l1d, base_l1i = self._mem_stats_base
        self.stats.llc_misses = self.hierarchy.stats.l2_misses - base_llc
        self.stats.l1d_misses = self.hierarchy.stats.l1d_misses - base_l1d
        self.stats.l1i_misses = self.hierarchy.stats.l1i_misses - base_l1i

    # ==================================================================
    # Commit
    # ==================================================================

    def _commit(self) -> None:
        rob = self.rob
        head = rob.head()
        if head is None or not head.completed:
            # Nothing can retire: skipping the mode switch is exact, since
            # it only acts once ``committed`` has moved since its last call.
            return
        self._stalled_head = None  # retiring frees ROB/LSQ/register space
        cycle = self.cycle
        renamer = self.renamer
        stats = self.stats
        limit = self._commit_limit
        verifier = self.verifier
        smt = self._smt
        for _ in range(self.config.commit_width):
            if limit is not None and stats.committed >= limit:
                break
            uop = rob.head()
            if uop is None or not uop.completed:
                break
            rob.pop_head()
            renamer.release_committed(uop)
            if uop.in_lsq:
                self.lsq.remove_committed(uop)
                if uop.inst.is_store and uop.mem_addr is not None:
                    self.hierarchy.store(cycle, uop.mem_addr)
            if uop.inst.is_conditional_branch:
                stats.cond_branches += 1
                if uop.mispredicted:
                    stats.mispredictions += 1
                self.slice_tracker.on_branch_resolved(
                    uop.inst.pc, correct=not uop.mispredicted
                )
            stats.committed += 1
            if smt is not None:
                smt.on_commit(self)
            if verifier is not None:
                verifier.on_commit(uop)
            if self.commit_hook is not None:
                self.commit_hook(uop)
            if uop.trace_seq >= 0:
                self.cursor.release(uop.trace_seq)
        self.mode_switch.observe(stats.committed, self.hierarchy.stats.l2_misses)

    # ==================================================================
    # Writeback / branch resolution
    # ==================================================================

    def _writeback(self) -> None:
        completing = self._events.pop(self.cycle, None)
        if not completing:
            return
        for uop in completing:
            if uop.squashed:
                continue
            uop.completed = True
            uop.complete_cycle = self.cycle
            if uop.mispredicted and uop.on_correct_path:
                self._recover(uop)

    def _recover(self, branch: Uop) -> None:
        """Branch misprediction recovery (flush + checkpoint restore)."""
        cycle = self.cycle
        penalty = cycle - branch.fetch_cycle
        self.stats.missspec_penalty_cycles += penalty
        self.stats.missspec_frontend_cycles += branch.dispatch_cycle - branch.fetch_cycle
        self.stats.missspec_iq_wait_cycles += branch.issue_cycle - branch.dispatch_cycle
        self.stats.missspec_execute_cycles += cycle - branch.issue_cycle
        self.misprediction_log.append(
            (branch.inst.pc, branch.fetch_cycle, branch.dispatch_cycle,
             branch.issue_cycle, cycle)
        )

        seq = branch.seq
        for uop in self._frontend:
            uop.squashed = True
        self._frontend.clear()
        for slot, uop in list(self.iq.occupied()):
            if uop.seq > seq:
                uop.squashed = True
                if self.age_matrix is not None:
                    self.age_matrix.remove(slot)
        self.iq.flush(keep=lambda uop: not uop.squashed)
        for uop in self.rob.squash_younger(seq):
            uop.squashed = True
            self.renamer.release_squashed(uop)
        for uop in self.lsq.squash_younger(seq):
            uop.squashed = True
        self.renamer.restore(branch.checkpoint)
        branch.checkpoint = None

        self._next_trace_seq = branch.trace_seq + 1
        self._wrong_path_pc = None
        self._fetch_resume_cycle = cycle + self.config.recovery_penalty
        self._fetch_stall_reason = "recovery"
        self._bubble_reason = "recovery"
        self._last_ifetch_line = -1

    # ==================================================================
    # Issue
    # ==================================================================

    def _issue(self) -> None:
        if self._incremental_issue:
            if not self._ready_now and self.cycle not in self._ready_buckets:
                self.select_logic.stats.cycles += 1  # nothing can request
                return
            self._issue_incremental()
        else:
            self._issue_scan()

    def _schedule_dispatched(self, uop: Uop) -> None:
        """Register a freshly-dispatched uop with the ready-set machinery.

        Sources with a known ready cycle contribute to ``uop.ready_at``;
        each source whose producer has not yet issued adds a pending count
        and a wakeup registration (duplicate source registers register --
        and are later decremented -- once per occurrence).
        """
        ready_cycle = self.renamer.ready_cycle
        ready_at = 0
        pending = 0
        for phys in uop.src_phys:
            rc = ready_cycle[phys]
            if rc == NEVER:
                pending += 1
                waiters = self._wakeup.get(phys)
                if waiters is None:
                    self._wakeup[phys] = [uop]
                else:
                    waiters.append(uop)
            elif rc > ready_at:
                ready_at = rc
        uop.ready_at = ready_at  # partial max while sources are pending
        uop.pending_srcs = pending
        if pending:
            return
        if ready_at <= self.cycle:
            self._ready_now.append(uop)
        else:
            bucket = self._ready_buckets.get(ready_at)
            if bucket is None:
                self._ready_buckets[ready_at] = [uop]
            else:
                bucket.append(uop)

    def _wake_consumers(self, phys: int, when: int) -> None:
        """A producer issued: schedule its register's waiting consumers.

        ``when`` is at least ``cycle + 1`` (execution latencies are >= 1),
        so a fully-woken consumer always lands in a future bucket, never in
        the current cycle's already-drained one -- exactly matching the
        scan loop, which could not have seen the value ready this cycle
        either.  Waiters squashed since registering are dropped lazily.
        """
        waiters = self._wakeup.pop(phys, None)
        if waiters is None:
            return
        buckets = self._ready_buckets
        for uop in waiters:
            if when > uop.ready_at:
                uop.ready_at = when
            uop.pending_srcs -= 1
            if uop.pending_srcs == 0 and not uop.squashed:
                bucket = buckets.get(uop.ready_at)
                if bucket is None:
                    buckets[uop.ready_at] = [uop]
                else:
                    bucket.append(uop)

    def _issue_incremental(self) -> None:
        """Issue from the incrementally-maintained ready set.

        Equivalent to :meth:`_issue_scan` (validated by the golden-stats
        tests) without touching the uops that cannot issue this cycle:
        per-cycle work is O(ready + granted), not O(IQ occupancy).
        """
        cycle = self.cycle
        ready = self._ready_now
        bucket = self._ready_buckets.pop(cycle, None)
        if bucket is not None:
            ready.extend(bucket)
        live: List[Uop] = []
        requests = []
        for uop in ready:
            if uop.squashed or uop.issue_cycle >= 0:
                continue
            live.append(uop)
            dep = uop.store_dep
            if dep is not None and dep.issue_cycle < 0 and not dep.squashed:
                continue  # stays live; retried once the store issues
            requests.append((uop.iq_slot, uop))
        if not requests:
            self.select_logic.stats.cycles += 1
            self._ready_now = live
            return
        # Dispatch order into the ready set is not slot order; the select
        # logic's position priority needs ascending slots/handles (the
        # order the scan loop produced by construction).
        requests.sort(key=_slot_of)
        granted = self.select_logic.select(requests)
        iq_release = self.iq.release
        age_matrix = self.age_matrix
        for slot, _ in sorted(granted, reverse=True):
            iq_release(slot)
            if age_matrix is not None:
                age_matrix.remove(slot)
        renamer = self.renamer
        events = self._events
        for slot, uop in granted:
            uop.issue_cycle = cycle
            uop.iq_slot = -1
            lat = self._execution_latency(uop)
            done = cycle + lat
            dest = uop.dest_phys
            if dest >= 0:
                renamer.set_ready(dest, done)
                self._wake_consumers(dest, done)
            bucket = events.get(done)
            if bucket is None:
                events[done] = [uop]
            else:
                bucket.append(uop)
        self._ready_now = [u for u in live if u.issue_cycle < 0]

    def _issue_scan(self) -> None:
        """Legacy full-IQ scan, kept for the compacting organizations."""
        cycle = self.cycle
        renamer = self.renamer
        requests = []
        for slot, uop in self.iq.occupied():
            dep = uop.store_dep
            if dep is not None and not (dep.issued or dep.squashed):
                continue
            if renamer.sources_ready(uop, cycle):
                requests.append((slot, uop))
        if not requests:
            self.select_logic.stats.cycles += 1
            return
        granted = self.select_logic.select(requests)
        # Release highest slots first: in the shifting queue, removing an
        # entry compacts the positions above it, so descending order keeps
        # the remaining grant slots valid.
        for slot, _ in sorted(granted, reverse=True):
            self.iq.release(slot)
            if self.age_matrix is not None:
                self.age_matrix.remove(slot)
        for slot, uop in granted:
            uop.issue_cycle = cycle
            uop.iq_slot = -1
            lat = self._execution_latency(uop)
            if uop.dest_phys >= 0:
                renamer.set_ready(uop.dest_phys, cycle + lat)
            self._events.setdefault(cycle + lat, []).append(uop)

    def _execution_latency(self, uop: Uop) -> int:
        inst = uop.inst
        if inst.is_load:
            dep = uop.store_dep
            if dep is not None and not dep.squashed:
                return 1 + self._forward_latency
            if uop.on_correct_path and uop.mem_addr is not None:
                self._last_data_addr = uop.mem_addr
                return 1 + self.hierarchy.load(self.cycle, uop.mem_addr)
            if self.config.wrong_path_memory == "pollute":
                # Wrong-path loads have no architectural address; real ones
                # usually land near recently-touched data, so synthesize a
                # deterministic address within 4 KB of the last correct-path
                # access (cache pollution and spurious prefetch training).
                addr = self._last_data_addr + (((inst.pc >> 2) * 0x61) & 0xFF8)
                return 1 + self.hierarchy.load(self.cycle, addr)
            # Wrong-path loads ("idle"): L1-hit time, no cache side effects.
            return 1 + self.hierarchy.l1d.config.hit_latency
        if inst.is_store:
            return 1  # address/data capture; memory written at commit
        return inst.latency

    # ==================================================================
    # Dispatch (decode + rename + IQ/ROB/LSQ allocation)
    # ==================================================================

    def _dispatch(self) -> None:
        cfg = self.config
        frontend = self._frontend
        if not frontend:
            self._book_frontend_bubble(cfg.decode_width)
            return
        if frontend[0] is self._stalled_head:
            # The same blocked head as last cycle, with nothing freed
            # since: the stall repeats, all decode slots unfilled.
            self._book_backend_stall(self._stalled_bucket, cfg.decode_width)
            return
        cycle = self.cycle
        earliest = cycle - cfg.frontend_depth
        pubs_on = cfg.pubs.enabled
        rob = self.rob
        lsq = self.lsq
        renamer = self.renamer
        stats = self.stats
        age_matrix = self.age_matrix
        incremental = self._incremental_issue
        dispatched = 0
        # Topdown slot accounting (DESIGN.md §15): every loop exit books
        # the cycle's unfilled decode slots into exactly one bucket, so
        # the td_* counters sum to decode_width * cycles by construction.
        stall_bucket = None
        while dispatched < cfg.decode_width and frontend:
            uop = frontend[0]
            if uop.fetch_cycle > earliest:
                break
            if not uop.decoded:
                # The decode stage proper: PUBS slice tracking.
                uop.decoded = True
                if pubs_on:
                    uop.unconfident = self.slice_tracker.on_decode(uop.inst)
            if rob.is_full():
                stall_bucket = self._stalled_bucket = "rob"
                self._stalled_head = uop
                break
            if uop.inst.is_mem and lsq.is_full():
                stall_bucket = self._stalled_bucket = "lsq"
                self._stalled_head = uop
                break
            if not renamer.can_rename(uop):
                stall_bucket = self._stalled_bucket = "regs"
                self._stalled_head = uop
                break
            slot = self._allocate_iq_slot(uop)
            if slot is None:
                if self._priority_blocked:
                    # The stall policy blocked on the priority partition
                    # while the rest of the IQ may have space: a distinct
                    # cause, kept disjoint from iq_full so the per-cause
                    # split sums to dispatch_stall_cycles.
                    self._priority_blocked = False
                    stall_bucket = "priority"
                else:
                    stall_bucket = "iq"
                break
            frontend.popleft()
            renamer.rename(uop)
            if uop.mispredicted and uop.on_correct_path:
                uop.checkpoint = renamer.checkpoint()
            uop.dispatch_cycle = cycle
            uop.iq_slot = slot
            rob.append(uop)
            if uop.inst.is_mem:
                lsq.insert(uop)
            if age_matrix is not None:
                age_matrix.insert(slot)
            if incremental:
                self._schedule_dispatched(uop)
            if uop.on_correct_path:
                stats.td_retire_slots += 1
            else:
                stats.td_wrongpath_slots += 1
            dispatched += 1
        if dispatched:
            self._bubble_reason = "fetch"
        if stall_bucket is not None:
            self._book_backend_stall(stall_bucket,
                                     cfg.decode_width - dispatched)
        elif dispatched < cfg.decode_width:
            self._book_frontend_bubble(cfg.decode_width - dispatched)

    def _book_frontend_bubble(self, leftover: int) -> None:
        """Book ``leftover`` decode slots the front end left empty.

        The front end is empty (or its head still too young).  While a
        fetch stall is active the reason is exact; afterwards the refill
        bubbles keep the stall's reason until the first dispatch resets
        it to plain fetch bandwidth.
        """
        stats = self.stats
        reason = self._fetch_stall_reason \
            if self.cycle < self._fetch_resume_cycle else self._bubble_reason
        if reason == "recovery":
            stats.td_recovery_slots += leftover
        elif reason == "l1i":
            stats.td_fe_l1i_slots += leftover
        else:
            stats.td_fe_fetch_slots += leftover

    def _book_backend_stall(self, bucket: str, leftover: int) -> None:
        """Book a dispatch stall on ``bucket`` and its unfilled slots."""
        stats = self.stats
        stats.dispatch_stall_cycles += 1
        if bucket == "regs":
            stats.regs_full_stall_cycles += 1
            stats.td_be_regs_slots += leftover
        elif bucket == "priority":
            stats.priority_stall_cycles += 1
            stats.td_be_priority_slots += leftover
        elif bucket == "rob":
            stats.rob_full_stall_cycles += 1
            stats.td_be_rob_slots += leftover
        elif bucket == "iq":
            stats.iq_full_stall_cycles += 1
            stats.td_be_iq_slots += leftover
        else:
            stats.lsq_full_stall_cycles += 1
            stats.td_be_lsq_slots += leftover

    def _allocate_iq_slot(self, uop: Uop) -> Optional[int]:
        """IQ entry allocation implementing the PUBS dispatch policies."""
        cfg = self.config.pubs
        if not cfg.enabled:
            return self.iq.dispatch(uop, priority=False)
        if not self.mode_switch.pubs_active:
            return self.iq.dispatch_uniform(uop)
        if uop.unconfident:
            self.stats.unconfident_dispatches += 1
            slot = self.iq.dispatch(uop, priority=True)
            if slot is not None:
                self.stats.priority_dispatches += 1
                return slot
            if cfg.stall_policy:
                self._priority_blocked = True
                return None
            return self.iq.dispatch(uop, priority=False)
        return self.iq.dispatch(uop, priority=False)

    # ==================================================================
    # Fetch
    # ==================================================================

    def _fetch(self) -> None:
        cycle = self.cycle
        if cycle < self._fetch_resume_cycle:
            return
        cfg = self.config
        fetched = 0
        while fetched < cfg.fetch_width:
            if len(self._frontend) >= self._frontend_capacity:
                break
            on_trace = self._wrong_path_pc is None
            if on_trace:
                record = self.cursor.get(self._next_trace_seq)
                inst = record.inst
            else:
                record = None
                inst = self.program.at(self._wrong_path_pc)
            # Instruction cache: one access per new line.
            line = inst.pc >> 6
            if line != self._last_ifetch_line:
                lat = self.hierarchy.ifetch(cycle, inst.pc)
                self._last_ifetch_line = line
                if lat > self.hierarchy.l1i.config.hit_latency:
                    self._fetch_resume_cycle = cycle + lat
                    self._fetch_stall_reason = "l1i"
                    self._bubble_reason = "l1i"
                    self._last_ifetch_line = -1  # re-check after the fill
                    break
            uop = Uop(self._next_seq, inst, cycle, on_trace,
                      record.seq if on_trace else -1)
            self._next_seq += 1
            next_pc = self._next_fetch_pc(uop, record)
            self._frontend.append(uop)
            self.stats.fetched += 1
            if not on_trace:
                self.stats.wrong_path_fetched += 1
            fetched += 1
            if on_trace and uop.mispredicted:
                self._wrong_path_pc = next_pc
                self._next_trace_seq += 1
                break  # the front end redirects; stop this fetch group
            if on_trace:
                self._next_trace_seq += 1
            else:
                self._wrong_path_pc = next_pc
            if next_pc != inst.pc + INST_BYTES:
                break  # taken-transfer fetch break

    def _next_fetch_pc(self, uop: Uop, record) -> int:
        """Branch prediction at fetch; returns the PC fetch continues at."""
        inst = uop.inst
        pc = inst.pc
        if inst.is_conditional_branch:
            predicted_taken = self.predictor.predict(pc)
            target = None
            if predicted_taken:
                target = self.btb.lookup(pc)
                if target is None:
                    predicted_taken = False  # BTB miss: cannot redirect
                    self.stats.btb_misses_taken += 1
            predicted_next = target if predicted_taken else pc + INST_BYTES
            if predicted_next == pc + INST_BYTES and not self.program.contains(predicted_next):
                predicted_next = self.program.entry_pc
            uop.predicted_taken = predicted_taken
            uop.predicted_next_pc = predicted_next
            if record is not None:  # correct path: train with the truth
                self.predictor.update(pc, record.taken, predicted_taken)
                if record.taken:
                    self.btb.install(pc, record.next_pc)
                uop.actual_taken = record.taken
                uop.actual_next_pc = record.next_pc
                uop.mispredicted = predicted_next != record.next_pc
                return record.next_pc if not uop.mispredicted else predicted_next
            return predicted_next
        if inst.opcode is Opcode.JUMP:
            uop.predicted_taken = True
            uop.predicted_next_pc = inst.target
            if record is not None:
                uop.actual_taken = True
                uop.actual_next_pc = record.next_pc
            return inst.target
        if uop.inst.is_mem and record is not None:
            uop.mem_addr = record.mem_addr
        if record is not None:
            return record.next_pc
        return self.program.next_pc(pc)
