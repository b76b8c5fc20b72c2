"""Decode-stage unconfident-branch-slice prediction (Sec. III-A).

The tracker is consulted once per decoded instruction, in program (decode)
order -- including wrong-path instructions, since the real hardware cannot
know it is on the wrong path.  It answers one question: *does this
instruction belong to an unconfident branch slice?*  The answer steers
dispatch into the IQ's priority or normal partition.

Per Sec. III-A the machinery is:

1. every decoded instruction with a destination records itself in
   ``def_tab`` as the last writer of that logical register;
2. a decoding *branch* looks up the producers of its source registers in
   ``def_tab`` and links their ``brslice_tab`` entries to its own
   ``conf_tab`` pointer (step 1 of the linking algorithm);
3. a decoding *non-branch* that hits in ``brslice_tab`` propagates the
   stored conf pointer to its own producers (steps 2-3: the transitive
   closure builds up over repeated executions of the slice);
4. membership in an *unconfident* slice requires the linked confidence
   counter to exist and be below saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instruction import StaticInst
from .config import PubsConfig
from .tables import BrsliceTab, ConfTab, DefTab


@dataclass
class SliceTrackerStats:
    """Decode- and resolution-side counters (Fig. 11 uses the branch rate)."""

    decoded: int = 0
    branch_decodes: int = 0
    unconfident_branch_decodes: int = 0
    slice_hits: int = 0  #: non-branch decodes that hit in brslice_tab
    unconfident_marks: int = 0  #: instructions steered to priority entries
    trainings: int = 0

    @property
    def unconfident_branch_rate(self) -> float:
        """Fraction of dynamic branches estimated unconfident (Fig. 11)."""
        if self.branch_decodes == 0:
            return 0.0
        return self.unconfident_branch_decodes / self.branch_decodes


class SliceTracker:
    """The complete decode-side PUBS predictor."""

    def __init__(self, config: PubsConfig = None):
        self.config = config or PubsConfig()
        c = self.config
        self.def_tab = DefTab()
        self.brslice_tab = BrsliceTab(
            c.brslice_sets, c.brslice_assoc, c.brslice_fold_width, c.word_width
        )
        self.conf_tab = ConfTab(
            c.conf_sets, c.conf_assoc, c.conf_fold_width, c.conf_counter_bits,
            c.word_width,
        )
        self.stats = SliceTrackerStats()

    def on_decode(self, inst: StaticInst) -> bool:
        """Process one decoding instruction; True if it belongs to an
        unconfident branch slice (=> dispatch to a priority entry)."""
        self.stats.decoded += 1
        unconfident = False
        if inst.is_conditional_branch:
            self.stats.branch_decodes += 1
            conf_ptr = self.conf_tab.pointer(inst.pc)
            for src in inst.srcs:
                slot = self.def_tab.writer_of(src)
                if slot is not None:
                    self.brslice_tab.link(slot, conf_ptr)
            if self.config.blind:
                unconfident = True
            else:
                unconfident = not self.conf_tab.is_confident_pc(inst.pc)
            if unconfident:
                self.stats.unconfident_branch_decodes += 1
        elif not inst.is_branch:  # unconditional jumps carry no condition slice
            conf_ptr = self.brslice_tab.lookup(inst.pc)
            if conf_ptr is not None:
                self.stats.slice_hits += 1
                for src in inst.srcs:
                    slot = self.def_tab.writer_of(src)
                    if slot is not None:
                        self.brslice_tab.link(slot, conf_ptr)
                if self.config.blind:
                    unconfident = True
                else:
                    unconfident = not self.conf_tab.is_confident_pointer(conf_ptr)
        if inst.dest is not None:
            self.def_tab.record_writer(
                inst.dest, self.brslice_tab.codec.pointer(inst.pc)
            )
        if unconfident:
            self.stats.unconfident_marks += 1
        return unconfident

    def on_branch_resolved(self, pc: int, correct: bool) -> None:
        """Train the confidence counter with a resolved correct-path branch."""
        if self.config.blind:
            return  # the blind model has no conf_tab to train
        self.stats.trainings += 1
        self.conf_tab.train(pc, correct)

    def reset_tables(self) -> None:
        """Clear all three tables (keeps stats); for phase experiments."""
        self.def_tab.clear()
        self.brslice_tab.clear()
        self.conf_tab.clear()
