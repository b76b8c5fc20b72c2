"""The trace-replay front end: feeds pipelines from a recorded trace.

A :class:`SharedReplayWindow` materializes correct-path records on
demand from the trace's typed arrays -- a chunked numpy pass over the
pcs/flags/next_pcs columns, then one :class:`~repro.isa.executor.
DynamicOp` per record, with no architectural execution on the hot path.
Each pipeline reads it through its own :class:`ReplayCursor`, a drop-in
replacement for :class:`~repro.isa.executor.TraceCursor`: fetch asks for
records by dynamic sequence number (rewinding after mispredictions) and
commit advances the cursor's low-water mark through
:meth:`ReplayCursor.release`.

A single replay run is a window with one cursor; a batched sweep
(:mod:`repro.batch`) opens one window with a cursor per member, so every
member shares the same decoded records (the pipeline never mutates
them).  Either way the window frees records below the lowest mark of its
cursors, so memory stays bounded by the in-flight window plus a chunk
or two -- a shared window keeps a record until every member is done
with it.

Wrong-path fetch is *not* served here: the pipeline keeps walking the
static code itself, exactly as in live mode, because wrong-path behaviour
depends on the machine configuration (predictor state, BTB contents) and
therefore cannot be part of a config-independent trace.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

import numpy as np

from ..isa.executor import DynamicOp
from ..isa.instruction import INST_BYTES, Program, StaticInst
from .format import FLAG_MEM, FLAG_TAKEN, Trace
from .store import REPLAY_MARGIN, TraceStore

#: Records materialized per structure-of-arrays pass: a window's first
#: pass decodes FIRST_CHUNK, each later one twice the last, up to CHUNK
#: -- large enough to amortize the numpy column extraction, while a
#: short region run never decodes far past what it fetches.  CHUNK is
#: also the stride at which a cursor's advancing mark lets the window
#: free records.
CHUNK = 4096
FIRST_CHUNK = 512

#: Program-keyed static-decode tables, shared by every window replaying
#: the same program (weak so programs are not kept alive by the memo).
_DECODE_TABLES: "weakref.WeakKeyDictionary[Program, Tuple[StaticInst, ...]]" \
    = weakref.WeakKeyDictionary()


def static_decode_table(program: Program) -> Tuple[StaticInst, ...]:
    """PC-indexed decode table: ``table[pc // INST_BYTES]`` is the inst.

    Replay materializes one :class:`~repro.isa.executor.DynamicOp` per
    dynamic record; resolving its static instruction through a dense
    tuple index is measurably cheaper than the ``program.at`` dict lookup
    and method call on that hot path (delta recorded in the throughput
    bench).  Program PCs are dense multiples of ``INST_BYTES`` starting
    at 0, so the program's own instruction list *is* the table.
    """
    table = _DECODE_TABLES.get(program)
    if table is None:
        table = tuple(program.insts)
        _DECODE_TABLES[program] = table
    return table


class TraceExhaustedError(RuntimeError):
    """The pipeline requested a record beyond the captured stream.

    Should never fire when the trace was acquired through
    :func:`open_window` (which adds the pipeline's fetch-ahead margin);
    it exists so an undersized hand-built trace fails loudly instead of
    silently desynchronizing the simulation.
    """


class SharedReplayWindow:
    """One materialization of a trace span, read through per-pipeline cursors.

    Structure-of-arrays in, array-of-objects out: each chunk converts
    the trace's parallel typed arrays into Python-level columns with
    numpy, then builds one :class:`DynamicOp` per record.  ``start`` is
    the seat every cursor begins at (the first timed record, or a
    region's detail window).  ``warm`` carries the pickled warm state
    the first member of a shared window leaves for the others.
    """

    def __init__(self, trace: Trace, program: Program, start: int):
        self._trace = trace
        self._decode = static_decode_table(program)
        self._ops: List[DynamicOp] = []
        self._base = start  # seq number of _ops[0]
        self._cursors: List[ReplayCursor] = []
        self._chunk = FIRST_CHUNK // 2
        self.start = start
        self.warm: Optional[bytes] = None

    @property
    def trace(self) -> Trace:
        return self._trace

    @property
    def high(self) -> int:
        """Sequence number just past the highest materialized record."""
        return self._base + len(self._ops)

    @property
    def retained(self) -> int:
        """Number of records currently held (for tests)."""
        return len(self._ops)

    @property
    def shared(self) -> bool:
        """True when more than one pipeline reads this window."""
        return len(self._cursors) > 1

    def cursor(self) -> "ReplayCursor":
        """A new cursor seated at :attr:`start`.

        Open every member's cursor before the first one runs: records
        are freed below the lowest mark of the cursors open so far.
        """
        cursor = ReplayCursor(self)
        self._cursors.append(cursor)
        return cursor

    def attach(self, trace: Trace) -> None:
        """Swap in an extended trace (a superset of the current one)."""
        if len(trace) < len(self._trace):
            raise ValueError("an attached trace must extend the current one")
        self._trace = trace

    def _materialize_chunk(self) -> None:
        trace = self._trace
        lo = self._base + len(self._ops)
        if lo >= len(trace):
            raise TraceExhaustedError(
                f"trace exhausted at record {lo} "
                f"(captured {len(trace)}); acquire a longer trace")
        self._chunk = chunk = min(2 * self._chunk, CHUNK)
        hi = min(lo + chunk, len(trace))
        decode = self._decode
        mem_addrs = trace.mem_addrs
        append = self._ops.append
        f = np.frombuffer(trace.flags, dtype=np.uint8)[lo:hi]
        idx = (np.frombuffer(trace.pcs, dtype=np.uint32)[lo:hi]
               // INST_BYTES).tolist()
        taken = ((f & FLAG_TAKEN) != 0).tolist()
        mem = ((f & FLAG_MEM) != 0).tolist()
        nxt = np.frombuffer(trace.next_pcs, dtype=np.uint32)[lo:hi].tolist()
        for off in range(hi - lo):
            seq = lo + off
            append(DynamicOp(
                seq, decode[idx[off]], taken[off], nxt[off],
                mem_addrs[seq] if mem[off] else None))

    def get(self, seq: int) -> DynamicOp:
        if seq < self._base:
            raise IndexError(
                f"record {seq} is before the window base ({self._base})")
        while seq >= self._base + len(self._ops):
            self._materialize_chunk()
        return self._ops[seq - self._base]

    def trim(self) -> None:
        """Free the records below the lowest mark of every cursor."""
        low = min(cursor._low for cursor in self._cursors)
        drop = low - self._base
        if drop <= 0:
            return
        if drop >= len(self._ops):
            self._ops.clear()
        else:
            del self._ops[:drop]
        self._base = low


class ReplayCursor:
    """One pipeline's cursor-protocol view of a :class:`SharedReplayWindow`.

    Mirrors :class:`~repro.isa.executor.TraceCursor`: ``get`` by dynamic
    sequence number, ``release`` advancing a low-water mark below which
    access is an error.  Each CHUNK the mark advances, the window frees
    what no cursor can read any more.
    """

    def __init__(self, window: SharedReplayWindow):
        self.window = window
        self._low = window.start
        self._high = window.start
        self._trim_at = window.start + CHUNK

    @property
    def trace(self) -> Trace:
        return self.window.trace

    @property
    def high(self) -> int:
        """Sequence number just past the highest record fetched or released.

        The replay analogue of the live executor's position: a resumed
        run's warmup continues from it.
        """
        return self._high

    def attach(self, trace: Trace) -> None:
        """Extend the window's trace (resumed runs; see the window)."""
        self.window.attach(trace)

    def get(self, seq: int) -> DynamicOp:
        """The trace record with dynamic sequence number ``seq``."""
        if seq < self._low:
            raise IndexError(
                f"trace record {seq} already released (base={self._low})")
        if seq >= self._high:
            self._high = seq + 1
        return self.window.get(seq)

    def release(self, seq: int) -> None:
        """Discard records with sequence numbers below ``seq``.

        As with the live cursor, ``seq`` may run ahead of what has been
        fetched (the warmup fast-forward skips whole prefixes); the mark
        then simply jumps forward.
        """
        if seq <= self._low:
            return
        self._low = seq
        if seq > self._high:
            self._high = seq
        if seq >= self._trim_at:
            self._trim_at = seq + CHUNK
            self.window.trim()


def open_window(store: TraceStore, program: Program, mem_seed: int,
                region, instructions: int, skip: int) -> SharedReplayWindow:
    """Acquire the trace a fresh replay run needs and open its window.

    The window starts at the run's seat: ``skip`` for a full-span run,
    or a sampled ``region``'s detail window (the region's warmup already
    positions the timed window, so a nonzero ``skip`` is an error).
    """
    if region is None:
        trace = store.acquire(program, mem_seed,
                              skip + instructions + REPLAY_MARGIN,
                              skip_hint=skip)
        return SharedReplayWindow(trace, program, skip)
    if skip:
        raise ValueError(
            "replay_region and skip_instructions are mutually "
            "exclusive: the region's warmup already positions "
            "the timed window")
    trace = store.acquire(program, mem_seed,
                          region.start + instructions + REPLAY_MARGIN)
    return SharedReplayWindow(trace, program, region.start - region.detail)
