"""Functional (architectural) execution of programs.

The timing simulator in :mod:`repro.core` is trace-driven on the correct
path: a :class:`FunctionalExecutor` runs the program architecturally and
produces the true dynamic instruction stream (branch outcomes, memory
addresses).  Wrong-path instructions are fetched from the static code by the
timing model itself and never touch architectural state, exactly as in a
conventional oracle-assisted simulator.

Memory is sparse and word-addressed; unwritten locations read a deterministic
hash of their address, so pointer-chasing workloads see stable but
effectively random data without materializing gigabytes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from .instruction import Program, StaticInst
from .opcodes import Opcode
from .registers import NUM_LOGICAL_REGS

_MASK64 = (1 << 64) - 1
#: Addresses are confined to 48 bits and 8-byte aligned.
_ADDR_MASK = (1 << 48) - 8


def mix64(x: int) -> int:
    """Deterministic 64-bit mixer (splitmix64 finalizer).

    Used both as the default content of unwritten memory and by workload
    generators that need reproducible pseudo-random data values.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def to_signed(x: int) -> int:
    """Interpret a 64-bit unsigned value as signed."""
    return x - (1 << 64) if x >= (1 << 63) else x


class SparseMemory:
    """Word-granular (8-byte) sparse memory with deterministic defaults."""

    def __init__(self, seed: int = 0):
        self._seed = seed & _MASK64
        self._words: Dict[int, int] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def words(self) -> Dict[int, int]:
        """Snapshot of every word ever written (verification/state diffing)."""
        return dict(self._words)

    def read(self, addr: int) -> int:
        addr &= _ADDR_MASK
        word = self._words.get(addr)
        if word is None:
            return mix64(addr ^ self._seed)
        return word

    def write(self, addr: int, value: int) -> None:
        self._words[addr & _ADDR_MASK] = value & _MASK64

    def __len__(self) -> int:
        """Number of words ever written."""
        return len(self._words)


@dataclass
class DynamicOp:
    """One architecturally-executed instruction (a trace record)."""

    __slots__ = ("seq", "inst", "taken", "next_pc", "mem_addr")

    seq: int  #: dynamic sequence number, 0-based
    inst: StaticInst
    taken: bool  #: branch outcome (False for non-branches)
    next_pc: int  #: architectural successor PC
    mem_addr: Optional[int]  #: effective address of loads/stores, else None


#: Per-record flag bits of a recorded trace (:mod:`repro.trace.format`
#: re-exports them; :meth:`FunctionalExecutor.record` writes them).
FLAG_TAKEN = 1  #: branch outcome (conditional branches and jumps)
FLAG_COND_BRANCH = 2  #: the instruction is a conditional branch
FLAG_MEM = 4  #: the record carries an effective memory address
FLAG_WB = 8  #: the record carries a register write-back value

# Decoded operation kinds.  Opcodes with identical semantics share a kind
# (the FP opcodes compute on 64-bit integer payloads; SUBI is ADDI of the
# negated immediate).  The first eleven are numbered in dynamic-frequency
# order over the profile and stress programs, which is the order both
# loops test them in; :meth:`FunctionalExecutor.record` inlines exactly
# those and hands the rest to :meth:`FunctionalExecutor.step`.
(_ADDI, _ADD, _ANDI, _MUL, _LOAD, _XORI, _BNEZ, _STORE, _JUMP, _BEQZ, _MOVI,
 _NOP, _SUB, _AND, _OR, _XOR, _SHL, _SHR, _DIV, _BEQ, _BNE, _BLT,
 _BGE) = range(23)
_RECORD_INLINED = _MOVI

_KIND = {
    Opcode.NOP: _NOP, Opcode.MOVI: _MOVI, Opcode.FMOVI: _MOVI,
    Opcode.ADD: _ADD, Opcode.FADD: _ADD, Opcode.SUB: _SUB,
    Opcode.FSUB: _SUB, Opcode.AND: _AND, Opcode.OR: _OR, Opcode.XOR: _XOR,
    Opcode.SHL: _SHL, Opcode.SHR: _SHR, Opcode.ADDI: _ADDI,
    Opcode.SUBI: _ADDI, Opcode.ANDI: _ANDI, Opcode.XORI: _XORI,
    Opcode.MUL: _MUL, Opcode.FMUL: _MUL, Opcode.DIV: _DIV,
    Opcode.FDIV: _DIV, Opcode.LOAD: _LOAD, Opcode.STORE: _STORE,
    Opcode.BEQ: _BEQ, Opcode.BNE: _BNE, Opcode.BLT: _BLT, Opcode.BGE: _BGE,
    Opcode.BEQZ: _BEQZ, Opcode.BNEZ: _BNEZ, Opcode.JUMP: _JUMP,
}


def _decode(inst: StaticInst, fallthrough_pc: int) -> tuple:
    """One decode-table entry: ``(kind, dest, src1, src2, imm, target,
    fallthrough_pc, pc, static_flags, inst)``.

    ``imm`` is reduced mod 2^64 (negated for SUBI), which every use of it
    tolerates: sums and differences are masked afterwards, and addresses
    keep only low bits.  ``static_flags`` holds the record flag bits an
    instruction sets whatever its operands: conditional branch, memory,
    write-back, and taken for the always-taken JUMP.
    """
    op = inst.opcode
    imm = -inst.imm if op is Opcode.SUBI else inst.imm
    flags = 0
    if inst.is_conditional_branch:
        flags |= FLAG_COND_BRANCH
    if inst.is_mem:
        flags |= FLAG_MEM
    if inst.dest is not None:
        flags |= FLAG_WB
    if op is Opcode.JUMP:
        flags |= FLAG_TAKEN
    return (_KIND[op], inst.dest, inst.src1, inst.src2, imm & _MASK64,
            inst.target, fallthrough_pc, inst.pc, flags, inst)


class FunctionalExecutor:
    """Steps a :class:`Program` architecturally, yielding the true trace.

    Construction predecodes the program into one table indexed by
    ``pc >> 2`` (see :func:`_decode`); :meth:`step` and :meth:`record`
    both execute off it, dispatching on a small-int operation kind
    instead of the opcode enum and reading the wrapped fall-through PC
    from the entry instead of asking the :class:`Program`.
    """

    def __init__(self, program: Program, mem_seed: int = 0):
        self.program = program
        self.regs: List[int] = [0] * NUM_LOGICAL_REGS
        self.memory = SparseMemory(seed=mem_seed)
        self.pc = program.entry_pc
        self._seq = 0
        self._table = [_decode(inst, program.next_pc(inst.pc))
                       for inst in program.insts]

    @classmethod
    def from_state(cls, program: Program, mem_seed: int,
                   regs: "Iterable[int]", pc: int, seq: int,
                   mem_words: Dict[int, int]) -> "FunctionalExecutor":
        """An executor resumed mid-stream from a captured state.

        Execution is deterministic, so an executor restored from the state
        after record ``seq`` produces exactly the records a fresh executor
        would produce from that point on (this is what makes architectural
        checkpoints and trace extension sound).
        """
        executor = cls(program, mem_seed=mem_seed)
        executor.regs[:] = regs
        executor.pc = pc
        executor._seq = seq
        executor.memory._words = dict(mem_words)
        return executor

    @property
    def seq(self) -> int:
        """Dynamic sequence number of the *next* instruction to execute."""
        return self._seq

    def step(self) -> DynamicOp:
        """Execute one instruction and return its trace record."""
        (kind, dest, src1, src2, imm, target, next_pc, _pc, _flags,
         inst) = self._table[self.pc >> 2]
        regs = self.regs
        taken = False
        mem_addr: Optional[int] = None
        if kind == _ADDI:
            regs[dest] = (regs[src1] + imm) & _MASK64
        elif kind == _ADD:
            regs[dest] = (regs[src1] + regs[src2]) & _MASK64
        elif kind == _ANDI:
            regs[dest] = regs[src1] & imm
        elif kind == _MUL:
            regs[dest] = (regs[src1] * regs[src2]) & _MASK64
        elif kind == _LOAD:
            mem_addr = (regs[src1] + imm) & _ADDR_MASK
            regs[dest] = self.memory.read(mem_addr)
        elif kind == _XORI:
            regs[dest] = regs[src1] ^ imm
        elif kind == _BNEZ:
            taken = regs[src1] != 0
        elif kind == _STORE:
            mem_addr = (regs[src2] + imm) & _ADDR_MASK
            self.memory.write(mem_addr, regs[src1])
        elif kind == _JUMP:
            taken = True
        elif kind == _BEQZ:
            taken = regs[src1] == 0
        elif kind == _MOVI:
            regs[dest] = imm
        elif kind == _NOP:
            pass
        elif kind == _SUB:
            regs[dest] = (regs[src1] - regs[src2]) & _MASK64
        elif kind == _AND:
            regs[dest] = regs[src1] & regs[src2]
        elif kind == _OR:
            regs[dest] = regs[src1] | regs[src2]
        elif kind == _XOR:
            regs[dest] = regs[src1] ^ regs[src2]
        elif kind == _SHL:
            regs[dest] = (regs[src1] << (regs[src2] & 63)) & _MASK64
        elif kind == _SHR:
            regs[dest] = regs[src1] >> (regs[src2] & 63)
        elif kind == _DIV:
            divisor = regs[src2]
            regs[dest] = regs[src1] // divisor if divisor else 0
        elif kind == _BEQ:
            taken = regs[src1] == regs[src2]
        elif kind == _BNE:
            taken = regs[src1] != regs[src2]
        elif kind == _BLT:
            taken = to_signed(regs[src1]) < to_signed(regs[src2])
        else:  # _BGE
            taken = to_signed(regs[src1]) >= to_signed(regs[src2])
        if taken:
            next_pc = target
        record = DynamicOp(self._seq, inst, taken, next_pc, mem_addr)
        self._seq += 1
        self.pc = next_pc
        return record

    def record(self, count: int, pcs: array, flags: bytearray,
               next_pcs: array, mem_addrs: array, wb_values: array) -> None:
        """Execute ``count`` instructions, appending their trace records
        to the five parallel arrays of :class:`~repro.trace.format.Trace`.

        Produces exactly what ``count`` :meth:`step` calls would (the
        tests hold the two loops equal), without a :class:`DynamicOp` per
        record: the hot operation kinds execute inline on local state,
        and the rare ones go through :meth:`step`.
        """
        table = self._table
        regs = self.regs
        words = self.memory._words
        seed = self.memory.seed
        get_word = words.get
        pc = self.pc
        seq = self._seq
        pcs_append = pcs.append
        flags_append = flags.append
        next_append = next_pcs.append
        mem_append = mem_addrs.append
        wb_append = wb_values.append
        mask = _MASK64
        addr_mask = _ADDR_MASK
        for _ in range(count):
            (kind, dest, src1, src2, imm, target, next_pc, pc, f,
             _inst) = table[pc >> 2]
            if kind == _ADDI:
                value = regs[dest] = (regs[src1] + imm) & mask
                mem_append(0)
                wb_append(value)
            elif kind == _ADD:
                value = regs[dest] = (regs[src1] + regs[src2]) & mask
                mem_append(0)
                wb_append(value)
            elif kind == _ANDI:
                value = regs[dest] = regs[src1] & imm
                mem_append(0)
                wb_append(value)
            elif kind == _MUL:
                value = regs[dest] = (regs[src1] * regs[src2]) & mask
                mem_append(0)
                wb_append(value)
            elif kind == _LOAD:
                addr = (regs[src1] + imm) & addr_mask
                value = get_word(addr)
                if value is None:
                    value = mix64(addr ^ seed)
                regs[dest] = value
                mem_append(addr)
                wb_append(value)
            elif kind == _XORI:
                value = regs[dest] = regs[src1] ^ imm
                mem_append(0)
                wb_append(value)
            elif kind <= _RECORD_INLINED:
                if kind == _BNEZ:
                    if regs[src1]:
                        f |= FLAG_TAKEN
                        next_pc = target
                    mem_append(0)
                elif kind == _STORE:
                    addr = (regs[src2] + imm) & addr_mask
                    words[addr] = regs[src1] & mask
                    mem_append(addr)
                elif kind == _JUMP:
                    next_pc = target
                    mem_append(0)
                elif kind == _BEQZ:
                    if not regs[src1]:
                        f |= FLAG_TAKEN
                        next_pc = target
                    mem_append(0)
                else:  # _MOVI
                    regs[dest] = imm
                    mem_append(0)
                wb_append(regs[dest] if dest is not None else 0)
            else:  # a cold kind: no memory operand
                self.pc = pc
                op = self.step()
                if op.taken:
                    f |= FLAG_TAKEN
                next_pc = op.next_pc
                mem_append(0)
                wb_append(regs[dest] if dest is not None else 0)
            pcs_append(pc)
            flags_append(f)
            next_append(next_pc)
            pc = next_pc
        self.pc = pc
        self._seq = seq + count

    def run(self, count: int) -> List[DynamicOp]:
        """Execute ``count`` instructions and return their records."""
        return [self.step() for _ in range(count)]

    def trace(self) -> Iterator[DynamicOp]:
        """Endless iterator over the dynamic instruction stream."""
        while True:
            yield self.step()


class TraceCursor:
    """Random-access window over a functional trace.

    The timing model consumes trace records mostly sequentially but must
    *rewind* after a branch misprediction (re-fetching the squashed
    correct-path instructions).  The cursor materializes records on demand
    and retains them until :meth:`release` advances the low-water mark
    (called at commit), bounding memory to the in-flight window.
    """

    def __init__(self, executor: FunctionalExecutor):
        self._executor = executor
        self._buffer: List[DynamicOp] = []
        self._base = 0  # seq number of _buffer[0]

    def get(self, seq: int) -> DynamicOp:
        """The trace record with dynamic sequence number ``seq``."""
        if seq < self._base:
            raise IndexError(
                f"trace record {seq} already released (base={self._base})"
            )
        while seq >= self._base + len(self._buffer):
            self._buffer.append(self._executor.step())
        return self._buffer[seq - self._base]

    def release(self, seq: int) -> None:
        """Discard records with sequence numbers below ``seq``.

        ``seq`` may run ahead of what has been materialized (the skip-phase
        steps the executor directly); the low-water mark then simply jumps
        forward to match the executor's position.
        """
        if seq <= self._base:
            return
        drop = seq - self._base
        if drop >= len(self._buffer):
            self._buffer.clear()
        else:
            del self._buffer[:drop]
        self._base = seq

    @property
    def retained(self) -> int:
        """Number of records currently buffered (for tests)."""
        return len(self._buffer)
