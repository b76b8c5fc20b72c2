"""Property tests: executor arithmetic vs reference 64-bit semantics.

The executor has two loops over one decode table -- :meth:`step` (one
:class:`DynamicOp` per call: the live front end, the oracle) and
:meth:`record` (appends straight into trace arrays: capture) -- so every
property is checked through both.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import (FunctionalExecutor, Opcode, Program, StaticInst,
                       to_signed)
from repro.isa.executor import (FLAG_COND_BRANCH, FLAG_MEM, FLAG_TAKEN,
                                FLAG_WB)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
MASK = (1 << 64) - 1


def _arrays():
    return array("I"), bytearray(), array("I"), array("Q"), array("Q")


def _via_step(ex, n):
    """Branch outcomes of ``n`` :meth:`step` calls."""
    return [op.taken for op in ex.run(n)]


def _via_record(ex, n):
    """Branch outcomes of one :meth:`record` call over ``n`` records."""
    arrays = _arrays()
    ex.record(n, *arrays)
    return [bool(f & FLAG_TAKEN) for f in arrays[1]]


LOOPS = (_via_step, _via_record)


def _execute(insts, n):
    """Run ``insts`` for ``n`` records through each loop.

    Returns one ``(executor, taken outcomes)`` pair per loop.
    """
    results = []
    for loop in LOOPS:
        ex = FunctionalExecutor(Program("t", list(insts)))
        results.append((ex, loop(ex, n)))
    return results


def _binary_results(op, a, b):
    """Run `op r3, r1, r2` with r1=a, r2=b; returns r3 per loop."""
    prog = [
        StaticInst(0, Opcode.MOVI, dest=1, imm=a),
        StaticInst(4, Opcode.MOVI, dest=2, imm=b),
        StaticInst(8, op, dest=3, src1=1, src2=2),
    ]
    return [ex.regs[3] for ex, _ in _execute(prog, 3)]


class TestBinaryOps:
    @given(U64, U64)
    @settings(max_examples=60, deadline=None)
    def test_add_mod_2_64(self, a, b):
        for op in (Opcode.ADD, Opcode.FADD):
            assert _binary_results(op, a, b) == [(a + b) & MASK] * 2

    @given(U64, U64)
    @settings(max_examples=60, deadline=None)
    def test_sub_mod_2_64(self, a, b):
        for op in (Opcode.SUB, Opcode.FSUB):
            assert _binary_results(op, a, b) == [(a - b) & MASK] * 2

    @given(U64, U64)
    @settings(max_examples=60, deadline=None)
    def test_mul_mod_2_64(self, a, b):
        for op in (Opcode.MUL, Opcode.FMUL):
            assert _binary_results(op, a, b) == [(a * b) & MASK] * 2

    @given(U64, U64)
    @settings(max_examples=60, deadline=None)
    def test_bitwise(self, a, b):
        assert _binary_results(Opcode.AND, a, b) == [a & b] * 2
        assert _binary_results(Opcode.OR, a, b) == [a | b] * 2
        assert _binary_results(Opcode.XOR, a, b) == [a ^ b] * 2

    @given(U64, U64)
    @settings(max_examples=60, deadline=None)
    def test_div_floor_or_zero(self, a, b):
        expected = a // b if b else 0
        for op in (Opcode.DIV, Opcode.FDIV):
            assert _binary_results(op, a, b) == [expected] * 2

    @given(U64, st.integers(min_value=0, max_value=255))
    @settings(max_examples=60, deadline=None)
    def test_shifts_mask_amount(self, a, s):
        assert _binary_results(Opcode.SHL, a, s) == \
            [(a << (s & 63)) & MASK] * 2
        assert _binary_results(Opcode.SHR, a, s) == [a >> (s & 63)] * 2


class TestBranchSemantics:
    def _branch_taken(self, op, a, b=None):
        """The branch's outcome per loop."""
        insts = [StaticInst(0, Opcode.MOVI, dest=1, imm=a)]
        if b is not None:
            insts.append(StaticInst(4, Opcode.MOVI, dest=2, imm=b))
            insts.append(StaticInst(8, op, src1=1, src2=2, target=0))
            n = 3
        else:
            insts.append(StaticInst(4, op, src1=1, target=0))
            n = 2
        return [taken[-1] for _, taken in _execute(insts, n)]

    @given(U64, U64)
    @settings(max_examples=60, deadline=None)
    def test_eq_ne_complementary(self, a, b):
        assert self._branch_taken(Opcode.BEQ, a, b) == [a == b] * 2
        assert self._branch_taken(Opcode.BNE, a, b) == [a != b] * 2

    @given(U64, U64)
    @settings(max_examples=60, deadline=None)
    def test_lt_ge_signed_complementary(self, a, b):
        lt = self._branch_taken(Opcode.BLT, a, b)
        ge = self._branch_taken(Opcode.BGE, a, b)
        assert lt == [to_signed(a) < to_signed(b)] * 2
        assert ge == [not lt[0]] * 2

    @given(U64)
    @settings(max_examples=60, deadline=None)
    def test_zero_tests(self, a):
        assert self._branch_taken(Opcode.BEQZ, a) == [a == 0] * 2
        assert self._branch_taken(Opcode.BNEZ, a) == [a != 0] * 2


class TestImmediateForms:
    @given(U64, st.integers(min_value=-(1 << 32), max_value=1 << 32))
    @settings(max_examples=60, deadline=None)
    def test_addi_subi(self, a, imm):
        prog = [
            StaticInst(0, Opcode.MOVI, dest=1, imm=a),
            StaticInst(4, Opcode.ADDI, dest=2, src1=1, imm=imm),
            StaticInst(8, Opcode.SUBI, dest=3, src1=1, imm=imm),
        ]
        for ex, _ in _execute(prog, 3):
            assert ex.regs[2] == (a + imm) & MASK
            assert ex.regs[3] == (a - imm) & MASK

    @given(U64, U64)
    @settings(max_examples=60, deadline=None)
    def test_andi_xori(self, a, imm):
        prog = [
            StaticInst(0, Opcode.MOVI, dest=1, imm=a),
            StaticInst(4, Opcode.ANDI, dest=2, src1=1, imm=imm),
            StaticInst(8, Opcode.XORI, dest=3, src1=1, imm=imm),
        ]
        for ex, _ in _execute(prog, 3):
            assert ex.regs[2] == a & imm
            assert ex.regs[3] == a ^ imm


# ----------------------------------------------------------------------
# record() == step() on the opcodes no workload program executes
# ----------------------------------------------------------------------

_TOP = 1 << 63
_BASE = 0x4000


def _cold_opcode_program():
    """A loop over the 14 opcodes no profile or stress kernel executes.

    r20 counts passes, so later passes reach shift amounts >= 64 and
    stores to fresh addresses; the last instruction is a conditional
    branch whose fall-through wraps to the entry.
    """
    insts = []

    def emit(op, **kw):
        insts.append(StaticInst(4 * len(insts), op, **kw))

    emit(Opcode.ADDI, dest=20, src1=20, imm=1)           # pass counter
    emit(Opcode.MOVI, dest=1, imm=_TOP - 1)               # INT64_MAX
    emit(Opcode.MOVI, dest=2, imm=_TOP)                   # INT64_MIN
    emit(Opcode.MOVI, dest=3, imm=0)
    emit(Opcode.DIV, dest=4, src1=1, src2=3)              # divisor 0
    emit(Opcode.FDIV, dest=5, src1=2, src2=20)
    emit(Opcode.SUB, dest=6, src1=3, src2=20)             # wraps negative
    emit(Opcode.FSUB, dest=7, src1=2, src2=1)
    emit(Opcode.SUBI, dest=8, src1=3, imm=-5)
    emit(Opcode.SUBI, dest=9, src1=20, imm=3)
    emit(Opcode.ADDI, dest=10, src1=20, imm=60)           # 61, 62, ...
    emit(Opcode.SHL, dest=11, src1=1, src2=10)            # amounts >= 64
    emit(Opcode.SHR, dest=12, src1=2, src2=10)
    emit(Opcode.AND, dest=13, src1=6, src2=1)
    emit(Opcode.OR, dest=14, src1=13, src2=11)
    emit(Opcode.XOR, dest=15, src1=14, src2=12)
    emit(Opcode.BLT, src1=2, src2=1, target=4 * (len(insts) + 2))
    emit(Opcode.ADDI, dest=16, src1=16, imm=7)            # skipped
    emit(Opcode.BGE, src1=2, src2=1, target=0)            # not taken
    emit(Opcode.BLT, src1=1, src2=6, target=4 * (len(insts) + 2))
    emit(Opcode.ADDI, dest=17, src1=17, imm=1)
    emit(Opcode.BGE, src1=1, src2=6, target=4 * (len(insts) + 2))
    emit(Opcode.ADDI, dest=18, src1=18, imm=1)            # skipped
    emit(Opcode.BEQ, src1=3, src2=3, target=4 * (len(insts) + 2))
    emit(Opcode.ADDI, dest=19, src1=19, imm=1)            # skipped
    emit(Opcode.MOVI, dest=21, imm=_BASE)
    emit(Opcode.SHL, dest=22, src1=20, src2=25)           # r25 = 0 -> x1
    emit(Opcode.SHL, dest=22, src1=22, src2=26)           # x8 (r26 = 3)
    emit(Opcode.ADD, dest=23, src1=21, src2=22)
    emit(Opcode.LOAD, dest=24, src1=23, imm=4096)         # unwritten word
    emit(Opcode.STORE, src1=15, src2=23, imm=0)
    emit(Opcode.LOAD, dest=27, src1=23, imm=0)            # store-then-load
    emit(Opcode.MOVI, dest=26, imm=3)
    emit(Opcode.ANDI, dest=28, src1=20, imm=1)
    # Odd passes branch back to the entry, even ones wrap to it.
    emit(Opcode.BNE, src1=28, src2=3, target=0)
    return Program("cold", insts)


def step_arrays(ex, n):
    """The five trace arrays built from ``n`` :meth:`step` records, the
    way trace capture rendered them before :meth:`record` existed."""
    pcs, flags, next_pcs, mem_addrs, wb_values = _arrays()
    for _ in range(n):
        op = ex.step()
        inst = op.inst
        f = FLAG_TAKEN if op.taken else 0
        if inst.is_conditional_branch:
            f |= FLAG_COND_BRANCH
        if op.mem_addr is not None:
            f |= FLAG_MEM
        if inst.dest is not None:
            f |= FLAG_WB
        pcs.append(inst.pc)
        flags.append(f)
        next_pcs.append(op.next_pc)
        mem_addrs.append(op.mem_addr if op.mem_addr is not None else 0)
        wb_values.append(ex.regs[inst.dest] if inst.dest is not None else 0)
    return pcs, flags, next_pcs, mem_addrs, wb_values


@pytest.mark.parametrize("chunks", [(1,), (500,), (1, 34, 35, 100, 330)])
def test_record_matches_step_on_cold_opcodes(chunks):
    program = _cold_opcode_program()
    executed = {inst.opcode for inst in program}
    assert {Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
            Opcode.SHR, Opcode.SUBI, Opcode.DIV, Opcode.FSUB, Opcode.FDIV,
            Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE} <= executed
    n = sum(chunks)
    stepped = FunctionalExecutor(program, mem_seed=77)
    expected = step_arrays(stepped, n)
    recorder = FunctionalExecutor(program, mem_seed=77)
    got = _arrays()
    for chunk in chunks:
        recorder.record(chunk, *got)
    for name, want, have in zip(
            ("pcs", "flags", "next_pcs", "mem_addrs", "wb_values"),
            expected, got):
        assert have == want, name
    assert recorder.regs == stepped.regs
    assert (recorder.pc, recorder.seq) == (stepped.pc, stepped.seq) \
        == (stepped.pc, n)
    assert recorder.memory.words() == stepped.memory.words()


def test_cold_opcode_program_hits_the_edge_cases():
    program = _cold_opcode_program()
    ex = FunctionalExecutor(program, mem_seed=77)
    ops = ex.run(5 * len(program))
    by_op = {}
    for op in ops:
        by_op.setdefault(op.inst.opcode, []).append(op)
    # A wrap past the last instruction (even passes fall through).
    last = program.last_pc
    assert any(op.inst.pc == last and not op.taken
               and op.next_pc == program.entry_pc for op in ops)
    # Shift amounts reach 64 and beyond.
    assert ex.regs[10] >= 64
    # Signed compares across 2^63 go both ways.
    assert {op.taken for op in by_op[Opcode.BLT]} == {True, False}
    assert {op.taken for op in by_op[Opcode.BGE]} == {True, False}
    # The first load of each pass reads an unwritten word, the second
    # one the word just stored.
    loads = by_op[Opcode.LOAD]
    assert loads[0].mem_addr not in ex.memory.words()
    assert loads[1].mem_addr == by_op[Opcode.STORE][0].mem_addr
