"""Unit tests for static instructions, programs, and the builder."""

import dataclasses
import pickle

import pytest

from repro.isa import (
    INST_BYTES,
    Opcode,
    Program,
    ProgramBuilder,
    StaticInst,
    fu_class,
    int_reg,
    is_branch,
    is_conditional_branch,
    is_load,
    is_mem,
    is_store,
    latency,
)


def _any_inst(op):
    """A well-formed instruction of opcode ``op`` with two sources."""
    target = 0 if is_branch(op) else None
    return StaticInst(0, op, dest=1, src1=2, src2=3, target=target)


def _traits(inst):
    return (inst.is_branch, inst.is_conditional_branch, inst.is_load,
            inst.is_store, inst.is_mem, inst.fu, inst.latency, inst.srcs)


def _mov(pc, dest, imm=0):
    return StaticInst(pc, Opcode.MOVI, dest=dest, imm=imm)


class TestStaticInst:
    def test_branch_requires_target(self):
        with pytest.raises(ValueError):
            StaticInst(0, Opcode.BEQZ, src1=1)

    def test_non_branch_rejects_target(self):
        with pytest.raises(ValueError):
            StaticInst(0, Opcode.ADD, dest=1, src1=2, src2=3, target=4)

    def test_register_range_checked(self):
        with pytest.raises(ValueError):
            StaticInst(0, Opcode.ADD, dest=64, src1=0, src2=1)
        with pytest.raises(ValueError):
            StaticInst(0, Opcode.ADD, dest=1, src1=-1, src2=1)

    def test_sources_in_operand_order(self):
        inst = StaticInst(0, Opcode.ADD, dest=3, src1=7, src2=9)
        assert inst.sources() == (7, 9)

    def test_sources_skips_missing(self):
        inst = StaticInst(0, Opcode.BEQZ, src1=5, target=0)
        assert inst.sources() == (5,)
        assert _mov(0, 1).sources() == ()

    def test_predicates(self):
        br = StaticInst(0, Opcode.BNE, src1=1, src2=2, target=0)
        assert br.is_branch and br.is_conditional_branch
        ld = StaticInst(0, Opcode.LOAD, dest=1, src1=2)
        assert ld.is_load and ld.is_mem and not ld.is_store

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
    def test_predecoded_traits_match_the_opcode_table(self, op):
        inst = _any_inst(op)
        assert _traits(inst) == (
            is_branch(op), is_conditional_branch(op), is_load(op),
            is_store(op), is_mem(op), fu_class(op), latency(op), (2, 3))
        assert inst.sources() is inst.srcs

    def test_traits_survive_pickle_and_replace(self):
        for op in Opcode:
            inst = _any_inst(op)
            copy = pickle.loads(pickle.dumps(inst))
            assert copy == inst and _traits(copy) == _traits(inst)
        load = StaticInst(8, Opcode.LOAD, dest=1, src1=2, imm=16)
        add = dataclasses.replace(load, opcode=Opcode.ADD, src2=4)
        assert not add.is_load and not add.is_mem and add.srcs == (2, 4)
        assert _traits(dataclasses.replace(load)) == _traits(load)

    def test_traits_are_not_dataclass_fields(self):
        # Fields feed equality and the canonical encoding behind trace
        # fingerprints and job keys; the traits must stay out of both.
        names = [f.name for f in dataclasses.fields(StaticInst)]
        assert names == ["pc", "opcode", "dest", "src1", "src2", "imm",
                         "target"]

    def test_program_fingerprint_is_unchanged(self):
        from repro.trace.store import program_fingerprint
        from repro.workloads.generator import build_program
        from repro.workloads.profiles import get_profile
        assert program_fingerprint(build_program(get_profile("sjeng")), 0) \
            == ("768ea2d5cc5f83792e67e6243e05ed1e"
                "63cd54f68c0d4e8388ee230251ae64ad")

    def test_str_contains_opcode_and_registers(self):
        inst = StaticInst(0, Opcode.ADD, dest=3, src1=33, src2=9)
        text = str(inst)
        assert "add" in text and "r3" in text and "f1" in text and "r9" in text


class TestProgram:
    def test_pcs_must_be_sequential(self):
        with pytest.raises(ValueError):
            Program("p", [_mov(0, 1), _mov(8, 2)])

    def test_branch_target_must_exist(self):
        insts = [
            _mov(0, 1),
            StaticInst(4, Opcode.BEQZ, src1=1, target=100),
        ]
        with pytest.raises(ValueError):
            Program("p", insts)

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            Program("p", [])

    def test_lookup_and_next_pc(self):
        prog = Program("p", [_mov(0, 1), _mov(4, 2), _mov(8, 3)])
        assert prog.at(4).dest == 2
        assert prog.next_pc(0) == 4
        assert prog.next_pc(8) == 0  # wraps to entry
        assert prog.contains(8) and not prog.contains(12)
        assert prog.entry_pc == 0 and prog.last_pc == 8

    def test_listing_has_one_line_per_instruction(self):
        prog = Program("p", [_mov(0, 1), _mov(4, 2)])
        assert len(prog.listing().splitlines()) == 2

    def test_warm_regions_default_empty(self):
        prog = Program("p", [_mov(0, 1)])
        assert prog.warm_regions == []


class TestProgramBuilder:
    def test_forward_label_patching(self):
        b = ProgramBuilder("p")
        b.emit(Opcode.BEQZ, src1=int_reg(1), target_label="done")
        b.emit(Opcode.MOVI, dest=int_reg(2), imm=5)
        b.mark_label("done")
        b.emit(Opcode.NOP)
        prog = b.build()
        assert prog.at(0).target == 2 * INST_BYTES

    def test_backward_label(self):
        b = ProgramBuilder("p")
        b.mark_label("top")
        b.emit(Opcode.NOP)
        b.emit(Opcode.JUMP, target_label="top")
        prog = b.build()
        assert prog.at(INST_BYTES).target == 0

    def test_undefined_label_raises(self):
        b = ProgramBuilder("p")
        b.emit(Opcode.JUMP, target_label="nowhere")
        with pytest.raises(ValueError, match="undefined label"):
            b.build()

    def test_duplicate_label_raises(self):
        b = ProgramBuilder("p")
        b.mark_label("x")
        with pytest.raises(ValueError, match="twice"):
            b.mark_label("x")

    def test_emit_returns_pc(self):
        b = ProgramBuilder("p")
        assert b.emit(Opcode.NOP) == 0
        assert b.emit(Opcode.NOP) == INST_BYTES

    def test_warm_regions_pass_through(self):
        b = ProgramBuilder("p")
        b.emit(Opcode.NOP)
        prog = b.build(warm_regions=[(1 << 20, 4096)])
        assert prog.warm_regions == [(1 << 20, 4096)]
