"""Assembler and disassembler: labels, operands, errors, round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relhoare import asm, machine
from relhoare.asm import (
    AsmError, ImmediateOutOfRange, MisalignedBase, OffsetOutOfRange,
    UndefinedLabel, UnknownMnemonic, assemble, disassemble,
)

from conftest import CORPUS


def words_of(source: str) -> list:
    return list(assemble(source).words())


def test_forward_and_backward_labels():
    prog = assemble("top: b mid\nmid: b top")
    assert prog.symbols == {"top": 0, "mid": 4}
    top, mid = prog.words()
    assert machine.decode_word(top).off == 0   # 0 + 4 + 4*0 = 4
    assert machine.decode_word(mid).off == -2  # 4 + 4 + 4*-2 = 0


def test_halt_is_the_zero_word():
    assert words_of("halt") == [0]


def test_word_directive_emits_raw_values():
    assert words_of(".word 0xdeadbeef\n.word 17") == [0xDEADBEEF, 17]


def test_comments_and_blank_lines_are_ignored():
    source = "; leading comment\n\nmovi x0, #1 ; trailing\n\n"
    assert len(words_of(source)) == 1


def test_memory_operand_forms():
    plain, offset = words_of("ldr x1, [x3]\nldr x1, [x3, #24]")
    assert machine.decode_word(plain).imm == 0
    assert machine.decode_word(offset).imm == 24


def test_immediate_forms_decimal_and_hex():
    a, b = words_of("movi x0, #10\nmovi x1, #0x10")
    assert machine.decode_word(a).imm == 10
    assert machine.decode_word(b).imm == 16


def test_unknown_mnemonic_reports_line():
    with pytest.raises(UnknownMnemonic) as e:
        assemble("movi x0, #1\nfrobnicate x1")
    assert e.value.line == 2


def test_undefined_label_reports_line():
    with pytest.raises(UndefinedLabel) as e:
        assemble("b nowhere")
    assert e.value.line == 1


def test_duplicate_label_is_an_error():
    with pytest.raises(AsmError):
        assemble("again: halt\nagain: halt")


def test_immediate_out_of_range():
    with pytest.raises(ImmediateOutOfRange):
        assemble("addi x0, x0, #4096")  # imm12
    with pytest.raises(ImmediateOutOfRange):
        assemble("movi x0, #65536")  # imm16


def test_branch_offset_out_of_range():
    far = "b away\n" + "halt\n" * (1 << 19) + "away: halt"
    with pytest.raises(OffsetOutOfRange):
        assemble(far)


def test_register_out_of_range():
    with pytest.raises(AsmError):
        assemble("movi x16, #0")


def test_load_program_rejects_misaligned_base():
    prog = assemble("halt")
    with pytest.raises(MisalignedBase):
        asm.load_program(machine.zeroed_state(), prog, 0x1001)


def test_load_program_refuses_an_image_that_wraps_past_the_top():
    prog = assemble((CORPUS / "compare.masm").read_text())
    with pytest.raises(AsmError) as e:
        asm.load_program(machine.zeroed_state(), prog, 2**64 - 8)
    assert type(e.value) is AsmError and e.value.line == 0
    top = 2**64 - prog.byte_len  # the image's last byte is memory's last
    assert asm.load_program(machine.zeroed_state(), prog, top).pc == top


def test_disassemble_rejects_ragged_input():
    with pytest.raises(asm.LengthNotAligned):
        disassemble(b"\x01\x02\x03")


def test_disassembly_reassembles_byte_identically():
    source = (CORPUS / "compare_constant.masm").read_text()
    data = assemble(source).data
    assert assemble(disassemble(data)).data == data


def test_undecodable_words_survive_disassembly():
    data = (0xFFFFFFFF).to_bytes(4, "little") + (0).to_bytes(4, "little")
    text = disassemble(data)
    assert ".word 0xffffffff" in text
    assert assemble(text).data == data


@given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                max_size=8))
def test_disassemble_assemble_round_trip_on_arbitrary_words(words):
    data = b"".join(w.to_bytes(4, "little") for w in words)
    assert assemble(disassemble(data)).data == data


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.masm")))
def test_corpus_assembles(name):
    prog = assemble((CORPUS / name).read_text())
    assert prog.byte_len % 4 == 0 and prog.byte_len > 0


def test_format_instruction_reparses():
    for op in machine.OPCODES:
        ins = machine.Instruction(
            op, rd=1, rn=2, rm=3, imm=5, off=-1)
        # normalize: encode clears fields the op does not use
        ins = machine.decode_word(machine.encode_instruction(ins))
        line = asm.format_instruction(ins)
        reparsed = asm.assemble(line).words()[0]
        assert machine.decode_word(reparsed) == ins
