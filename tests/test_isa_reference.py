"""The word format diffed against frozen copies of its per-opcode code.

`ref_encode_instruction`, `ref_decode_word`, `ref_assemble` and
`ref_format_instruction` below are the encoder, decoder, assembler and
instruction formatter as they were before all four read one table of
operand fields: four `if op == ...` chains that wrote the format out by
hand. They are kept verbatim, with their own copy of the opcode numbers
and of the operand helpers, and must not be tuned; they define what the
table-driven code has to compute. Only the assembler's first pass
(labels, comments, operand splitting) is shared, as it knows nothing of
the word format.

Decoding is compared on every opcode byte with each of the 24 low bits
set alone and cleared alone, and on drawn words; encoding on the
acceptance suite's list of every valid instruction shape and on drawn
instructions with arbitrary immediates and offsets; assembly on drawn
lines, valid and malformed, which must give the same bytes and labels
or the same exception; formatting on every decodable instruction met
here.
"""

import re
from functools import lru_cache
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from relhoare import asm
from relhoare.asm import (
    AsmError, ImmediateOutOfRange, OffsetOutOfRange, Program,
    UndefinedLabel, UnknownMnemonic, _tokenize,
)
from relhoare.machine import Instruction, decode_word, encode_instruction

from test_acceptance import all_valid_instructions


# ---------------------------------------------------------------------------
# the frozen format

WORD = 4

OPCODES = {
    "movi": 0x01, "movr": 0x02, "add": 0x03, "addi": 0x04, "sub": 0x05,
    "subi": 0x06, "mul": 0x07, "umulh": 0x08, "mulnd": 0x09, "cmp": 0x0A,
    "cmpi": 0x0B, "b": 0x10, "beq": 0x11, "bne": 0x12, "cbz": 0x13,
    "cbnz": 0x14, "br": 0x15, "ldrb": 0x20, "ldrw": 0x21, "ldr": 0x22,
    "strb": 0x28, "strw": 0x29, "str": 0x2A,
}
MNEMONICS = {v: k for k, v in OPCODES.items()}

LOAD_SIZES = {"ldrb": 1, "ldrw": 4, "ldr": 8}
STORE_SIZES = {"strb": 1, "strw": 4, "str": 8}


def _sext(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def ref_encode_instruction(ins: Instruction) -> int:
    op = ins.op
    code = OPCODES[op] << 24
    if op == "movi":
        return code | ins.rd << 20 | (ins.imm & 0xFFFF)
    if op == "movr":
        return code | ins.rd << 20 | ins.rn << 16
    if op in ("add", "sub", "mul", "umulh", "mulnd"):
        return code | ins.rd << 20 | ins.rn << 16 | ins.rm << 12
    if op in ("addi", "subi"):
        return code | ins.rd << 20 | ins.rn << 16 | (ins.imm & 0xFFF)
    if op == "cmp":
        return code | ins.rn << 16 | ins.rm << 12
    if op == "cmpi":
        return code | ins.rn << 16 | (ins.imm & 0xFFF)
    if op in ("b", "beq", "bne"):
        return code | (ins.off & 0xFFFFF)
    if op in ("cbz", "cbnz"):
        return code | ins.rd << 20 | (ins.off & 0xFFFF)
    if op == "br":
        return code | ins.rn << 16
    if op in LOAD_SIZES or op in STORE_SIZES:
        return code | ins.rd << 20 | ins.rn << 16 | (ins.imm & 0xFFF)
    raise ValueError(f"cannot encode {op}")


@lru_cache(maxsize=65536)
def ref_decode_word(word: int) -> Optional[Instruction]:
    """Decode one 32-bit word, or None. Fields an opcode does not use must
    be zero; anything else, including the all-zero stopper word, is
    undecodable."""
    op = MNEMONICS.get((word >> 24) & 0xFF)
    if op is None:
        return None
    rd = (word >> 20) & 0xF
    rn = (word >> 16) & 0xF
    rm = (word >> 12) & 0xF
    imm12 = word & 0xFFF
    if op == "movi":
        if rn:
            return None
        return Instruction(op, rd=rd, imm=word & 0xFFFF)
    if op == "movr":
        if word & 0xFFFF:
            return None
        return Instruction(op, rd=rd, rn=rn)
    if op in ("add", "sub", "mul", "umulh", "mulnd"):
        if imm12:
            return None
        return Instruction(op, rd=rd, rn=rn, rm=rm)
    if op in ("addi", "subi"):
        if rm:
            return None
        return Instruction(op, rd=rd, rn=rn, imm=imm12)
    if op == "cmp":
        if rd or imm12:
            return None
        return Instruction(op, rn=rn, rm=rm)
    if op == "cmpi":
        if rd or rm:
            return None
        return Instruction(op, rn=rn, imm=imm12)
    if op in ("b", "beq", "bne"):
        if rd:
            return None
        return Instruction(op, off=_sext(word & 0xFFFFF, 20))
    if op in ("cbz", "cbnz"):
        if rn:
            return None
        return Instruction(op, rd=rd, off=_sext(word & 0xFFFF, 16))
    if op == "br":
        if rd or word & 0xFFFF:
            return None
        return Instruction(op, rn=rn)
    if op in LOAD_SIZES or op in STORE_SIZES:
        if rm:
            return None
        return Instruction(op, rd=rd, rn=rn, imm=imm12)
    return None


_REG_RE = re.compile(r"^x([0-9]|1[0-5])$")
_INT_RE = re.compile(r"^-?(0x[0-9a-fA-F]+|[0-9]+)$")
_MEM_RE = re.compile(r"^\[\s*(x(?:[0-9]|1[0-5]))\s*(?:,\s*#(-?(?:0x[0-9a-fA-F]+|[0-9]+))\s*)?\]$")


def _parse_int(text: str) -> int:
    return int(text, 0)


def _reg(token: str, lineno: int) -> int:
    m = _REG_RE.match(token.strip())
    if not m:
        raise AsmError(f"expected register, got {token.strip()!r}", lineno)
    return int(m.group(1))


def _imm(token: str, lineno: int, low: int, high: int) -> int:
    token = token.strip()
    if not token.startswith("#") or not _INT_RE.match(token[1:]):
        raise AsmError(f"expected immediate, got {token!r}", lineno)
    value = _parse_int(token[1:])
    if not low <= value <= high:
        raise ImmediateOutOfRange(
            f"immediate {value} outside [{low}, {high}]", lineno)
    return value


def _branch_offset(target: str, here: int, symbols: dict, lineno: int,
                   bits: int) -> int:
    """Resolve a label or literal `#off` to a signed word offset relative
    to the fall-through address (here + 4)."""
    target = target.strip()
    if target.startswith("#"):
        if not _INT_RE.match(target[1:]):
            raise AsmError(f"bad branch offset {target!r}", lineno)
        off = _parse_int(target[1:])
    else:
        if target not in symbols:
            raise UndefinedLabel(f"undefined label {target!r}", lineno)
        off = (symbols[target] - (here + WORD)) // WORD
    limit = 1 << (bits - 1)
    if not -limit <= off < limit:
        raise OffsetOutOfRange(f"offset {off} does not fit {bits} bits", lineno)
    return off


def _expect(operands: list, n: int, lineno: int, mnemonic: str) -> None:
    if len(operands) != n:
        raise AsmError(f"{mnemonic} takes {n} operand(s), got {len(operands)}",
                       lineno)


def ref_assemble(text: str) -> Program:
    """Assemble source text into a Program. Raises AsmError subclasses
    with line numbers on malformed input."""
    lines, symbols = _tokenize(text)
    words = []
    for idx, ln in enumerate(lines):
        here = idx * WORD
        op, ops, lineno = ln.mnemonic, ln.operands, ln.lineno
        if op == "halt":
            _expect(ops, 0, lineno, op)
            words.append(0)
            continue
        if op == ".word":
            _expect(ops, 1, lineno, op)
            if not _INT_RE.match(ops[0]):
                raise AsmError(f"bad .word value {ops[0]!r}", lineno)
            value = _parse_int(ops[0])
            if not 0 <= value < (1 << 32):
                raise ImmediateOutOfRange(".word value outside 32 bits", lineno)
            words.append(value)
            continue
        if op == "movi":
            _expect(ops, 2, lineno, op)
            ins = Instruction(op, rd=_reg(ops[0], lineno),
                              imm=_imm(ops[1], lineno, 0, 0xFFFF))
        elif op == "movr":
            _expect(ops, 2, lineno, op)
            ins = Instruction(op, rd=_reg(ops[0], lineno),
                              rn=_reg(ops[1], lineno))
        elif op in ("add", "sub", "mul", "umulh", "mulnd"):
            _expect(ops, 3, lineno, op)
            ins = Instruction(op, rd=_reg(ops[0], lineno),
                              rn=_reg(ops[1], lineno), rm=_reg(ops[2], lineno))
        elif op in ("addi", "subi"):
            _expect(ops, 3, lineno, op)
            ins = Instruction(op, rd=_reg(ops[0], lineno),
                              rn=_reg(ops[1], lineno),
                              imm=_imm(ops[2], lineno, 0, 0xFFF))
        elif op == "cmp":
            _expect(ops, 2, lineno, op)
            ins = Instruction(op, rn=_reg(ops[0], lineno),
                              rm=_reg(ops[1], lineno))
        elif op == "cmpi":
            _expect(ops, 2, lineno, op)
            ins = Instruction(op, rn=_reg(ops[0], lineno),
                              imm=_imm(ops[1], lineno, 0, 0xFFF))
        elif op in ("b", "beq", "bne"):
            _expect(ops, 1, lineno, op)
            ins = Instruction(op, off=_branch_offset(ops[0], here, symbols,
                                                     lineno, 20))
        elif op in ("cbz", "cbnz"):
            _expect(ops, 2, lineno, op)
            ins = Instruction(op, rd=_reg(ops[0], lineno),
                              off=_branch_offset(ops[1], here, symbols,
                                                 lineno, 16))
        elif op == "br":
            _expect(ops, 1, lineno, op)
            ins = Instruction(op, rn=_reg(ops[0], lineno))
        elif op in LOAD_SIZES or op in STORE_SIZES:
            _expect(ops, 2, lineno, op)
            m = _MEM_RE.match(ops[1])
            if not m:
                raise AsmError(f"expected [xN] or [xN, #imm], got {ops[1]!r}",
                               lineno)
            imm = 0
            if m.group(2) is not None:
                imm = _parse_int(m.group(2))
                if not 0 <= imm <= 0xFFF:
                    raise ImmediateOutOfRange(
                        f"offset {imm} outside [0, 4095]", lineno)
            ins = Instruction(op, rd=_reg(ops[0], lineno),
                              rn=_reg(m.group(1), lineno), imm=imm)
        else:
            raise UnknownMnemonic(f"unknown mnemonic {op!r}", lineno)
        words.append(ref_encode_instruction(ins))

    for name, off in symbols.items():
        if off > len(words) * WORD:
            raise AsmError(f"label {name!r} past end of program")
    data = b"".join(w.to_bytes(4, "little") for w in words)
    return Program(data=data, symbols=dict(symbols))


def ref_format_instruction(ins: Instruction) -> str:
    op = ins.op
    if op == "movi":
        return f"movi x{ins.rd}, #{ins.imm}"
    if op == "movr":
        return f"movr x{ins.rd}, x{ins.rn}"
    if op in ("add", "sub", "mul", "umulh", "mulnd"):
        return f"{op} x{ins.rd}, x{ins.rn}, x{ins.rm}"
    if op in ("addi", "subi"):
        return f"{op} x{ins.rd}, x{ins.rn}, #{ins.imm}"
    if op == "cmp":
        return f"cmp x{ins.rn}, x{ins.rm}"
    if op == "cmpi":
        return f"cmpi x{ins.rn}, #{ins.imm}"
    if op in ("b", "beq", "bne"):
        return f"{op} #{ins.off}"
    if op in ("cbz", "cbnz"):
        return f"{op} x{ins.rd}, #{ins.off}"
    if op == "br":
        return f"br x{ins.rn}"
    if op in LOAD_SIZES or op in STORE_SIZES:
        if ins.imm:
            return f"{op} x{ins.rd}, [x{ins.rn}, #{ins.imm}]"
        return f"{op} x{ins.rd}, [x{ins.rn}]"
    raise ValueError(f"cannot format {op}")


# ---------------------------------------------------------------------------
# the diffs

LOW24 = (1 << 24) - 1


def bit_pattern_words():
    """Every opcode byte with no low bit, all 24 low bits, and each of
    them set alone and cleared alone."""
    for code in range(256):
        top = code << 24
        yield top
        yield top | LOW24
        for bit in range(24):
            yield top | 1 << bit
            yield top | (LOW24 & ~(1 << bit))


def assert_same_decode(word: int) -> None:
    ins = decode_word(word)
    assert ins == ref_decode_word(word), hex(word)
    if ins is not None:
        assert asm.format_instruction(ins) == ref_format_instruction(ins)


def test_decode_and_format_agree_on_every_single_bit_pattern():
    ops = set()
    for word in bit_pattern_words():
        assert_same_decode(word)
        ins = ref_decode_word(word)
        if ins is not None:
            ops.add(ins.op)
    assert ops == set(OPCODES)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.builds(lambda code, low: code << 24 | low,
              st.sampled_from(sorted(MNEMONICS)),
              st.integers(min_value=0, max_value=LOW24)),
    # a known opcode with a sparse low half: mostly decodable
    st.builds(lambda code, bits: code << 24 | sum(1 << b for b in bits),
              st.sampled_from(sorted(MNEMONICS)),
              st.sets(st.integers(min_value=0, max_value=23), max_size=4))))
def test_decode_and_format_agree_on_drawn_words(word):
    assert_same_decode(word)


def test_encode_decode_and_format_agree_on_every_instruction_shape():
    for ins in all_valid_instructions():
        word = encode_instruction(ins)
        assert word == ref_encode_instruction(ins), ins
        assert decode_word(word) == ref_decode_word(word) == ins
        assert asm.format_instruction(ins) == ref_format_instruction(ins)


REGISTER = st.integers(min_value=0, max_value=15)
ANY_INT = st.one_of(st.integers(min_value=-(1 << 21), max_value=1 << 21),
                    st.integers(min_value=-(1 << 70), max_value=1 << 70))


@settings(max_examples=1000, deadline=None)
@given(st.builds(Instruction, st.sampled_from(sorted(OPCODES)), REGISTER,
                 REGISTER, REGISTER, ANY_INT, ANY_INT))
def test_encode_agrees_on_drawn_instructions(ins):
    assert encode_instruction(ins) == ref_encode_instruction(ins)


# assembler lines: mnemonics, and operand tokens right and wrong for
# every operand kind
MNEMONIC_TEXT = sorted(OPCODES) + ["halt", ".word", "frob", "MOVI", "Ldr"]
OPERAND_TEXT = [
    "x0", "x7", "x15", "x16", "y1", "X3", "x-1",
    "#0", "#1", "#-1", "#0x10", "#4095", "#4096", "#65535", "#65536",
    "#32767", "#32768", "#-32768", "#-32769", "#524287", "#524288",
    "#-524288", "#-524289", "#zz", "#", "12", "0x1c", "0xdeadbeef",
    "4294967296", "-1",
    "[x1]", "[x15, #8]", "[ x2 , #0x10 ]", "[x1, #4095]", "[x1, #4096]",
    "[x1, #-1]", "[x16]", "[x1, 8]", "[y1]", "[x1", "[x1, #zz]",
    "top", "end", "nowhere",
]


drawn_instruction = st.builds(
    Instruction, st.sampled_from(sorted(OPCODES)), REGISTER, REGISTER,
    REGISTER, st.integers(min_value=0, max_value=0xFFF),
    st.integers(min_value=-4, max_value=4)).map(ref_format_instruction)
drawn_branch = st.builds(
    lambda op, rd, label: (f"{op} x{rd}, {label}" if op.startswith("cb")
                           else f"{op} {label}"),
    st.sampled_from(["b", "beq", "bne", "cbz", "cbnz"]), REGISTER,
    st.sampled_from(["top", "end"]))
drawn_tokens = st.builds(
    lambda op, ops: f"{op} {', '.join(ops)}".rstrip(),
    st.sampled_from(MNEMONIC_TEXT),
    st.lists(st.sampled_from(OPERAND_TEXT), max_size=4))
drawn_line = st.tuples(
    st.sampled_from(["", "", "top: ", "end: ", "mid: "]),
    st.one_of(drawn_instruction, drawn_branch, drawn_tokens,
              st.just("halt"), st.just("")),
).map("".join)


def outcome(assembler, text):
    try:
        program = assembler(text)
    except AsmError as e:
        return type(e), str(e), e.line
    return program.data, program.symbols


def assert_same_assembly(text: str) -> None:
    assert outcome(asm.assemble, text) == outcome(ref_assemble, text), text


@settings(max_examples=1500, deadline=None)
@given(drawn_tokens)
def test_assemble_agrees_on_drawn_single_lines(line):
    assert_same_assembly(f"top: {line}\nend: halt")


@settings(max_examples=500, deadline=None)
@given(st.lists(drawn_line, min_size=1, max_size=6))
def test_assemble_agrees_on_drawn_programs(lines):
    assert_same_assembly("\n".join(lines))


def test_assemble_agrees_on_every_operand_token_of_every_mnemonic():
    for op in MNEMONIC_TEXT:
        for a in OPERAND_TEXT:
            assert_same_assembly(f"top: {op} {a}\nend: halt")
            for b in OPERAND_TEXT:
                assert_same_assembly(f"{op} {a}, {b}\ntop: end: halt")
