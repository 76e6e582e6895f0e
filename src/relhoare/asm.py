"""Two-pass assembler and disassembler for the MiniARM word format.

Source lines hold at most one instruction, optionally preceded by a
`name:` label; `;` starts a comment. Registers are written x0..x15,
immediates `#12` or `#0x1c`, branch targets either a label or an explicit
`#offset` in words relative to the fall-through address. `halt` is a
pseudo-instruction that emits the all-zero (undecodable) stopper word and
`.word 0x...` emits any raw word. Files are UTF-8 with LF or CRLF endings.

Disassembly prints one canonical line per word and falls back to
`.word 0x...` for anything undecodable, so reassembling a disassembly
always reproduces the original bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .machine import (
    FORMATS, MASK64, WORD, LOAD_SIZES, STORE_SIZES, Image, Instruction,
    MachineState, _REG_RE, decode_word, encode_instruction,
)


class AsmError(Exception):
    """Assembly problem, carrying the 1-based source line number."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class UnknownMnemonic(AsmError):
    pass


class UndefinedLabel(AsmError):
    pass


class OffsetOutOfRange(AsmError):
    pass


class ImmediateOutOfRange(AsmError):
    pass


class LengthNotAligned(Exception):
    """Byte string handed to the disassembler is not a multiple of 4."""


class MisalignedBase(Exception):
    """Program load address is not 4-byte aligned."""


@dataclass(frozen=True)
class Program:
    """Assembled code: raw bytes plus the label table (byte offsets)."""

    data: bytes
    symbols: dict = field(default_factory=dict)

    @property
    def byte_len(self) -> int:
        return len(self.data)

    def words(self) -> list[int]:
        return [int.from_bytes(self.data[i:i + 4], "little")
                for i in range(0, len(self.data), 4)]


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):")
_INT_RE = re.compile(r"^-?(0x[0-9a-fA-F]+|[0-9]+)$")
# groups: the register, its number, the offset
_MEM_RE = re.compile(rf"^\[\s*({_REG_RE.pattern})\s*"
                     r"(?:,\s*#(-?(?:0x[0-9a-fA-F]+|[0-9]+))\s*)?\]$")


def _parse_int(text: str) -> int:
    return int(text, 0)


def _strip(line: str) -> str:
    return line.split(";", 1)[0].strip()


def _reg(token: str, lineno: int) -> int:
    m = _REG_RE.fullmatch(token.strip())
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


def _split_operands(rest: str) -> list[str]:
    # commas inside [...] belong to the addressing operand
    parts, depth, cur = [], 0, ""
    for ch in rest:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur.strip())
    return parts


@dataclass
class _Line:
    lineno: int
    mnemonic: str
    operands: list


def _tokenize(text: str):
    """First pass: strip labels and comments, assign word offsets."""
    lines, symbols = [], {}
    offset = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip(raw)
        while True:
            m = _LABEL_RE.match(body)
            if not m:
                break
            name = m.group(1)
            if name in symbols:
                raise AsmError(f"duplicate label {name!r}", lineno)
            symbols[name] = offset
            body = body[m.end():].strip()
        if not body:
            continue
        parts = body.split(None, 1)
        mnemonic = parts[0].lower()
        operands = _split_operands(parts[1]) if len(parts) > 1 else []
        lines.append(_Line(lineno, mnemonic, operands))
        offset += WORD
    return lines, symbols


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


def _operand_tokens(op: str, ops: list, lineno: int) -> list:
    """The text of each of op's fields, in the order of `FORMATS`. A load
    or store writes its rn and imm as one `[xN]` or `[xN, #imm]` operand,
    which is checked here, before its rd."""
    fields = FORMATS[op][1]
    if op not in LOAD_SIZES and op not in STORE_SIZES:
        _expect(ops, len(fields), lineno, op)
        return ops
    _expect(ops, 2, lineno, op)
    m = _MEM_RE.match(ops[1])
    if not m:
        raise AsmError(f"expected [xN] or [xN, #imm], got {ops[1]!r}", lineno)
    imm = _parse_int(m.group(3) or "0")
    _, _, (_, _, width) = fields
    high = (1 << width) - 1
    if not 0 <= imm <= high:
        raise ImmediateOutOfRange(f"offset {imm} outside [0, {high}]", lineno)
    return [ops[0], m.group(1), f"#{imm}"]


def assemble(text: str) -> Program:
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
        if op not in FORMATS:
            raise UnknownMnemonic(f"unknown mnemonic {op!r}", lineno)
        values = {}
        for (name, _, width), token in zip(FORMATS[op][1],
                                           _operand_tokens(op, ops, lineno)):
            if name == "off":
                values[name] = _branch_offset(token, here, symbols, lineno,
                                              width)
            elif name == "imm":
                values[name] = _imm(token, lineno, 0, (1 << width) - 1)
            else:
                values[name] = _reg(token, lineno)
        words.append(encode_instruction(Instruction(op, **values)))

    for name, off in symbols.items():
        if off > len(words) * WORD:
            raise AsmError(f"label {name!r} past end of program")
    data = b"".join(w.to_bytes(4, "little") for w in words)
    return Program(data=data, symbols=dict(symbols))


def format_instruction(ins: Instruction) -> str:
    op = ins.op
    if op not in FORMATS:
        raise ValueError(f"cannot format {op}")
    text = [f"{'#' if name in ('imm', 'off') else 'x'}{getattr(ins, name)}"
            for name, _, _ in FORMATS[op][1]]
    if op in LOAD_SIZES or op in STORE_SIZES:
        rd, rn, imm = text
        return f"{op} {rd}, [{rn}, {imm}]" if ins.imm else f"{op} {rd}, [{rn}]"
    return f"{op} {', '.join(text)}"


def disassemble(data: bytes) -> str:
    """Render bytes as assembly text, one line per word. Undecodable words
    come out as `.word 0x...` so nothing is lost."""
    if len(data) % WORD != 0:
        raise LengthNotAligned(f"{len(data)} bytes is not a whole number of words")
    lines = []
    for i in range(0, len(data), WORD):
        word = int.from_bytes(data[i:i + 4], "little")
        ins = decode_word(word)
        lines.append(format_instruction(ins) if ins else f".word 0x{word:08x}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_program(s: MachineState, program: Program, base: int) -> MachineState:
    """Put the program's bytes at base and point pc there. The bytes
    become a new shared Image; what the state held outside them is
    written over it. An image that would wrap past the top of the address
    space is refused."""
    if base % WORD != 0:
        raise MisalignedBase(f"base {base:#x} is not word aligned")
    base &= MASK64
    if base + program.byte_len > 1 << 64:
        raise AsmError(f"base {base:#x} puts the {program.byte_len}-byte "
                       "image past the top of the address space")
    end = base + program.byte_len
    mem = Image(base, program.data).mem.write_cells(
        (a, v) for a, v in s.mem.items() if not base <= a < end)
    return s._replace(mem=mem, pc=base)
