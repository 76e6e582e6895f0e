"""MiniARM, a small fetch-decode-execute machine with event traces.

The machine has sixteen 64-bit registers x0..x15, a program counter, two
flags (N and Z), a sparse byte-addressable memory that reads as zero where
nothing was written, and an append-only event trace. Code lives in memory,
so stores can overwrite instructions and `br` can enter code at a computed
address. Loads, stores, and every control transfer (taken or not) append
an event; the constant-time checkers compare exactly these traces.

A state's memory is an `Image` that many states share, the bytes of a
loaded program, plus an overlay of its own that holds only the bytes
where it differs from the image. Writes copy the overlay, never the
image. The image also keeps the compiled step of each pc fetched inside
it, which any state whose overlay leaves the image's span alone looks
up instead of decoding the word again, and the compiled straight-line
stretch from each pc that `run` entered, which such a state executes in
one call.

Exactly one instruction is nondeterministic: `mulnd` writes the low 64
bits of the product like `mul` and then forks execution on the N flag,
yielding two successors that are identical elsewhere (flag 0 first). Every
other instruction has exactly one successor. A state is stuck when the
program counter is not 4-byte aligned or the word under it does not
decode; the all-zero word never decodes, which makes an explicit zero word
(written `halt` in assembly) the conventional stopper.

Instruction words are 32-bit little-endian. `FORMATS` is the one
description of the word format, which the encoder, the decoder, the
assembler and the disassembler all read: each mnemonic's opcode, in bits
[31:24], and its operand fields in assembly order. rd sits in [23:20], rn
in [19:16], rm in [15:12] and a zero-extended imm12 in [11:0]. `movi`
carries a 16-bit immediate in [15:0], `b`, `beq` and `bne` a signed word
offset in [19:0], and `cbz`/`cbnz` their register in [23:20] with a signed
word offset in [15:0]. Branch offsets are relative to the fall-through
address, so a self-loop encodes as -1. A word decodes only if no bit
outside its opcode and that opcode's fields is set; that makes decoding a
partial inverse of encoding, and the disassembler's output always
reassembles to the original bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import attrgetter, itemgetter, xor
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

MASK64 = (1 << 64) - 1
WORD = 4

# operand fields as (name, shift, width); off is a signed word offset,
# every other field is unsigned
_RD, _RN, _RM = ("rd", 20, 4), ("rn", 16, 4), ("rm", 12, 4)
_IMM12, _IMM16 = ("imm", 0, 12), ("imm", 0, 16)
_OFF16, _OFF20 = ("off", 0, 16), ("off", 0, 20)
_RRR, _RRI = (_RD, _RN, _RM), (_RD, _RN, _IMM12)

# the word format: each mnemonic's opcode and its operand fields in
# assembly order (a load's or store's rn and imm form its [xN, #imm])
FORMATS = {
    "movi": (0x01, (_RD, _IMM16)), "movr": (0x02, (_RD, _RN)),
    "add": (0x03, _RRR), "addi": (0x04, _RRI), "sub": (0x05, _RRR),
    "subi": (0x06, _RRI), "mul": (0x07, _RRR), "umulh": (0x08, _RRR),
    "mulnd": (0x09, _RRR), "cmp": (0x0A, (_RN, _RM)),
    "cmpi": (0x0B, (_RN, _IMM12)), "b": (0x10, (_OFF20,)),
    "beq": (0x11, (_OFF20,)), "bne": (0x12, (_OFF20,)),
    "cbz": (0x13, (_RD, _OFF16)), "cbnz": (0x14, (_RD, _OFF16)),
    "br": (0x15, (_RN,)), "ldrb": (0x20, _RRI), "ldrw": (0x21, _RRI),
    "ldr": (0x22, _RRI), "strb": (0x28, _RRI), "strw": (0x29, _RRI),
    "str": (0x2A, _RRI),
}
OPCODES = {op: code for op, (code, _) in FORMATS.items()}
MNEMONICS = {v: k for k, v in OPCODES.items()}

LOAD_SIZES = {"ldrb": 1, "ldrw": 4, "ldr": 8}
STORE_SIZES = {"strb": 1, "strw": 4, "str": 8}


def _sext(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


# ---------------------------------------------------------------------------
# labels

_KIND_RANK = {"reg": 0, "pc": 1, "flag_n": 2, "flag_z": 3, "mem": 4, "events": 5}


class Label(NamedTuple):
    """One architectural resource: a register, pc, a flag, one memory byte,
    or the event trace as a whole. A tuple, so that hashing and comparing
    labels runs in C; only this module makes them, each with a kind in
    _KIND_RANK."""

    kind: str
    arg: int = 0

    def __str__(self) -> str:
        if self.kind == "reg":
            return f"x{self.arg}"
        if self.kind == "mem":
            return f"mem[{self.arg:#x}]"
        return self.kind


PC = Label("pc")
FLAG_N = Label("flag_n")
FLAG_Z = Label("flag_z")
EVENTS = Label("events")


def reg_label(i: int) -> Label:
    return Label("reg", i)


# a register's name, x0 to x15 with no leading zero; the assembler, spec
# files and `run --reg` all read register names by this one rule
_REG_RE = re.compile(r"x([0-9]|1[0-5])")


_REG_LABELS = tuple(reg_label(i) for i in range(16))


def mem_label(addr: int) -> Label:
    return Label("mem", addr & MASK64)


def mem_range(lo: int, hi: int) -> frozenset[Label]:
    """Byte labels for the half-open address range [lo, hi)."""
    return frozenset(mem_label(a) for a in range(lo, hi))


def format_labels(labels: Iterable[Label]) -> str:
    ordered = sorted(labels, key=lambda l: (_KIND_RANK[l.kind], l.arg))
    return "{" + ", ".join(map(str, ordered)) + "}"


# ---------------------------------------------------------------------------
# events

class Event(NamedTuple):
    """A trace entry: ("load", addr, size), ("store", addr, size) or
    ("branch", from, to). Not-taken conditionals record to = from + 4.
    A tuple, so that hashing and comparing a state's events runs in C."""

    kind: str
    a: int
    b: int

    def __str__(self) -> str:
        if self.kind == "branch":
            return f"branch {self.a:#x} -> {self.b:#x}"
        return f"{self.kind} {self.a},{self.b}"


def load_event(addr: int, size: int) -> Event:
    return Event("load", addr & MASK64, size)


def store_event(addr: int, size: int) -> Event:
    return Event("store", addr & MASK64, size)


def branch_event(frm: int, to: int) -> Event:
    return Event("branch", frm & MASK64, to & MASK64)


def branch_taken(ev: Event) -> bool:
    """Projection of a branch event to its taken bit."""
    if ev.kind != "branch":
        raise ValueError("not a branch event")
    return ev.b != (ev.a + 4) & MASK64


def project_trace(events: Iterable[Event]) -> tuple:
    """Collapse branch events to booleans; loads and stores pass through
    as ("load"/"store", addr, size) triples."""
    out = []
    for ev in events:
        if ev.kind == "branch":
            out.append(("branch", branch_taken(ev)))
        else:
            out.append((ev.kind, ev.a, ev.b))
    return tuple(out)


def format_projected(trace: Iterable[tuple]) -> str:
    parts = []
    for item in trace:
        if item[0] == "branch":
            parts.append(f"branch {'true' if item[1] else 'false'}")
        else:
            parts.append(f"{item[0]} {item[1]},{item[2]}")
    return "[" + ", ".join(parts) + "]"


# ---------------------------------------------------------------------------
# memory

def _cell_hash(cell: tuple) -> int:
    """hash((addr, byte)), shuffled the way frozenset shuffles its
    entries' hashes before it XORs them, so that contents that differ
    only in small byte values hash apart."""
    h = hash(cell)
    return ((h ^ 89869747) ^ (h << 16)) * 3644798167 & MASK64


class Image:
    """Bytes that many states share and none mutates: a program's image,
    built once by `asm.load_program`. It keeps the XOR of its cells'
    hashes, so that a Mem over it hashes in the time of its overlay; a
    table of the compiled step of each pc fetched inside its span [lo,
    hi) (None where the word there does not decode); a table of the
    compiled stretch from each pc that `run` entered inside the span
    (None where none starts); and `mem`, the Mem of its bytes alone,
    which every state with nothing written over them shares."""

    __slots__ = ("bytes", "lo", "hi", "hash", "steps", "stretches", "mem")

    def __init__(self, base: int = 0, data: bytes = b""):
        self.bytes = {base + k: b for k, b in enumerate(data) if b}
        self.lo, self.hi = base, base + len(data)
        self.hash = reduce(xor, map(_cell_hash, self.bytes.items()), 0)
        self.steps: dict = {}
        self.stretches: dict = {}
        self.mem = _mem(self, {}, self.steps)


_NO_STEPS: dict = {}  # the table of a Mem whose overlay covers code; never filled


class Mem:
    """Immutable sparse byte store: a shared Image plus a per-state overlay
    of the bytes that differ from it. Unwritten bytes read as zero. The
    overlay never holds the image's own byte at an address, and holds 0
    only where the image has a byte, so two Mems over one image are equal
    iff their overlays are; Mems over different images compare and hash
    by their contents."""

    __slots__ = ("image", "_over", "_steps", "_hash")

    def __init__(self, entries: Optional[dict] = None):
        self.image, self._steps, self._hash = _EMPTY, _EMPTY.steps, None
        self._over = {a: v for a, v in entries.items() if v} if entries else {}

    def get(self, addr: int) -> int:
        addr &= MASK64
        over = self._over
        return over[addr] if addr in over else self.image.bytes.get(addr, 0)

    def read(self, addr: int, size: int) -> int:
        over, base = self._over, self.image.bytes
        value = 0
        for k in range(size):
            a = (addr + k) & MASK64
            value |= (over[a] if a in over else base.get(a, 0)) << (8 * k)
        return value

    def write(self, addr: int, value: int, size: int) -> "Mem":
        return self.write_cells((addr + k, value >> (8 * k))
                                for k in range(size))

    def write_bytes(self, addr: int, data: bytes) -> "Mem":
        return self.write_cells(enumerate(data, addr))

    def write_cells(self, cells) -> "Mem":
        """Write one byte per (addr, value) pair, in order, in one copy of
        the overlay. The image's step table stays in use while no overlay
        address lies inside its span."""
        image = self.image
        base, lo, hi = image.bytes, image.lo, image.hi
        over = dict(self._over)
        steps = self._steps
        for addr, value in cells:
            a, byte = addr & MASK64, value & 0xFF
            if byte == base.get(a, 0):
                if over.pop(a, None) is not None and lo <= a < hi:
                    steps = None
            else:
                over[a] = byte
                if lo <= a < hi:
                    steps = None
        if steps is None:
            clean = not any(lo <= a < hi for a in over)
            steps = image.steps if clean else _NO_STEPS
        return _mem(image, over, steps) if over else image.mem

    def contents(self) -> dict:
        """Every nonzero byte by address, in a new dict."""
        d = dict(self.image.bytes)
        for a, v in self._over.items():
            if v:
                d[a] = v
            else:
                del d[a]
        return d

    def differences(self, other: "Mem") -> Iterator[int]:
        """The addresses where the two hold different bytes."""
        if self.image is other.image:
            if self._over == other._over:
                return
            addrs = self._over.keys() | other._over.keys()
        else:
            addrs = self.contents().keys() | other.contents().keys()
        for a in addrs:
            if self.get(a) != other.get(a):
                yield a

    def addresses(self) -> Iterator[int]:
        return iter(self.contents())

    def items(self):
        return self.contents().items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mem):
            return False
        if self.image is other.image:
            return self._over == other._over
        return hash(self) == hash(other) and \
            self.contents() == other.contents()

    def __hash__(self) -> int:
        """The XOR of _cell_hash over the nonzero bytes: the image's,
        adjusted at each overlay address."""
        if self._hash is None:
            base = self.image.bytes
            h = self.image.hash
            for cell in self._over.items():
                a, v = cell
                if v:
                    h ^= _cell_hash(cell)
                if a in base:
                    h ^= _cell_hash((a, base[a]))
            self._hash = h
        return self._hash

    def __len__(self) -> int:
        base = self.image.bytes
        return len(base) + sum((a not in base) - (not v)
                               for a, v in self._over.items())

    def __repr__(self) -> str:
        return f"Mem({len(self)} bytes set)"


def _mem(image: Image, over: dict, steps: dict) -> Mem:
    m = object.__new__(Mem)
    m.image, m._over, m._steps, m._hash = image, over, steps, None
    return m


_EMPTY = Image()


# ---------------------------------------------------------------------------
# instructions

@dataclass(frozen=True)
class Instruction:
    """Decoded instruction. `FORMATS` names the fields each op uses; the
    others stay 0. Branches read off as a signed word offset."""

    op: str
    rd: int = 0
    rn: int = 0
    rm: int = 0
    imm: int = 0
    off: int = 0


def encode_instruction(ins: Instruction) -> int:
    code, fields = FORMATS[ins.op]
    word = code << 24
    for name, shift, width in fields:
        word |= (getattr(ins, name) & ((1 << width) - 1)) << shift
    return word


# the bits below the opcode that each opcode's fields leave unused
_SPARE = {op: ((1 << 24) - 1) & ~sum(((1 << width) - 1) << shift
                                     for _, shift, width in fields)
          for op, (_, fields) in FORMATS.items()}


def decode_word(word: int) -> Optional[Instruction]:
    """Decode one 32-bit word, or None. Bits an opcode's fields do not use
    must be zero; anything else, including the all-zero stopper word, is
    undecodable."""
    op = MNEMONICS.get((word >> 24) & 0xFF)
    if op is None or word & _SPARE[op]:
        return None
    values = {}
    for name, shift, width in FORMATS[op][1]:
        value = (word >> shift) & ((1 << width) - 1)
        values[name] = _sext(value, width) if name == "off" else value
    return Instruction(op, **values)


# ---------------------------------------------------------------------------
# machine state

class MachineState:
    """Immutable machine state. Successor computation returns fresh states;
    nothing here mutates in place. The constructor masks registers and pc
    to 64 bits and flags to 0/1."""

    __slots__ = ("regs", "pc", "flag_n", "flag_z", "mem", "events", "_hash")

    def __init__(self, regs=None, pc=0, flag_n=0, flag_z=0, mem=None, events=()):
        self.regs = (tuple(v & MASK64 for v in regs) if regs is not None
                     else (0,) * 16)
        self.pc = pc & MASK64
        self.flag_n = int(bool(flag_n))
        self.flag_z = int(bool(flag_z))
        self.mem = mem if mem is not None else Mem()
        self.events = tuple(events)
        self._hash: Optional[int] = None
        assert len(self.regs) == 16

    def _replace(self, *, regs=None, pc=None, flag_n=None, flag_z=None,
                 mem=None, events=None) -> "MachineState":
        return _make(self.regs if regs is None else tuple(regs),
                     self.pc if pc is None else pc & MASK64,
                     self.flag_n if flag_n is None else flag_n,
                     self.flag_z if flag_z is None else flag_z,
                     self.mem if mem is None else mem,
                     self.events if events is None else tuple(events))

    # -- reads and writes by label

    def reg(self, i: int) -> int:
        return self.regs[i]

    def with_reg(self, i: int, value: int) -> "MachineState":
        regs = list(self.regs)
        regs[i] = value & MASK64
        return _make(tuple(regs), self.pc, self.flag_n, self.flag_z,
                     self.mem, self.events)

    def read_label(self, label: Label):
        if label.kind == "reg":
            return self.regs[label.arg]
        if label.kind == "mem":
            return self.mem.get(label.arg)
        return getattr(self, label.kind)  # pc, flag_n, flag_z, events

    def with_label(self, label: Label, value) -> "MachineState":
        if label.kind == "reg":
            return self.with_reg(label.arg, value)
        if label.kind == "pc":
            return self._replace(pc=value)
        if label.kind in ("flag_n", "flag_z"):
            return self._replace(**{label.kind: int(bool(value))})
        if label.kind == "mem":
            return self._replace(mem=self.mem.write(label.arg, value & 0xFF, 1))
        return self._replace(events=tuple(value))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MachineState):
            return NotImplemented
        return (self.pc == other.pc and self.regs == other.regs
                and self.flag_n == other.flag_n and self.flag_z == other.flag_z
                and self.events == other.events and self.mem == other.mem)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.regs, self.pc, self.flag_n, self.flag_z,
                               self.mem, self.events))
        return self._hash

    def __repr__(self) -> str:
        regs = " ".join(f"x{i}={v:#x}" for i, v in enumerate(self.regs) if v)
        return (f"<state pc={self.pc:#x} {regs or 'regs=0'} "
                f"n={self.flag_n} z={self.flag_z} "
                f"mem={len(self.mem)}B events={len(self.events)}>")


_new_object = object.__new__


def _make(regs, pc, flag_n, flag_z, mem, events) -> MachineState:
    """A state from fields that are already canonical (a 16-tuple of 64-bit
    registers, a 64-bit pc, 0/1 flags, an event tuple), without copies or
    checks: the one construction a step makes per successor."""
    s = _new_object(MachineState)
    s.regs, s.pc, s.flag_n, s.flag_z = regs, pc, flag_n, flag_z
    s.mem, s.events, s._hash = mem, events, None
    return s


def zeroed_state() -> MachineState:
    return MachineState()


# ---------------------------------------------------------------------------
# single-step semantics and compiled stretches

# Each opcode's effect, written once: its kind and a Python expression
# over its fields, where {n}, {m} and {d} read registers rn, rm and rd,
# {imm} is the immediate, {jump} the branch offset in bytes, {nxt} the
# fall-through pc and fz the Z flag. A "set" writes the value to rd, and
# a "fork" does too before it forks on N; a "cmp" compares the pair; a
# "branch" goes to the value; a "load" or "store" moves rd from or to
# the address.
_EFFECTS = {
    "movi": ("set", "{imm}"), "movr": ("set", "{n}"),
    "add": ("set", "({n} + {m}) & M"), "addi": ("set", "({n} + {imm}) & M"),
    "sub": ("set", "({n} - {m}) & M"), "subi": ("set", "({n} - {imm}) & M"),
    "mul": ("set", "({n} * {m}) & M"), "umulh": ("set", "({n} * {m}) >> 64"),
    "mulnd": ("fork", "({n} * {m}) & M"),
    "cmp": ("cmp", "{n}, {m}"), "cmpi": ("cmp", "{n}, {imm}"),
    "b": ("branch", "({nxt} + {jump}) & M"),
    "beq": ("branch", "({nxt} + {jump}) & M if fz else {nxt}"),
    "bne": ("branch", "{nxt} if fz else ({nxt} + {jump}) & M"),
    "cbz": ("branch", "{nxt} if {d} else ({nxt} + {jump}) & M"),
    "cbnz": ("branch", "({nxt} + {jump}) & M if {d} else {nxt}"),
    "br": ("branch", "{n}"),
    **{op: ("load", "({n} + {imm}) & M") for op in LOAD_SIZES},
    **{op: ("store", "({n} + {imm}) & M") for op in STORE_SIZES},
}

# What each kind does with its value {e}: statements over the flags fn
# and fz, the memory mem and the next pc `to`, which leave the event the
# kind appends, if it appends one, in {ev}. {size} is a load's or
# store's access size.
_KINDS = {
    "set": "{d} = {e}",
    "fork": "{d} = {e}",
    "cmp": "a, b = {e}\nfn, fz = ((a - b) & M) >> 63, int(a == b)",
    "branch": "to = {e}\n{ev} = Event('branch', {pc}, to)",
    "load": "a = {e}\n{d} = mem.read(a, {size})\n"
            "{ev} = Event('load', a, {size})",
    "store": "a = {e}\nmem = mem.write(a, {d}, {size})\n"
             "{ev} = Event('store', a, {size})",
}
_WRITES_RD = ("set", "fork", "load")
_ADDS_EVENT = ("branch", "load", "store")
_SIZES = {**LOAD_SIZES, **STORE_SIZES}
_REGS = ", ".join(f"r{i}" for i in range(16))


def _effect(op: str, names: dict) -> list:
    """The lines of op's effect, its operands given by names."""
    kind, value = _EFFECTS[op]
    return _KINDS[kind].format(e=value.format(**names), size=_SIZES.get(op),
                               **names).split("\n")


def _define(name: str, lines: list, filename: str) -> Callable:
    """The function `name` that the source lines define."""
    scope: dict = {}
    exec(compile("\n".join(lines) + "\n", filename, "exec"),
         {"M": MASK64, "Event": Event, "_make": _make}, scope)
    return scope[name]


_STEP_MAKERS: dict = {}  # opcode -> (rd, rn, rm, imm, jump) -> its step


def _compile(ins: Instruction) -> Callable:
    """The step of one decoded instruction as a closure (s, nxt) -> the
    successor list, where nxt is the fall-through pc; its fields are
    bound once here instead of dispatched on at every step. Each opcode's
    maker of such closures is generated from its effect on first use."""
    op = ins.op
    make = _STEP_MAKERS.get(op)
    if make is None:
        kind = _EFFECTS[op][0]
        writes = kind in _WRITES_RD
        body = ["r = list(s.regs)" if writes else "r = s.regs",
                "fz, mem = s.flag_z, s.mem"]
        body += _effect(op, dict(d="r[rd]", n="r[rn]", m="r[rm]",
                                 imm="imm", jump="jump", nxt="nxt",
                                 pc="s.pc", ev="ev"))
        if kind == "fork":
            body += ["r = tuple(r)",
                     "return [_make(r, nxt, 0, fz, mem, s.events), "
                     "_make(r, nxt, 1, fz, mem, s.events)]"]
        else:
            events = "s.events + (ev,)" if kind in _ADDS_EVENT else "s.events"
            body.append(f"return [_make({'tuple(r)' if writes else 'r'}, "
                        f"{'to' if kind == 'branch' else 'nxt'}, "
                        f"{'fn' if kind == 'cmp' else 's.flag_n'}, fz, mem, "
                        f"{events})]")
        make = _STEP_MAKERS[op] = _define(
            "make", ["def make(rd, rn, rm, imm, jump):",
                     "    def step(s, nxt):"]
            + ["        " + line for line in body] + ["    return step"],
            f"<step {op}>")
    return make(ins.rd, ins.rn, ins.rm, ins.imm, WORD * ins.off)


_UNSEEN = object()


def _step_at(mem: Mem, pc: int) -> Optional[Callable]:
    """The compiled step of the word at pc, or None where it does not
    decode. While a Mem's overlay leaves its image's span alone, a pc
    inside that span is one lookup in the image's table, filled on the
    first fetch there; every other fetch reads, decodes and compiles the
    bytes."""
    step = mem._steps.get(pc, _UNSEEN)
    if step is not _UNSEEN:
        return step
    ins = decode_word(mem.read(pc, WORD))
    step = None if ins is None else _compile(ins)
    image = mem.image
    if mem._steps is image.steps and image.lo <= pc and pc + WORD <= image.hi:
        image.steps[pc] = step
    return step


def _stretch_at(image: Image, pc: int):
    """The image's straight-line stretch from pc as (run, length, pcs),
    or None where none starts there. A stretch runs from pc up to and
    including the first branch, `br` or store, and stops before a
    `mulnd`, a word that does not decode and the image's end; run(s)
    executes it in one call, with the registers in locals, for a state
    whose overlay leaves the image's span alone. Each is generated on the
    first reach of its pc, which must lie inside the span, and kept in
    the image; the only values in its source are integers: its pcs and
    the fields decoded from its words."""
    body, pcs, events, writes = [], [], [], False
    kind, p = None, pc
    while p % WORD == 0 and p <= image.hi - WORD:
        ins = decode_word(image.mem.read(p, WORD))
        if ins is None or ins.op == "mulnd":
            break
        kind = _EFFECTS[ins.op][0]
        ev = f"e{len(events)}"
        body += _effect(ins.op, dict(d=f"r{ins.rd}", n=f"r{ins.rn}",
                                     m=f"r{ins.rm}", imm=ins.imm,
                                     jump=WORD * ins.off, pc=p,
                                     nxt=(p + WORD) & MASK64, ev=ev))
        events += [ev] if kind in _ADDS_EVENT else []
        writes = writes or kind in _WRITES_RD
        pcs.append(p)
        p += WORD
        if kind in ("branch", "store"):
            break
    stretch = None
    if pcs:
        to = "to" if kind == "branch" else p & MASK64
        new = "s.events + (" + "".join(e + ", " for e in events) + ")"
        body.append(f"return _make({f'({_REGS})' if writes else 's.regs'}, "
                    f"{to}, fn, fz, mem, {new if events else 's.events'})")
        lines = ["def stretch(s):", f"    {_REGS} = s.regs",
                 "    fn, fz, mem = s.flag_n, s.flag_z, s.mem"]
        lines += ["    " + line for line in body]
        stretch = (_define("stretch", lines, f"<stretch {pc:#x}>"),
                   len(pcs), frozenset(pcs))
    image.stretches[pc] = stretch
    return stretch


def successors(s: MachineState) -> list[MachineState]:
    """All one-step successors, in a fixed order. Empty when stuck (pc
    misaligned or fetch undecodable). Only mulnd returns two states."""
    pc = s.pc
    if pc % WORD:
        return []
    step = _step_at(s.mem, pc)
    return [] if step is None else step(s, (pc + WORD) & MASK64)


def run(s: MachineState, limit: int, stops=None) -> tuple:
    """Advance s while it has exactly one successor, at most limit steps,
    never stepping from a state whose pc is in stops: (the state reached,
    the steps taken), exactly what iterating `successors` gives. While
    the state's overlay leaves its image's span alone, each stretch of the
    image runs as one call; single steps take over where a stretch is
    longer than the steps left or holds a pc in stops, and everywhere
    else."""
    steps = 0
    while steps < limit:
        pc, mem = s.pc, s.mem
        if stops is not None and pc in stops:
            return s, steps
        image = mem.image
        if mem._steps is not image.steps or not (image.lo <= pc
                                                 <= image.hi - WORD):
            break
        stretch = image.stretches.get(pc, _UNSEEN)
        if stretch is _UNSEEN:
            stretch = _stretch_at(image, pc)
        if stretch is None:  # misaligned, a fork or a stuck state
            return s, steps
        go, length, pcs = stretch
        if length > limit - steps or (stops is not None
                                      and not pcs.isdisjoint(stops)):
            break
        s = go(s)
        steps += length
    while steps < limit:
        pc = s.pc
        if pc % WORD or stops is not None and pc in stops:
            break
        step = _step_at(s.mem, pc)
        if step is None:
            break
        succ = step(s, (pc + WORD) & MASK64)
        if len(succ) != 1:
            break
        s = succ[0]
        steps += 1
    return s, steps


def is_stuck(s: MachineState) -> bool:
    return not successors(s)


def is_terminated_at(s: MachineState, addr: int) -> bool:
    """True when pc equals addr and the word there does not decode. This is
    independent of alignment: a misaligned pc already makes the state
    stuck, but termination here specifically means fetch failure."""
    addr &= MASK64
    return s.pc == addr and _step_at(s.mem, addr) is None


def is_aligned_at(s: MachineState, base: int, code: bytes) -> bool:
    """True when the given code bytes sit unmodified at base and pc points
    into them (or at the stopper slot just past them)."""
    if base % WORD != 0:
        return False
    for k, byte in enumerate(code):
        if s.mem.get(base + k) != byte:
            return False
    return base <= s.pc <= base + len(code)


# ---------------------------------------------------------------------------
# the step oracle and label frames

_ORACLE = None


def oracle() -> "kernel.StepOracle":
    """The machine as a step oracle (one shared instance, so judgments
    built anywhere compose). Event lists grow on every branch, load and
    store, so machine executions cannot revisit a state through control
    flow; finite_hint stays off."""
    global _ORACLE
    if _ORACLE is None:
        from . import kernel
        _ORACLE = kernel.StepOracle(successors, pc_of=lambda s: s.pc,
                                    description="fetch-decode-execute machine",
                                    run=run)
    return _ORACLE


def maychange(labels: Iterable[Label], description: str = "") -> "kernel.FrameFn":
    """Frame that allows the given labels to change and nothing else."""
    from . import kernel
    labels = frozenset(labels)
    if not description:
        description = f"maychange {format_labels(labels)}"
    return kernel.FrameFn(_related(labels), intensional_form=labels,
                          description=description)


def _related(labels: frozenset) -> Callable:
    """The maychange relation for labels: true when every label where s
    and t differ lies inside it. The set is split once: the registers,
    pc, flags and trace outside it are compared as tuples, and of two
    memories only the addresses where they differ are looked up."""
    regs = [i for i, label in enumerate(_REG_LABELS) if label not in labels]
    names = [label.kind for label in (PC, FLAG_N, FLAG_Z, EVENTS)
             if label not in labels]
    addrs = frozenset(label.arg for label in labels if label.kind == "mem")
    get = itemgetter(*regs) if regs else (lambda r: ())
    other = attrgetter(*names) if names else (lambda s: ())

    def related(s, t):
        a, b = s.regs, t.regs
        if a is not b and get(a) != get(b) or other(s) != other(t):
            return False
        m, n = s.mem, t.mem
        return m is n or all(map(addrs.__contains__, m.differences(n)))
    return related
