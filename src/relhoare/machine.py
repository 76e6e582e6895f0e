"""MiniARM, a small fetch-decode-execute machine with event traces.

The machine has sixteen 64-bit registers x0..x15, a program counter, two
flags (N and Z), a sparse byte-addressable memory that reads as zero where
nothing was written, and an append-only event trace. Code lives in memory,
so stores can overwrite instructions and `br` can enter code at a computed
address. Loads, stores, and every control transfer (taken or not) append
an event; the constant-time checkers compare exactly these traces.

Exactly one instruction is nondeterministic: `mulnd` writes the low 64
bits of the product like `mul` and then forks execution on the N flag,
yielding two successors that are identical elsewhere (flag 0 first). Every
other instruction has exactly one successor. A state is stuck when the
program counter is not 4-byte aligned or the word under it does not
decode; the all-zero word never decodes, which makes an explicit zero word
(written `halt` in assembly) the conventional stopper.

Instruction words are 32-bit little-endian. The opcode sits in bits
[31:24], rd in [23:20], rn in [19:16], rm in [15:12], and a zero-extended
imm12 in [11:0]. `movi` carries a 16-bit immediate in [15:0], `b`, `beq`
and `bne` a signed word offset in [19:0], and `cbz`/`cbnz` their register
in [23:20] with a signed word offset in [15:0]. Branch offsets are
relative to the fall-through address, so a self-loop encodes as -1. A
word decodes only if the fields its opcode does not use are zero; that
makes decoding a partial inverse of encoding, and the disassembler's
output always reassembles to the original bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

MASK64 = (1 << 64) - 1
WORD = 4

# opcode numbers, fixed by the binary format
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


# ---------------------------------------------------------------------------
# labels

_KIND_RANK = {"reg": 0, "pc": 1, "flag_n": 2, "flag_z": 3, "mem": 4, "events": 5}


@dataclass(frozen=True)
class Label:
    """One architectural resource: a register, pc, a flag, one memory byte,
    or the event trace as a whole."""

    kind: str
    arg: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown label kind {self.kind!r}")

    def _key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.arg)

    def __lt__(self, other: "Label") -> bool:
        return self._key() < other._key()

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


def mem_label(addr: int) -> Label:
    return Label("mem", addr & MASK64)


def mem_range(lo: int, hi: int) -> frozenset[Label]:
    """Byte labels for the half-open address range [lo, hi)."""
    return frozenset(mem_label(a) for a in range(lo, hi))


def format_labels(labels: Iterable[Label]) -> str:
    return "{" + ", ".join(str(l) for l in sorted(labels)) + "}"


# ---------------------------------------------------------------------------
# events

@dataclass(frozen=True)
class Event:
    """A trace entry: ("load", addr, size), ("store", addr, size) or
    ("branch", from, to). Not-taken conditionals record to = from + 4."""

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

class Mem:
    """Immutable sparse byte store. Unwritten bytes read as zero and zero
    bytes are never stored, so equal contents mean equal objects' dicts."""

    __slots__ = ("_d", "_hash")

    def __init__(self, entries: Optional[dict] = None):
        self._d = dict(entries) if entries else {}
        self._hash: Optional[int] = None

    def get(self, addr: int) -> int:
        return self._d.get(addr & MASK64, 0)

    def read(self, addr: int, size: int) -> int:
        value = 0
        for k in range(size):
            value |= self._d.get((addr + k) & MASK64, 0) << (8 * k)
        return value

    def write(self, addr: int, value: int, size: int) -> "Mem":
        d = dict(self._d)
        for k in range(size):
            a = (addr + k) & MASK64
            byte = (value >> (8 * k)) & 0xFF
            if byte:
                d[a] = byte
            else:
                d.pop(a, None)
        return Mem(d)

    def write_bytes(self, addr: int, data: bytes) -> "Mem":
        d = dict(self._d)
        for k, byte in enumerate(data):
            a = (addr + k) & MASK64
            if byte:
                d[a] = byte
            else:
                d.pop(a, None)
        return Mem(d)

    def addresses(self) -> Iterator[int]:
        return iter(self._d)

    def items(self):
        return self._d.items()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mem) and self._d == other._d

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def __len__(self) -> int:
        return len(self._d)

    def __repr__(self) -> str:
        return f"Mem({len(self._d)} bytes set)"


# ---------------------------------------------------------------------------
# instructions

@dataclass(frozen=True)
class Instruction:
    """Decoded instruction. Field meaning depends on op: reg-reg ALU ops
    use rd/rn/rm, immediates use imm, branches use off (signed words)."""

    op: str
    rd: int = 0
    rn: int = 0
    rm: int = 0
    imm: int = 0
    off: int = 0


def encode_instruction(ins: Instruction) -> int:
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
def decode_word(word: int) -> Optional[Instruction]:
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


# ---------------------------------------------------------------------------
# machine state

class MachineState:
    """Immutable machine state. Successor computation returns fresh states;
    nothing here mutates in place."""

    __slots__ = ("regs", "pc", "flag_n", "flag_z", "mem", "events", "_hash")

    def __init__(self, regs=None, pc=0, flag_n=0, flag_z=0, mem=None, events=()):
        self.regs = tuple(regs) if regs is not None else (0,) * 16
        self.pc = pc & MASK64
        self.flag_n = flag_n
        self.flag_z = flag_z
        self.mem = mem if mem is not None else Mem()
        self.events = tuple(events)
        self._hash: Optional[int] = None
        assert len(self.regs) == 16

    def _replace(self, **kw) -> "MachineState":
        return MachineState(
            regs=kw.get("regs", self.regs),
            pc=kw.get("pc", self.pc),
            flag_n=kw.get("flag_n", self.flag_n),
            flag_z=kw.get("flag_z", self.flag_z),
            mem=kw.get("mem", self.mem),
            events=kw.get("events", self.events),
        )

    # -- reads and writes by label

    def reg(self, i: int) -> int:
        return self.regs[i]

    def with_reg(self, i: int, value: int) -> "MachineState":
        regs = list(self.regs)
        regs[i] = value & MASK64
        return self._replace(regs=tuple(regs))

    def read_label(self, label: Label):
        if label.kind == "reg":
            return self.regs[label.arg]
        if label.kind == "pc":
            return self.pc
        if label.kind == "flag_n":
            return self.flag_n
        if label.kind == "flag_z":
            return self.flag_z
        if label.kind == "mem":
            return self.mem.get(label.arg)
        return self.events

    def with_label(self, label: Label, value) -> "MachineState":
        if label.kind == "reg":
            return self.with_reg(label.arg, value)
        if label.kind == "pc":
            return self._replace(pc=value & MASK64)
        if label.kind == "flag_n":
            return self._replace(flag_n=int(bool(value)))
        if label.kind == "flag_z":
            return self._replace(flag_z=int(bool(value)))
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


def zeroed_state() -> MachineState:
    return MachineState()


# ---------------------------------------------------------------------------
# single-step semantics

def decode_at(s: MachineState, addr: int) -> Optional[Instruction]:
    return decode_word(s.mem.read(addr, WORD))


def successors(s: MachineState) -> list[MachineState]:
    """All one-step successors, in a fixed order. Empty when stuck (pc
    misaligned or fetch undecodable). Only mulnd returns two states."""
    if s.pc % WORD != 0:
        return []
    ins = decode_at(s, s.pc)
    if ins is None:
        return []
    op = ins.op
    nxt = (s.pc + WORD) & MASK64

    if op == "movi":
        return [s.with_reg(ins.rd, ins.imm)._replace(pc=nxt)]
    if op == "movr":
        return [s.with_reg(ins.rd, s.regs[ins.rn])._replace(pc=nxt)]
    if op in ("add", "sub", "mul"):
        a, b = s.regs[ins.rn], s.regs[ins.rm]
        v = a + b if op == "add" else a - b if op == "sub" else a * b
        return [s.with_reg(ins.rd, v & MASK64)._replace(pc=nxt)]
    if op == "umulh":
        v = (s.regs[ins.rn] * s.regs[ins.rm]) >> 64
        return [s.with_reg(ins.rd, v)._replace(pc=nxt)]
    if op == "mulnd":
        v = (s.regs[ins.rn] * s.regs[ins.rm]) & MASK64
        base = s.with_reg(ins.rd, v)._replace(pc=nxt)
        return [base._replace(flag_n=0), base._replace(flag_n=1)]
    if op in ("addi", "subi"):
        a = s.regs[ins.rn]
        v = a + ins.imm if op == "addi" else a - ins.imm
        return [s.with_reg(ins.rd, v & MASK64)._replace(pc=nxt)]
    if op in ("cmp", "cmpi"):
        a = s.regs[ins.rn]
        b = s.regs[ins.rm] if op == "cmp" else ins.imm
        diff = (a - b) & MASK64
        return [s._replace(flag_z=int(a == b), flag_n=diff >> 63, pc=nxt)]
    if op in ("b", "beq", "bne", "cbz", "cbnz"):
        if op == "b":
            taken = True
        elif op == "beq":
            taken = s.flag_z == 1
        elif op == "bne":
            taken = s.flag_z == 0
        elif op == "cbz":
            taken = s.regs[ins.rd] == 0
        else:
            taken = s.regs[ins.rd] != 0
        dest = (s.pc + WORD + WORD * ins.off) & MASK64 if taken else nxt
        ev = branch_event(s.pc, dest)
        return [s._replace(pc=dest, events=s.events + (ev,))]
    if op == "br":
        dest = s.regs[ins.rn]
        ev = branch_event(s.pc, dest)
        return [s._replace(pc=dest, events=s.events + (ev,))]
    if op in LOAD_SIZES:
        size = LOAD_SIZES[op]
        addr = (s.regs[ins.rn] + ins.imm) & MASK64
        v = s.mem.read(addr, size)
        ev = load_event(addr, size)
        return [s.with_reg(ins.rd, v)._replace(pc=nxt, events=s.events + (ev,))]
    if op in STORE_SIZES:
        size = STORE_SIZES[op]
        addr = (s.regs[ins.rn] + ins.imm) & MASK64
        mem = s.mem.write(addr, s.regs[ins.rd], size)
        ev = store_event(addr, size)
        return [s._replace(mem=mem, pc=nxt, events=s.events + (ev,))]
    raise AssertionError(f"unhandled op {op}")


def is_stuck(s: MachineState) -> bool:
    return not successors(s)


def is_terminated_at(s: MachineState, addr: int) -> bool:
    """True when pc equals addr and the word there does not decode. This is
    independent of alignment: a misaligned pc already makes the state
    stuck, but termination here specifically means fetch failure."""
    return s.pc == addr & MASK64 and decode_at(s, addr & MASK64) is None


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
# label deltas and projections

def state_delta(s0: MachineState, s1: MachineState) -> frozenset[Label]:
    """The set of labels on which two states differ."""
    out = set()
    for i in range(16):
        if s0.regs[i] != s1.regs[i]:
            out.add(reg_label(i))
    if s0.pc != s1.pc:
        out.add(PC)
    if s0.flag_n != s1.flag_n:
        out.add(FLAG_N)
    if s0.flag_z != s1.flag_z:
        out.add(FLAG_Z)
    if s0.events != s1.events:
        out.add(EVENTS)
    if s0.mem != s1.mem:
        seen = set(s0.mem.addresses()) | set(s1.mem.addresses())
        for a in seen:
            if s0.mem.get(a) != s1.mem.get(a):
                out.add(mem_label(a))
    return frozenset(out)


def agrees_outside(s0: MachineState, s1: MachineState,
                   labels: frozenset[Label]) -> bool:
    """True when every label where the states differ lies inside `labels`.
    This is the maychange relation for that label set."""
    return state_delta(s0, s1) <= labels


def mask_labels(s: MachineState, labels: frozenset[Label]) -> MachineState:
    """Overwrite the given labels with canonical zero values. Two states
    have equal public parts iff masking the private labels makes them
    equal."""
    regs = list(s.regs)
    pc, fn, fz, events = s.pc, s.flag_n, s.flag_z, s.events
    mem = s.mem
    mem_clear = set()
    for label in labels:
        if label.kind == "reg":
            regs[label.arg] = 0
        elif label.kind == "pc":
            pc = 0
        elif label.kind == "flag_n":
            fn = 0
        elif label.kind == "flag_z":
            fz = 0
        elif label.kind == "events":
            events = ()
        else:
            mem_clear.add(label.arg)
    if mem_clear:
        mem = Mem({a: v for a, v in mem.items() if a not in mem_clear})
    return MachineState(regs=regs, pc=pc, flag_n=fn, flag_z=fz,
                        mem=mem, events=events)


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
                                    description="fetch-decode-execute machine")
    return _ORACLE


def maychange(labels: Iterable[Label], description: str = "") -> "kernel.FrameFn":
    """Frame that allows the given labels to change and nothing else."""
    from . import kernel
    labels = frozenset(labels)
    if not description:
        description = f"maychange {format_labels(labels)}"
    return kernel.FrameFn(lambda s, t: agrees_outside(s, t, labels),
                          intensional_form=labels, description=description)
