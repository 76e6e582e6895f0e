"""The machine core diffed against a frozen copy of its earlier interpreter.

`ref_successors`, `ref_is_terminated_at`, `ref_replace`, `ref_with_reg`,
`ref_state_delta` and `ref_agrees_outside` below are the step semantics
and frame test as they were before steps were compiled per instruction
word: one `if op == ...` chain per step, a fetch through `Mem.read`, two
state constructions per register write, and a frame test that builds the
whole label delta. They are kept verbatim (as functions over states) and
must not be tuned; they define what the fast core has to compute. Their
fetches decode through the frozen decoder of `test_isa_reference.py`.

Random programs mix encoded instructions with raw words. Their registers
start out holding code addresses (aligned, misaligned, unmapped), encoded
instruction words and arbitrary 64-bit values, so the draws cover
`mulnd` forks, stores over code that already ran, `br` to misaligned or
unmapped targets and undecodable fetches. Every state reached within a
few steps is stepped by both cores, and their successor lists must agree
in order, equality and hash. Two fixed programs, run before the drawn
ones, make sure every run covers wrapping arithmetic, a fork, a branch
event, a store over executed code and a rewritten loop. The same draws
run once more over a shared program image, whose step table they fill
and whose span their stores write into.

`RefMem` is the dict-backed byte store that `Mem` was before it became a
shared image plus a per-state overlay, kept verbatim but for its name,
and `ref_mask_mem` is the memory part of the `mask_labels` of that time.
Drawn images take drawn sequences of writes and masks; the new `Mem`,
once over the image and once over no image, must read, list, count and
compare like the reference, and equal contents must hash equal. A mask
of the new `Mem` is the write of a zero to each cleared cell, as
`ref_mask_labels` does it.

`ref_mask_labels` is `machine.mask_labels` as it was when it last built
the public projection of a constant-time check, kept verbatim but for
its name: a state with the given labels overwritten by zeros. It defines
when two states are public-equal, which `ct.Partition.project_public`
must decide exactly.

`ref_agrees_outside` is also the reference for the relation that
`machine.maychange` builds per label set: they must agree on drawn label
sets between states over no image, over one shared image and over two
different images.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import itertools
from typing import Iterator, Optional

from relhoare import asm, machine
from relhoare.machine import (
    EVENTS, FLAG_N, FLAG_Z, LOAD_SIZES, MASK64, OPCODES, PC, STORE_SIZES,
    WORD, Image, Instruction, MachineState, Mem, branch_event,
    encode_instruction, load_event, mem_label, reg_label, store_event,
)

from test_isa_reference import ref_decode_word

BASE = 0x1000
UNMAPPED = 0x9000
SLOTS = 8
DEPTH = 10
WIDTH = 12


# ---------------------------------------------------------------------------
# the frozen interpreter

def ref_replace(s: MachineState, **kw) -> MachineState:
    return MachineState(
        regs=kw.get("regs", s.regs),
        pc=kw.get("pc", s.pc),
        flag_n=kw.get("flag_n", s.flag_n),
        flag_z=kw.get("flag_z", s.flag_z),
        mem=kw.get("mem", s.mem),
        events=kw.get("events", s.events),
    )


def ref_with_reg(s: MachineState, i: int, value: int) -> MachineState:
    regs = list(s.regs)
    regs[i] = value & MASK64
    return ref_replace(s, regs=tuple(regs))


def ref_decode_at(s: MachineState, addr: int):
    return ref_decode_word(s.mem.read(addr, WORD))


def ref_successors(s: MachineState) -> list:
    if s.pc % WORD != 0:
        return []
    ins = ref_decode_at(s, s.pc)
    if ins is None:
        return []
    op = ins.op
    nxt = (s.pc + WORD) & MASK64

    if op == "movi":
        return [ref_replace(ref_with_reg(s, ins.rd, ins.imm), pc=nxt)]
    if op == "movr":
        return [ref_replace(ref_with_reg(s, ins.rd, s.regs[ins.rn]), pc=nxt)]
    if op in ("add", "sub", "mul"):
        a, b = s.regs[ins.rn], s.regs[ins.rm]
        v = a + b if op == "add" else a - b if op == "sub" else a * b
        return [ref_replace(ref_with_reg(s, ins.rd, v & MASK64), pc=nxt)]
    if op == "umulh":
        v = (s.regs[ins.rn] * s.regs[ins.rm]) >> 64
        return [ref_replace(ref_with_reg(s, ins.rd, v), pc=nxt)]
    if op == "mulnd":
        v = (s.regs[ins.rn] * s.regs[ins.rm]) & MASK64
        base = ref_replace(ref_with_reg(s, ins.rd, v), pc=nxt)
        return [ref_replace(base, flag_n=0), ref_replace(base, flag_n=1)]
    if op in ("addi", "subi"):
        a = s.regs[ins.rn]
        v = a + ins.imm if op == "addi" else a - ins.imm
        return [ref_replace(ref_with_reg(s, ins.rd, v & MASK64), pc=nxt)]
    if op in ("cmp", "cmpi"):
        a = s.regs[ins.rn]
        b = s.regs[ins.rm] if op == "cmp" else ins.imm
        diff = (a - b) & MASK64
        return [ref_replace(s, flag_z=int(a == b), flag_n=diff >> 63, pc=nxt)]
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
        return [ref_replace(s, pc=dest, events=s.events + (ev,))]
    if op == "br":
        dest = s.regs[ins.rn]
        ev = branch_event(s.pc, dest)
        return [ref_replace(s, pc=dest, events=s.events + (ev,))]
    if op in LOAD_SIZES:
        size = LOAD_SIZES[op]
        addr = (s.regs[ins.rn] + ins.imm) & MASK64
        v = s.mem.read(addr, size)
        ev = load_event(addr, size)
        return [ref_replace(ref_with_reg(s, ins.rd, v), pc=nxt,
                            events=s.events + (ev,))]
    if op in STORE_SIZES:
        size = STORE_SIZES[op]
        addr = (s.regs[ins.rn] + ins.imm) & MASK64
        mem = s.mem.write(addr, s.regs[ins.rd], size)
        ev = store_event(addr, size)
        return [ref_replace(s, mem=mem, pc=nxt, events=s.events + (ev,))]
    raise AssertionError(f"unhandled op {op}")


def ref_is_terminated_at(s: MachineState, addr: int) -> bool:
    return s.pc == addr & MASK64 and ref_decode_at(s, addr & MASK64) is None


def ref_state_delta(s0: MachineState, s1: MachineState) -> frozenset:
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


def ref_agrees_outside(s0: MachineState, s1: MachineState,
                       labels: frozenset) -> bool:
    return ref_state_delta(s0, s1) <= labels


# ---------------------------------------------------------------------------
# random programs

small_regs = st.integers(min_value=0, max_value=3)
# encode_instruction ignores the fields an opcode does not use
encoded = st.builds(
    lambda op, rd, rn, rm, imm, off: encode_instruction(
        Instruction(op, rd=rd, rn=rn, rm=rm, imm=imm, off=off)),
    st.sampled_from(sorted(OPCODES)), small_regs, small_regs, small_regs,
    st.sampled_from([0, 1, 2, 4, 8, 12, 0xFFF, 0xFFFF]),
    st.integers(min_value=-SLOTS, max_value=SLOTS))
raw_words = st.integers(min_value=0, max_value=(1 << 32) - 1)
# mostly instructions; one slot in eight a raw word, one in eight zero
words = st.tuples(st.integers(0, 7), encoded, raw_words).map(
    lambda t: t[2] if t[0] == 0 else 0 if t[0] == 1 else t[1])
code_addrs = st.builds(lambda k, skew: BASE + WORD * k + skew,
                       st.integers(0, SLOTS), st.sampled_from([0, 0, 0, 1, 2]))
reg_values = st.one_of(
    code_addrs, encoded, st.integers(0, MASK64), st.integers(1 << 63, MASK64),
    st.integers(0, 16), st.sampled_from([0, MASK64, UNMAPPED, BASE, MASK64 - 3]))


@st.composite
def start_states(draw) -> MachineState:
    program = draw(st.lists(words, min_size=3, max_size=SLOTS))
    regs = [draw(reg_values) for _ in range(4)] + [0] * 12
    if draw(st.booleans()):
        # a loop that stores over its first instruction after running it
        program[1:3] = [encode_instruction(Instruction("strw", rd=1, rn=2)),
                        encode_instruction(Instruction("b", off=-3))]
        regs[1], regs[2] = draw(encoded), BASE
    mem = Mem().write_cells(
        (BASE + WORD * i + k, (w >> (8 * k)) & 0xFF)
        for i, w in enumerate(program) for k in range(WORD))
    pc = draw(st.sampled_from([BASE] * 6 + [BASE + WORD, BASE + 2]))
    events = (branch_event(0, BASE),) if draw(st.booleans()) else ()
    return MachineState(regs=regs, pc=pc, flag_n=draw(st.integers(0, 1)),
                        flag_z=draw(st.integers(0, 1)), mem=mem,
                        events=events)


# Every arithmetic op wraps, mulnd forks, a compare feeds a branch, a
# store rewrites code that already ran and `br` leaves for a misaligned pc.
FIXED = asm.load_program(
    MachineState(regs=[MASK64, MASK64 - 3, 0, 0, BASE, BASE + 2] + [0] * 10),
    asm.assemble(
        "add x2, x0, x1\nsub x3, x2, x0\nmul x2, x0, x1\naddi x3, x0, #4095\n"
        "subi x2, x3, #4095\nmulnd x3, x0, x1\ncmp x0, x1\nbeq done\n"
        "strw x0, [x4]\ndone: br x5"), BASE)

# A loop whose store rewrites its first instruction after running it.
REWRITE = asm.load_program(
    MachineState(regs=[0, encode_instruction(Instruction("movi", rd=3, imm=2)),
                       BASE] + [0] * 13),
    asm.assemble("top: movi x3, #1\nstrw x1, [x2]\nb top"), BASE)

# Leaves out the code bytes that FIXED's store changes.
FIXED_FRAME = frozenset({PC, FLAG_N, FLAG_Z, EVENTS, reg_label(2),
                         reg_label(3)})

LABEL_POOL = (
    [reg_label(i) for i in range(5)] + [PC, FLAG_N, FLAG_Z, EVENTS]
    + [mem_label(BASE + a) for a in range(0, WORD * SLOTS, 3)]
    + [mem_label(a) for a in (0, 1, 4, 8, 16)])
label_sets = st.sets(st.sampled_from(LABEL_POOL), max_size=8).map(frozenset)


def reached(s0: MachineState) -> list:
    """Every state within DEPTH steps of s0, at most WIDTH per level."""
    out, frontier = [], [s0]
    for _ in range(DEPTH):
        out.extend(frontier)
        frontier = [t for x in frontier for t in ref_successors(x)][:WIDTH]
    return out + frontier


def assert_same_state(new: MachineState, ref: MachineState) -> None:
    assert new == ref and hash(new) == hash(ref)
    assert type(new.regs) is tuple and type(new.events) is tuple
    assert (new.regs, new.pc, new.flag_n, new.flag_z, new.events) == \
        (ref.regs, ref.pc, ref.flag_n, ref.flag_z, ref.events)
    assert dict(new.mem.items()) == dict(ref.mem.items())


# ---------------------------------------------------------------------------
# the diffs

@given(start_states())
@example(FIXED)
@example(REWRITE)
@settings(max_examples=400, deadline=None)
def test_successors_match_the_frozen_interpreter(s0):
    for s in reached(s0):
        new, ref = machine.successors(s), ref_successors(s)
        assert len(new) == len(ref)
        for t, u in zip(new, ref):
            assert_same_state(t, u)
        assert machine.is_stuck(s) == (ref == [])


@given(start_states(), st.integers(0, MASK64))
@settings(max_examples=200, deadline=None)
def test_termination_matches_the_frozen_interpreter(s0, addr):
    for s in reached(s0):
        for a in (s.pc, s.pc + 1, s.pc - 2, addr, BASE, MASK64 - 1):
            assert machine.is_terminated_at(s, a) == \
                ref_is_terminated_at(s, a)


@given(start_states(), st.lists(label_sets, min_size=1, max_size=4))
@example(FIXED, [FIXED_FRAME])
@settings(max_examples=300, deadline=None)
def test_frame_test_matches_the_frozen_delta(s0, frames):
    states = reached(s0)
    pairs = [(s0, t) for t in states] + list(zip(states, states[1:]))
    pairs += [(s0, s0.with_label(mem_label(a), 0x5A))
              for a in (0, BASE, BASE + 1)]
    for labels in frames:
        related = machine.maychange(labels).related
        for a, b in pairs:
            want = ref_agrees_outside(a, b, labels)
            assert related(a, b) == want
            assert related(b, a) == want


EVERY_LABEL = frozenset(LABEL_POOL) | {reg_label(i) for i in range(16)}


def one_change_each(s: MachineState) -> list:
    """s with one register, pc, flag, trace or memory byte changed."""
    return [s.with_reg(2, s.regs[2] + 1), s.with_reg(15, 7),
            s._replace(pc=s.pc + WORD), s._replace(flag_n=1 - s.flag_n),
            s._replace(flag_z=1 - s.flag_z),
            s._replace(events=s.events + (load_event(BASE, 4),))] + [
        s.with_label(mem_label(a), s.mem.get(a) ^ 0x5A)
        for a in (0, 4, BASE, BASE + 1, BASE + 3)]


@given(start_states(), st.booleans(), st.lists(label_sets, min_size=1,
                                               max_size=4))
@example(FIXED, True, [FIXED_FRAME, EVERY_LABEL, frozenset()])
@example(REWRITE, False, [EVERY_LABEL - {reg_label(15)}])
@settings(max_examples=300, deadline=None)
def test_maychange_frames_match_agrees_outside(s0, shared, frames):
    """maychange's relation against ref_agrees_outside, its reference:
    from states over no image to states over one, over one shared image,
    and to one change of each kind of label."""
    image = over_an_image(s0)
    states = reached(image if shared else s0)
    pairs = [(start, t) for start in (s0, image) for t in states]
    pairs += list(zip(states, states[1:]))
    pairs += [(start, t) for start in (s0, image, states[-1])
              for t in one_change_each(start)]
    for labels in frames:
        related = machine.maychange(labels).related
        for a, b in pairs:
            assert related(a, b) == ref_agrees_outside(a, b, labels)
            assert related(b, a) == ref_agrees_outside(b, a, labels)


@given(start_states(), st.integers(0, 15),
       st.integers(0, MASK64 << 2), st.integers(0, MASK64 << 2))
@settings(max_examples=200, deadline=None)
def test_state_updates_match_the_frozen_ones(s, i, value, pc):
    assert_same_state(s.with_reg(i, value), ref_with_reg(s, i, value))
    assert_same_state(s._replace(pc=pc), ref_replace(s, pc=pc))
    mem = s.mem.write(BASE, value, 8)
    events = s.events + (load_event(value, 4),)
    for kw in ({"mem": mem}, {"events": events}, {"flag_n": 1, "flag_z": 0},
               {"regs": tuple(range(16)), "pc": pc, "mem": mem}):
        assert_same_state(s._replace(**kw), ref_replace(s, **kw))


def over_an_image(s: MachineState) -> MachineState:
    """s with its program slots as a shared image, and its other bytes
    (none, as drawn) written over that."""
    code = bytes(s.mem.get(BASE + k) for k in range(WORD * SLOTS))
    mem = Image(BASE, code).mem.write_cells(
        (a, v) for a, v in s.mem.items()
        if not BASE <= a < BASE + WORD * SLOTS)
    assert mem == s.mem and hash(mem) == hash(s.mem)
    return s._replace(mem=mem)


@given(start_states())
@settings(max_examples=200, deadline=None)
def test_successors_over_a_shared_image_match_the_frozen_interpreter(s0):
    # every reached state shares the image and its step table; a store
    # into the span sends its state, and those after it, to the bytes
    for s in reached(over_an_image(s0)):
        new, ref = machine.successors(s), ref_successors(s)
        assert len(new) == len(ref)
        for t, u in zip(new, ref):
            assert_same_state(t, u)
        for a in (s.pc, s.pc + 1, BASE):
            assert machine.is_terminated_at(s, a) == \
                ref_is_terminated_at(s, a)


# ---------------------------------------------------------------------------
# whole runs

def ref_run(s: MachineState, limit: int, stops) -> tuple:
    """`machine.run` by iterating the frozen interpreter."""
    steps = 0
    while steps < limit and (stops is None or s.pc not in stops):
        succ = ref_successors(s)
        if len(succ) != 1:
            break
        s, steps = succ[0], steps + 1
    return s, steps


def assert_runs_match(s: MachineState, stops, limits=range(DEPTH + 1)):
    for limit in limits:
        got, steps = machine.run(s, limit, stops)
        want, want_steps = ref_run(s, limit, stops)
        assert steps == want_steps, (limit, stops)
        assert_same_state(got, want)


STOP_POOL = [BASE + WORD * i for i in range(SLOTS + 1)] + [BASE + 2, UNMAPPED]
stop_sets = st.one_of(st.none(), st.sets(st.sampled_from(STOP_POOL)).map(
    frozenset))


@given(start_states(), st.booleans(), stop_sets)
@example(FIXED, True, None)
@example(FIXED, False, frozenset({BASE + 16}))
@example(REWRITE, True, frozenset())
@settings(max_examples=200, deadline=None)
def test_runs_match_iterating_the_frozen_interpreter(s0, shared, stops):
    # from the start and the states it reaches, over a shared image, whose
    # stretches the runs compile and whose span their stores write into,
    # and over no image at all, where every step is a single step
    s0 = over_an_image(s0) if shared else s0
    for s in list(dict.fromkeys(reached(s0)))[:WIDTH]:
        assert_runs_match(s, stops)


def image_state(source: str, base: int = BASE, **regs) -> MachineState:
    s = asm.load_program(machine.zeroed_state(), asm.assemble(source), base)
    for i, v in regs.items():
        s = s.with_reg(int(i[1:]), v)
    return s


def test_a_store_that_rewrites_the_next_instruction_of_its_stretch():
    # the stretch from BASE ends at the store; the word after it is
    # rewritten, and its own stretch, compiled by a first run that wrote
    # elsewhere, must not run the old instruction
    source = "movi x5, #7\nstrw x1, [x2]\nmovi x3, #1\nhalt"
    new = encode_instruction(Instruction("movi", rd=3, imm=2))
    elsewhere = image_state(source, x1=new, x2=UNMAPPED)
    assert machine.run(elsewhere, 9)[0].regs[3] == 1
    rewriting = image_state(source, x1=new, x2=BASE + 8)
    s, steps = machine.run(rewriting, 9)
    assert steps == 3 and s.regs[3] == 2
    for t in (elsewhere, rewriting):
        for stops in (None, frozenset({BASE + 8})):
            assert_runs_match(t, stops)


def test_a_branch_into_the_middle_of_a_compiled_stretch():
    loop = image_state("movi x0, #1\nmid: addi x1, x1, #1\nsubi x3, x3, #1\n"
                       "cbnz x3, mid\nhalt", x3=3)
    s, steps = machine.run(loop, 64)
    assert steps == 1 + 3 * 3 and s.pc == BASE + 16 and s.regs[1] == 3
    assert loop.mem.image.stretches[BASE][1] == 4
    assert loop.mem.image.stretches[BASE + 4][1] == 3
    for stops in (None, frozenset({BASE + 4}), frozenset({BASE + 8}),
                  frozenset({BASE + 16})):
        assert_runs_match(loop, stops, range(14))


TOP_CODE = MASK64 + 1 - 2 * WORD  # two words that end at the top of memory


@pytest.mark.parametrize("base", [BASE, TOP_CODE])
def test_a_stretch_that_ends_at_the_image_s_last_word(base):
    # no stopper: the stretch stops at the image's end, and what lies
    # past it is read from the state's own bytes
    ends = image_state("movi x0, #1\naddi x0, x0, #1", base)
    past = (base + 2 * WORD) & MASK64
    assert ends.mem.image.stretches == {}
    s, steps = machine.run(ends, 8)
    assert steps == 2 and s.pc == past and s.regs[0] == 2
    assert ends.mem.image.stretches[base][1] == 2
    word = encode_instruction(Instruction("movi", rd=5, imm=9))
    more = ends._replace(mem=ends.mem.write(past, word, WORD))
    s, steps = machine.run(more, 8)
    assert steps == 3 and s.regs[5] == 9
    for t in (ends, more):
        assert_runs_match(t, None)
        assert_runs_match(t, frozenset({past}))


def test_a_mulnd_right_after_a_stretch():
    fork = image_state("movi x1, #3\naddi x2, x1, #1\nmulnd x3, x1, x2\n"
                       "movi x4, #1\nhalt")
    s, steps = machine.run(fork, 8)
    assert steps == 2 and s.pc == BASE + 8 and len(machine.successors(s)) == 2
    assert machine.run(s, 8) == (s, 0)
    for t in [fork] + machine.successors(s):
        assert_runs_match(t, None)
        assert_runs_match(t, frozenset({BASE + 4}))


# ---------------------------------------------------------------------------
# the frozen memory

class RefMem:
    """Immutable sparse byte store. Unwritten bytes read as zero and zero
    bytes are never stored, so equal contents mean equal objects' dicts."""

    __slots__ = ("_d", "_hash")

    def __init__(self, entries: Optional[dict] = None):
        self._d = dict(entries) if entries else {}
        self._hash: Optional[int] = None

    @classmethod
    def _adopt(cls, d: dict) -> "RefMem":
        """A RefMem over a dict no one else holds, without copying it."""
        m = cls.__new__(cls)
        m._d, m._hash = d, None
        return m

    def get(self, addr: int) -> int:
        return self._d.get(addr & MASK64, 0)

    def read(self, addr: int, size: int) -> int:
        value = 0
        for k in range(size):
            value |= self._d.get((addr + k) & MASK64, 0) << (8 * k)
        return value

    def write(self, addr: int, value: int, size: int) -> "RefMem":
        d = dict(self._d)
        for k in range(size):
            a = (addr + k) & MASK64
            byte = (value >> (8 * k)) & 0xFF
            if byte:
                d[a] = byte
            else:
                d.pop(a, None)
        return RefMem._adopt(d)

    def write_bytes(self, addr: int, data: bytes) -> "RefMem":
        return self.write_cells(enumerate(data, addr))

    def write_cells(self, cells) -> "RefMem":
        """Write one byte per (addr, value) pair, in order, in one copy."""
        d = dict(self._d)
        for addr, value in cells:
            a = addr & MASK64
            byte = value & 0xFF
            if byte:
                d[a] = byte
            else:
                d.pop(a, None)
        return RefMem._adopt(d)

    def addresses(self) -> Iterator[int]:
        return iter(self._d)

    def items(self):
        return self._d.items()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RefMem) and self._d == other._d

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def __len__(self) -> int:
        return len(self._d)

    def __repr__(self) -> str:
        return f"Mem({len(self._d)} bytes set)"


def ref_mask_mem(mem: RefMem, mem_clear: set) -> RefMem:
    return RefMem._adopt({a: v for a, v in mem.items()
                          if a not in mem_clear})


def ref_mask_labels(s: MachineState, labels: frozenset) -> MachineState:
    """Overwrite the given labels with canonical zero values. Two states
    have equal public parts iff masking the private labels makes them
    equal. What no label masks is shared with s, not copied."""
    regs, pc, fn, fz, events = s.regs, s.pc, s.flag_n, s.flag_z, s.events
    mem = s.mem
    mem_clear = set()
    for label in labels:
        if label.kind == "reg":
            regs = regs[:label.arg] + (0,) + regs[label.arg + 1:]
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
        mem = mem.write_cells((a, 0) for a in mem_clear)
    return machine._make(regs, pc, fn, fz, mem, events)


# ---------------------------------------------------------------------------
# memory diffs

TOP = (1 << 64) - 32  # an image there ends at the top of memory
# few byte values, so that writes often put back the image's own byte
byte_values = st.sampled_from([0, 0, 1, 2, 0xFF])


@st.composite
def images(draw) -> tuple:
    base = draw(st.sampled_from([0, BASE, TOP]))
    data = bytes(draw(st.lists(byte_values, max_size=32)))
    return base, data


def mem_ops(base: int, size: int):
    """Writes, byte lists, cell lists and masks at addresses in, around
    and far from the image [base, base + size)."""
    addrs = st.one_of(st.integers(base - 6, base + size + 6),
                      st.sampled_from([0, 1, BASE, MASK64, MASK64 - 2]))
    values = st.one_of(byte_values, st.integers(0, MASK64),
                       st.integers(-(1 << 70), 1 << 70))
    return st.lists(st.one_of(
        st.tuples(st.just("write"), addrs, values, st.sampled_from([1, 4, 8])),
        st.tuples(st.just("bytes"), addrs,
                  st.lists(byte_values, max_size=6).map(bytes)),
        st.tuples(st.just("cells"),
                  st.lists(st.tuples(addrs, st.integers(0, 0x1FF)),
                           max_size=6)),
        st.tuples(st.just("mask"), st.sets(addrs, max_size=6))),
        max_size=10)


def apply_op(mem, op):
    kind, *args = op
    if kind == "write":
        return mem.write(*args)
    if kind == "bytes":
        return mem.write_bytes(*args)
    if kind == "cells":
        return mem.write_cells(args[0])
    clear = {a & MASK64 for a in args[0]}
    if isinstance(mem, RefMem):
        return ref_mask_mem(mem, clear)
    return mem.write_cells((a, 0) for a in clear)


def assert_same_mem(new: Mem, ref: RefMem, probes) -> None:
    assert dict(new.items()) == dict(ref.items())
    assert set(new.addresses()) == set(ref.addresses())
    assert len(new) == len(ref) and repr(new) == repr(ref)
    for a in probes:
        assert new.get(a) == ref.get(a)
        for size in (1, 4, 8):
            assert new.read(a, size) == ref.read(a, size)


@given(st.data(), images())
@settings(max_examples=300, deadline=None)
def test_mem_over_an_image_matches_the_frozen_store(data, image):
    base, code = image
    ops = data.draw(mem_ops(base, len(code)))
    shared = Image(base, code)
    # the same contents over the image, over an equal copy of it, and
    # over no image at all
    mems = [shared.mem, Image(base, code).mem,
            Mem().write_bytes(base, code)]
    ref = RefMem().write_bytes(base, code)
    probes = sorted({base - 1, base, base + len(code) - 1, base + len(code),
                     0, MASK64, MASK64 - 3} | set(ref.addresses()))
    history = [(mems[0], ref)]
    for op in ops:
        mems = [apply_op(m, op) for m in mems]
        ref = apply_op(ref, op)
        for m in mems:
            assert_same_mem(m, ref, probes)
            assert m == mems[0] and hash(m) == hash(mems[0])
            assert m == Mem(dict(ref.items()))
            assert hash(m) == hash(Mem(dict(ref.items())))
        history.append((mems[0], ref))
    for m0, r0 in history:
        for m1, r1 in history:
            assert (m0 == m1) == (r0 == r1)
            if r0 == r1:
                assert hash(m0) == hash(m1)


def test_mems_that_differ_in_small_bytes_hash_apart():
    # summing plain tuple hashes gives only 141 distinct values for these
    # 1,296 contents, and dicts keyed by such states slow to a crawl
    cells = (10, 11, 20, 21)
    mems = [Image(0x1000, b"\x01\x02").mem.write_cells(zip(cells, v))
            for v in itertools.product(range(1, 7), repeat=4)]
    assert len(set(map(hash, mems))) == len(mems)
