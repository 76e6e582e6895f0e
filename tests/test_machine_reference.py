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
event, a store over executed code and a rewritten loop.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from relhoare import asm, machine
from relhoare.machine import (
    EVENTS, FLAG_N, FLAG_Z, LOAD_SIZES, MASK64, OPCODES, PC, STORE_SIZES,
    WORD, Instruction, MachineState, Mem, branch_event,
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
        for a, b in pairs:
            want = ref_agrees_outside(a, b, labels)
            assert machine.agrees_outside(a, b, labels) == want
            assert machine.agrees_outside(b, a, labels) == want


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
