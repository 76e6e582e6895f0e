"""Machine model: decoding, stepping, flags, events and frame algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhoare import asm, machine
from relhoare.machine import (
    EVENTS, FLAG_N, FLAG_Z, MASK64, PC, Instruction, Label, MachineState,
    Mem, branch_event, decode_word, encode_instruction, mem_label, mem_range,
    reg_label, zeroed_state,
)

regs = st.integers(min_value=0, max_value=15)
u64 = st.integers(min_value=0, max_value=MASK64)


def boot(source: str, base: int = 0x1000, **regvals) -> machine.MachineState:
    s = asm.load_program(zeroed_state(), asm.assemble(source), base)
    for name, value in regvals.items():
        s = s.with_reg(int(name[1:]), value)
    return s


def run(s, n):
    for _ in range(n):
        succ = machine.successors(s)
        if not succ:
            return s
        s = succ[0]
    return s


# ---------------------------------------------------------------------------
# decode / encode

def test_zero_word_is_undecodable():
    assert decode_word(0) is None


def test_unknown_opcode_is_undecodable():
    assert decode_word(0xFF << 24) is None
    assert decode_word(0x0C << 24) is None  # gap between cmpi and b


def test_decode_rejects_nonzero_unused_fields():
    # movr only uses rd and rn; junk in rm or imm must not decode
    clean = machine.OPCODES["movr"] << 24 | 1 << 20 | 2 << 16
    assert decode_word(clean) == Instruction("movr", rd=1, rn=2)
    assert decode_word(clean | 1 << 12) is None
    assert decode_word(clean | 5) is None
    # cmp leaves rd clear
    cmp_clean = machine.OPCODES["cmp"] << 24 | 3 << 16 | 4 << 12
    assert decode_word(cmp_clean | 1 << 20) is None


@given(rd=regs, rn=regs, rm=regs)
def test_alu_round_trip(rd, rn, rm):
    for op in ("add", "sub", "mul", "umulh", "mulnd"):
        ins = Instruction(op, rd=rd, rn=rn, rm=rm)
        assert decode_word(encode_instruction(ins)) == ins


@given(rd=regs, imm=st.integers(min_value=0, max_value=0xFFFF))
def test_movi_round_trip(rd, imm):
    ins = Instruction("movi", rd=rd, imm=imm)
    assert decode_word(encode_instruction(ins)) == ins


@given(off=st.integers(min_value=-(1 << 19), max_value=(1 << 19) - 1))
def test_branch_offset_round_trip(off):
    for op in ("b", "beq", "bne"):
        ins = Instruction(op, off=off)
        assert decode_word(encode_instruction(ins)) == ins


@given(rd=regs, off=st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1))
def test_cb_round_trip(rd, off):
    for op in ("cbz", "cbnz"):
        ins = Instruction(op, rd=rd, off=off)
        assert decode_word(encode_instruction(ins)) == ins


# ---------------------------------------------------------------------------
# stepping and arithmetic

@given(a=u64, b=u64)
def test_add_wraps_mod_2_64(a, b):
    s = run(boot("add x2, x0, x1", x0=a, x1=b), 1)
    assert s.reg(2) == (a + b) & MASK64
    assert s.pc == 0x1004


@given(a=u64, b=u64)
def test_umulh_is_high_word(a, b):
    s = run(boot("umulh x2, x0, x1", x0=a, x1=b), 1)
    assert s.reg(2) == (a * b) >> 64


@given(a=u64, b=u64)
def test_mul_is_low_word(a, b):
    s = run(boot("mul x2, x0, x1", x0=a, x1=b), 1)
    assert s.reg(2) == (a * b) & MASK64


def test_pc_advances_by_four():
    s = boot("movi x0, #7\nmovi x1, #8")
    s1 = run(s, 1)
    assert s1.pc == s.pc + 4 and s1.reg(0) == 7


def test_only_compares_write_flags():
    s = run(boot("movi x0, #0\nadd x1, x0, x0\nsub x2, x0, x0"), 3)
    assert (s.flag_n, s.flag_z) == (0, 0)
    s = run(boot("cmpi x0, #0"), 1)
    assert (s.flag_n, s.flag_z) == (0, 1)
    s = run(boot("cmpi x0, #1"), 1)
    assert (s.flag_n, s.flag_z) == (1, 0)


@given(a=u64, b=u64)
def test_cmp_flags_match_subtraction(a, b):
    s = run(boot("cmp x0, x1", x0=a, x1=b), 1)
    diff = (a - b) & MASK64
    assert s.flag_z == (1 if diff == 0 else 0)
    assert s.flag_n == (diff >> 63)


def test_mulnd_forks_flag_n_zero_first():
    s = boot("mulnd x2, x0, x1", x0=3, x1=5)
    succ = machine.successors(s)
    assert len(succ) == 2
    assert [t.flag_n for t in succ] == [0, 1]
    assert all(t.reg(2) == 15 for t in succ)
    assert all(t.pc == s.pc + 4 for t in succ)


@given(word=st.integers(min_value=1, max_value=(1 << 32) - 1))
@settings(max_examples=200)
def test_non_mulnd_instructions_are_deterministic(word):
    ins = decode_word(word)
    s = zeroed_state()._replace(pc=0x1000,
                                mem=Mem().write(0x1000, word, 4))
    succ = machine.successors(s)
    if ins is None:
        assert succ == []
    elif ins.op == "mulnd":
        assert len(succ) == 2
    else:
        assert len(succ) <= 1  # br to a misaligned target still steps once


# ---------------------------------------------------------------------------
# stuck states and termination

def test_misaligned_pc_is_stuck():
    s = boot("movi x0, #1")._replace(pc=0x1002)
    assert machine.successors(s) == [] and machine.is_stuck(s)


def test_zero_word_is_a_stopper():
    s = run(boot("movi x0, #1\nhalt"), 5)
    assert s.pc == 0x1004 and machine.is_stuck(s)
    assert machine.is_terminated_at(s, 0x1004)
    assert not machine.is_terminated_at(s, 0x1000)


def test_unmapped_memory_reads_as_zero():
    s = zeroed_state()._replace(pc=0x4000)
    assert machine.is_stuck(s)  # fetch of implicit zero word


def test_is_aligned_at_checks_code_bytes():
    prog = asm.assemble("add x2, x0, x1\nhalt")
    s = asm.load_program(zeroed_state(), prog, 0x1000)
    assert machine.is_aligned_at(s, 0x1000, prog.data)
    assert not machine.is_aligned_at(s, 0x1004, prog.data)
    smashed = s.with_label(mem_label(0x1000), 0xFF)
    assert not machine.is_aligned_at(smashed, 0x1000, prog.data)


# ---------------------------------------------------------------------------
# branches and events

def test_branch_destination_arithmetic():
    # dest = pc + 4 + 4*off, both directions
    s = run(boot("b fwd\nhalt\nfwd: movi x0, #1"), 1)
    assert s.pc == 0x1008
    s2 = run(boot("back: addi x0, x0, #1\nb back"), 2)
    assert s2.pc == 0x1000


def test_all_control_flow_emits_branch_events():
    # taken and not-taken conditionals both show up in the trace
    s = run(boot("cmpi x0, #0\nbeq yes\nhalt\nyes: bne no\nhalt\nno: halt"), 4)
    assert [e.kind for e in s.events] == ["branch", "branch"]
    taken, not_taken = s.events
    assert machine.branch_taken(taken)
    assert not machine.branch_taken(not_taken)
    assert not_taken.b == not_taken.a + 4


def test_straight_line_code_emits_no_events():
    s = run(boot("movi x0, #9\nadd x1, x0, x0\ncmp x0, x1"), 3)
    assert s.events == ()


def test_load_store_events_carry_address_and_size():
    src = ("movi x1, #64\nstrb x0, [x1]\nstrw x0, [x1, #8]\n"
           "str x0, [x1, #16]\nldrb x2, [x1]\nldrw x3, [x1, #8]\n"
           "ldr x4, [x1, #16]")
    s = run(boot(src, x0=0x1122334455667788), 7)
    assert [(e.kind, e.a, e.b) for e in s.events] == [
        ("store", 64, 1), ("store", 72, 4), ("store", 80, 8),
        ("load", 64, 1), ("load", 72, 4), ("load", 80, 8)]
    assert s.reg(2) == 0x88
    assert s.reg(3) == 0x55667788
    assert s.reg(4) == 0x1122334455667788


@given(value=u64, addr=st.integers(min_value=0, max_value=1 << 20),
       size=st.sampled_from([1, 4, 8]))
def test_memory_is_little_endian(value, addr, size):
    m = Mem().write(addr, value, size)
    assert m.read(addr, size) == value & ((1 << (8 * size)) - 1)
    assert m.get(addr) == value & 0xFF


def test_memory_values_share_no_dict():
    entries = {0x10: 1, 0x11: 2}
    m = Mem(entries)
    entries[0x10] = 7
    entries[0x12] = 3
    assert dict(m.items()) == {0x10: 1, 0x11: 2}
    stored = m.write(0x11, 0, 1)
    cells = m.write_cells([(0x10, 9), (0x20, 4)])
    assert dict(stored.items()) == {0x10: 1}
    assert dict(cells.items()) == {0x10: 9, 0x11: 2, 0x20: 4}
    assert dict(m.items()) == {0x10: 1, 0x11: 2}
    assert m.write(0x30, 5, 1).write(0x31, 6, 1).read(0x30, 2) == 0x0605
    assert dict(m.items()) == {0x10: 1, 0x11: 2}


@given(st.data())
@settings(max_examples=120)
def test_events_are_append_only(data):
    words = data.draw(st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=1,
        max_size=6))
    mem = Mem()
    for i, w in enumerate(words):
        mem = mem.write(0x1000 + 4 * i, w, 4)
    s = zeroed_state()._replace(pc=0x1000, mem=mem)
    for _ in range(8):
        succ = machine.successors(s)
        if not succ:
            break
        t = succ[data.draw(st.integers(0, len(succ) - 1))]
        assert t.events[:len(s.events)] == s.events
        s = t


def test_projected_trace_keeps_addresses_and_taken_bits():
    s = run(boot("movi x1, #32\nldrw x2, [x1]\nb done\ndone: halt"), 4)
    assert machine.project_trace(s.events) == (
        ("load", 32, 4), ("branch", False))
    # a taken branch to the fallthrough address still counts as not taken
    assert machine.format_projected(machine.project_trace(s.events)) == \
        "[load 32,4, branch false]"


# ---------------------------------------------------------------------------
# the shared image and its step table

def _poisoned(s, pc):
    """Plant a marker step at pc in the table of s's image, so that a state
    stepped through the table is told from one whose bytes are decoded."""
    s.mem.image.steps[pc] = lambda state, nxt: ["from the table"]


def test_loaded_states_share_one_image_and_copy_only_what_they_write():
    s = boot("movi x0, #1\nmovi x1, #2\nhalt")
    t = s.with_label(mem_label(0x40), 7)
    assert t.mem.image is s.mem.image and len(t.mem) == len(s.mem) + 1
    assert t.mem.write(0x40, 0, 1) == s.mem
    assert hash(t.mem.write(0x40, 0, 1)) == hash(s.mem)


def test_a_store_into_the_image_steps_by_its_own_bytes():
    s = boot("movi x0, #1\nmovi x1, #2\nhalt")
    word = encode_instruction(Instruction("movi", rd=1, imm=9))
    rewritten = s._replace(mem=s.mem.write(0x1004, word, 4), pc=0x1004)
    sibling = s._replace(pc=0x1004)
    assert run(rewritten, 1).reg(1) == 9 and run(sibling, 1).reg(1) == 2
    _poisoned(s, 0x1004)
    assert machine.successors(sibling) == ["from the table"]
    assert run(rewritten, 1).reg(1) == 9
    # writing the old word back puts the state on the table again
    restored = rewritten.mem.write(0x1004, s.mem.read(0x1004, 4), 4)
    assert machine.successors(sibling._replace(mem=restored)) == \
        ["from the table"]


def test_a_store_outside_the_image_keeps_the_table_in_use():
    s = boot("movi x0, #1\nstr x0, [x2]\nhalt", x2=0x2000)
    stored = run(s, 2)
    assert stored.mem.read(0x2000, 8) == 1 and stored.pc == 0x1008
    assert machine.is_terminated_at(stored, 0x1008)
    _poisoned(s, 0x1008)
    assert machine.successors(stored) == ["from the table"]
    assert not machine.is_terminated_at(stored, 0x1008)


def test_a_fetch_outside_the_image_never_fills_its_table():
    s = boot("b out\nhalt\nout: halt")
    image = s.mem.image
    code = encode_instruction(Instruction("movi", rd=3, imm=5))
    away = s._replace(mem=s.mem.write(0x3000, code, 4), pc=0x3000)
    assert run(away, 1).reg(3) == 5
    assert machine.is_terminated_at(away._replace(pc=0x3004), 0x3004)
    assert machine.is_stuck(away._replace(pc=0x100000))
    assert all(image.lo <= pc < image.hi for pc in image.steps)
    assert run(s, 5).pc == 0x1008 and set(image.steps) == {0x1000, 0x1008}


# ---------------------------------------------------------------------------
# labels, deltas, frames

def test_label_readback_round_trip():
    s = zeroed_state()
    for label, value in ((reg_label(5), 77), (PC, 0x40), (FLAG_N, 1),
                         (FLAG_Z, 1), (mem_label(9), 0xAB)):
        assert s.with_label(label, value).read_label(label) == value
    assert s.read_label(EVENTS) == ()


def test_mem_range_is_half_open():
    assert mem_range(10, 13) == frozenset(
        {mem_label(10), mem_label(11), mem_label(12)})


def test_state_delta_names_exactly_what_changed():
    s = boot("movi x3, #5\nhalt")
    t = run(s, 1)
    assert machine.agrees_outside(s, t, frozenset({PC, reg_label(3)}))
    assert not machine.agrees_outside(s, t, frozenset({PC}))


@given(st.data())
@settings(max_examples=60)
def test_maychange_holds_iff_delta_is_within(data):
    labels = frozenset(
        data.draw(st.sets(st.sampled_from(
            [reg_label(0), reg_label(3), PC, FLAG_Z, mem_label(64)]),
            max_size=4)))
    s = zeroed_state()
    t = s
    for label in sorted(labels):
        t = t.with_label(label, 1 if label is not EVENTS else ())
    frame = machine.maychange(labels)
    assert frame(s, t)
    outside = t.with_reg(9, 42)
    assert frame(s, outside) == (reg_label(9) in labels)


def test_maychange_rejects_event_changes_unless_listed():
    s = boot("b next\nnext: halt")
    t = run(s, 1)
    assert not machine.maychange({PC})(s, t)
    assert machine.maychange({PC, EVENTS})(s, t)


def test_mask_labels_blanks_private_state():
    s = zeroed_state().with_reg(2, 99).with_label(mem_label(7), 0xEE)
    masked = machine.mask_labels(s, frozenset({reg_label(2), mem_label(7)}))
    assert masked.reg(2) == 0 and masked.read_label(mem_label(7)) == 0
    assert machine.mask_labels(s, frozenset()) == s


def test_mask_labels_clears_private_cells_among_many_stored_bytes():
    mem = Mem({a: a % 255 + 1 for a in range(0x100, 0x500)})
    s = zeroed_state()._replace(mem=mem).with_reg(2, 99)
    cells = {0x100, 0x17F, 0x2A0, 0x4FF, 0x9000}  # 0x9000 holds nothing
    private = frozenset({mem_label(a) for a in cells} | {reg_label(2)})
    masked = machine.mask_labels(s, private)
    assert dict(masked.mem.items()) == \
        {a: v for a, v in mem.items() if a not in cells}
    assert masked == zeroed_state()._replace(mem=masked.mem)


def test_label_ordering_and_formatting():
    labels = [EVENTS, mem_label(3), reg_label(1), PC, FLAG_N]
    assert machine.format_labels(labels) == \
        "{x1, pc, flag_n, mem[0x3], events}"
    # frozensets of labels keep their iteration order
    assert all(hash(l) == hash((l.kind, l.arg)) for l in labels)


# ---------------------------------------------------------------------------
# self-modification

def test_store_over_next_instruction_changes_behavior():
    # overwrite the upcoming movi with zeros: execution must go stuck
    src = "movi x1, #4104\nstr x0, [x1]\nmovi x2, #1\nhalt"
    s = run(boot(src, x0=0), 4)
    assert s.pc == 0x1008 and machine.is_stuck(s)
    assert s.reg(2) == 0


def test_loop_runs_the_word_a_store_wrote_over_code_it_already_ran():
    # the first pass runs `movi x2, #1` at top, then stores a new word over
    # it; the second pass must run the new word, not the step compiled for
    # the old one
    src = "top: movi x2, #1\ncbnz x3, done\nmovi x3, #1\nstrw x4, [x6]\n" \
          "b top\ndone: halt"
    new_word = encode_instruction(Instruction("movi", rd=2, imm=7))
    s = boot(src, x4=new_word, x6=0x1000)
    first = run(s, 1)
    assert first.reg(2) == 1
    final = run(s, 20)
    assert machine.is_terminated_at(final, 0x1014)
    assert final.reg(2) == 7 and final.mem.read(0x1000, 4) == new_word
    assert [(e.kind, e.a) for e in final.events] == [
        ("branch", 0x1004), ("store", 0x1000), ("branch", 0x1010),
        ("branch", 0x1004)]


@given(value=st.integers(min_value=-(1 << 70), max_value=1 << 70),
       flag=st.integers(min_value=-3, max_value=3))
def test_every_public_state_builder_masks(value, flag):
    events = [branch_event(0, 8)]
    s = MachineState(regs=[value] * 16, pc=value, flag_n=flag, flag_z=flag,
                     events=events)
    assert s.regs == (value & MASK64,) * 16 and s.pc == value & MASK64
    assert (s.flag_n, s.flag_z) == (int(bool(flag)),) * 2
    built = [
        s, s.with_reg(3, value), s.with_label(reg_label(3), value),
        s.with_label(PC, value), s.with_label(FLAG_N, flag),
        s.with_label(FLAG_Z, flag), s.with_label(EVENTS, events),
        s.with_label(mem_label(value), value), s._replace(pc=value),
        s._replace(events=events),
        machine.mask_labels(s, frozenset({reg_label(1), FLAG_N, EVENTS})),
    ]
    for t in built:
        assert type(t.regs) is tuple and len(t.regs) == 16
        assert type(t.events) is tuple
        assert all(0 <= v <= MASK64 for v in t.regs)
        assert 0 <= t.pc <= MASK64 and t.flag_n in (0, 1) and t.flag_z in (0, 1)
    assert s.with_reg(3, value).reg(3) == value & MASK64
    assert s._replace(pc=value + 4).pc == (value + 4) & MASK64
    assert s.with_label(FLAG_Z, flag).flag_z == int(bool(flag))
