"""Acceptance gate: one test per shipped claim, each printing PASS/FAIL.

Each test exercises one headline behaviour end to end, at the stated
scale and within the stated time budget. The conftest hook prints an
``[acceptance]`` line per test so a plain ``pytest tests/test_acceptance.py``
run reads as a checklist.
"""

import os
import subprocess
import sys
import time

import pytest

from relhoare import asm, equiv, finsys, kernel, machine, specfile
from relhoare.cli import main as cli_main
from relhoare.kernel import Enumeration, PairEnumeration, PairProperty, prop
from relhoare.machine import (Instruction, decode_word, encode_instruction,
                              reg_label, zeroed_state)

from conftest import CORPUS, ROOT, load_problem

ANY = kernel.FrameFn(lambda s, t: True, description="anything")
ANY2 = kernel.product_frame(ANY, ANY)


def elapsed_under(t0: float, limit: float, label: str) -> None:
    dt = time.perf_counter() - t0
    assert dt < limit, f"{label} took {dt:.1f}s, budget {limit}s"


def boot(name: str, base: int = 0x1000, **regs) -> machine.MachineState:
    program = asm.assemble((CORPUS / name).read_text())
    s = asm.load_program(zeroed_state(), program, base)
    for k, v in regs.items():
        s = s.with_reg(int(k[1:]), v)
    return s


# 1. ----------------------------------------------------------------------

def test_criterion_01_metatheory_suite_10000_trials():
    t0 = time.perf_counter()
    report = finsys.run_soundness_suite(seed=42, trials=10000)
    assert report.passed
    assert not report.violations
    assert set(report.rules_tested) == {name for name, _ in finsys._CHECKS}
    assert len(set(report.rules_tested)) == 23
    elapsed_under(t0, 60.0, "soundness suite")


# 2. ----------------------------------------------------------------------

def test_criterion_02_exact_step_reach_within_plain_reach():
    t0 = time.perf_counter()
    targets = [frozenset(q for q in range(3) if mask >> q & 1)
               for mask in range(8)]
    checked = 0
    for g in finsys.all_systems(3):
        for q in targets:
            ev = finsys.exact_eventually_set(g, q)
            for n in range(4):
                assert finsys.exact_eventually_n_set(g, n, q) <= ev
                checked += 1
    assert checked == 512 * 8 * 4
    elapsed_under(t0, 5.0, "exhaustive containment")


# 3. ----------------------------------------------------------------------

def test_criterion_03_product_graph_misses_what_split_counts_prove():
    g = finsys.finsys(2, {(0, 1)})
    product = finsys.product_relation_system(g)
    q_pair = finsys.pair_index(g, 0, 1)
    start = finsys.pair_index(g, 0, 0)
    assert start not in finsys.exact_eventually_set(product, {q_pair})
    v = kernel.check_ensures2(
        g.oracle(), PairEnumeration(((0, 0),)),
        (0,), (1,),
        PairProperty(lambda a, b: (a, b) == (0, 1), "at (0, 1)"), ANY2)
    assert v.is_proven


# 4. ----------------------------------------------------------------------

def test_criterion_04_conjunction_needs_matching_step_counts():
    t0 = time.perf_counter()
    base = 0x1000
    s = boot("count_to_three.masm", base, x0=1)
    enum = Enumeration((s,))
    sys_ = machine.oracle()
    q1 = prop(lambda t: t.pc == base + 4 and t.reg(0) == 2, "x0 = 2")
    q2 = prop(lambda t: t.pc == base + 4 and t.reg(0) == 3, "x0 = 3")
    both = kernel.prop_and(q1, q2)
    assert kernel.check_ensures(sys_, enum, q1, ANY, budget=64).is_proven
    assert kernel.check_ensures(sys_, enum, q2, ANY, budget=64).is_proven
    assert kernel.check_ensures(sys_, enum, both, ANY, budget=64).is_refuted
    j1 = kernel.prove_ensures_n(sys_, enum, kernel.StepFn.constant(1), q1, ANY)
    j2 = kernel.prove_ensures_n(sys_, enum, kernel.StepFn.constant(4), q2, ANY)
    with pytest.raises(kernel.SideConditionFailed):
        kernel.apply_rule("conj", (j1, j2))
    elapsed_under(t0, 1.0, "conjunction repair")


# 5. ----------------------------------------------------------------------

def test_criterion_05_leaky_compare_refuted_with_exact_traces(capsys):
    t0 = time.perf_counter()
    code = cli_main(["check", str(CORPUS / "compare_ct.spec")])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0] == "VERDICT: Refuted"
    traces = [l.split(":", 1)[1].strip() for l in out.splitlines()
              if l.strip().startswith(("left:", "right:"))]
    assert traces == [
        "[branch false, load 10,4, load 20,4, branch false, branch false]",
        "[branch false, load 10,4, load 20,4, branch true]",
    ]
    elapsed_under(t0, 1.0, "leaky compare")


# 6. ----------------------------------------------------------------------

def test_criterion_06_constant_time_pairwise_and_witness_agree(capsys):
    t0 = time.perf_counter()
    pairwise = cli_main(["check", str(CORPUS / "compare_constant_ct.spec")])
    first_pairwise = capsys.readouterr().out.splitlines()[0]
    witness = cli_main(["check",
                        str(CORPUS / "compare_constant_ct_unary.spec")])
    first_witness = capsys.readouterr().out.splitlines()[0]
    assert first_pairwise == "VERDICT: Proven"
    assert first_witness == "VERDICT: Proven"
    assert pairwise == witness == 0
    elapsed_under(t0, 10.0, "constant-time positive")


# 7. ----------------------------------------------------------------------

def test_criterion_07_forking_multiply_two_successors_exact_steps():
    t0 = time.perf_counter()
    s = boot("mulnd_square.masm", x1=3)
    assert len(machine.oracle().successors(s)) == 2
    problem = load_problem("mulnd_square.spec")
    enum, post, frame = problem.unary_parts()
    v = kernel.check_ensures(machine.oracle(), enum, post, frame,
                             problem.spec.budget)
    assert v.is_proven
    vn = kernel.check_ensures_n(machine.oracle(), enum,
                                kernel.StepFn.auto(), post, frame)
    assert vn.is_proven
    assert set(vn.stats["steps"]) == {3}
    elapsed_under(t0, 1.0, "forking multiply")


# 8. ----------------------------------------------------------------------

def test_criterion_08_step_synthesis_needs_determinism():
    chain = finsys.finsys(3, {(0, 1), (1, 2)}).oracle()
    at2 = prop(lambda s: s == 2, "at 2")
    j = kernel.prove_ensures(chain, Enumeration((0, 1)), at2, ANY, budget=8)
    jn = kernel.convert(j, "synthesize_steps")
    assert jn.form == "ensures_n"
    assert kernel.recheck(jn).is_proven

    forked = finsys.finsys(4, {(0, 1), (0, 2), (2, 3)}).oracle()
    ends = prop(lambda s: s in (1, 3), "at 1 or 3")
    j2 = kernel.prove_ensures(forked, Enumeration((0,)), ends, ANY, budget=8)
    with pytest.raises(kernel.NotDeterministic):
        kernel.convert(j2, "synthesize_steps")
    for n in range(9):
        assert kernel.check_ensures_n(
            forked, Enumeration((0,)), kernel.StepFn.constant(n), ends,
            ANY).is_refuted


# 9. ----------------------------------------------------------------------

def test_criterion_09_equivalence_transfers_correctness():
    t0 = time.perf_counter()
    e = equiv.check_equiv(load_problem("compare_equiv.spec"))
    assert isinstance(e, equiv.EquivJudgment)

    problem = load_problem("compare_correct.spec")
    enum, post, frame = problem.unary_parts()
    correctness = kernel.prove_ensures(machine.oracle(), enum, post, frame,
                                       problem.spec.budget)
    transferred = equiv.transfer_correctness(correctness, e)
    assert transferred.form == "ensures_n"
    assert kernel.recheck(transferred).is_proven

    loopy = load_problem("compare_nostopper.spec")
    enum_l, post_l, frame_l = loopy.unary_parts()
    stuckless = kernel.prove_ensures(machine.oracle(), enum_l, post_l,
                                     frame_l, loopy.spec.budget)
    with pytest.raises(kernel.PromotionFailed):
        equiv.transfer_correctness(stuckless, e)
    elapsed_under(t0, 30.0, "equivalence transfer")


# 10. ---------------------------------------------------------------------

def test_criterion_10_promotion_counts_steps_to_the_stopper(capsys):
    assert cli_main(["check", str(CORPUS / "add_stopper.spec")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "VERDICT: Proven"

    s = boot("add_stopper.masm", x0=1, x1=2)
    wrong_n = kernel.check_eventually_n_at_pc(machine.oracle(), kernel.PcParts(
        Enumeration((s,)), x0=0x1000, stops=((0x1004, 2),)))
    assert wrong_n.is_refuted

    looping = boot("add_backjump.masm", x0=1, x1=2)
    never = kernel.check_eventually_n_at_pc(machine.oracle(), kernel.PcParts(
        Enumeration((looping,)), x0=0x1000, stops=((0x1004, 1),)))
    assert never.is_refuted


# 11. ---------------------------------------------------------------------

IMM12 = (0, 1, 7, 0x80, 0x7FF, 0xFFF)
IMM16 = (0, 1, 0xAB, 0x7FFF, 0x8000, 0xFFFF)
OFF20 = (-(1 << 19), -(1 << 19) + 1, -3, -1, 0, 1, 2, (1 << 19) - 1)
OFF16 = (-(1 << 15), -2, -1, 0, 1, 3, (1 << 15) - 1)
REGS = range(16)


def all_valid_instructions():
    for rd in REGS:
        for imm in IMM16:
            yield Instruction("movi", rd=rd, imm=imm)
        for off in OFF16:
            yield Instruction("cbz", rd=rd, off=off)
            yield Instruction("cbnz", rd=rd, off=off)
    for rd in REGS:
        for rn in REGS:
            yield Instruction("movr", rd=rd, rn=rn)
            for rm in REGS:
                for op in ("add", "sub", "mul", "umulh", "mulnd"):
                    yield Instruction(op, rd=rd, rn=rn, rm=rm)
            for imm in IMM12:
                for op in ("addi", "subi", "ldrb", "ldrw", "ldr",
                           "strb", "strw", "str"):
                    yield Instruction(op, rd=rd, rn=rn, imm=imm)
    for rn in REGS:
        yield Instruction("br", rn=rn)
        for imm in IMM12:
            yield Instruction("cmpi", rn=rn, imm=imm)
        for rm in REGS:
            yield Instruction("cmp", rn=rn, rm=rm)
    for off in OFF20:
        for op in ("b", "beq", "bne"):
            yield Instruction(op, off=off)


def test_criterion_11_every_encoding_round_trips():
    seen_ops = set()
    count = 0
    for ins in all_valid_instructions():
        word = encode_instruction(ins)
        assert 0 <= word < (1 << 32)
        assert decode_word(word) == ins, ins
        seen_ops.add(ins.op)
        count += 1
    assert seen_ops == set(machine.OPCODES)
    assert count > 30000
    # and every shipped program assembles cleanly, byte for byte stable
    for path in sorted(CORPUS.glob("*.masm")):
        program = asm.assemble(path.read_text())
        assert len(program.data) % 4 == 0
        assert asm.assemble(asm.disassemble(program.data)).data \
            == program.data


# 12. ---------------------------------------------------------------------

# a child that checks one spec, with any further check arguments, and
# then prints its own peak RSS in KiB: VmHWM where /proc has it, since
# Linux carries the ru_maxrss of the spawning process across exec
_PEAK_CHILD = """
import resource, sys
from relhoare.cli import main
code = main(["check", *sys.argv[1:]])
try:
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print("exit", code, "peak_kib", peak)
"""


def _wide_scale_point(tmp_path, name: str, masm: str, *args,
                      values: int = 12) -> tuple:
    """Check a corpus spec with both buffers widened to `values` byte
    values (3 * 144 * 144 = 62,208 instances at 12) in a child: its
    report lines and its peak RSS in MiB."""
    (tmp_path / masm).write_text((CORPUS / masm).read_text())
    text = (CORPUS / name).read_text()
    for cells in ("mem[10 .. 12)", "mem[20 .. 22)"):
        old = f"{cells} in 0..1\n"
        assert old in text
        text = text.replace(old, f"{cells} in 1..{values}\n")
    spec = tmp_path / name.replace(".spec", f"_wide{values}.spec")
    spec.write_text(text)
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", _PEAK_CHILD, str(spec),
                            *args],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path})
    elapsed_under(t0, 60.0, f"{name} scale point")
    lines = child.stdout.splitlines()
    assert child.returncode == 0, child.stderr
    _, code, _, peak_kib = lines[-1].split()
    assert code == "0"
    return lines, int(peak_kib) / 1024


def test_criterion_12_unary_scale_point_in_bounded_memory(tmp_path):
    lines, peak = _wide_scale_point(tmp_path, "compare_correct.spec",
                                    "compare.masm")
    assert lines[0] == "VERDICT: Proven"
    assert lines[1] == ("check: unary on compare_correct_wide12.spec, "
                        "62208 instance(s)")
    # neither the start states nor the reached frontiers are kept: about
    # 21 MiB; 79 MiB with every instance stored, 130 MiB with the
    # frontiers too
    assert peak < 26, f"peak {peak:.1f} MiB"


def test_criterion_12_the_unary_peak_does_not_grow_with_the_instances(
        tmp_path):
    lines, peak = _wide_scale_point(tmp_path, "compare_correct.spec",
                                    "compare.masm", "--enum-cap", "200000",
                                    values=16)
    assert lines[:2] == ["VERDICT: Proven", "check: unary on "
                         "compare_correct_wide16.spec, 196608 instance(s)"]
    _, peak12 = _wide_scale_point(tmp_path, "compare_correct.spec",
                                  "compare.masm")
    # about 21 MiB at both sizes
    assert abs(peak - peak12) < 2, f"peaks {peak:.1f} and {peak12:.1f} MiB"


# 13. ---------------------------------------------------------------------

def test_criterion_13_ct_scale_point_in_bounded_memory(tmp_path):
    # 1.29e9 public-equal pairs, which only a check that compares a
    # block's later lefts with one right ends
    lines, peak = _wide_scale_point(tmp_path, "compare_constant_ct.spec",
                                    "compare_constant.masm",
                                    "--enum-cap", "100000")
    assert lines[0] == "VERDICT: Proven"
    assert lines[1] == ("check: ct_relational on compare_constant_ct_wide12"
                        ".spec, 62208 instance(s)")
    assert "pairs: 1289945088 public-equal pair(s)" in lines
    # about 85 MiB with one record per start state and no finals kept;
    # 141 MiB with every start state's finals kept, 157 MiB with a
    # projection cache and instance cells, 182 MiB with per-state tables
    # of rel keys and checks
    assert peak < 100, f"peak {peak:.1f} MiB"
