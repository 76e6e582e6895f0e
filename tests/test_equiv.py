"""Program equivalence: checking, composition, and correctness transfer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhoare import asm, ct, equiv, kernel, machine, specfile
from relhoare.equiv import AnchorMismatch, EquivJudgment, EquivRel
from relhoare.machine import EVENTS, PC, reg_label, zeroed_state

from conftest import (
    CORPUS, SMALL_LABELS, SMALL_STATE_VALUES, load_problem, small_state,
)

X3 = reg_label(3)


def boot(source: str, base: int):
    return asm.load_program(zeroed_state(), asm.assemble(source), base),\
        asm.assemble(source)


def unary_correctness(problem: specfile.Problem) -> kernel.Judgment:
    enum = kernel.Enumeration(tuple(i.state0 for i in problem.instances),
                              description="spec instances")
    post = kernel.per_state(
        {i.state0: problem.post_property(0, i) for i in problem.instances},
        "declared postcondition")
    return kernel.prove_ensures(machine.oracle(), enum, post,
                                problem.frame(0), problem.spec.budget)


# ---------------------------------------------------------------------------
# relations

def test_kept_equal_compares_exactly_the_kept_labels():
    rel = EquivRel.kept_equal({X3})
    a = zeroed_state().with_reg(3, 9).with_reg(4, 1)
    b = zeroed_state().with_reg(3, 9).with_reg(4, 2)
    assert rel.related(a, b)
    assert not rel.related(a, b.with_reg(3, 8))


@given(values=st.lists(SMALL_STATE_VALUES, max_size=6),
       kept=st.frozensets(st.sampled_from(SMALL_LABELS + (PC, EVENTS))))
@settings(max_examples=150)
def test_kept_equal_matches_reading_every_kept_label(values, kept):
    states = [small_state(v) for v in values]
    rel = EquivRel.kept_equal(kept)
    for a in states:
        for b in states:
            assert rel.related(a, b) == all(
                a.read_label(l) == b.read_label(l) for l in kept)
    # a state built again from the same values gets the same key
    for a, v in zip(states, values):
        again = small_state(v)
        assert again is not a and rel.key(again) == rel.key(a)
        assert rel.related(a, again)


def test_general_relations_wrap_a_predicate():
    rel = EquivRel.general(lambda a, b: a.reg(0) <= b.reg(0), "le on x0")
    assert rel.kept is None
    assert rel.related(zeroed_state(), zeroed_state().with_reg(0, 5))


def test_registered_predicates_reach_spec_files(tmp_path):
    equiv.register_predicate("x0_le", lambda a, b: a.reg(0) <= b.reg(0))
    (tmp_path / "p.masm").write_text("halt\n")
    text = (
        "[check]\nkind = equiv\nbudget = 8\n\n"
        "[program0]\nfile = p.masm\nbase = 0x1000\n\n"
        "[program1]\nfile = p.masm\nbase = 0x1000\n\n"
        "[post0]\nterminated(base0)\n\n[post1]\nterminated(base1)\n\n"
        "[frame0]\nmaychange = pc\n\n[frame1]\nmaychange = pc\n\n"
        "[equiv_in]\npredicate = x0_le\n\n[equiv_out]\npredicate = x0_le\n")
    problem = specfile.build_problem(specfile.parse_spec(text), tmp_path)
    result = equiv.check_equiv(problem)
    assert isinstance(result, EquivJudgment)
    assert result.equiv_in.description == "x0_le"


# ---------------------------------------------------------------------------
# whole-program checking via spec files

def test_check_equiv_proves_the_rewrite_pair():
    result = equiv.check_equiv(load_problem("compare_equiv.spec"))
    assert isinstance(result, EquivJudgment)
    assert len(result.judgment.parts.pairs.pairs) == 48
    entry0, exit0, entry1, exit1 = result.anchors
    assert (entry0, entry1) == (0x1000, 0x1000)
    assert exit0 is None  # the left program halts at two addresses
    assert exit1 == 0x1044
    assert kernel.recheck(result.judgment).is_proven


def test_check_equiv_refutes_on_an_overreaching_kept_set():
    # keep x5 as well: the rewrite parks a borrow mask there, the
    # original never touches it
    text = (CORPUS / "compare_equiv.spec").read_text()
    assert "keep = x6" in text
    problem = specfile.build_problem(
        specfile.parse_spec(text.replace("keep = x6", "keep = x5, x6")),
        CORPUS)
    v = equiv.check_equiv(problem)
    assert isinstance(v, kernel.Verdict) and v.is_refuted


def test_a_warm_key_cache_does_not_excuse_an_unrelated_pair():
    # the judgment keeps the equiv_in relation its check built the pairs
    # with, its keys read for every start state; a hand-built pair that
    # it does not relate must still be refused by pre2
    problem = load_problem("compare_equiv.spec")
    ein = equiv.check_equiv(problem).equiv_in
    a, b = next((a, b) for a in problem.states(0) for b in problem.states(1)
                if any(a.read_label(l) != b.read_label(l) for l in ein.kept))
    enum = kernel.PairEnumeration(
        ((a, b),), kernel.PairProperty(ein.related, ein.description))
    steps = kernel.StepFn.constant(0)
    with pytest.raises(kernel.SchemaMismatch):
        kernel.check_ensures2(machine.oracle(), enum, steps, steps,
                              kernel.PairProperty(lambda x, y: True, "true"),
                              kernel.product_frame(kernel.ANYTHING,
                                                   kernel.ANYTHING))


# ---------------------------------------------------------------------------
# sequential composition (same program pair, consecutive sections)

def constant_starts():
    prog = asm.assemble((CORPUS / "compare_constant.masm").read_text())
    starts = []
    for n in (1, 2):
        for b10 in (0, 1):
            for b20 in (0, 1):
                s = asm.load_program(zeroed_state(), prog, 0x1000)
                s = s.with_reg(0, n).with_reg(1, 10).with_reg(2, 20)
                s = s.with_label(machine.mem_label(10), b10)
                s = s.with_label(machine.mem_label(20), b20)
                starts.append((n, s))
    return prog, starts


SAME = kernel.PairProperty(lambda a, b: a == b, "identical states")
WIDE_FRAME = machine.maychange(
    {PC, EVENTS, machine.FLAG_N, machine.FLAG_Z} |
    {reg_label(i) for i in (0, 3, 4, 5, 6, 7, 8, 9)})
KEPT_MID = frozenset({PC, reg_label(0), reg_label(1), reg_label(2)})


def equivalence_over(prog, pairs, steps, anchors) -> EquivJudgment:
    enum = kernel.PairEnumeration(tuple(pairs), SAME)
    j = kernel.prove_ensures2(
        machine.oracle(), enum, steps, steps, SAME,
        kernel.product_frame(WIDE_FRAME, WIDE_FRAME))
    return EquivJudgment((prog, prog), (0x1000, 0x1000),
                         EquivRel.kept_equal(KEPT_MID),
                         EquivRel.kept_equal(KEPT_MID), anchors, j)


def test_sequential_composition_adds_step_counts():
    prog, starts = constant_starts()
    loop_entry = 0x1000 + 16
    pairs = tuple((s, s) for _, s in starts)
    e1 = equivalence_over(prog, pairs, tuple(4 for _ in starts),
                          (0x1000, loop_entry, 0x1000, loop_entry))
    mids = tuple(pair for finals in kernel._reached(e1.judgment)
                 for pair in finals)
    assert all(m.pc == loop_entry for m, _ in mids)
    e2 = equivalence_over(prog, mids,
                          tuple(10 * n + 3 for n, _ in starts),
                          (loop_entry, 0x1044, loop_entry, 0x1044))
    whole = equiv.compose_sequential(e1, e2)
    assert whole.anchors == (0x1000, 0x1044, 0x1000, 0x1044)
    assert whole.judgment.parts.steps0 == tuple(10 * n + 7
                                                for n, _ in starts)
    assert kernel.recheck(whole.judgment).is_proven
    assert kernel.audit_replay(whole.judgment)
    # and it matches checking the whole program in one go
    direct = kernel.check_ensures2(
        machine.oracle(), kernel.PairEnumeration(pairs, SAME),
        tuple(10 * n + 7 for n, _ in starts),
        tuple(10 * n + 7 for n, _ in starts), SAME,
        kernel.product_frame(WIDE_FRAME, WIDE_FRAME))
    assert direct.is_proven


def test_sequential_composition_rejects_bad_seams():
    prog, starts = constant_starts()
    pairs = tuple((s, s) for _, s in starts)
    e1 = equivalence_over(prog, pairs, tuple(4 for _ in starts),
                          (0x1000, 0x1010, 0x1000, 0x1010))
    mids = tuple(pair for finals in kernel._reached(e1.judgment)
                 for pair in finals)
    e2 = equivalence_over(prog, mids, tuple(10 * n + 3 for n, _ in starts),
                          (0x1014, 0x1044, 0x1014, 0x1044))
    with pytest.raises(AnchorMismatch):
        equiv.compose_sequential(e1, e2)  # entry anchor off by one word
    e2_far = equivalence_over(prog, mids,
                              tuple(10 * n + 3 for n, _ in starts),
                              (0x1010, 0x1044, 0x1010, 0x1044))
    object.__setattr__(e2_far, "equiv_in",
                       EquivRel.kept_equal(KEPT_MID | {reg_label(11)}))
    with pytest.raises(kernel.SideConditionFailed):
        equiv.compose_sequential(e1, e2_far)  # relies on an unkept label


# ---------------------------------------------------------------------------
# transitive composition (three programs, shared middle)

C0 = "movi x3, #2\nadd x3, x3, x3\nhalt\n"
C1 = "movi x3, #4\nmovr x3, x3\nhalt\n"
C2 = "movi x3, #4\naddi x3, x3, #0\nhalt\n"

SMALL_FRAME = machine.maychange({PC, X3})
DONE4 = kernel.PairProperty(
    lambda a, b: a.reg(3) == b.reg(3) == 4 and machine.is_stuck(a)
    and machine.is_stuck(b), "both stuck with x3 = 4")


def link(src0, base0, src1, base1, ein=None) -> EquivJudgment:
    s0, p0 = boot(src0, base0)
    s1, p1 = boot(src1, base1)
    enum = kernel.PairEnumeration(((s0, s1),))
    j = kernel.prove_ensures2(
        machine.oracle(), enum, (2,), (2,), DONE4,
        kernel.product_frame(SMALL_FRAME, SMALL_FRAME))
    return EquivJudgment(
        (p0, p1), (base0, base1),
        ein or EquivRel.kept_equal(frozenset()),
        EquivRel.kept_equal({X3}),
        (base0, base0 + 8, base1, base1 + 8), j)


def test_transitive_composition_joins_on_the_middle_program():
    e1 = link(C0, 0x1000, C1, 0x2000)
    e2 = link(C1, 0x2000, C2, 0x3000)
    e = equiv.compose_transitive(e1, e2)
    assert e.bases == (0x1000, 0x3000)
    assert e.anchors == (0x1000, 0x1008, 0x3000, 0x3008)
    assert e.equiv_out.kept == {X3}
    assert kernel.recheck(e.judgment).is_proven
    assert kernel.audit_replay(e.judgment)
    (pair,) = e.judgment.parts.pairs.pairs
    assert pair[0].pc == 0x1000 and pair[1].pc == 0x3000


def test_transitive_composition_through_the_identity():
    e_id = link(C1, 0x2000, C1, 0x2000)
    e2 = link(C1, 0x2000, C2, 0x3000)
    e = equiv.compose_transitive(e_id, e2)
    assert e.bases == (0x2000, 0x3000)
    assert kernel.recheck(e.judgment).is_proven


def test_transitive_composition_rejects_a_wrong_middle():
    e1 = link(C0, 0x1000, C1, 0x2000)
    with pytest.raises(AnchorMismatch):
        equiv.compose_transitive(e1, e1)  # middle C1 vs left C0


def test_general_relations_need_a_middle_witness():
    always = EquivRel.general(lambda a, b: True, "anything goes")
    e1 = link(C0, 0x1000, C1, 0x2000, ein=always)
    e2 = link(C1, 0x2000, C2, 0x3000, ein=always)
    with pytest.raises(kernel.FactorizationWitnessMissing):
        equiv.compose_transitive(e1, e2)
    mid = e2.judgment.parts.pairs.pairs[0][0]
    e = equiv.compose_transitive(e1, e2,
                                 middle_witness=lambda a, c: mid)
    assert e.equiv_in.kept is None  # stays general
    assert kernel.recheck(e.judgment).is_proven
    bogus = boot(C1, 0x2000)[0].with_reg(9, 1)
    with pytest.raises(kernel.SideConditionFailed):
        equiv.compose_transitive(e1, e2,
                                 middle_witness=lambda a, c: bogus)


# ---------------------------------------------------------------------------
# correctness transfer across an equivalence

def test_transfer_carries_correctness_to_the_rewrite():
    correctness = unary_correctness(load_problem("compare_correct.spec"))
    e = equiv.check_equiv(load_problem("compare_equiv.spec"))
    assert isinstance(e, EquivJudgment)
    transferred = equiv.transfer_correctness(correctness, e)
    assert transferred.form == "ensures_n"
    assert len(transferred.parts.enum.states) == 48
    assert all(s.pc == 0x1000 for s in transferred.parts.enum.states)
    assert kernel.recheck(transferred).is_proven
    assert kernel.audit_replay(transferred)


def test_transfer_fails_without_a_stopper():
    correctness = unary_correctness(load_problem("compare_nostopper.spec"))
    e = equiv.check_equiv(load_problem("compare_equiv.spec"))
    with pytest.raises(kernel.PromotionFailed):
        equiv.transfer_correctness(correctness, e)


def test_transfer_rejects_non_unary_premises():
    e = equiv.check_equiv(load_problem("compare_equiv.spec"))
    with pytest.raises(kernel.SchemaMismatch):
        equiv.transfer_correctness(e.judgment, e)
