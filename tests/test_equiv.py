"""Program equivalence: checking, composition, and correctness transfer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhoare import asm, cli, ct, equiv, kernel, machine, specfile
from relhoare.equiv import AnchorMismatch, EquivJudgment, EquivRel
from relhoare.machine import EVENTS, PC, reg_label, zeroed_state

from conftest import (
    CORPUS, SMALL_LABELS, SMALL_STATE_VALUES, count_constructions,
    load_problem, small_state, wide_spec,
)
from test_pairs_reference import RefEquivRel, ref_equiv_pairs, same_objects

X3 = reg_label(3)


def boot(source: str, base: int):
    return asm.load_program(zeroed_state(), asm.assemble(source), base),\
        asm.assemble(source)


def unary_correctness(problem: specfile.Problem) -> kernel.Judgment:
    enum, post, frame = problem.unary_parts()
    return kernel.prove_ensures(machine.oracle(), enum, post, frame,
                                problem.spec.budget)


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


def count_scan(monkeypatch) -> tuple:
    """Lists of the `EquivRel.related` calls, as (relation, state,
    state), and of the keys that `EquivRel.key` reads because its table
    lacks them, as (relation, state); recorded until monkeypatch
    restores both methods."""
    calls, read = [], []
    key, related = EquivRel.key, EquivRel.related

    def counted_key(self, s):
        if id(s) not in self._keys:
            read.append((self, s))
        return key(self, s)

    def counted_related(self, a, b):
        calls.append((self, a, b))
        return related(self, a, b)

    monkeypatch.setattr(EquivRel, "key", counted_key)
    monkeypatch.setattr(EquivRel, "related", counted_related)
    return calls, read


def test_the_scan_calls_related_once_per_candidate(monkeypatch):
    # the benchmark's equiv.candidates counts these calls: one per
    # (left, right) candidate in scan order, after one key read for each
    # start state
    problem = load_problem("compare_equiv.spec")
    lefts, rights = problem.states(0), problem.states(1)
    ein = equiv._rel_from_spec(problem.spec, problem, "equiv_in")
    related = EquivRel.related
    with monkeypatch.context() as m:
        calls, read = count_scan(m)
        pairs = equiv.related_pairs(ein, lefts, rights)
    assert EquivRel.related is related and len(pairs) == 48
    assert [(id(r), id(a), id(b)) for r, a, b in calls] == \
        [(id(ein), id(a), id(b)) for a in lefts for b in rights]
    assert [(id(r), id(s)) for r, s in read] == \
        [(id(ein), id(s)) for s in lefts + rights]
    assert same_objects(pairs, ref_equiv_pairs(RefEquivRel(ein.kept),
                                               lefts, rights))


def test_a_freed_state_never_lends_its_key_to_a_new_one():
    # CPython gives a freed object's id to a later object, so a table
    # keyed by id is sound only while it holds the states it keyed: each
    # round keys fresh states and drops them, and one relation must scan
    # every round as the frozen scan does with a relation of its own
    rel = EquivRel.kept_equal({X3})
    rng = random.Random(0)
    for _ in range(50):
        lefts, rights = ([zeroed_state().with_reg(3, rng.randrange(3))
                          for _ in range(6)] for _ in range(2))
        got = equiv.related_pairs(rel, tuple(lefts), tuple(rights))
        want = ref_equiv_pairs(RefEquivRel(rel.kept), lefts, rights)
        assert same_objects(got, want)
        del lefts, rights, got, want


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


def test_the_candidate_scan_stops_above_its_limit(monkeypatch, capsys):
    # 48 x 48 candidates on the corpus spec: at the limit each of the 96
    # start states is keyed once and the scan makes one related call per
    # candidate; one below it the spec is refused before any state is
    # keyed or any pair is scanned
    related, built = count_scan(monkeypatch)
    scanned, prove_ensures2 = [], kernel.prove_ensures2

    def after_the_scan(*args):  # the kernel checks the pairs it is given
        scanned.extend(r for r, _, _ in related)
        return prove_ensures2(*args)

    monkeypatch.setattr(kernel, "prove_ensures2", after_the_scan)
    monkeypatch.setattr(equiv, "MAX_CANDIDATES", 48 * 48)
    problem = load_problem("compare_equiv.spec")
    ein = equiv.check_equiv(problem).equiv_in
    assert len(scanned) == 48 * 48 and all(r is ein for r in scanned)
    starts = problem.states(0) + problem.states(1)
    assert len(set(map(id, starts))) == 96
    assert [id(s) for r, s in built if r is ein] == list(map(id, starts))
    spec = str(CORPUS / "compare_equiv.spec")
    assert cli.main(["check", spec]) == 0
    capsys.readouterr()

    monkeypatch.setattr(equiv, "MAX_CANDIDATES", 48 * 48 - 1)
    related.clear()
    built.clear()
    assert cli.main(["check", spec]) == 3
    err = capsys.readouterr().err
    assert "2304 candidate pairs" in err and "limit of 2303" in err
    assert related == [] and built == []


def test_an_oversized_equivalence_is_refused_before_any_state_is_built(
        monkeypatch, tmp_path, capsys):
    # 62,208 instances a side are 62,208^2 candidates: refused from the
    # count alone, ahead of a missing [equiv_in], which is found only
    # once the states are built
    spec = wide_spec(tmp_path, "compare_equiv.spec")
    calls = count_constructions(monkeypatch)
    for text in (spec.read_text(),
                 spec.read_text().replace("[equiv_in]\n", "[equiv_in]\n;")):
        spec.write_text(text)
        assert cli.main(["check", str(spec)]) == 3
        assert capsys.readouterr() == ("", (
            "error: equivalence would scan 3869835264 candidate pairs, "
            "more than the limit of 16777216\n"))
    assert calls[0] == 0


def test_the_candidate_limit_counts_the_instances_both_sides_build(
        monkeypatch, tmp_path, capsys):
    # [pre1] filters out n = 2: 32 of the 48 valuations build both sides
    (tmp_path / "compare.masm").write_text(
        (CORPUS / "compare.masm").read_text())
    (tmp_path / "compare_constant.masm").write_text(
        (CORPUS / "compare_constant.masm").read_text())
    pre = "x0 = n\nx1 = 10\nx2 = 20\n"
    spec = tmp_path / "e.spec"
    spec.write_text((CORPUS / "compare_equiv.spec").read_text().replace(
        f"[pre]\n{pre}", f"[pre0]\n{pre}\n[pre1]\n{pre}n < 2\n"))
    monkeypatch.setattr(equiv, "MAX_CANDIDATES", 32 * 32)
    assert cli.main(["check", str(spec)]) == 0
    assert "equiv on e.spec, 32 instance(s)" in capsys.readouterr().out
    monkeypatch.setattr(equiv, "MAX_CANDIDATES", 32 * 32 - 1)
    assert cli.main(["check", str(spec)]) == 3
    assert "1024 candidate pairs" in capsys.readouterr().err


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


def link(src0, base0, src1, base1) -> EquivJudgment:
    s0, p0 = boot(src0, base0)
    s1, p1 = boot(src1, base1)
    enum = kernel.PairEnumeration(((s0, s1),))
    j = kernel.prove_ensures2(
        machine.oracle(), enum, (2,), (2,), DONE4,
        kernel.product_frame(SMALL_FRAME, SMALL_FRAME))
    return EquivJudgment(
        (p0, p1), (base0, base1),
        EquivRel.kept_equal(frozenset()),
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


def test_transfer_crosses_a_composed_equivalence():
    # a derived equivalence judgment records no reached pairs of its own
    e = equiv.compose_transitive(link(C0, 0x1000, C1, 0x2000),
                                 link(C1, 0x2000, C2, 0x3000))
    s0 = e.judgment.parts.pairs.pairs[0][0]
    done = kernel.prop(lambda s: s.reg(3) == 4 and machine.is_stuck(s),
                       "stuck with x3 = 4")
    correctness = kernel.prove_ensures_n(
        machine.oracle(), kernel.Enumeration((s0,)), kernel.StepFn.auto(),
        done, SMALL_FRAME)
    transferred = equiv.transfer_correctness(correctness, e)
    assert [s.pc for s in transferred.parts.enum.states] == [0x3000]
    assert transferred.parts.frame is SMALL_FRAME
    assert kernel.recheck(transferred).is_proven


def test_transfer_fails_without_a_stopper():
    correctness = unary_correctness(load_problem("compare_nostopper.spec"))
    e = equiv.check_equiv(load_problem("compare_equiv.spec"))
    with pytest.raises(kernel.PromotionFailed):
        equiv.transfer_correctness(correctness, e)


def test_transfer_rejects_non_unary_premises():
    e = equiv.check_equiv(load_problem("compare_equiv.spec"))
    with pytest.raises(kernel.SchemaMismatch):
        equiv.transfer_correctness(e.judgment, e)
