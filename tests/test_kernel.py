"""Kernel checks, proof rules and conversions on small integer systems.

Machine-independent coverage: the step oracle here is a dict of edges,
so every judgment is easy to read off the graph. Machine-level use of
the same kernel is exercised by the constant-time and equivalence
tests.
"""

import pytest

from relhoare import kernel
from relhoare.kernel import (
    CheckFailed, Enumeration, FrameFn, MissingPromotionEvidence,
    NotDeterministic, PairEnumeration, PairProperty, PromotionFailed,
    SchemaMismatch, SideConditionFailed, StepFn, apply_rule, convert,
    per_state, prop, product_frame,
)

ANY = FrameFn(lambda s, t: True, description="anything")
ANY2 = product_frame(ANY, ANY)


def sys_of(*edges, name="graph") -> kernel.StepOracle:
    table: dict = {}
    for a, b in edges:
        table.setdefault(a, []).append(b)
    return kernel.StepOracle(
        lambda s: tuple(table.get(s, ())),
        pc_of=lambda s: s,
        description=name)


def at(*values) -> prop:
    allowed = frozenset(values)
    return prop(lambda s: s in allowed, f"in {sorted(allowed)}")


def pairs_at(*pairs) -> PairProperty:
    allowed = frozenset(pairs)
    return PairProperty(lambda a, b: (a, b) in allowed,
                        f"pair in {sorted(allowed)}")


# ---------------------------------------------------------------------------
# core checks

def test_check_ensures_proven_on_a_chain():
    sys = sys_of((0, 1), (1, 2))
    v = kernel.check_ensures(sys, Enumeration((0,)), at(2), ANY, budget=8)
    assert v.is_proven


def test_check_ensures_refuted_with_replayable_path():
    sys = sys_of((0, 1), (0, 2), (2, 3))
    v = kernel.check_ensures(sys, Enumeration((0,)), at(1), ANY, budget=8)
    assert v.is_refuted
    ce = v.counterexample
    assert kernel.replay(sys, ce.initial, ce.choices)[-1] == ce.witness
    assert ce.witness == 3


def test_check_ensures_unknown_when_budget_runs_out():
    sys = sys_of((0, 0))
    v = kernel.check_ensures(sys, Enumeration((0,)), at(9), ANY, budget=5)
    assert v.outcome == "unknown"


def test_check_ensures_frame_failures_refute():
    sys = sys_of((0, 5))
    tight = FrameFn(lambda s, t: t == s, description="no change")
    v = kernel.check_ensures(sys, Enumeration((0,)), at(5), tight, budget=4)
    # the path dies at 5 with post true but the frame violated
    assert v.is_refuted and v.counterexample.witness == 5
    assert "no change" in v.counterexample.detail


def test_check_ensures_n_is_exact():
    diamond = sys_of((0, 1), (0, 2), (1, 3), (2, 3))
    enum = Enumeration((0,))
    assert kernel.check_ensures_n(diamond, enum, StepFn.constant(2), at(3),
                                  ANY).is_proven
    assert kernel.check_ensures_n(diamond, enum, StepFn.constant(1), at(3),
                                  ANY).is_refuted


def test_check_ensures_n_rejects_uneven_arrival():
    sys = sys_of((0, 1), (0, 3), (1, 3))
    v = kernel.check_ensures_n(sys, Enumeration((0,)), StepFn.constant(1),
                               at(3), ANY)
    assert v.is_refuted  # the 0 -> 1 branch is not at 3 after one step


def test_steps_auto_resolves_by_simulation():
    sys = sys_of((0, 1), (1, 2), (2, 3))
    v = kernel.check_ensures_n(sys, Enumeration((0,)), StepFn.auto(16),
                               at(3), ANY)
    assert v.is_proven and v.stats["steps"] == (3,)


def test_steps_table_rejects_a_state_it_does_not_list():
    steps = StepFn.table({0: 2, 1: 1})
    sys = sys_of((0, 1), (1, 2))
    assert steps.resolve(sys, 1) == 1
    with pytest.raises(kernel.StepFnUnresolvable):
        steps.resolve(sys, 2)


def test_a_negative_step_count_is_refused():
    # an exact count of -1 steps is no count at all, not zero steps
    sys = sys_of((0, 1))
    for steps in (StepFn.constant(-1), StepFn.table({0: -2})):
        with pytest.raises(kernel.StepFnUnresolvable, match="negative"):
            kernel.check_ensures_n(sys, Enumeration((0,)), steps, at(0), ANY)


def test_check_ensures2_allows_different_step_counts():
    # right side takes one step while the left stands still
    sys = sys_of((0, 1))
    pairs = PairEnumeration(((0, 0),))
    v = kernel.check_ensures2(sys, pairs, (0,), (1,), pairs_at((0, 1)),
                              ANY2)
    assert v.is_proven


def test_check_ensures2_refutation_carries_both_paths():
    sys = sys_of((0, 1), (1, 2))
    pairs = PairEnumeration(((0, 0),))
    v = kernel.check_ensures2(sys, pairs, (1,), (2,), pairs_at((1, 1)),
                              ANY2)
    assert v.is_refuted
    ce = v.counterexample
    assert ce.sides == 2
    left = kernel.replay(sys, ce.initial[0], ce.choices[0])[-1]
    right = kernel.replay(sys, ce.initial[1], ce.choices[1])[-1]
    assert (left, right) == ce.witness == (1, 2)


def test_enumeration_validates_its_own_precondition():
    bad = Enumeration((0, 7), pre=at(0))
    with pytest.raises(SchemaMismatch):
        bad.validate()


def test_pair_domains_are_enforced():
    pairs = PairEnumeration(((0, 1),), domain0=(5,), domain1=(1,))
    with pytest.raises(kernel.AsymmetricEnumeration):
        pairs.validate()


def test_eventually_n_at_pc_requires_stuck_at_target():
    stops = sys_of((0, 4))
    loops = sys_of((0, 4), (4, 0))
    enum = Enumeration((0,))
    assert kernel.check_eventually_n_at_pc(stops, enum, 0, 4, 1).is_proven
    assert kernel.check_eventually_n_at_pc(loops, enum, 0, 4, 1).is_refuted
    assert kernel.check_eventually_n_at_pc(stops, enum, 0, 4, 2).is_refuted


# ---------------------------------------------------------------------------
# proofs, recheck, audit

def test_prove_then_recheck_round_trip():
    sys = sys_of((0, 1), (1, 2))
    j = kernel.prove_ensures(sys, Enumeration((0,)), at(2), ANY, budget=8)
    assert j.form == "ensures"
    assert kernel.recheck(j).is_proven
    with pytest.raises(SchemaMismatch):
        kernel.audit_replay(j)  # leaf judgments have no rule to replay


def test_prove_raises_check_failed_with_the_verdict():
    sys = sys_of((0, 1))
    with pytest.raises(CheckFailed) as e:
        kernel.prove_ensures(sys, Enumeration((0,)), at(9), ANY, budget=4)
    assert e.value.verdict.is_refuted


def test_prove_ensures_n_resolves_and_stores_steps():
    sys = sys_of((0, 1), (1, 2))
    j = kernel.prove_ensures_n(sys, Enumeration((0, 1)), StepFn.auto(8),
                               at(2), ANY)
    assert j.parts.steps == (2, 1)
    assert kernel.recheck(j).is_proven


# ---------------------------------------------------------------------------
# unary rules

def chain_judgment(sys, states=(0,), post=None, frame=ANY, budget=8):
    return kernel.prove_ensures(sys, Enumeration(states), post or at(2),
                                frame, budget)


def test_rule_pre_strengthens_to_a_subset():
    sys = sys_of((0, 2), (1, 2))
    j = chain_judgment(sys, states=(0, 1))
    j2 = apply_rule("pre", [j], {"pre": Enumeration((1,))})
    assert j2.parts.enum.states == (1,)
    assert kernel.recheck(j2).is_proven
    with pytest.raises(SideConditionFailed):
        apply_rule("pre", [j], {"pre": Enumeration((5,))})


def test_rule_post_weakens_on_reached_states():
    sys = sys_of((0, 2))
    j = chain_judgment(sys)
    j2 = apply_rule("post", [j], {"post": at(2, 3)})
    assert kernel.recheck(j2).is_proven
    with pytest.raises(SideConditionFailed):
        apply_rule("post", [j], {"post": at(3)})


def test_rule_post_domain_catches_non_containment():
    sys = sys_of((0, 2))
    j = chain_judgment(sys, post=at(2, 4))
    # at(2) passes on every reached state but loses the old post's 4;
    # only the declared domain can expose that
    narrowed = apply_rule("post", [j], {"post": at(2)})
    assert kernel.recheck(narrowed).is_proven
    with pytest.raises(SideConditionFailed):
        apply_rule("post", [j], {"post": at(2), "domain": (4,)})


def test_rule_frame_extends_by_enumeration():
    sys = sys_of((0, 2))
    exact = FrameFn(lambda s, t: (s, t) in {(0, 2)}, description="0 to 2")
    j = kernel.prove_ensures(sys, Enumeration((0,)), at(2), exact, budget=4)
    j2 = apply_rule("frame", [j], {"frame": ANY})
    assert kernel.recheck(j2).is_proven
    never = FrameFn(lambda s, t: False, description="nothing")
    with pytest.raises(SideConditionFailed):
        apply_rule("frame", [j], {"frame": never})


def test_rule_seq_composes_through_reached_middles():
    sys = sys_of((0, 1), (1, 2))
    j1 = kernel.prove_ensures(sys, Enumeration((0,)), at(1), ANY, budget=4)
    j2 = kernel.prove_ensures(sys, Enumeration((1,)), at(2), ANY, budget=4)
    seq = apply_rule("seq", [j1, j2])
    assert seq.form == "ensures"
    assert kernel.recheck(seq).is_proven
    j_short = kernel.prove_ensures(sys, Enumeration((2,)), at(2), ANY,
                                   budget=4)
    with pytest.raises(SideConditionFailed):
        apply_rule("seq", [j1, j_short])  # middle 1 is not covered


def test_rule_branch_cases_unions_preconditions():
    sys = sys_of((0, 2), (1, 2))
    post, frame = at(2), ANY
    j1 = kernel.prove_ensures(sys, Enumeration((0,)), post, frame, budget=4)
    j2 = kernel.prove_ensures(sys, Enumeration((1,)), post, frame, budget=4)
    union = apply_rule("branch_cases", [j1, j2],
                       {"pre": Enumeration((0, 1))})
    assert set(union.parts.enum.states) == {0, 1}
    assert kernel.recheck(union).is_proven
    with pytest.raises(SideConditionFailed):
        apply_rule("branch_cases", [j1, j2], {"pre": Enumeration((0, 1, 9))})


def test_rule_loop_chains_invariant_stages():
    sys = sys_of((0, 1), (1, 2), (2, 3))
    frame = FrameFn(lambda s, t: t >= s, description="monotone",
                    transitive=True)
    stages = [
        kernel.prove_ensures(sys, Enumeration((0,)), at(1), frame, budget=2),
        kernel.prove_ensures(sys, Enumeration((1,)), at(2), frame, budget=2),
        kernel.prove_ensures(sys, Enumeration((2,)), at(3), frame, budget=2),
    ]
    j = apply_rule("loop", stages)
    assert kernel.recheck(j).is_proven
    loose = FrameFn(lambda s, t: True, description="anything, unmarked")
    with pytest.raises(SideConditionFailed):
        apply_rule("loop", [
            kernel.prove_ensures(sys, Enumeration((0,)), at(1), loose,
                                 budget=2),
            kernel.prove_ensures(sys, Enumeration((1,)), at(2), loose,
                                 budget=2)])


def test_rule_conj_requires_equal_step_counts():
    sys = sys_of((0, 1), (1, 2))
    enum = Enumeration((0,))
    j1 = kernel.prove_ensures_n(sys, enum, StepFn.constant(1), at(1), ANY)
    j1b = kernel.prove_ensures_n(sys, enum, StepFn.constant(1),
                                 prop(lambda s: s > 0, "positive"), ANY)
    both = apply_rule("conj", [j1, j1b])
    assert kernel.recheck(both).is_proven
    j2 = kernel.prove_ensures_n(sys, enum, StepFn.constant(2), at(2), ANY)
    with pytest.raises(SideConditionFailed) as e:
        apply_rule("conj", [j1, j2])
    assert "step counts" in str(e.value)


# ---------------------------------------------------------------------------
# relational rules

def rel_judgment(sys, pairs, steps0, steps1, post2, frame2=ANY2):
    return kernel.prove_ensures2(sys, PairEnumeration(tuple(pairs)),
                                 steps0, steps1, post2, frame2)


def test_rule_comm_swaps_sides():
    sys = sys_of((0, 1))
    j = rel_judgment(sys, [(0, 0)], (0,), (1,), pairs_at((0, 1)))
    swapped = apply_rule("comm", [j])
    assert swapped.parts.pairs.pairs == ((0, 0),)
    assert swapped.parts.steps0 == (1,) and swapped.parts.steps1 == (0,)
    assert kernel.recheck(swapped).is_proven
    assert kernel.audit_replay(swapped)


def test_rule_comp_adds_step_counts():
    sys = sys_of((0, 1), (1, 2))
    j1 = rel_judgment(sys, [(0, 0)], (1,), (1,), pairs_at((1, 1)))
    j2 = rel_judgment(sys, [(1, 1)], (1,), (1,), pairs_at((2, 2)))
    j = apply_rule("comp", [j1, j2])
    assert j.parts.steps0 == (2,) and j.parts.steps1 == (2,)
    assert kernel.recheck(j).is_proven
    j_wrong = rel_judgment(sys, [(0, 1)], (1,), (1,), pairs_at((1, 2)))
    with pytest.raises(SideConditionFailed):
        apply_rule("comp", [j1, j_wrong])


def test_rule_conj2_conjoins_pair_posts():
    sys = sys_of((0, 1))
    j1 = rel_judgment(sys, [(0, 0)], (1,), (1,), pairs_at((1, 1)))
    j2 = rel_judgment(sys, [(0, 0)], (1,), (1,),
                      PairProperty(lambda a, b: a == b, "equal"))
    j = apply_rule("conj2", [j1, j2])
    assert kernel.recheck(j).is_proven


def test_rule_pre2_keeps_a_pair_subset():
    sys = sys_of((0, 1), (1, 2))
    j = rel_judgment(sys, [(0, 0), (1, 1)], (1, 1), (1, 1),
                     PairProperty(lambda a, b: a == b, "equal"))
    j2 = apply_rule("pre2", [j],
                    {"pre": PairEnumeration(((1, 1),))})
    assert j2.parts.pairs.pairs == ((1, 1),)
    assert j2.parts.steps0 == (1,)
    assert kernel.recheck(j2).is_proven


def test_rule_post2_weakens_pair_posts():
    sys = sys_of((0, 1))
    j = rel_judgment(sys, [(0, 0)], (1,), (1,), pairs_at((1, 1)))
    weak = apply_rule("post2", [j],
                      {"post": PairProperty(lambda a, b: a == b, "equal")})
    assert kernel.recheck(weak).is_proven
    with pytest.raises(SideConditionFailed):
        apply_rule("post2", [j],
                   {"post": PairProperty(lambda a, b: a != b, "unequal")})


def test_rule_frame2_extends_product_frames_intensionally():
    from relhoare import machine as m
    f_small = m.maychange({m.PC})
    f_big = m.maychange({m.PC, m.reg_label(0)})
    # purely structural: no machine execution involved
    small = product_frame(f_small, f_small)
    big = product_frame(f_big, f_big)
    sys = sys_of()
    j = kernel.Judgment(
        "ensures2", sys,
        kernel.Ensures2Parts(PairEnumeration(()), (), (),
                             pairs_at(), small),
        kernel.Checked(0, (), (), ""))
    j2 = apply_rule("frame2", [j], {"frame": big})
    assert j2.parts.frame2 is big
    with pytest.raises(SideConditionFailed):
        apply_rule("frame2", [kernel.Judgment(
            "ensures2", sys,
            kernel.Ensures2Parts(PairEnumeration(()), (), (),
                                 pairs_at(), big),
            kernel.Checked(0, (), (), ""))], {"frame": small})


def test_rule_restrict2_needs_frame_invariance():
    sys = sys_of((0, 2), (1, 3))
    same_parity = PairProperty(lambda a, b: (a - b) % 2 == 0, "same parity")
    parity_frame = kernel.PairFrame(
        lambda p, q: (p[0] - p[1]) % 2 == (q[0] - q[1]) % 2,
        description="parity preserved")
    j = kernel.prove_ensures2(
        sys, PairEnumeration(((0, 0), (0, 1))), (1, 1), (1, 1),
        PairProperty(lambda a, b: a == 2, "left at 2"), parity_frame)
    restricted = apply_rule("restrict2", [j], {"restriction": same_parity})
    assert restricted.parts.pairs.pairs == ((0, 0),)
    assert kernel.recheck(restricted).is_proven
    not_invariant = PairProperty(lambda a, b: a == 0, "left at 0")
    with pytest.raises(SideConditionFailed):
        apply_rule("restrict2", [j], {"restriction": not_invariant})


def test_rules_reject_premises_from_different_systems():
    a, b = sys_of((0, 1)), sys_of((0, 1), name="other")
    j1 = kernel.prove_ensures(a, Enumeration((0,)), at(1), ANY, budget=2)
    j2 = kernel.prove_ensures(b, Enumeration((1,)), at(1), ANY, budget=2)
    with pytest.raises(SchemaMismatch):
        apply_rule("seq", [j1, j2])


def test_unknown_rule_and_conversion_ids():
    sys = sys_of((0, 1))
    j = chain_judgment(sys, post=at(1), budget=2)
    with pytest.raises(SchemaMismatch):
        apply_rule("modus_ponens", [j])
    with pytest.raises(SchemaMismatch):
        convert(j, "transmogrify")


# ---------------------------------------------------------------------------
# conversions

def test_drop_steps_weakens_to_plain_ensures():
    sys = sys_of((0, 1), (1, 2))
    j = kernel.prove_ensures_n(sys, Enumeration((0,)), StepFn.constant(2),
                               at(2), ANY)
    dropped = convert(j, "drop_steps")
    assert dropped.form == "ensures"
    assert kernel.recheck(dropped).is_proven


def test_synthesize_steps_on_a_deterministic_system():
    sys = sys_of((0, 1), (1, 2))
    j = kernel.prove_ensures(sys, Enumeration((0, 1)), at(2), ANY, budget=8)
    exact = convert(j, "synthesize_steps")
    assert exact.form == "ensures_n"
    assert exact.parts.steps == (2, 1)
    assert kernel.recheck(exact).is_proven


def test_synthesize_steps_rejects_forks():
    # 0 -> 1, 0 -> 2, 2 -> 3: eventually reaches an odd state, but no
    # single count works and the fork is detected first
    sys = sys_of((0, 1), (0, 2), (2, 3))
    odd = prop(lambda s: s % 2 == 1, "odd")
    j = kernel.prove_ensures(sys, Enumeration((0,)), odd, ANY, budget=8)
    with pytest.raises(NotDeterministic):
        convert(j, "synthesize_steps")
    # exhaustive confirmation that no exact count exists
    for n in range(9):
        assert kernel.check_ensures_n(sys, Enumeration((0,)),
                                      StepFn.constant(n), odd,
                                      ANY).is_refuted


def test_product_conversion_pairs_two_unary_judgments():
    sys = sys_of((0, 1), (1, 2))
    j0 = kernel.prove_ensures_n(sys, Enumeration((0,)), StepFn.constant(1),
                                at(1), ANY)
    j1 = kernel.prove_ensures_n(sys, Enumeration((1,)), StepFn.constant(1),
                                at(2), ANY)
    prod = convert(j0, "product", {"other": j1})
    assert prod.form == "ensures2"
    assert prod.parts.pairs.pairs == ((0, 1),)
    assert kernel.recheck(prod).is_proven


def test_promote_requires_evidence():
    sys = sys_of((0, 4))
    j = kernel.prove_ensures(sys, Enumeration((0,)), at(4), ANY, budget=4)
    with pytest.raises(MissingPromotionEvidence):
        convert(j, "promote")
    ev = kernel.first_stop_evidence(sys, j.parts.enum, 8)
    promoted = convert(j, "promote", {"pc_evidence": ev})
    assert promoted.form == "ensures_n" and promoted.parts.steps == (1,)
    assert kernel.recheck(promoted).is_proven


def test_first_stop_evidence_failure_modes():
    enum = Enumeration((0,))
    with pytest.raises(PromotionFailed):  # never gets stuck
        kernel.first_stop_evidence(sys_of((0, 4), (4, 0)), enum, 8)
    with pytest.raises(PromotionFailed):  # no stop inside the budget
        kernel.first_stop_evidence(sys_of((0, 1), (1, 2), (2, 3)), enum, 2)
    with pytest.raises(PromotionFailed):  # forks stop at different pcs
        kernel.first_stop_evidence(sys_of((0, 1), (0, 2)), enum, 8)


def test_hybridize_and_extract_round_trip():
    sys = sys_of((0, 1), (10, 11))
    rel = kernel.prove_ensures2(
        sys, PairEnumeration(((0, 10),)), (1,), (1,),
        PairProperty(lambda a, b: (a, b) == (1, 11), "at (1,11)"), ANY2)
    unary = kernel.prove_ensures_n(sys, Enumeration((0,)),
                                   StepFn.constant(1), at(1), ANY)
    hybrid = convert(unary, "hybridize", {
        "relational": rel,
        "unary_pre": Enumeration((10,)),
        "upost": at(11),
        "uframe": ANY,
    })
    assert hybrid.form == "hybrid"
    extracted = convert(hybrid, "hybrid_extract")
    assert extracted.form == "ensures_n"
    assert extracted.parts.enum.states == (10,)
    assert kernel.recheck(extracted).is_proven
    assert kernel.audit_replay(extracted)


def test_audit_replay_walks_the_whole_derivation():
    sys = sys_of((0, 1), (1, 2))
    j1 = kernel.prove_ensures(sys, Enumeration((0,)), at(1), ANY, budget=4)
    j2 = kernel.prove_ensures(sys, Enumeration((1,)), at(2), ANY, budget=4)
    seq = apply_rule("seq", [j1, j2])
    narrowed = apply_rule("post", [seq], {"post": at(1, 2)})
    assert kernel.audit_replay(narrowed)
