"""Kernel checks, proof rules and conversions on small integer systems.

Machine-independent coverage: the step oracle here is a dict of edges,
so every judgment is easy to read off the graph. Machine-level use of
the same kernel is exercised by the constant-time and equivalence
tests; only the counts of what the unary search hashes are taken on
machine states here.
"""

import dataclasses
import os
import subprocess
import sys
from collections.abc import Sequence as SequenceABC
from pathlib import Path

import pytest

from relhoare import asm, kernel, machine
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
    assert v.is_proven and tuple(v.stats["steps"]) == (3,)


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


# pair blocks: pairs of a key join, grouped by key

PARITY = kernel.key_join(lambda s: s % 2, "same parity")
NO_REL = kernel.key_join(lambda s: None, "no relation")


def test_pair_blocks_expand_in_scan_order_on_first_read():
    lefts, rights = (1, 2, 3, 1), (2, 3, 4, 5)
    enum = PairEnumeration.join(PARITY, lefts, rights)
    assert enum.pairs._items is None
    assert enum.pairs == tuple((a, b) for a in lefts for b in rights
                               if a % 2 == b % 2)
    assert enum.blocks == ((3, 5), (2, 4), (3, 5), (3, 5))
    assert enum.blocks[0] is enum.blocks[2]  # one tuple per key
    enum.validate()


def test_a_join_keys_each_state_once_per_side():
    keyed: list = []

    def key(side):
        return lambda s: keyed.append((side, s)) or s % 2

    lefts, rights = (1, 2, 3, 1), (2, 3, 4, 5)
    join = kernel.key_join(key(0), "same parity", key(1))
    enum = PairEnumeration.join(join, lefts, rights)
    post = kernel.factored_post(PARITY, at(1, 2, 3, 4, 5),
                                at(1, 2, 3, 4, 5), "post")
    steps = StepFn.constant(0)
    v = kernel.check_ensures2(sys_of(), enum, steps, steps, post, ANY2)
    assert v.is_proven and v.stats["instances"] == 8
    assert sorted(keyed) == sorted([(0, s) for s in lefts]
                                   + [(1, s) for s in rights])


def test_a_key_join_needs_both_domains():
    for domains in ((None, (2,)), ((1,), None), (None, None)):
        with pytest.raises(SchemaMismatch, match="both domains"):
            PairEnumeration(None, PARITY, *domains)
    with pytest.raises(SchemaMismatch, match="both domains"):
        PairEnumeration(None, PairProperty(lambda a, b: True, "true"),
                        (1,), (2,))
    with pytest.raises(TypeError):
        PairEnumeration(None, PARITY, (1,), (2,), blocks=((1,),))


def test_an_empty_block_set_warns_of_an_empty_precondition():
    enum = PairEnumeration.join(PARITY, (1, 3), (2, 4))
    post = kernel.factored_post(NO_REL, at(1), at(2), "post")
    v = kernel.check_ensures2(sys_of((1, 2)), enum, StepFn.constant(0),
                              StepFn.constant(0), post, ANY2)
    assert v.is_proven and v.stats["instances"] == 0
    assert v.stats["warnings"] == ("EmptyPrecondition",)


def test_a_pc_check_of_no_start_state_warns_of_an_empty_precondition():
    v = kernel.check_eventually_n_at_pc(sys_of((1, 2)), kernel.PcParts(
        Enumeration(()), 0, ()))
    assert v.is_proven and v.stats["instances"] == 0
    assert v.stats["warnings"] == ("EmptyPrecondition",)


def test_a_block_judgment_rechecks_and_feeds_the_rules():
    sys = sys_of((1, 3), (2, 4), (3, 5), (4, 6))
    enum = PairEnumeration.join(PARITY, (1, 2), (2, 1))
    post = kernel.factored_post(PARITY, at(3, 4), at(3, 4), "post")
    steps = StepFn.constant(1)
    j = kernel.prove_ensures2(sys, enum, steps, steps, post, ANY2)
    assert j.parts.steps0 == (1, 1) and j.evidence.reached == (
        ((3, 3),), ((4, 4),))
    assert kernel.recheck(j).is_proven
    weaker = apply_rule("post2", (j,),
                        {"post": PairProperty(lambda a, b: True, "true")})
    assert kernel.recheck(weaker).is_proven
    # 2 has no partner; 1 holds with 1 and refutes with 3, stuck at 5
    mixed = kernel.factored_post(NO_REL, at(3, 4), at(5), "post")
    v = kernel.check_ensures2(sys, PairEnumeration.join(PARITY, (2, 1),
                                                        (1, 3)),
                              steps, StepFn.constant(2), mixed, ANY2)
    assert v.is_refuted and v.counterexample.initial == (1, 3)
    assert v.counterexample.detail == "right side died early"
    assert v.stats == {"instances": 2, "warnings": (), "explored": 3}


def test_eventually_n_at_pc_requires_stuck_at_target():
    stops = sys_of((0, 4))
    loops = sys_of((0, 4), (4, 0))
    at = lambda n: kernel.PcParts(Enumeration((0,)), 0, ((4, n),))
    assert kernel.check_eventually_n_at_pc(stops, at(1)).is_proven
    assert kernel.check_eventually_n_at_pc(loops, at(1)).is_refuted
    assert kernel.check_eventually_n_at_pc(stops, at(2)).is_refuted


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
    assert tuple(j.parts.steps) == (2, 1)
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


def test_rule_post_reads_per_state_tables_at_the_start_state():
    sys = sys_of((0, 1), (10, 11))
    j = kernel.prove_ensures_n(sys, Enumeration((0, 10)), StepFn.constant(1),
                               per_state({0: at(1), 10: at(11, 12)}), ANY)
    wider = per_state({0: at(1, 2), 10: at(11, 12)}, "wider")
    j2 = apply_rule("post", [j], {"post": wider})
    assert kernel.recheck(j2).is_proven and kernel.audit_replay(j2)
    # each start's entry must hold on that start's reached states
    swapped = per_state({0: at(11, 12), 10: at(1, 2)}, "swapped")
    with pytest.raises(SideConditionFailed):
        apply_rule("post", [j], {"post": swapped})
    # and contain that start's old entry on the domain: 10 loses 12
    narrow = per_state({0: at(1), 10: at(11)}, "narrow")
    assert kernel.recheck(apply_rule("post", [j], {"post": narrow})).is_proven
    with pytest.raises(SideConditionFailed):
        apply_rule("post", [j], {"post": narrow, "domain": (1, 12)})
    assert kernel.recheck(apply_rule(
        "post", [j], {"post": narrow, "domain": (1, 11)})).is_proven


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


def test_rule_conj_compares_counts_kept_by_a_check_and_by_a_rule():
    # a checked premise keeps its counts as the check resolved them, a
    # pre-narrowed or promoted one as the rule rebuilt them: equal counts
    # conjoin, and unequal ones are a side-condition failure either way
    sys = sys_of((0, 1), (5, 6))
    wide, enum = Enumeration((0, 5)), Enumeration((0,))
    checked = kernel.prove_ensures_n(sys, enum, StepFn.constant(1), at(1),
                                     ANY)
    narrowed = apply_rule("pre", [kernel.prove_ensures_n(
        sys, wide, StepFn.constant(1), prop(lambda s: s > 0, "positive"),
        ANY)], {"pre": enum})
    promoted = convert(
        kernel.prove_ensures(sys, enum, at(1), ANY, budget=1), "promote",
        {"pc_evidence": kernel.first_stop_evidence(sys, enum, 8)})
    at_zero = kernel.prove_ensures_n(sys, enum, StepFn.constant(0), at(0),
                                     ANY)
    for other in (narrowed, promoted):
        for pair in ([checked, other], [other, checked]):
            assert kernel.recheck(apply_rule("conj", pair)).is_proven
        with pytest.raises(SideConditionFailed, match="step counts"):
            apply_rule("conj", [at_zero, other])


class _Anew(SequenceABC):
    """States made anew on each read, equal to another sequence only by
    identity, as a streamed enumeration's are."""

    def __init__(self, *states):
        self._states = states

    def __len__(self):
        return len(self._states)

    def __getitem__(self, i):
        return self._states[i]


def test_rule_conj_compares_streamed_states_by_value():
    sys = sys_of((0, 1), (5, 6))
    j1, j2, other = (kernel.prove_ensures_n(
        sys, Enumeration(states), StepFn.constant(1), at(1, 6), ANY)
        for states in (_Anew(0, 5), _Anew(0, 5), _Anew(5, 0)))
    assert kernel.recheck(apply_rule("conj", [j1, j2])).is_proven
    with pytest.raises(SideConditionFailed, match="share their"):
        apply_rule("conj", [j1, other])


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


def test_rule_post2_reads_per_pair_tables_at_the_start_pair():
    sys = sys_of((0, 1), (10, 11))
    j = rel_judgment(sys, [(0, 10)], (1,), (1,), pairs_at((1, 11)))
    wider = per_state({(0, 10): pairs_at((1, 11), (2, 12))}, "wider")
    j2 = apply_rule("post2", [j], {"post": wider})
    assert kernel.recheck(j2).is_proven and kernel.audit_replay(j2)
    with pytest.raises(SideConditionFailed):
        apply_rule("post2", [j], {"post": per_state(
            {(0, 10): pairs_at((2, 12))}, "elsewhere")})


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
        kernel.Checked(0, ()))
    j2 = apply_rule("frame2", [j], {"frame": big})
    assert j2.parts.frame2 is big
    with pytest.raises(SideConditionFailed):
        apply_rule("frame2", [kernel.Judgment(
            "ensures2", sys,
            kernel.Ensures2Parts(PairEnumeration(()), (), (),
                                 pairs_at(), big),
            kernel.Checked(0, ()))], {"frame": small})


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
# per-state conditions, keyed by start state or start pair as spec
# checks build them

TWO = sys_of((0, 1), (1, 2), (10, 11), (11, 12))
EACH = per_state({0: at(1), 10: at(11)}, "each its own")
EACH2 = per_state({(0, 10): pairs_at((1, 11))}, "each pair its own")


def assert_derived(j):
    assert kernel.recheck(j).is_proven and kernel.audit_replay(j)


def test_rule_conj_on_a_per_state_post():
    enum, one = Enumeration((0, 10)), StepFn.constant(1)
    j1 = kernel.prove_ensures_n(TWO, enum, one, EACH, ANY)
    j2 = kernel.prove_ensures_n(TWO, enum, one,
                                prop(lambda s: s % 10 == 1, "ends in 1"), ANY)
    both = apply_rule("conj", [j1, j2])
    assert isinstance(both.parts.post, kernel.PerState)
    assert_derived(both)


def test_rule_branch_cases_on_per_state_posts():
    own = {s: per_state({s: EACH.at(s)}, "each its own") for s in (0, 10)}
    cases = [kernel.prove_ensures(TWO, Enumeration((s,)), own[s], ANY, 4)
             for s in (0, 10)]
    union = apply_rule("branch_cases", cases, {"pre": Enumeration((0, 10))})
    assert union.parts.post.at(10) is EACH.at(10)
    assert_derived(union)


def test_rule_conj2_on_a_per_pair_post():
    j1 = rel_judgment(TWO, [(0, 10)], (1,), (1,), EACH2)
    j2 = rel_judgment(TWO, [(0, 10)], (1,), (1,),
                      PairProperty(lambda a, b: b == a + 10, "10 apart"))
    assert_derived(apply_rule("conj2", [j1, j2]))


def test_rule_comm_on_a_per_pair_post_and_frame():
    j = rel_judgment(TWO, [(0, 10)], (1,), (1,), EACH2,
                     per_state({(0, 10): ANY2}, "each pair anything"))
    swapped = apply_rule("comm", [j])
    assert swapped.parts.pairs.pairs == ((10, 0),)
    assert swapped.parts.post2.at((10, 0)).holds(11, 1)
    assert_derived(swapped)


def test_rule_comp_with_a_per_pair_post_in_the_second_premise():
    j1 = rel_judgment(TWO, [(0, 10)], (1,), (1,), EACH2)
    j2 = rel_judgment(TWO, [(1, 11)], (1,), (1,), per_state(
        {(1, 11): pairs_at((2, 12))}, "each pair its own"))
    j = apply_rule("comp", [j1, j2])
    assert j.parts.post2.at((0, 10)) is j2.parts.post2.at((1, 11))
    assert_derived(j)


def test_rule_restrict2_on_a_per_pair_post():
    sys = sys_of((0, 2), (1, 3))
    left_at_2 = PairProperty(lambda a, b: a == 2, "left at 2")
    j = kernel.prove_ensures2(
        sys, PairEnumeration(((0, 0), (0, 1))), (1, 1), (1, 1),
        per_state({(0, 0): left_at_2, (0, 1): left_at_2}, "left at 2"),
        kernel.PairFrame(lambda p, q: (p[0] - p[1]) % 2 == (q[0] - q[1]) % 2,
                         description="parity preserved"))
    restricted = apply_rule("restrict2", [j], {"restriction": PairProperty(
        lambda a, b: (a - b) % 2 == 0, "same parity")})
    assert restricted.parts.pairs.pairs == ((0, 0),)
    assert_derived(restricted)


def test_rule_branch_cases_keeps_each_cases_own_postcondition():
    # two postconditions that share a description but not a meaning
    sys = sys_of((0, 2), (1, 3))
    cases = [kernel.prove_ensures(sys, Enumeration((s,)),
                                  prop(lambda t, s=s: t == s + 2, "done"),
                                  ANY, budget=4)
             for s in (0, 1)]
    union = apply_rule("branch_cases", cases, {"pre": Enumeration((0, 1))})
    assert_derived(union)


def test_rule_restrict2_reads_a_pair_frame_table_only_at_start_pairs():
    sys = sys_of((0, 2))
    j = rel_judgment(sys, [(0, 0)], (1,), (1,), pairs_at((2, 2)),
                     per_state({(0, 0): ANY2}, "each pair anything"))
    restricted = apply_rule("restrict2", [j], {
        "restriction": PairProperty(lambda a, b: a == b, "equal"),
        "domain": ((1, 1),)})
    assert restricted.parts.pairs.pairs == ((0, 0),)
    assert_derived(restricted)


def test_rule_comp_rechecks_a_derived_premise_once():
    calls = []
    base = sys_of(*[(i, i + 10) for i in range(10)],
                  *[(i + 10, i + 20) for i in range(10)])
    sys = kernel.StepOracle(lambda s: calls.append(s) or base.successors(s))
    j1 = apply_rule("post2", [rel_judgment(
        sys, [(i, i) for i in range(10)], (1,) * 10, (1,) * 10,
        PairProperty(lambda a, b: a == b, "equal"))],
        {"post": PairProperty(lambda a, b: a >= 10, "moved")})
    j2 = rel_judgment(sys, [(i + 10, i + 10) for i in range(10)],
                      (1,) * 10, (1,) * 10,
                      PairProperty(lambda a, b: a == b, "equal"))
    calls.clear()
    kernel.recheck(j1)
    once = len(calls)
    calls.clear()
    j = apply_rule("comp", [j1, j2])
    assert len(calls) == once == 10
    assert j.parts.steps0 == (2,) * 10
    assert_derived(j)


def test_rule_comp_keeps_every_continuation_postcondition():
    # one postcondition per middle pair, all sharing a description
    sys = sys_of((0, 1), (0, 2), (1, 3), (2, 4))
    j1 = rel_judgment(sys, [(0, 0)], (1,), (1,),
                      PairProperty(lambda a, b: True, "moved"))
    mids = [(a, b) for a in (1, 2) for b in (1, 2)]
    j2 = rel_judgment(sys, mids, (1,) * 4, (1,) * 4, per_state(
        {(a, b): PairProperty(lambda x, y, a=a, b=b: (x, y) == (a + 2, b + 2),
                              "done")
         for a, b in mids}, "done"))
    j = apply_rule("comp", [j1, j2])
    assert j.parts.post2.at((0, 0)).description == "done"
    assert_derived(j)


def test_product_conversion_of_per_state_posts_and_frames():
    one = StepFn.constant(1)
    j0 = kernel.prove_ensures_n(TWO, Enumeration((0,)), one, EACH,
                                per_state({0: ANY}, "each anything"))
    j1 = kernel.prove_ensures_n(TWO, Enumeration((10,)), one, EACH, ANY)
    prod = convert(j0, "product", {"other": j1})
    assert prod.parts.frame2.at((0, 10)).product_of == (ANY, ANY)
    assert_derived(prod)


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
    assert tuple(exact.parts.steps) == (2, 1)
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


@pytest.mark.parametrize("edges, budget", [
    (((0, 1),), 8),  # stuck at 1, before the postcondition
    (((0, 1), (1, 2)), 1),  # 2 is two steps away, the budget one
])
def test_synthesize_steps_refuses_a_stuck_run_and_a_spent_budget(edges,
                                                                 budget):
    # no check proves these premises, so they are made by hand: only the
    # conversion's own side condition stands between them and a count
    parts = kernel.EnsuresParts(Enumeration((0,)), at(2), ANY, budget)
    j = kernel.Judgment("ensures", sys_of(*edges), parts, None)
    with pytest.raises(SideConditionFailed, match="no step count"):
        convert(j, "synthesize_steps")


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


def test_first_stop_evidence_rechecks_and_has_a_signature():
    sys = sys_of((0, 4))
    ev = kernel.first_stop_evidence(sys, Enumeration((0,)), 8)
    assert kernel.recheck(ev).is_proven
    assert kernel.judgment_signature(ev) == (
        "eventually_n_at_pc", (0,), 0, ((4, 1),))
    late = kernel.Judgment(ev.form, sys, kernel.PcParts(
        ev.parts.enum, 0, ((4, 2),)), ev.evidence)
    assert kernel.recheck(late).counterexample.reason == "pc_hit_early"


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
    })
    assert hybrid.form == "hybrid"
    assert kernel.recheck(hybrid).is_proven and kernel.audit_replay(hybrid)
    extracted = convert(hybrid, "hybrid_extract")
    assert extracted.form == "ensures_n"
    assert extracted.parts.enum.states == (10,)
    assert extracted.parts.frame is ANY2.product_of[1]
    assert kernel.recheck(extracted).is_proven
    assert kernel.audit_replay(extracted)


STILL = FrameFn(lambda s, t: s == t, description="no change")


def hybrid_of(frame2):
    """Pair (0, 10) runs to (1, 11) under frame2; the unary side is 10."""
    rel = kernel.Ensures2Parts(PairEnumeration(((0, 10),)), (1,), (1,),
                               pairs_at((1, 11)), frame2)
    return sys_of((0, 1), (10, 11)), kernel.HybridParts(
        rel, Enumeration((10,)), at(11))


@pytest.mark.parametrize("frame2", [
    kernel.PairFrame(lambda p, q: True, description="no factors"),
    per_state({(0, 10): ANY2}, "a product per pair"),
])
def test_check_hybrid_needs_a_product_pair_frame(frame2):
    # no unary frame can be read off these, so none is checked either
    sys, hybrid = hybrid_of(frame2)
    with pytest.raises(kernel.FactorizationWitnessMissing):
        kernel.check_hybrid(sys, hybrid)


def test_a_hybrid_unary_frame_is_its_pair_frames_right_factor():
    sys, hybrid = hybrid_of(ANY2)
    assert hybrid.uframe is ANY2.product_of[1]
    assert kernel.check_hybrid(sys, hybrid).is_proven
    with pytest.raises(TypeError):  # no separate frame that could mismatch
        kernel.HybridParts(hybrid.rel, hybrid.unary, hybrid.upost, STILL)
    # a right factor that the run 10 -> 11 breaks refutes the hybrid
    sys, still = hybrid_of(product_frame(ANY, STILL))
    assert still.uframe is STILL
    assert kernel.check_hybrid(sys, still).is_refuted


def test_audit_replay_walks_the_whole_derivation():
    sys = sys_of((0, 1), (1, 2))
    j1 = kernel.prove_ensures(sys, Enumeration((0,)), at(1), ANY, budget=4)
    j2 = kernel.prove_ensures(sys, Enumeration((1,)), at(2), ANY, budget=4)
    seq = apply_rule("seq", [j1, j2])
    narrowed = apply_rule("post", [seq], {"post": at(1, 2)})
    assert kernel.audit_replay(narrowed)


def test_audit_replay_finds_a_forged_step_below_the_last():
    sys = sys_of((0, 1), (1, 2))
    j1 = kernel.prove_ensures(sys, Enumeration((0,)), at(1), ANY, budget=4)
    j2 = kernel.prove_ensures(sys, Enumeration((1,)), at(2), ANY, budget=4)
    seq = apply_rule("seq", [j1, j2])
    inner = apply_rule("post", [seq], {"post": at(1, 2)})
    # the recorded input no longer gives the recorded conclusion
    forged = dataclasses.replace(inner, evidence=dataclasses.replace(
        inner.evidence, side_inputs=(("post", at(1, 2, 3)),)))
    assert not kernel.audit_replay(forged)
    outer = apply_rule("post", [forged], {"post": at(0, 1, 2)})
    assert kernel.recheck(outer).is_proven
    assert not kernel.audit_replay(outer)


def test_audit_replay_replays_a_shared_premise_once(monkeypatch):
    sys = sys_of((0, 1), (1, 2))
    j = kernel.prove_ensures(sys, Enumeration((0,)), at(2), ANY, budget=4)
    shared = apply_rule("post", [j], {"post": at(2, 3)})
    both = apply_rule("branch_cases", [shared, shared],
                      {"pre": Enumeration((0,))})
    calls = []
    for rule_id, handler in list(kernel._RULES.items()):
        monkeypatch.setitem(kernel._RULES, rule_id, lambda p, i, r=rule_id,
                            h=handler: calls.append(r) or h(p, i))
    assert kernel.audit_replay(both)
    assert calls == ["post", "branch_cases"]


# ---------------------------------------------------------------------------
# reached frontiers, read back on demand

def counting(*edges):
    """sys_of(*edges) and the list of states it hands to successors."""
    base, calls = sys_of(*edges), []
    return dataclasses.replace(
        base, successors=lambda s: calls.append(s) or base.successors(s)), calls


# 0 forks to 1 and 2, which end at 3 and 4; 10 runs on to 12
FORKS = ((0, 1), (0, 2), (1, 3), (2, 4), (10, 11), (11, 12))


@pytest.mark.parametrize("form", ["ensures", "ensures_n"])
def test_reached_frontiers_are_walked_again_on_first_read_only(form):
    sys, calls = counting(*FORKS)
    enum, post = Enumeration((0, 10)), at(3, 4, 12)
    v = (kernel.check_ensures(sys, enum, post, ANY, budget=8)
         if form == "ensures" else
         kernel.check_ensures_n(sys, enum, StepFn.constant(2), post, ANY))
    assert v.is_proven
    walked = list(calls)
    assert sorted(walked) == [0, 1, 2, 10, 11]
    calls.clear()
    reached = v.stats["reached"]
    assert calls == []
    frontiers = [set(f) for f in reached]
    assert calls == walked  # each start state walked once more, in order
    calls.clear()
    assert [set(f) for f in reached] == frontiers and calls == []
    # an eager list: every state two steps from each start
    table = dict.fromkeys(range(13), ())
    for a, b in FORKS:
        table[a] += (b,)
    eager = []
    for s in enum.states:
        frontier = {s}
        for _ in range(2):
            frontier = {t for x in frontier for t in table[x]}
        eager.append(frontier)
    assert frontiers == eager == [{3, 4}, {12}]


def test_rule_post_over_a_derived_premise():
    sys, calls = counting(*FORKS)
    j = kernel.prove_ensures(sys, Enumeration((0, 10)), at(3, 4, 12), ANY, 8)
    derived = apply_rule("pre", [j], {"pre": Enumeration((0, 10))})
    calls.clear()
    kernel.recheck(derived)
    walk = len(calls)
    calls.clear()
    wider = at(3, 4, 12, 13)
    j2 = apply_rule("post", [derived], {"post": wider})
    # the premise is re-checked, then walked again for its reached states
    assert 0 < len(calls) <= 2 * walk
    assert (j2.form, j2.parts.enum, j2.parts.post, j2.parts.frame,
            j2.parts.budget) == ("ensures", derived.parts.enum, wider, ANY, 8)
    assert j2.evidence.premises == (derived,)
    assert_derived(j2)
    with pytest.raises(SideConditionFailed,
                       match="^weakened postcondition fails on a reached "
                             "state$"):
        apply_rule("post", [derived], {"post": at(3, 12)})


def test_rule_seq_over_a_derived_first_premise():
    # 0 forks to 1 and 2, which both step to 3
    sys = sys_of((0, 1), (0, 2), (1, 3), (2, 3))
    up = FrameFn(lambda s, t: 0 < t - s <= 2, description="up by 1 or 2")
    j1 = kernel.prove_ensures(sys, Enumeration((0,)), at(1, 2), up, 4)
    derived = apply_rule("pre", [j1], {"pre": Enumeration((0,))})
    j2 = kernel.prove_ensures(sys, Enumeration((1, 2)), at(3), up, 4)
    seq = apply_rule("seq", [derived, j2])
    assert (seq.form, seq.parts.enum, seq.parts.post, seq.parts.budget) == (
        "ensures", j1.parts.enum, j2.parts.post, 8)
    # the composed frame reaches 3 from 0 only through the middles 1 and 2
    assert seq.parts.frame.related(0, 3)
    assert not seq.parts.frame.related(0, 5)
    assert_derived(seq)
    short = kernel.prove_ensures(sys, Enumeration((1,)), at(3), up, 4)
    with pytest.raises(SideConditionFailed,
                       match="^a state reached by the first premise is not "
                             "covered by the second premise's "
                             "precondition$"):
        apply_rule("seq", [derived, short])


def test_a_frontier_lists_each_state_met_once_in_discovery_order():
    # 0 forks to 1 and 2, whose branches meet at the target 7
    diamond = sys_of((0, 1), (0, 2), (1, 7), (2, 7))
    v = kernel.check_ensures(diamond, Enumeration((0,)), at(7), ANY, 8)
    assert v.is_proven and tuple(v.stats["reached"]) == ((7,),)
    assert kernel.eventually_holds(diamond, 0, at(7), 8).stats == {
        "frontier": 1}
    # 2 also steps to the target 5, met after 7
    wider = sys_of((0, 1), (0, 2), (1, 7), (2, 7), (2, 5))
    v = kernel.check_ensures(wider, Enumeration((0,)), at(5, 7), ANY, 8)
    assert v.is_proven and tuple(v.stats["reached"]) == ((7, 5),)
    assert kernel.eventually_holds(wider, 0, at(5, 7), 8).stats == {
        "frontier": 2}


# ---------------------------------------------------------------------------
# what the unary search hashes: a machine state's hash is a tuple of its
# registers plus a loop over its memory overlay, so the search hashes
# only the states its memo can still meet

BASE = 0x1000


def machine_walk(text: str, guard: bool) -> tuple:
    """_ev_search from the start of text, loaded at BASE, to its last
    line's pc stuck, with that pc as the guard or with none."""
    s0 = asm.load_program(machine.zeroed_state(), asm.assemble(text), BASE)
    exit_pc = BASE + 4 * text.count("\n")
    target = lambda t: t.pc == exit_pc and machine.is_stuck(t)
    return kernel._ev_search(machine.oracle(), s0, target, 16, False,
                             frozenset({exit_pc}) if guard else None), s0


@pytest.fixture
def hashed(monkeypatch) -> list:
    """The machine states hashed until the test ends."""
    calls: list = []
    real = machine.MachineState.__hash__
    monkeypatch.setattr(machine.MachineState, "__hash__",
                        lambda s: calls.append(s) or real(s))
    return calls


STRAIGHT = "movi x0, #1\naddi x0, x0, #2\nmovr x4, x0\nhalt"


@pytest.mark.parametrize("guard", [True, False])
def test_a_straight_walk_hashes_no_state(hashed, guard):
    # guarded, it goes by in one run; unguarded, every state is a frame
    (outcome, *_, frontier), _ = machine_walk(STRAIGHT, guard)
    assert outcome == "proven" and len(frontier) == 1
    assert hashed == []


def test_a_walk_through_one_fork_hashes_at_most_its_two_children(hashed):
    (outcome, *_, frontier), s0 = machine_walk(
        "mulnd x2, x1, x1\nmovr x4, x0\nmul x3, x4, x2\nhalt", True)
    assert outcome == "proven" and len(frontier) == 2
    children = machine.oracle().successors(s0)
    assert len(children) == 2 and len(hashed) <= 2
    assert all(any(h == c for c in children) for h in hashed)


# ---------------------------------------------------------------------------
# side conditions: each test below fails if its rule stops checking the
# condition it names

def test_check_hybrid_refutes_a_unary_state_without_a_partner():
    sys, hybrid = hybrid_of(ANY2)
    lonely = dataclasses.replace(hybrid, unary=Enumeration((10, 11)))
    v = kernel.check_hybrid(sys, lonely)
    assert v.is_refuted and v.counterexample.reason == "no_partner"
    assert v.counterexample.initial == 11


def test_check_hybrid_refutes_a_pair_that_misses_the_unary_post():
    sys, hybrid = hybrid_of(ANY2)
    v = kernel.check_hybrid(sys, dataclasses.replace(hybrid, upost=at(12)))
    assert v.is_refuted and v.counterexample.reason == "projection"
    assert v.counterexample.witness == (1, 11)


def test_hybridize_refuses_a_unary_post_the_pairs_miss():
    sys = sys_of((0, 1), (10, 11))
    rel = rel_judgment(sys, [(0, 10)], (1,), (1,), pairs_at((1, 11)))
    unary = kernel.prove_ensures_n(sys, Enumeration((0,)),
                                   StepFn.constant(1), at(1), ANY)
    with pytest.raises(SideConditionFailed,
                       match="^hybrid side conditions fail: refuted "
                             r"\(projection\)$"):
        convert(unary, "hybridize", {"relational": rel,
                                     "unary_pre": Enumeration((10,)),
                                     "upost": at(12)})


def test_rule_frame_needs_the_old_label_set_inside_the_new():
    from relhoare import machine as m
    small, big = m.maychange({m.PC}), m.maychange({m.PC, m.reg_label(0)})
    j = kernel.prove_ensures(sys_of(), Enumeration(()), at(), big, 0)
    assert apply_rule("frame", [j], {"frame": big}).parts.frame is big
    with pytest.raises(SideConditionFailed,
                       match="^extended frame does not contain the old "
                             "label set$"):
        apply_rule("frame", [j], {"frame": small})


def test_rule_loop_needs_one_frame_for_every_stage():
    sys = sys_of((0, 1), (1, 2))
    mono = FrameFn(lambda s, t: t >= s, description="monotone",
                   transitive=True)
    loose = FrameFn(lambda s, t: True, description="anything",
                    transitive=True)
    stages = [kernel.prove_ensures(sys, Enumeration((s,)), at(s + 1), f, 2)
              for s, f in ((0, mono), (1, loose))]
    with pytest.raises(SideConditionFailed,
                       match="^loop premises must share one frame$"):
        apply_rule("loop", stages)
    # a per-state frame on a later stage is a frame too: 1 -> -5 is not
    # monotone, so a loop under mono alone would not recheck
    sys = sys_of((0, 1), (1, -5))
    stages = [kernel.prove_ensures(sys, Enumeration((0,)), at(1), mono, 2),
              kernel.prove_ensures(sys, Enumeration((1,)), at(-5),
                                   per_state({1: loose}, "anything"), 2)]
    with pytest.raises(SideConditionFailed,
                       match="^loop premises must share one frame$"):
        apply_rule("loop", stages)


def branch_cases_of(posts, frames):
    sys = sys_of((0, 2), (1, 2))
    cases = [kernel.prove_ensures(sys, Enumeration((s,)), q, f, 4)
             for s, q, f in zip((0, 1), posts, frames)]
    return apply_rule("branch_cases", cases, {"pre": Enumeration((0, 1))})


def test_rule_branch_cases_needs_a_shared_postcondition():
    with pytest.raises(SideConditionFailed,
                       match="^branch cases must share a postcondition$"):
        branch_cases_of((at(2), at(2, 3)), (ANY, ANY))


def test_rule_branch_cases_needs_a_shared_frame():
    up = FrameFn(lambda s, t: t > s, description="up")
    with pytest.raises(SideConditionFailed,
                       match="^branch cases must share a frame$"):
        branch_cases_of((at(2), at(2)), (ANY, up))


def test_rule_frame_compose_needs_one_middle_frame():
    sys = sys_of((0, 1), (10, 11), (20, 21))
    up = FrameFn(lambda s, t: t > s, description="up")
    j1 = rel_judgment(sys, [(0, 10)], (1,), (1,), pairs_at((1, 11)),
                      product_frame(ANY, up))
    j2 = rel_judgment(sys, [(10, 20)], (1,), (1,), pairs_at((11, 21)))
    with pytest.raises(SideConditionFailed,
                       match="^premises disagree on the middle frame$"):
        apply_rule("frame_compose", [j1, j2])


def test_rule_frame_compose_needs_one_step_count_for_the_middle():
    # 10 and 11 swap, so the middle 10 comes back to 10 after 2 steps and
    # both premises reach the same middle states at different counts
    sys = sys_of((0, 1), (10, 11), (11, 10), (20, 21))
    j1 = rel_judgment(sys, [(0, 10)], (1,), (2,), pairs_at((1, 10)))
    j2 = rel_judgment(sys, [(10, 20)], (0,), (1,), pairs_at((10, 21)))
    with pytest.raises(SideConditionFailed,
                       match="^middle step counts disagree on a joined "
                             "pair$"):
        apply_rule("frame_compose", [j1, j2])


def test_rule_frame_compose_refuses_disjoint_middle_states():
    # two walks of one middle state at one count reach the same states,
    # so only evidence made by hand can disagree on them
    sys = sys_of((0, 1), (10, 11), (20, 21))
    j1 = rel_judgment(sys, [(0, 10)], (1,), (1,), pairs_at((1, 11)))
    j2 = rel_judgment(sys, [(10, 20)], (1,), (1,), pairs_at((11, 21)))
    forged = dataclasses.replace(j1, evidence=kernel.Checked(1, (((1, 12),),)))
    with pytest.raises(SideConditionFailed,
                       match="^joined premises reach disjoint middle "
                             "states$"):
        apply_rule("frame_compose", [forged, j2])


# (0, 0) reaches the middles (1, 1), (1, 2), (2, 1) and (2, 2); from 1 it
# is one step to 3, from 2 two steps to 5
FORK2 = sys_of((0, 1), (0, 2), (1, 3), (2, 4), (4, 5))
MIDS = [(a, b) for a in (1, 2) for b in (1, 2)]
MOVED = PairProperty(lambda a, b: True, "moved")


def test_rule_comp_needs_one_continuation_step_count():
    j1 = rel_judgment(FORK2, [(0, 0)], (1,), (1,), MOVED)
    j2 = rel_judgment(FORK2, MIDS, tuple(a for a, _ in MIDS),
                      tuple(b for _, b in MIDS), MOVED)
    with pytest.raises(SideConditionFailed,
                       match="^continuation step counts differ between "
                             "reached pairs$"):
        apply_rule("comp", [j1, j2])


def test_rule_comp_needs_one_continuation_postcondition():
    j1 = rel_judgment(FORK2, [(0, 0)], (1,), (1,), MOVED)
    j2 = rel_judgment(FORK2, MIDS, (1,) * 4, (0,) * 4, per_state(
        {mid: PairProperty(MOVED.holds, "left moved" if mid[0] == 1
                           else "moved") for mid in MIDS}, "moved"))
    with pytest.raises(SideConditionFailed,
                       match="^continuation postconditions differ between "
                             "reached pairs$"):
        apply_rule("comp", [j1, j2])


def test_rule_conj_needs_a_shared_frame():
    sys = sys_of((0, 1))
    up = FrameFn(lambda s, t: t > s, description="up")
    j1, j2 = (kernel.prove_ensures_n(sys, Enumeration((0,)),
                                     StepFn.constant(1), at(1), f)
              for f in (ANY, up))
    with pytest.raises(SideConditionFailed,
                       match="^conj premises must share a frame$"):
        apply_rule("conj", [j1, j2])


def test_rule_conj2_needs_a_shared_pair_frame():
    sys = sys_of((0, 1))
    up = FrameFn(lambda s, t: t > s, description="up")
    j1, j2 = (rel_judgment(sys, [(0, 0)], (1,), (1,), pairs_at((1, 1)), f)
              for f in (ANY2, product_frame(up, up)))
    with pytest.raises(SideConditionFailed,
                       match="^relational conj premises must share a pair "
                             "frame$"):
        apply_rule("conj2", [j1, j2])


def test_hybridize_needs_the_unary_step_counts():
    sys = sys_of((0, 1), (1, 2), (10, 11))
    rel = rel_judgment(sys, [(0, 10)], (2,), (1,), pairs_at((2, 11)))
    unary = kernel.prove_ensures_n(sys, Enumeration((0,)),
                                   StepFn.constant(1), at(1), ANY)
    with pytest.raises(SideConditionFailed,
                       match="^unary and relational step counts disagree "
                             "on a shared start state$"):
        convert(unary, "hybridize", {"relational": rel,
                                     "unary_pre": Enumeration((10,)),
                                     "upost": at(11)})


def test_hybrid_extract_needs_one_step_count_per_partner():
    # the right state 10 is paired with 0 at one step and with 1 at two
    sys = sys_of((0, 5), (1, 5), (10, 11), (11, 12))
    rel = rel_judgment(sys, [(0, 10), (1, 10)], (1, 1), (1, 2), MOVED)
    unary = kernel.prove_ensures_n(sys, Enumeration((0, 1)),
                                   StepFn.constant(1), at(5), ANY)
    hybrid = convert(unary, "hybridize", {"relational": rel,
                                          "unary_pre": Enumeration((10,)),
                                          "upost": at(11, 12)})
    assert_derived(hybrid)
    with pytest.raises(SideConditionFailed,
                       match="^partners disagree on the right-side step "
                             "count$"):
        convert(hybrid, "hybrid_extract")


def test_promote_needs_evidence_for_exactly_the_start_states():
    # 0 and 2 share the entry pc 0 and both stop at 5, whose pc is 1
    base = sys_of((0, 5), (2, 5))
    sys = dataclasses.replace(base, pc_of=lambda s: s % 2)
    j = kernel.prove_ensures(sys, Enumeration((0,)), at(5), ANY, 4)
    for states in ((0, 2), (2,)):
        ev = kernel.first_stop_evidence(sys, Enumeration(states), 8)
        with pytest.raises(SideConditionFailed,
                           match="^promotion evidence covers different "
                                 "start states$"):
            convert(j, "promote", {"pc_evidence": ev})


def test_the_kernel_imports_without_the_machine_model():
    # rules reach machine frames through local imports only
    src = str(Path(kernel.__file__).resolve().parent.parent)
    probe = ("import sys, relhoare.kernel; "
             "print('relhoare.machine' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# one small derivation per rule and conversion: each key of the two
# registries maps to (premises, inputs), or for a conversion to (premise,
# aux, the further premises its evidence records)

def _rule_cases():
    chain = sys_of((0, 1), (1, 2))
    j01 = kernel.prove_ensures(chain, Enumeration((0,)), at(1), ANY, 4)
    j12 = kernel.prove_ensures(chain, Enumeration((1,)), at(2), ANY, 4)
    mono = FrameFn(lambda s, t: t >= s, description="monotone",
                   transitive=True)
    exact = FrameFn(lambda s, t: (s, t) == (0, 2), description="0 to 2")
    one = StepFn.constant(1)
    fork = sys_of((0, 2), (1, 2))
    rel = rel_judgment(chain, [(0, 0), (1, 1)], (1, 1), (1, 1),
                       PairProperty(lambda a, b: a == b, "equal"))
    moved = rel_judgment(chain, [(0, 0)], (1,), (1,), pairs_at((1, 1)))
    parity = kernel.PairFrame(
        lambda p, q: (p[0] - p[1]) % 2 == (q[0] - q[1]) % 2,
        description="parity preserved")
    apart = sys_of((0, 1), (10, 11), (20, 21))
    still2 = kernel.PairFrame(lambda p, q: (p, q) == ((0, 0), (1, 1)),
                              description="(0, 0) to (1, 1)")
    return {
        "pre": ([chain_judgment(fork, states=(0, 1))],
                {"pre": Enumeration((1,))}),
        "post": ([chain_judgment(chain)], {"post": at(2, 3)}),
        "frame": ([kernel.prove_ensures(sys_of((0, 2)), Enumeration((0,)),
                                        at(2), exact, 4)], {"frame": ANY}),
        "seq": ([j01, j12], {}),
        "branch_cases": ([chain_judgment(fork, states=(s,)) for s in (0, 1)],
                         {"pre": Enumeration((0, 1))}),
        "loop": ([kernel.prove_ensures(chain, Enumeration((s,)), at(s + 1),
                                       mono, 2) for s in (0, 1)], {}),
        "conj": ([kernel.prove_ensures_n(chain, Enumeration((0,)), one, q,
                                         ANY)
                  for q in (at(1), prop(lambda s: s > 0, "positive"))], {}),
        "conj2": ([moved, rel_judgment(chain, [(0, 0)], (1,), (1,),
                                       PairProperty(lambda a, b: a == b,
                                                    "equal"))], {}),
        "comm": ([rel_judgment(chain, [(0, 0)], (0,), (1,),
                               pairs_at((0, 1)))], {}),
        "comp": ([moved, rel_judgment(chain, [(1, 1)], (1,), (1,),
                                      pairs_at((2, 2)))], {}),
        "frame_compose": ([rel_judgment(apart, [(0, 10)], (1,), (1,),
                                        pairs_at((1, 11))),
                           rel_judgment(apart, [(10, 20)], (1,), (1,),
                                        pairs_at((11, 21)))], {}),
        "pre2": ([rel], {"pre": PairEnumeration(((1, 1),))}),
        "post2": ([moved], {"post": PairProperty(lambda a, b: a == b,
                                                 "equal")}),
        "frame2": ([rel_judgment(chain, [(0, 0)], (1,), (1,),
                                 pairs_at((1, 1)), still2)],
                   {"frame": ANY2}),
        "restrict2": ([kernel.prove_ensures2(
            sys_of((0, 2), (1, 3)), PairEnumeration(((0, 0), (0, 1))),
            (1, 1), (1, 1), PairProperty(lambda a, b: a == 2, "left at 2"),
            parity)], {"restriction": PairProperty(
                lambda a, b: (a - b) % 2 == 0, "same parity")}),
    }


def _conversion_cases():
    chain = sys_of((0, 1), (1, 2))
    one = StepFn.constant(1)
    left = kernel.prove_ensures_n(chain, Enumeration((0,)), one, at(1), ANY)
    right = kernel.prove_ensures_n(chain, Enumeration((1,)), one, at(2), ANY)
    apart = sys_of((0, 1), (10, 11))
    rel = kernel.prove_ensures2(
        apart, PairEnumeration(((0, 10),)), (1,), (1,),
        PairProperty(lambda a, b: (a, b) == (1, 11), "at (1,11)"), ANY2)
    unary = kernel.prove_ensures_n(apart, Enumeration((0,)), one, at(1), ANY)
    hybrid_aux = {"relational": rel, "unary_pre": Enumeration((10,)),
                  "upost": at(11)}
    stops = sys_of((0, 4))
    budgeted = kernel.prove_ensures(stops, Enumeration((0,)), at(4), ANY, 4)
    first_stop = kernel.first_stop_evidence(stops, budgeted.parts.enum, 8)
    return {
        "drop_steps": (left, {}, ()),
        "synthesize_steps": (kernel.prove_ensures(
            chain, Enumeration((0, 1)), at(2), ANY, 8), {}, ()),
        "product": (left, {"other": right}, (right,)),
        "hybridize": (unary, hybrid_aux, (rel,)),
        "hybrid_extract": (convert(unary, "hybridize", hybrid_aux), {}, ()),
        "promote": (budgeted, {"pc_evidence": first_stop}, (first_stop,)),
    }


def test_every_rule_and_conversion_has_a_derivation_case():
    assert set(_rule_cases()) == set(kernel._RULES)
    assert set(_conversion_cases()) == set(kernel._CONVERSIONS)


def assert_records(j, rule_id, premises, inputs):
    assert_derived(j)
    ev = j.evidence
    assert ev.rule_id == rule_id
    assert len(ev.premises) == len(premises)
    assert all(a is b for a, b in zip(ev.premises, premises))
    assert ev.side_inputs == tuple(inputs.items())


@pytest.mark.parametrize("rule_id", sorted(kernel._RULES))
def test_each_rule_derives_rechecks_and_replays(rule_id):
    premises, inputs = _rule_cases()[rule_id]
    j = apply_rule(rule_id, premises, inputs)
    assert_records(j, rule_id, premises, inputs)


@pytest.mark.parametrize("conversion_id", sorted(kernel._CONVERSIONS))
def test_each_conversion_derives_rechecks_and_replays(conversion_id):
    premise, aux, further = _conversion_cases()[conversion_id]
    j = convert(premise, conversion_id, aux)
    assert_records(j, "convert:" + conversion_id, (premise, *further), aux)
