"""Differential tests of the kernel's exact-count checks against a frozen
reference.

The reference below is the kernel's exploration code as it was before
each start state was explored once per check: `StepFn.resolve` (as
`_resolve`), `_auto_steps`, `_walk_levels`, `_path_to`, `_evn_report`,
`eventually_n_holds`, `check_ensures_n`, `check_ensures2`,
`check_eventually_n_at_pc` and `first_stop_evidence`, copied verbatim
except that step functions resolve through `_resolve`. It walks each
side of each pair from scratch up to three times. On random finite
systems (forks, dead ends and cycles) the kernel must agree with it:
the same outcome, counterexample and stats, except the `explored` count
the reference does not keep, or the same exception with the same
message.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from relhoare import finsys, kernel
from relhoare.kernel import (
    AUTO_BUDGET, Checked, Counterexample, Enumeration, FrameFn, Judgment,
    PairEnumeration, PairProperty, PcParts, PromotionFailed, PropertyFn,
    SchemaMismatch, StepFn, StepFnUnresolvable, StepOracle, Verdict, _at,
    product_frame, proven, refuted,
)


# ---------------------------------------------------------------------------
# frozen reference

def _resolve(self, sys: StepOracle, s, target: Optional[Callable] = None) -> int:
    # StepFn.resolve
    if self.kind == "const":
        return int(self.value)
    if self.kind == "table":
        try:
            return int(self.value[s])
        except KeyError:
            raise StepFnUnresolvable("state missing from step table")
    return _auto_steps(sys, s, target, int(self.value))


def _auto_steps(sys: StepOracle, s, target: Optional[Callable], budget: int) -> int:
    """First depth at which the whole frontier satisfies the target, or is
    stuck when no target is given."""
    frontier = [s]
    for k in range(budget + 1):
        if target is not None:
            if all(target(x) for x in frontier):
                return k
            if any(not sys.successors(x) for x in frontier):
                raise StepFnUnresolvable(
                    "branches disagree on the first step count satisfying "
                    "the target")
        else:
            stuck = [not sys.successors(x) for x in frontier]
            if all(stuck):
                return k
            if any(stuck):
                raise StepFnUnresolvable(
                    "branches disagree on the termination step count")
        nxt, seen = [], set()
        for x in frontier:
            for t in sys.successors(x):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    raise StepFnUnresolvable(f"no resolution within {budget} steps")


def _walk_levels(sys: StepOracle, s, n: int):
    """Deduplicated frontiers at exact depths 0..n with parent pointers
    for path reconstruction."""
    levels = [[s]]
    parent = {(0, s): None}
    for k in range(n):
        nxt, seen = [], set()
        for st in levels[k]:
            for i, t in enumerate(sys.successors(st)):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
                    parent[(k + 1, t)] = (st, i)
        levels.append(nxt)
        if not nxt:
            break
    return levels, parent


def _path_to(parent, depth: int, state) -> tuple:
    choices = []
    cur = (depth, state)
    while parent[cur] is not None:
        prev, i = parent[cur]
        choices.append(i)
        cur = (cur[0] - 1, prev)
    return tuple(reversed(choices))


def _evn_report(sys: StepOracle, s, n: int, q: Callable):
    """Exact-count check: (ok, finals, fail). Computes the recursive
    definition (n=0: q holds; n>0: successors exist and all satisfy it at
    n-1) by walking deduplicated frontiers. fail is (reason, choices,
    witness) with reason "stuck" or "post"."""
    levels, parent = _walk_levels(sys, s, n)
    for k in range(n):
        if k >= len(levels) - 1 and not levels[-1]:
            break
        for st in levels[k]:
            if not sys.successors(st):
                return False, (), ("stuck", _path_to(parent, k, st), st)
    if len(levels) <= n:
        # frontier died out; the stuck check above must have fired
        raise AssertionError("frontier vanished without a stuck state")
    for st in levels[n]:
        if not q(st):
            return False, (), ("post", _path_to(parent, n, st), st)
    return True, tuple(levels[n]), None


def eventually_n_holds(sys: StepOracle, s, n: int, q: PropertyFn) -> bool:
    """Does every execution from s satisfy q at exactly n steps, with no
    branch dying earlier? Exact, never Unknown."""
    ok, _, _ = _evn_report(sys, s, n, q.holds if isinstance(q, PropertyFn) else q)
    return ok


def check_ensures_n(sys: StepOracle, enum: Enumeration, steps: StepFn, post,
                    frame) -> Verdict:
    """Exact-count check. Resolves the step function per start state
    first, then requires the post and frame on the whole depth-n frontier
    with no earlier stuck state. Never Unknown."""
    enum.validate()
    warnings = []
    if not enum.states:
        warnings.append("EmptyPrecondition")
    resolved, reached = [], []
    for s in enum.states:
        q = _at(post, s)
        f = _at(frame, s)
        target = lambda t, q=q, f=f, s=s: q.holds(t) and f.related(s, t)
        n = _resolve(steps, sys, s, target)
        resolved.append(n)
        ok, finals, fail = _evn_report(sys, s, n, target)
        if not ok:
            reason, choices, witness = fail
            ce = Counterexample(reason, s, choices, witness,
                                detail=f"exact step count {n}")
            return refuted(ce, instances=len(enum.states),
                           steps=tuple(resolved), warnings=tuple(warnings))
        reached.append(finals)
    return proven(instances=len(enum.states), steps=tuple(resolved),
                  warnings=tuple(warnings), reached=tuple(reached))


def check_ensures2(sys: StepOracle, pairs: PairEnumeration, steps0, steps1,
                   post2, frame2) -> Verdict:
    """Relational exact-count check over enumerated pairs.

    For each pair the two sides are walked to their exact-depth frontiers
    (automatic step functions resolve to each side's termination depth)
    and every frontier pair must satisfy the pair postcondition and pair
    frame; this enumerates the nested exact-count quantifier. Step counts
    may be StepFn objects or tuples aligned with the pair list. Never
    Unknown."""
    pairs.validate()
    warnings = []
    if not pairs.pairs:
        warnings.append("EmptyPrecondition")
    res0, res1, reached = [], [], []
    for i, pair in enumerate(pairs.pairs):
        s0, s1 = pair
        q2 = _at(post2, pair)
        f2 = _at(frame2, pair)
        n0 = steps0[i] if isinstance(steps0, tuple) else _resolve(steps0, sys, s0, None)
        n1 = steps1[i] if isinstance(steps1, tuple) else _resolve(steps1, sys, s1, None)
        res0.append(n0)
        res1.append(n1)
        ok0, finals0, fail0 = _evn_report(sys, s0, n0, lambda t: True)
        if not ok0:
            reason, choices, witness = fail0
            ce = Counterexample(reason, pair, (choices, ()), (witness, s1),
                                sides=2, detail="left side died early")
            return refuted(ce, instances=len(pairs.pairs),
                           warnings=tuple(warnings))
        ok1, finals1, fail1 = _evn_report(sys, s1, n1, lambda t: True)
        if not ok1:
            reason, choices, witness = fail1
            ce = Counterexample(reason, pair, ((), choices), (s0, witness),
                                sides=2, detail="right side died early")
            return refuted(ce, instances=len(pairs.pairs),
                           warnings=tuple(warnings))
        _, parent0 = _walk_levels(sys, s0, n0)
        _, parent1 = _walk_levels(sys, s1, n1)
        for a in finals0:
            for b in finals1:
                if not (q2.holds(a, b) and f2.related(pair, (a, b))):
                    ce = Counterexample(
                        "post", pair,
                        (_path_to(parent0, n0, a), _path_to(parent1, n1, b)),
                        (a, b), sides=2,
                        detail=f"pair post {q2.description!r} with frame "
                               f"{f2.description!r}")
                    return refuted(ce, instances=len(pairs.pairs),
                                   steps0=tuple(res0), steps1=tuple(res1),
                                   warnings=tuple(warnings))
        reached.append(tuple((a, b) for a in finals0 for b in finals1))
    return proven(instances=len(pairs.pairs), steps0=tuple(res0),
                  steps1=tuple(res1), warnings=tuple(warnings),
                  reached=tuple(reached))


def check_eventually_n_at_pc(sys: StepOracle, enum: Enumeration, x0: int,
                             xw: int, n: int) -> Verdict:
    """From every start state (whose pc must be x0) the pc reaches xw for
    the first time at exactly step n, on every branch, and is stuck
    there."""
    if sys.pc_of is None:
        raise SchemaMismatch("oracle has no pc reader")
    enum.validate()
    pc_of = sys.pc_of
    for s in enum.states:
        if pc_of(s) != x0:
            raise SchemaMismatch(f"start state has pc {pc_of(s):#x}, not {x0:#x}")
    for s in enum.states:
        levels, parent = _walk_levels(sys, s, n)
        for k in range(n):
            if k >= len(levels):
                break
            for st in levels[k]:
                if pc_of(st) == xw:
                    ce = Counterexample("pc_hit_early", s,
                                        _path_to(parent, k, st), st,
                                        detail=f"pc reached {xw:#x} at step "
                                               f"{k}, expected {n}")
                    return refuted(ce)
                if not sys.successors(st):
                    ce = Counterexample("stuck", s, _path_to(parent, k, st), st,
                                        detail=f"stuck at step {k} before {n}")
                    return refuted(ce)
        if len(levels) <= n:
            raise AssertionError("frontier vanished without a stuck state")
        for st in levels[n]:
            if pc_of(st) != xw:
                ce = Counterexample("pc_miss", s, _path_to(parent, n, st), st,
                                    detail=f"pc is {pc_of(st):#x} at step {n}, "
                                           f"expected {xw:#x}")
                return refuted(ce)
            if sys.successors(st):
                ce = Counterexample("not_terminated", s,
                                    _path_to(parent, n, st), st,
                                    detail=f"state at {xw:#x} still has "
                                           f"successors")
                return refuted(ce)
    return proven(instances=len(enum.states))


def first_stop_evidence(sys: StepOracle, enum: Enumeration,
                        budget: int = AUTO_BUDGET) -> Judgment:
    """Resolve, per start state, the first step at which execution is
    stuck, requiring all branches to stop together at one address that
    the pc never visited earlier. This packages the promotion premise for
    programs with data-dependent exits."""
    if sys.pc_of is None:
        raise SchemaMismatch("oracle has no pc reader")
    enum.validate()
    if not enum.states:
        raise PromotionFailed("no start states to resolve")
    pc_of = sys.pc_of
    x0s = {pc_of(s) for s in enum.states}
    if len(x0s) != 1:
        raise PromotionFailed("start states disagree on the entry pc")
    stops = []
    for s in enum.states:
        frontier = [s]
        visited_pcs: list = []
        stop = None
        for k in range(budget + 1):
            alive = [bool(sys.successors(x)) for x in frontier]
            if not any(alive):
                pcs = {pc_of(x) for x in frontier}
                if len(pcs) != 1:
                    raise PromotionFailed(
                        "branches stop at different addresses")
                stop = (pcs.pop(), k)
                break
            if not all(alive):
                raise PromotionFailed(
                    "branches disagree on the termination step count")
            visited_pcs.append({pc_of(x) for x in frontier})
            nxt, seen = [], set()
            for x in frontier:
                for t in sys.successors(x):
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        if stop is None:
            raise PromotionFailed(
                f"no stuck state within {budget} steps; the program does "
                f"not end in a stopper")
        xw, n = stop
        for k, pcs in enumerate(visited_pcs[:n]):
            if xw in pcs:
                raise PromotionFailed(
                    f"pc revisits the stop address {xw:#x} (first seen at "
                    f"step {k})")
        stops.append(stop)
    parts = PcParts(enum, x0s.pop(), tuple(stops))
    evidence = Checked(instances=len(enum.states), reached=tuple(stops),
                       notes="first-stop resolution by simulation")
    return Judgment("eventually_n_at_pc", sys, parts, evidence)


# ---------------------------------------------------------------------------
# random inputs

@st.composite
def systems(draw):
    """A random finite system on up to 6 states: from `random_system`,
    with out-degree up to 3, or from a drawn edge list, whose few edges
    leave many forks into dead ends."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return finsys.random_system(draw(st.integers(0, 10**6)), n,
                                    draw(st.integers(0, 3)))
    state = st.integers(0, n - 1)
    return finsys.finsys(n, draw(st.lists(st.tuples(state, state),
                                          max_size=10)))


def masks(bits: int):
    """A subset of `bits` cells as a bit mask, often the full set so that
    proofs are as common as refutations."""
    full = (1 << bits) - 1
    return st.one_of(st.just(full), st.integers(0, full))


def step_fns(g):
    """Constant, table (possibly missing a start state) and automatic
    step functions, at depths and budgets that reach every state."""
    states = st.sampled_from(range(g.n_states))
    return st.one_of(
        st.integers(0, 4).map(StepFn.constant),
        st.dictionaries(states, st.integers(0, 4)).map(StepFn.table),
        st.integers(0, 6).map(StepFn.auto))


def state_prop(mask: int) -> PropertyFn:
    return kernel.prop(lambda s: bool(mask >> s & 1), f"in {mask:#x}")


def state_frame(n: int, mask: int) -> FrameFn:
    return FrameFn(lambda s, t: bool(mask >> (s * n + t) & 1),
                   description=f"frame {mask:#x}")


def outcome(check, *args):
    """A check's verdict, or the kernel error it raised."""
    try:
        return check(*args)
    except kernel.KernelError as e:
        return type(e), str(e)


def assert_same(got, want) -> None:
    if not isinstance(want, Verdict):
        assert got == want
        return
    assert isinstance(got, Verdict), got
    assert got.outcome == want.outcome
    fields = lambda ce: None if ce is None else (
        ce.reason, ce.initial, ce.choices, ce.witness, ce.sides, ce.detail)
    assert fields(got.counterexample) == fields(want.counterexample)
    stats = {k: v for k, v in got.stats.items() if k != "explored"}
    assert stats == want.stats


# ---------------------------------------------------------------------------
# the kernel against the reference

@st.composite
def relational_cases(draw):
    g = draw(systems())
    n = g.n_states
    state = st.integers(0, n - 1)
    pairs = tuple(draw(st.lists(st.tuples(state, state), max_size=8)))
    steps = st.one_of(
        st.lists(st.integers(0, 4), min_size=len(pairs),
                 max_size=len(pairs)).map(tuple),
        step_fns(g))
    post2_mask = draw(masks(n * n))
    post2 = PairProperty(lambda a, b: bool(post2_mask >> (a * n + b) & 1),
                         f"pairs in {post2_mask:#x}")
    frame2 = product_frame(state_frame(n, draw(masks(n * n))),
                           state_frame(n, draw(masks(n * n))))
    return g, pairs, draw(steps), draw(steps), post2, frame2


@given(case=relational_cases())
@settings(max_examples=400, deadline=None)
def test_check_ensures2_matches_the_reference(case):
    g, pairs, steps0, steps1, post2, frame2 = case
    args = (g.oracle(), PairEnumeration(pairs), steps0, steps1, post2, frame2)
    got = outcome(kernel.check_ensures2, *args)
    assert_same(got, outcome(check_ensures2, *args))
    if isinstance(got, Verdict):
        assert got.stats["explored"] <= 2 * len(pairs)


@st.composite
def unary_cases(draw):
    g = draw(systems())
    n = g.n_states
    states = tuple(draw(st.lists(st.integers(0, n - 1), max_size=6)))
    return (g, states, draw(step_fns(g)), state_prop(draw(masks(n))),
            state_frame(n, draw(masks(n * n))))


@given(case=unary_cases())
@settings(max_examples=400, deadline=None)
def test_check_ensures_n_matches_the_reference(case):
    g, states, steps, post, frame = case
    args = (g.oracle(), Enumeration(states), steps, post, frame)
    assert_same(outcome(kernel.check_ensures_n, *args),
                outcome(check_ensures_n, *args))


@given(g=systems(), n=st.integers(0, 5), mask=st.integers(0, 63))
@settings(max_examples=200, deadline=None)
def test_eventually_n_holds_matches_the_reference(g, n, mask):
    q = state_prop(mask)
    for s in range(g.n_states):
        assert (kernel.eventually_n_holds(g.oracle(), s, n, q)
                == eventually_n_holds(g.oracle(), s, n, q))


@given(g=systems(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_pc_checks_match_the_reference(g, data):
    # pcs repeat across states, so a stop address can be visited early
    m = data.draw(st.integers(1, g.n_states))
    sys = dataclasses.replace(g.oracle(), pc_of=lambda s: s % m)
    x0 = data.draw(st.integers(0, m - 1))
    starts = st.sampled_from(range(x0, g.n_states, m))
    enum = Enumeration(tuple(data.draw(st.lists(starts, min_size=1,
                                                max_size=3))))
    xw = data.draw(st.integers(0, m - 1))
    n = data.draw(st.integers(0, 4))
    assert_same(outcome(kernel.check_eventually_n_at_pc, sys, enum, x0, xw, n),
                outcome(check_eventually_n_at_pc, sys, enum, x0, xw, n))
    budget = data.draw(st.integers(0, 6))

    def stops(first_stop):
        got = outcome(first_stop, sys, enum, budget)
        return (got.parts.x0, got.parts.stops) if isinstance(got, Judgment) \
            else got

    assert stops(kernel.first_stop_evidence) == stops(first_stop_evidence)


# ---------------------------------------------------------------------------
# each start state explored once per check

def counting(sys: StepOracle):
    """sys with a list that records every state handed to successors."""
    calls: list = []

    def successors(s):
        calls.append(s)
        return sys.successors(s)

    return dataclasses.replace(sys, successors=successors), calls


# 0 forks to 1 and 2, which join at 3; 4 is a stuck end
DIAMOND = finsys.finsys(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
TRUE2 = PairProperty(lambda a, b: True, "true")
ANY2 = product_frame(kernel.ANYTHING, kernel.ANYTHING)


def test_a_start_state_in_eight_pairs_costs_what_one_pair_costs():
    sys, calls = counting(DIAMOND.oracle())
    verdicts = []
    for copies in (1, 8):
        calls.clear()
        v = kernel.check_ensures2(sys, PairEnumeration(((0, 0),) * copies),
                                  StepFn.auto(16), StepFn.auto(16),
                                  TRUE2, ANY2)
        verdicts.append((v, len(calls)))
    (one, one_calls), (eight, eight_calls) = verdicts
    assert one.is_proven and eight.is_proven
    assert eight_calls == one_calls == 5  # each of the states 0 to 4 once
    assert one.stats["explored"] == eight.stats["explored"] == 1


def test_explored_counts_start_states_per_step_rule():
    sys = DIAMOND.oracle()
    pairs = PairEnumeration(tuple((a, b) for a in (0, 1) for b in (0, 1)))
    # both sides share one rule, so the two start states are explored once
    same = kernel.check_ensures2(sys, pairs, StepFn.auto(16),
                                 StepFn.auto(16), TRUE2, ANY2)
    assert same.is_proven and same.stats["explored"] == 2
    # an exact depth on the right is a different rule for the same states
    mixed = kernel.check_ensures2(sys, pairs, StepFn.auto(16),
                                  StepFn.constant(1), TRUE2, ANY2)
    assert mixed.is_proven and mixed.stats["explored"] == 4
    # a refutation reports the explorations made up to its pair
    early = kernel.check_ensures2(sys, pairs, StepFn.auto(16),
                                  StepFn.constant(1),
                                  PairProperty(lambda a, b: False, "false"),
                                  ANY2)
    assert early.is_refuted and early.stats["explored"] == 2
    assert early.counterexample.initial == (0, 0)
