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

A second reference holds `_explore`, `_ev_search` and `check_ensures`
as they were before the unary walk stepped through straight-line code:
every state gets a stack frame, a memo lookup and a target call, and
every frontier is deduplicated. With a correct pc guard the kernel must
give the same outcome, reason, choices, witness and frontier (its own a
list in discovery order, compared as a set) on random machine states, on
random finite systems and on every corpus and benchmark spec, and the
same report on each. With a wrong guard it must never prove what the
reference does not. With none, its memo must save every successors call
the reference's saves.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import sys
from pathlib import Path
from typing import Callable, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relhoare import asm, cli, finsys, kernel, machine, specfile
from relhoare.kernel import (
    AUTO_BUDGET, Checked, Counterexample, Enumeration, FrameFn, Judgment,
    PairEnumeration, PairProperty, PcParts, PromotionFailed, PropertyFn,
    SchemaMismatch, StepFn, StepFnUnresolvable, StepOracle, Verdict,
    _NO_COMMON_STOP, _at, product_frame, proven, refuted, unknown,
)

from conftest import CORPUS, ROOT, load_problem
from test_machine_reference import (
    BASE, FIXED, REWRITE, SLOTS, UNMAPPED, WORD, label_sets, over_an_image,
    start_states,
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
    evidence = Checked(instances=len(enum.states), reached=tuple(stops))
    return Judgment("eventually_n_at_pc", sys, parts, evidence)


# ---------------------------------------------------------------------------
# frozen reference of the unary walks: every state gets a frame, a target
# call and a memo lookup, and every frontier is deduplicated

def _explore(sys: StepOracle, s, n_or_auto, target: Optional[Callable]):
    """The kernel's one walk: the deduplicated frontiers from s, calling
    successors once per frontier state.

    n_or_auto is an exact depth or an automatic StepFn, resolved here to
    the first depth at which the whole frontier satisfies target (with no
    target: is stuck); a branch dying first, or the budget running out,
    raises StepFnUnresolvable. Returns (n, finals, fail): the depth, the
    depth-n frontier and the first failure at an exact depth, as
    (reason, depth, state) with reason "stuck" (no successors before
    depth n) or "post" (fails target at depth n), or None."""
    auto = isinstance(n_or_auto, StepFn)
    depth = int(n_or_auto.value) if auto else n_or_auto
    if not auto and depth < 0:
        raise StepFnUnresolvable(f"step count {depth} is negative")
    frontier = [s]
    for k in range(depth + 1):
        if auto and target is not None and all(target(x) for x in frontier):
            return k, tuple(frontier), None
        if not auto and k == depth:
            for x in frontier:
                if target is not None and not target(x):
                    return depth, (), ("post", depth, x)
            return depth, tuple(frontier), None
        succs = [sys.successors(x) for x in frontier]
        stuck = [x for x, ss in zip(frontier, succs) if not ss]
        if stuck:
            if not auto:
                return depth, (), ("stuck", k, stuck[0])
            if target is None and len(stuck) == len(frontier):
                return k, tuple(frontier), None
            raise StepFnUnresolvable(
                _NO_COMMON_STOP if target is None else
                "branches disagree on the first step count satisfying "
                "the target")
        frontier = list(dict.fromkeys(t for ss in succs for t in ss))
    raise StepFnUnresolvable(f"no resolution within {depth} steps")


def _ev_search(sys: StepOracle, s0, target: Callable, budget: int, finite: bool):
    """Budgeted all-paths reachability of target. Returns a tuple
    (outcome, reason, choices, witness, frontier) where outcome is
    "proven", "refuted" or "unknown". On finite systems a repeated state
    along one path refutes (a target-avoiding cycle); otherwise running
    out of budget yields unknown."""
    proven_states: set = set()
    frontier: set = set()
    stack = [[s0, None, 0, budget, False]]
    choices: list = []
    on_path: set = set()
    outcome: Optional[str] = None

    def pop_frame(expanded: bool, state) -> None:
        stack.pop()
        if expanded:
            on_path.discard(state)
        if stack:
            choices.pop()

    while stack:
        frame = stack[-1]
        state, succs, idx, b, _ = frame
        if succs is None:
            if state in proven_states:
                outcome = "proven"
                pop_frame(False, state)
                continue
            if target(state):
                proven_states.add(state)
                frontier.add(state)
                outcome = "proven"
                pop_frame(False, state)
                continue
            if finite and state in on_path:
                return "refuted", "cycle", tuple(choices), state, frontier
            ss = list(sys.successors(state))
            if not ss:
                return "refuted", "stuck", tuple(choices), state, frontier
            if b <= 0:
                outcome = "unknown"
                pop_frame(False, state)
                continue
            frame[1] = succs = ss
            on_path.add(state)
            idx = 0
        else:
            if outcome == "unknown":
                frame[4] = True
        if idx < len(succs):
            frame[2] = idx + 1
            choices.append(idx)
            stack.append([succs[idx], None, 0, b - 1, False])
            outcome = None
            continue
        if frame[4]:
            outcome = "unknown"
        else:
            proven_states.add(state)
            outcome = "proven"
        pop_frame(True, state)

    return outcome, None, None, None, frontier


def check_ensures(sys: StepOracle, enum: Enumeration, post, frame,
                  budget: int) -> Verdict:
    """Budgeted check of the step-free triple, one instance at a time.
    The first non-proven instance decides the verdict."""
    enum.validate()
    warnings = []
    if not enum.states:
        warnings.append("EmptyPrecondition")
    reached = []
    for s in enum.states:
        q = _at(post, s)
        f = _at(frame, s)
        target = lambda t, q=q, f=f, s=s: q.holds(t) and f.related(s, t)
        outcome, reason, choices, witness, frontier = _ev_search(
            sys, s, target, budget, sys.finite_hint)
        if outcome == "refuted":
            ce = Counterexample(reason, s, choices, witness,
                                detail=f"post {q.description!r} with frame "
                                       f"{f.description!r}")
            return refuted(ce, instances=len(enum.states), warnings=tuple(warnings))
        if outcome == "unknown":
            return unknown(instances=len(enum.states), budget=budget,
                           warnings=tuple(warnings))
        reached.append(tuple(frontier))
    return proven(instances=len(enum.states), warnings=tuple(warnings),
                  reached=tuple(reached))


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
    # step counts are an array('q'), the reference's a tuple
    stats = {k: tuple(v) if k == "steps" else v
             for k, v in got.stats.items() if k != "explored"}
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
    # pcs repeat across states, so a stop address can be visited early;
    # a start state whose pc is not x0 is refused, even after a failure
    m = data.draw(st.integers(1, g.n_states))
    sys = dataclasses.replace(g.oracle(), pc_of=lambda s: s % m)
    x0 = data.draw(st.integers(0, m - 1))
    starts = st.sampled_from(range(x0, g.n_states, m)) | st.integers(
        0, g.n_states - 1)
    enum = Enumeration(tuple(data.draw(st.lists(starts, min_size=1,
                                                max_size=3))))
    xw = data.draw(st.integers(0, m - 1))
    n = data.draw(st.integers(0, 4))
    parts = PcParts(enum, x0, ((xw, n),) * len(enum.states))
    want = outcome(check_eventually_n_at_pc, sys, enum, x0, xw, n)
    if isinstance(want, Verdict) and want.is_proven:  # and the counts n
        want.stats.update(steps=(n,) * len(enum.states), warnings=())
    assert_same(outcome(kernel.check_eventually_n_at_pc, sys, parts), want)
    budget = data.draw(st.integers(0, 6))

    def stops(first_stop):
        got = outcome(first_stop, sys, enum, budget)
        return (got.parts.x0, got.parts.stops) if isinstance(got, Judgment) \
            else got

    assert stops(kernel.first_stop_evidence) == stops(first_stop_evidence)


@given(g=systems(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_per_state_stops_match_the_reference_one_state_at_a_time(g, data):
    # each start state has a stop address and a step count of its own;
    # the reference checks the states one at a time, in order
    m = data.draw(st.integers(1, g.n_states))
    sys = dataclasses.replace(g.oracle(), pc_of=lambda s: s % m)
    x0 = data.draw(st.integers(0, m - 1))
    states = tuple(data.draw(st.lists(
        st.sampled_from(range(x0, g.n_states, m)), min_size=1, max_size=4)))
    stops = tuple(data.draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, 4)),
        min_size=len(states), max_size=len(states))))
    want = proven(instances=len(states), steps=tuple(n for _, n in stops),
                  warnings=())
    for s, (xw, n) in zip(states, stops):
        alone = outcome(check_eventually_n_at_pc, sys, Enumeration((s,)), x0,
                        xw, n)
        if not (isinstance(alone, Verdict) and alone.is_proven):
            want = alone
            break
    assert_same(outcome(kernel.check_eventually_n_at_pc, sys,
                        PcParts(Enumeration(states), x0, stops)), want)


# ---------------------------------------------------------------------------
# each start state explored once per check

def counting(sys: StepOracle):
    """sys with a list that records every state handed to successors or
    to its run, if it has one."""
    calls: list = []

    def successors(s):
        calls.append(s)
        return sys.successors(s)

    def run(s, limit, stops=None):
        calls.append(s)
        return sys.run(s, limit, stops)

    return dataclasses.replace(sys, successors=successors,
                               run=run if sys.run else None), calls


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


# ---------------------------------------------------------------------------
# the unary walks against their frozen reference

MACHINE = machine.oracle()

# guard candidates: every code slot, the slot past the code, a misaligned
# and an unmapped pc
PC_POOL = [BASE + WORD * i for i in range(SLOTS + 1)] + [BASE + 2, UNMAPPED]
guards = st.sets(st.sampled_from(PC_POOL)).map(frozenset)

TARGETS = {
    "stuck": machine.is_stuck,
    "x0 even": lambda t: t.regs[0] % 2 == 0,
    # holds on the first branch of a mulnd fork only, so the second
    # branch is walked after the first came back
    "n clear": lambda t: t.flag_n == 0,
    "anywhere": lambda t: True,
}


# a mulnd fork, then straight code to a stopper: with the target "n
# clear" the first branch is proven and the second stuck at BASE + 12
FORK = asm.load_program(machine.zeroed_state(), asm.assemble(
    "mulnd x2, x1, x1\nmovr x4, x0\nmul x3, x4, x2\nhalt"), BASE)


def guarded(pcs: frozenset, name: str) -> Callable:
    """A target that holds only at the pcs in pcs, so that pcs is a
    correct guard of it."""
    holds = TARGETS[name]
    return lambda t: t.pc in pcs and holds(t)


def as_set(got: tuple) -> tuple:
    """An `_ev_search` result with its frontier, a list in discovery
    order, as the set the reference collects."""
    return got[:4] + (set(got[4]),)


def walk_fields(v: Verdict) -> tuple:
    """A check_ensures verdict, its reached frontiers as sets."""
    ce = v.counterexample
    stats = dict(v.stats)
    stats["reached"] = tuple(map(frozenset, stats.get("reached", ())))
    return v.outcome, None if ce is None else (
        ce.reason, ce.initial, ce.choices, ce.witness, ce.detail), stats


@given(start_states(), guards, st.sampled_from(sorted(TARGETS)),
       st.integers(0, 16))
@example(FIXED, frozenset(PC_POOL), "stuck", 16)
@example(REWRITE, frozenset({BASE}), "x0 even", 16)
@example(FORK, frozenset({BASE + 12}), "n clear", 16)
@settings(max_examples=400, deadline=None)
def test_ev_search_matches_the_reference_on_machine_states(s0, pcs, name,
                                                           budget):
    target = guarded(pcs, name)
    want = _ev_search(MACHINE, s0, target, budget, False)
    assert as_set(kernel._ev_search(MACHINE, s0, target, budget, False,
                                    pcs)) == want
    assert as_set(kernel._ev_search(MACHINE, s0, target, budget,
                                    False)) == want


@given(st.lists(start_states(), min_size=1, max_size=3), guards,
       st.sampled_from(sorted(TARGETS)), st.integers(0, 16),
       st.one_of(st.none(), label_sets))
@settings(max_examples=200, deadline=None)
def test_check_ensures_matches_the_reference_on_machine_states(
        states, pcs, name, budget, labels):
    post = PropertyFn(guarded(pcs, name), name, pcs)
    frame = kernel.ANYTHING if labels is None else machine.maychange(labels)
    args = (MACHINE, Enumeration(tuple(states)), post, frame, budget)
    assert walk_fields(kernel.check_ensures(*args)) == \
        walk_fields(check_ensures(*args))


@given(start_states(),
       st.one_of(st.integers(-1, 12), st.integers(0, 12).map(StepFn.auto)),
       st.sampled_from([None] + sorted(TARGETS)))
@example(FIXED, 12, "stuck")
@example(FIXED, StepFn.auto(12), None)
@settings(max_examples=300, deadline=None)
def test_explore_matches_the_reference_on_machine_states(s0, rule, name):
    target = None if name is None else TARGETS[name]
    assert outcome(kernel._explore, MACHINE, s0, rule, target) == \
        outcome(_explore, MACHINE, s0, rule, target)


@given(start_states(), guards, guards, st.integers(0, 16))
@settings(max_examples=300, deadline=None)
def test_a_wrong_guard_never_proves_on_machine_states(s0, exits, pcs,
                                                      budget):
    # the target holds at the stuck states at exits; pcs guards it at
    # random, so it may leave out an exit the walk reaches
    target = guarded(exits, "stuck")
    got = kernel._ev_search(MACHINE, s0, target, budget, False, pcs)
    if got[0] == "proven":
        assert _ev_search(MACHINE, s0, target, budget, False)[0] == "proven"


def test_a_spent_budget_takes_no_run_of_zero_steps():
    # FIXED's first step has one successor, outside the empty guard; at
    # budget 1 the search steps to it and finds the budget spent there:
    # two oracle calls, as in the reference, and no run with limit 0
    target = guarded(frozenset(), "stuck")
    sys, calls = counting(MACHINE)
    ref_sys, ref_calls = counting(MACHINE)
    got = kernel._ev_search(sys, FIXED, target, 1, False, frozenset())
    want = _ev_search(ref_sys, FIXED, target, 1, False)
    assert got[0] == "unknown" and as_set(got) == want
    assert len(calls) == len(ref_calls) == 2


def finite_cases(data, g):
    """The oracle of g with pc = state mod m, a correct guard and the
    target it guards, and a budget."""
    m = data.draw(st.integers(1, g.n_states))
    sys = dataclasses.replace(g.oracle(), pc_of=lambda s: s % m)
    pcs = frozenset(data.draw(st.sets(st.integers(0, m - 1))))
    mask = data.draw(masks(g.n_states))
    target = lambda s: s % m in pcs and bool(mask >> s & 1)
    return sys, pcs, target, data.draw(st.integers(0, 8))


@given(g=systems(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_ev_search_matches_the_reference_on_finite_systems(g, data):
    sys, pcs, target, budget = finite_cases(data, g)
    for s in range(g.n_states):
        want = _ev_search(sys, s, target, budget, True)
        assert as_set(kernel._ev_search(sys, s, target, budget, True,
                                        pcs)) == want
        # not marked finite, the walk steps through one-successor states
        # without the memo of proven states; a state that recurs at a
        # greater depth may then run out of budget where the memo proved
        # it, so a Proven may become Unknown, and nothing else may change
        got = as_set(kernel._ev_search(sys, s, target, budget, False, pcs))
        want = _ev_search(sys, s, target, budget, False)
        assert got == want or (got[0], want[0]) == ("unknown", "proven")


def test_a_stepped_through_branch_leaves_its_choices_behind():
    # 0 forks to 1 and 3; 1 steps to the target 2, 3 to the dead end 4
    g = finsys.finsys(5, [(0, 1), (0, 3), (1, 2), (3, 4)])
    sys = dataclasses.replace(g.oracle(), finite_hint=False)
    target = lambda s: s == 2
    want = ("refuted", "stuck", (1, 0), 4, {2})
    assert _ev_search(sys, 0, target, 8, False) == want
    assert as_set(kernel._ev_search(sys, 0, target, 8, False,
                                    frozenset({2}))) == want


@given(g=systems(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_check_ensures_matches_the_reference_on_finite_systems(g, data):
    sys, pcs, target, budget = finite_cases(data, g)
    n = g.n_states
    states = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=6)))
    post = PropertyFn(target, "guarded", pcs)
    args = (sys, Enumeration(states), post,
            state_frame(n, data.draw(masks(n * n))), budget)
    assert walk_fields(kernel.check_ensures(*args)) == \
        walk_fields(check_ensures(*args))


@given(g=systems(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_explore_matches_the_reference_on_finite_systems(g, data):
    rule = data.draw(st.one_of(st.integers(-1, 5),
                               st.integers(0, 6).map(StepFn.auto)))
    target = data.draw(st.one_of(st.none(), masks(g.n_states).map(
        lambda mask: lambda s: bool(mask >> s & 1))))
    for s in range(g.n_states):
        assert outcome(kernel._explore, g.oracle(), s, rule, target) == \
            outcome(_explore, g.oracle(), s, rule, target)


@given(g=systems(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_wrong_guard_never_proves_on_finite_systems(g, data):
    sys, _, target, budget = finite_cases(data, g)
    pcs = frozenset(data.draw(st.sets(st.integers(0, g.n_states - 1))))
    for s in range(g.n_states):
        for finite in (True, False):
            if kernel._ev_search(sys, s, target, budget, finite,
                                 pcs)[0] == "proven":
                assert _ev_search(sys, s, target, budget, finite)[0] == \
                    "proven"


def _bench_specs(workload: str, work: Path) -> list:
    """The benchmark's generated specs of workload at its default seed,
    written into work."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    inputs = workloads.generate(workload, workloads.DEFAULT_SEED, work)
    return [Path(p) for _, p in sorted(inputs.items())]


def _report(path: Path) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", str(path)])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory) -> list:
    """Every corpus spec and every `unary` benchmark spec."""
    return sorted(CORPUS.glob("*.spec")) + _bench_specs(
        "unary", tmp_path_factory.mktemp("bench_unary"))


def test_every_spec_reports_what_the_reference_reports(spec_paths,
                                                       monkeypatch):
    got = [_report(p) for p in spec_paths]
    monkeypatch.setattr(kernel, "_explore", _explore)
    monkeypatch.setattr(kernel, "check_ensures", check_ensures)
    assert got == [_report(p) for p in spec_paths]


def test_every_unary_spec_walks_as_the_reference_walks(spec_paths):
    guarded_posts = 0
    for path in spec_paths:
        spec = specfile.parse_spec(path.read_text())
        if spec.kind != "unary":
            continue
        problem = specfile.build_problem(spec, path.parent)
        for layer in problem.layers():
            enum, post, frame = layer.unary_parts()
            guarded_posts += sum(post.at(s).pcs is not None
                                 for s in enum.states)
            args = (MACHINE, enum, post, frame, spec.budget)
            assert walk_fields(kernel.check_ensures(*args)) == \
                walk_fields(check_ensures(*args)), path.name
    assert guarded_posts > 0  # the walks stepped through straight code


def test_a_guard_without_the_real_exit_does_not_prove():
    problem = load_problem("compare_correct.spec")
    base = problem.bases[0]
    enum, post, frame = problem.layers()[0].unary_parts()
    assert {post.at(s).pcs for s in enum.states} == {
        frozenset({base + 40, base + 48})}
    # the neq exit at base + 48 left out of every guard
    wrong = kernel.per_state({
        s: dataclasses.replace(post.at(s), pcs=frozenset({base + 40}))
        for s in enum.states})
    v = kernel.check_ensures(MACHINE, enum, wrong, frame,
                             problem.spec.budget)
    assert not v.is_proven
    assert v.counterexample.witness.pc == base + 48


def test_a_loop_of_forks_is_walked_once_per_fork():
    # each mulnd forks on flag_n and the next one overwrites it, so the
    # two branches of a fork meet at the children of the next fork: the
    # memo must catch them there, or the walk takes 2^k paths
    k = 12
    loop = asm.load_program(machine.zeroed_state(), asm.assemble(
        "loop:\nmulnd x2, x1, x1\nsubi x3, x3, #1\ncbnz x3, loop\nhalt"),
        BASE).with_reg(3, k)
    exit_pc = BASE + 12
    target = lambda t: t.pc == exit_pc and machine.is_stuck(t)
    sys, calls = counting(MACHINE)
    want = _ev_search(sys, loop, target, 4 * k, False)
    reference_calls = len(calls)
    assert want[0] == "proven" and reference_calls < 8 * k
    calls.clear()
    got = kernel._ev_search(sys, loop, target, 4 * k, False,
                            frozenset({exit_pc}))
    assert as_set(got) == want
    assert len(calls) <= reference_calls


# straight code and forks on flag_n whose branches meet again once cmpi
# or the next mulnd overwrites the flag, in loops on x3 and on z
FORK_LINES = ("mulnd x2, x1, x1", "cmpi x3, #1", "subi x3, x3, #1",
              "cbnz x3, top", "bne top", "movr x4, x0", "halt")


@st.composite
def fork_states(draw):
    """A start state at a short program of FORK_LINES."""
    lines = draw(st.lists(st.sampled_from(FORK_LINES), min_size=1,
                          max_size=6))
    s = asm.load_program(machine.zeroed_state(),
                         asm.assemble("top:\n" + "\n".join(lines)), BASE)
    return s.with_reg(1, draw(st.integers(0, 3))).with_reg(
        3, draw(st.integers(0, 4)))


@given(fork_states(), st.sampled_from(sorted(TARGETS)), st.integers(0, 16))
@example(FORK, "n clear", 16)
@example(FIXED, "stuck", 16)
@settings(max_examples=300, deadline=None)
def test_the_memo_saves_every_call_the_reference_saves_on_machine_states(
        s0, name, budget):
    # with no guard every state gets a frame, as in the reference, so the
    # two walks differ in what their memos keep and nothing else
    sys, calls = counting(MACHINE)
    want = _ev_search(sys, s0, TARGETS[name], budget, False)
    reference_calls = len(calls)
    calls.clear()
    got = kernel._ev_search(sys, s0, TARGETS[name], budget, False)
    assert as_set(got) == want and len(calls) <= reference_calls


@given(g=systems(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_the_memo_saves_every_call_the_reference_saves_on_finite_systems(
        g, data):
    # a walk marked finite never steps through a state, so it keeps its
    # guard; a walk not marked finite drops it so as not to step through
    # either, and then differs from the reference in its memo alone
    oracle, pcs, target, budget = finite_cases(data, g)
    sys, calls = counting(oracle)
    for s in range(g.n_states):
        for finite in (True, False):
            calls.clear()
            want = _ev_search(sys, s, target, budget, finite)
            reference_calls = len(calls)
            calls.clear()
            got = kernel._ev_search(sys, s, target, budget, finite,
                                    pcs if finite else None)
            assert as_set(got) == want and len(calls) <= reference_calls


@pytest.mark.parametrize("finite", [True, False])
def test_the_branches_of_a_diamond_meet_in_the_memo(finite):
    # the branch through 2 finds 3 proven by the branch through 1
    sys, calls = counting(DIAMOND.oracle())
    want = _ev_search(sys, 0, lambda s: s == 4, 8, finite)
    assert want[0] == "proven" and sorted(calls) == [0, 1, 2, 3]
    calls.clear()
    got = kernel._ev_search(sys, 0, lambda s: s == 4, 8, finite)
    assert as_set(got) == want and sorted(calls) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# walks that take whole runs against walks that single-step

NO_RUN = dataclasses.replace(MACHINE, run=None)  # the kernel's own loop


@given(start_states(), st.booleans(),
       st.sampled_from([None] + sorted(TARGETS)))
@example(FIXED, True, None)
@example(FORK, True, "n clear")
@settings(max_examples=200, deadline=None)
def test_explore_takes_runs_as_it_takes_single_steps(s0, shared, name):
    # every exact depth up to 16, so that many end inside a stretch, and
    # automatic counts with budgets that do
    s0 = over_an_image(s0) if shared else s0
    target = None if name is None else TARGETS[name]
    for n in range(17):
        for rule in (n, StepFn.auto(n)):
            assert outcome(kernel._explore, MACHINE, s0, rule, target) == \
                outcome(kernel._explore, NO_RUN, s0, rule, target)


@given(start_states(), st.booleans(), guards, st.sampled_from(sorted(TARGETS)))
@example(FIXED, True, frozenset({BASE + 8, BASE + 36}), "stuck")
@example(REWRITE, True, frozenset({BASE + 4}), "x0 even")
@example(FORK, True, frozenset({BASE + 8}), "n clear")
@settings(max_examples=200, deadline=None)
def test_ev_search_takes_runs_as_it_takes_single_steps(s0, shared, pcs,
                                                       name):
    # guards at any code slot, inside stretches too, and every budget up
    # to 16, so that many run out inside a stretch
    s0 = over_an_image(s0) if shared else s0
    target = guarded(pcs, name)
    for budget in range(17):
        assert kernel._ev_search(MACHINE, s0, target, budget, False, pcs) \
            == kernel._ev_search(NO_RUN, s0, target, budget, False, pcs)


def _walks(paths, monkeypatch) -> tuple:
    """Each spec's report, and the walk, start state, depth or budget and
    result (or error) of every `_explore` and `_ev_search` call that its
    check made."""
    calls: list = []

    def recording(walk, key):
        def recorded(sys, s, *args):
            try:
                result = walk(sys, s, *args)
            except kernel.KernelError as e:
                calls.append((walk.__name__, s, key(*args), type(e), str(e)))
                raise
            calls.append((walk.__name__, s, key(*args), result))
            return result
        return recorded

    with monkeypatch.context() as m:
        m.setattr(kernel, "_explore", recording(
            kernel._explore, lambda rule, target: rule))
        m.setattr(kernel, "_ev_search", recording(
            kernel._ev_search,
            lambda target, budget, finite, pcs=None: (budget, finite, pcs)))
        reports = [_report(p) for p in paths]
    return reports, calls


def test_every_spec_walks_with_runs_as_without(tmp_path, monkeypatch):
    paths = sorted(CORPUS.glob("*.spec"))
    for workload in ("ct_dense", "sparse_pairs", "unary"):
        (tmp_path / workload).mkdir()
        paths += _bench_specs(workload, tmp_path / workload)
    got = _walks(paths, monkeypatch)
    monkeypatch.setattr(machine, "_ORACLE", NO_RUN)
    assert machine.oracle().run is None
    want = _walks(paths, monkeypatch)
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1]) and got[1] == want[1]
    assert {c[0] for c in got[1]} == {"_explore", "_ev_search"}
