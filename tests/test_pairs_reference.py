"""Differential tests of pair blocks against a frozen reference.

The reference below is how relational pairs were built and checked
before they became blocks of a key join: `ct.public_pairs` (a hash join
that stores every public-equal pair), `specfile.Problem.pair_parts` with
its table of one postcondition closure per pair (as `pair_parts`, taking
the problem as an argument), and the pairwise loop of
`kernel.check_ensures2`, all copied verbatim. The block form
(`PairEnumeration.join` with a `FactoredPost` and a product frame) must
agree with it: the same outcome, counterexample and stats (instances,
explorations, step counts, reached pairs), the same pairs object for
object and in the same order, or the same kernel error with the same
message.

The equivalence scan is diffed the same way: `ref_equiv_pairs` is
`equiv.check_equiv`'s scan as it was before each start state was keyed
up front, over `EquivRel`'s key and related as they were
(`RefEquivRel`). `equiv.related_pairs` must give the same pairs, object
for object and in the same order, or the same spec error.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from relhoare import ct, equiv, finsys, kernel, machine, specfile
from relhoare.ct import Partition
from relhoare.kernel import (
    Counterexample, PairEnumeration, PairProperty, PropertyFn, StepFn,
    StepOracle, Verdict, _at, _choices, _explore, _rule, key_join,
    product_frame, proven, refuted,
)

from conftest import (
    CORPUS, SMALL_LABELS, SMALL_STATE_VALUES, load_problem, small_state,
)
from test_kernel_reference import (
    outcome, state_frame, state_prop, step_fns, systems,
)


# ---------------------------------------------------------------------------
# frozen reference

def public_pairs(part: Partition, states) -> tuple:
    """Every pair (a, b) of states with equal public projections, in the
    order a scan of all n² pairs keeps them: a hash join that meets each
    left state with its projection's group, in enumeration order."""
    groups: dict = {}
    for s in states:
        groups.setdefault(part.project_public(s), []).append(s)
    return tuple((a, b) for a in states
                 for b in groups[part.project_public(a)])


def pair_parts(self, pre2: kernel.PairProperty, description: str,
               post_description: str, pairs: Optional[tuple] = None,
               rel: Callable = lambda a, b: True,
               describe: Optional[Callable] = None) -> tuple:
    """(PairEnumeration, per-pair postcondition, product frame, left
    steps, right steps) of a two-run check. A pair's postcondition
    is rel and then each side's declared postcondition, named by
    describe(d0, d1) of the two sides' descriptions (called once per
    distinct pair of them) or else post_description. With no pairs
    given, each instance's own two start states form a pair, checked
    against that instance's postconditions; given pairs take each
    side's postcondition from the instance of its start state."""
    right = self.right
    if pairs is None:
        pairs = tuple(zip(self.states(0), self.states(right)))
        table = {(a, b): (self.post_property(0, i),
                          self.post_property(right, i))
                 for i, (a, b) in zip(self.instances, pairs)}
        posts = table.__getitem__
    else:
        post0 = {i.state0: self.post_property(0, i)
                 for i in self.instances}
        post1 = post0 if not right else {
            i.state1: self.post_property(1, i) for i in self.instances}
        posts = lambda p: (post0[p[0]], post1[p[1]])
    describe = describe or (lambda d0, d1: post_description)
    enum = kernel.PairEnumeration(pairs, pre2, self.states(0),
                                  self.states(right), description)
    texts: dict = {}  # (d0, d1) -> describe(d0, d1), shared by pairs

    def pair_post(p):
        qa, qb = posts(p)
        key = (qa.description, qb.description)
        if key not in texts:
            texts[key] = describe(*key)
        return kernel.PairProperty(
            lambda x, y: rel(x, y) and qa.holds(x) and qb.holds(y),
            texts[key])

    post2 = kernel.per_state({p: pair_post(p) for p in pairs},
                             post_description)
    frame2 = kernel.product_frame(self.frame(0), self.frame(right))
    steps0 = self.steps("f0", 0)
    # a CT check with no f1 runs both sides by f0
    steps1 = (self.steps("f1", right)
              if right or "f1" in self.spec.steps else steps0)
    return enum, post2, frame2, steps0, steps1


def check_ensures2(sys: StepOracle, pairs: PairEnumeration, steps0, steps1,
                   post2, frame2) -> Verdict:
    """Relational exact-count check over enumerated pairs.

    Step counts are StepFn objects or tuples aligned with the pair list;
    automatic ones resolve to a side's termination depth. Each start
    state is explored once per call, for its step rule, however many
    pairs and whichever side it appears in. A side with a state stuck
    before its depth refutes the pair; otherwise every pair of frontier
    states (one frontier per side) must satisfy the pair postcondition
    and pair frame, which enumerates the nested exact-count quantifier.
    Pairs are checked in order and the first failing one refutes.
    stats["explored"] is the number of distinct explorations made.
    Never Unknown."""
    pairs.validate()
    warnings = []
    if not pairs.pairs:
        warnings.append("EmptyPrecondition")
    memo: dict = {}  # (start state, step rule) -> (n, finals, fail)

    def explore(steps, i, s):
        rule = _rule(steps, i, sys, s)
        if (s, rule) not in memo:
            memo[s, rule] = _explore(sys, s, rule, None)
        return memo[s, rule]

    res0, res1, reached = [], [], []
    for i, pair in enumerate(pairs.pairs):
        s0, s1 = pair
        q2 = _at(post2, pair)
        f2 = _at(frame2, pair)
        n0, finals0, fail0 = explore(steps0, i, s0)
        n1, finals1, fail1 = explore(steps1, i, s1)
        res0.append(n0)
        res1.append(n1)
        if fail0 is not None:
            reason, depth, witness = fail0
            ce = Counterexample(reason, pair,
                                (_choices(sys, s0, depth, witness), ()),
                                (witness, s1), sides=2,
                                detail="left side died early")
            return refuted(ce, instances=len(pairs.pairs),
                           warnings=tuple(warnings), explored=len(memo))
        if fail1 is not None:
            reason, depth, witness = fail1
            ce = Counterexample(reason, pair,
                                ((), _choices(sys, s1, depth, witness)),
                                (s0, witness), sides=2,
                                detail="right side died early")
            return refuted(ce, instances=len(pairs.pairs),
                           warnings=tuple(warnings), explored=len(memo))
        for a in finals0:
            for b in finals1:
                if not (q2.holds(a, b) and f2.related(pair, (a, b))):
                    ce = Counterexample(
                        "post", pair,
                        (_choices(sys, s0, n0, a), _choices(sys, s1, n1, b)),
                        (a, b), sides=2,
                        detail=f"pair post {q2.description!r} with frame "
                               f"{f2.description!r}")
                    return refuted(ce, instances=len(pairs.pairs),
                                   steps0=tuple(res0), steps1=tuple(res1),
                                   warnings=tuple(warnings),
                                   explored=len(memo))
        reached.append(tuple((a, b) for a in finals0 for b in finals1))
    return proven(instances=len(pairs.pairs), steps0=tuple(res0),
                  steps1=tuple(res1), warnings=tuple(warnings),
                  reached=tuple(reached), explored=len(memo))


def check_ct_relational(problem: specfile.Problem) -> Verdict:
    """`ct.check_ct_relational` over the frozen pieces."""
    part = ct.partition_of(problem)
    pairs = public_pairs(part, problem.states(0))
    pre2 = kernel.PairProperty(
        lambda a, b: part.project_public(a) == part.project_public(b),
        "equal public labels")
    enum, post2, frame2, steps0, steps1 = pair_parts(
        problem, pre2, "public-equal pairs",
        post_description="equal traces and the declared postcondition",
        pairs=pairs, rel=lambda a, b: a.events == b.events,
        describe=lambda da, db: f"equal traces and ({da}) on both sides")
    verdict = check_ensures2(machine.oracle(), enum, steps0, steps1, post2,
                             frame2)
    return ct._with_traces(verdict)


class RefEquivRel:
    """`equiv.EquivRel`'s key and related over a kept label set."""

    def __init__(self, kept):
        self.kept = frozenset(kept)
        self._keys: dict = {}

    def key(self, s) -> tuple:
        k = self._keys.get(s)
        if k is None:
            k = self._keys[s] = tuple(s.read_label(l) for l in self.kept)
        return k

    def related(self, s0, s1) -> bool:
        return self.key(s0) == self.key(s1)


def ref_equiv_pairs(ein, lefts, rights) -> tuple:
    """The limit check and pair scan of `equiv.check_equiv`."""
    candidates = len(lefts) * len(rights)
    if candidates > equiv.MAX_CANDIDATES:
        raise specfile.SpecError(
            f"equivalence would scan {candidates} candidate pairs, more "
            f"than the limit of {equiv.MAX_CANDIDATES}")
    return tuple((a, b) for a in lefts for b in rights
                 if ein.related(a, b))


# ---------------------------------------------------------------------------
# comparison

def assert_same(got, want) -> None:
    """The same verdict in every field the reference keeps (stats
    included), or the same kernel error."""
    if not isinstance(want, Verdict):
        assert got == want
        return
    assert isinstance(got, Verdict), got
    assert got.outcome == want.outcome
    fields = lambda ce: None if ce is None else (
        ce.reason, ce.initial, ce.choices, ce.witness, ce.sides, ce.detail,
        ce.traces)
    assert fields(got.counterexample) == fields(want.counterexample)
    assert got.stats == want.stats


def same_objects(got, want) -> bool:
    return [(id(a), id(b)) for a, b in got] == \
        [(id(a), id(b)) for a, b in want]


def reference_table(pairs, post0, post1, rel, describe, description):
    """The given-pairs table of the frozen `pair_parts`, over per-side
    postconditions keyed by start state."""
    return kernel.per_state(
        {p: PairProperty(
            lambda x, y, qa=_at(post0, p[0]), qb=_at(post1, p[1]):
            rel(x, y) and qa.holds(x) and qb.holds(y),
            describe(_at(post0, p[0]).description,
                     _at(post1, p[1]).description))
         for p in pairs}, description)


@dataclasses.dataclass(frozen=True)
class LazyTable(kernel.PerState):
    """A reference_table entry made when a pair is read, so that a
    missing side postcondition raises where the pairwise loop reads the
    pair."""

    make: Callable = None

    def at(self, pair):
        return self.make(pair)


def describe(d0: str, d1: str) -> str:
    return f"{d0} | {d1}"


# ---------------------------------------------------------------------------
# finite systems with drawn key functions

def risky_prop(mask: int, bomb: int) -> PropertyFn:
    """state_prop(mask), except that it raises on the states in bomb."""
    def holds(s):
        if bomb >> s & 1:
            raise kernel.KernelError(f"no value at state {s}")
        return bool(mask >> s & 1)
    return PropertyFn(holds, f"in {mask:#x} unless {bomb:#x}")


@st.composite
def side_posts(draw, n: int, starts: tuple):
    """A side's postcondition: one property, or a table keyed by its
    start states; now and then one that raises."""
    cells = (1 << n) - 1
    prop = st.builds(risky_prop,
                     st.one_of(st.just(cells), st.integers(0, cells)),
                     st.one_of(st.just(0), st.just(0),
                               st.integers(0, cells)))
    if draw(st.booleans()):
        return draw(prop)
    return kernel.per_state({s: draw(prop) for s in starts},
                            "per start state")


@st.composite
def block_cases(draw):
    g = draw(systems())
    n = g.n_states
    state = st.integers(0, n - 1)
    lefts = tuple(draw(st.lists(state, max_size=6)))
    rights = tuple(draw(st.lists(state, max_size=6)))
    keys = lambda top: st.lists(st.integers(0, top), min_size=n,
                                max_size=n).map(tuple)
    join = [draw(keys(2)) for _ in range(2)]
    relk = [draw(keys(1)) for _ in range(2)]
    pre2 = key_join(join[0].__getitem__, "join keys", join[1].__getitem__)
    rel = key_join(relk[0].__getitem__, "rel keys", relk[1].__getitem__)
    pairs = tuple((a, b) for a in lefts for b in rights
                  if join[0][a] == join[1][b])
    aligned = st.lists(st.integers(0, 4), min_size=len(pairs),
                       max_size=len(pairs)).map(tuple)
    steps = st.one_of(step_fns(g), step_fns(g), aligned)
    cells = n * n
    frame2 = product_frame(
        *[state_frame(n, draw(st.one_of(st.just((1 << cells) - 1),
                                        st.integers(0, (1 << cells) - 1))))
          for _ in range(2)])
    return (g, lefts, rights, pre2, rel, pairs, draw(steps), draw(steps),
            draw(side_posts(n, lefts)), draw(side_posts(n, rights)), frame2)


@given(case=block_cases())
@settings(max_examples=600, deadline=None)
def test_blocks_match_the_pairwise_reference_on_finite_systems(case):
    (g, lefts, rights, pre2, rel, pairs, steps0, steps1, q0, q1,
     frame2) = case
    enum = PairEnumeration.join(pre2, lefts, rights, "blocks")
    post2 = kernel.factored_post(rel, q0, q1, "post", describe)
    want_enum = PairEnumeration(pairs, PairProperty(pre2.holds, "join keys"),
                                lefts, rights, "pairs")
    want_post = reference_table(pairs, q0, q1, rel.holds, describe, "post")
    want = outcome(check_ensures2, g.oracle(), want_enum, steps0, steps1,
                   want_post, frame2)
    assert_same(outcome(kernel.check_ensures2, g.oracle(), enum, steps0,
                        steps1, post2, frame2), want)
    # the pairwise loop over the expanded blocks agrees as well
    assert_same(outcome(kernel.check_ensures2, g.oracle(), enum, steps0,
                        steps1, want_post, frame2), want)
    assert enum.pairs == pairs


def raising_at(bad: int, value: Callable):
    """value(s), except that it raises at the state bad."""
    def f(s):
        if s == bad:
            raise kernel.KernelError(f"no value at state {s}")
        return value(s)
    return f


@st.composite
def shared_cases(draw):
    """A key join whose two sides are one, as in a one-program check
    against itself: one domain tuple, join key, step rule, postcondition,
    frame factor and rel key object on both sides. Finals of a fork may
    carry two rel keys, the rel key may raise at a drawn state, and a
    postcondition table may miss a start state."""
    g = draw(systems())
    n = g.n_states
    state = st.integers(0, n - 1)
    domain = tuple(draw(st.lists(state, max_size=6)))
    keys = lambda top: st.lists(st.integers(0, top), min_size=n,
                                max_size=n).map(tuple)
    join, relk = draw(keys(2)), draw(keys(1))
    rel_key = relk.__getitem__
    if draw(st.booleans()):
        rel_key = raising_at(draw(state), rel_key)
    pairs = tuple((a, b) for a in domain for b in domain
                  if join[a] == join[b])
    frame = state_frame(n, draw(st.one_of(st.just((1 << n * n) - 1),
                                          st.integers(0, (1 << n * n) - 1))))
    return (g, domain, key_join(join.__getitem__, "join keys"),
            key_join(rel_key, "rel keys"), pairs, draw(step_fns(g)),
            draw(side_posts(n, draw(st.one_of(st.just(domain), st.lists(
                state, max_size=4).map(tuple))))),
            product_frame(frame, frame))


@given(case=shared_cases())
@settings(max_examples=600, deadline=None)
def test_records_of_one_side_match_the_pairwise_reference(case):
    g, domain, pre2, rel, pairs, steps, q, frame2 = case
    enum = PairEnumeration.join(pre2, domain, domain, "one side")
    want_enum = PairEnumeration(pairs, PairProperty(pre2.holds, "join keys"),
                                domain, domain, "pairs")
    want_post = LazyTable({}, "post", lambda p: reference_table(
        (p,), q, q, rel.holds, describe, "post").at(p))
    want = outcome(check_ensures2, g.oracle(), want_enum, steps, steps,
                   want_post, frame2)
    assert_same(outcome(kernel.check_ensures2, g.oracle(), enum, steps,
                        steps, kernel.factored_post(rel, q, q, "post",
                                                    describe), frame2),
                want)
    assert enum.pairs == pairs


# 0 forks to 1 and 2; 3 moves to 4
FORK = finsys.finsys(5, [(0, 1), (0, 2), (3, 4)])


def test_an_error_past_the_first_failure_of_a_pair_stays_unraised():
    # the pairwise loop refutes (0, 3) at the finals (1, 4) before it
    # reaches the final 2, where the left postcondition or rel key
    # raises; the block check reads a side's finals all at once, and
    # must not raise either
    raises = PropertyFn(raising_at(2, lambda s: True), "raises at 2")
    false = PropertyFn(lambda s: False, "false")
    cases = (
        # the right postcondition fails at 4, the left one raises at 2
        (raises, false, key_join(lambda s: 0, "one key")),
        # the rel keys of 1 and 4 differ, the left key raises at 2
        (kernel.TRUE, kernel.TRUE,
         key_join(raising_at(2, lambda s: 0), "keys", lambda s: 1)),
    )
    one = StepFn.constant(1)
    frame = product_frame(kernel.ANYTHING, kernel.ANYTHING)
    pre2 = key_join(lambda s: 0, "all")
    for q0, q1, rel in cases:
        want = check_ensures2(
            FORK.oracle(), PairEnumeration(((0, 3),), pre2, (0,), (3,)),
            one, one, reference_table(((0, 3),), q0, q1, rel.holds,
                                      describe, "post"), frame)
        got = kernel.check_ensures2(
            FORK.oracle(), PairEnumeration.join(pre2, (0,), (3,)), one,
            one, kernel.factored_post(rel, q0, q1, "post", describe), frame)
        assert want.is_refuted and want.counterexample.witness == (1, 4)
        assert_same(got, want)
    # one side for both, as a one-program check has: the pairwise loop
    # refutes (3, 0) at the finals (4, 1) before it reaches the final 2,
    # where the postcondition or the rel key raises; the record of 0
    # reads 2 and must not raise either
    domain, pairs = (3, 0), ((3, 3), (3, 0), (0, 3), (0, 0))
    keys = lambda s: int(s == 1)
    for q, rel in ((raises, key_join(keys, "keys")),
                   (kernel.TRUE, key_join(raising_at(2, keys), "keys"))):
        want = check_ensures2(
            FORK.oracle(), PairEnumeration(pairs, pre2, domain, domain),
            one, one, reference_table(pairs, q, q, rel.holds, describe,
                                      "post"), frame)
        got = kernel.check_ensures2(
            FORK.oracle(), PairEnumeration.join(pre2, domain, domain), one,
            one, kernel.factored_post(rel, q, q, "post", describe), frame)
        assert want.is_refuted and want.counterexample.witness == (4, 1)
        assert_same(got, want)


# ---------------------------------------------------------------------------
# small machine states joined on their public projection

def pc_step(s):
    # a state at pc 0 moves to pc 4, where it is stuck
    return (s._replace(pc=4),) if s.pc == 0 else ()


PC_STEP = StepOracle(pc_step)
FRAMES = (kernel.ANYTHING, machine.maychange({machine.PC}),
          machine.maychange(()))


@given(values=st.lists(SMALL_STATE_VALUES, max_size=8),
       private=st.frozensets(st.sampled_from(SMALL_LABELS)),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_public_blocks_match_the_frozen_join_and_check(values, private,
                                                      data):
    states = tuple(small_state(v) for v in values)
    part = Partition(private)
    enum = PairEnumeration.join(
        key_join(part.project_public, "equal public labels"), states,
        states, "public-equal pairs")
    fresh = Partition(private)
    want_pairs = public_pairs(fresh, states)
    assert same_objects(enum.pairs, want_pairs)

    label = data.draw(st.sampled_from(SMALL_LABELS))
    bound = [PropertyFn(lambda x, k=k: x.read_label(label) <= k,
                        f"{label} at most {k}") for k in (0, 1)]
    post = kernel.per_state(
        {s: bound[data.draw(st.integers(0, 1))] for s in states},
        "bounded label")
    events = key_join(lambda s: s.events, "equal traces")
    frame = product_frame(*[data.draw(st.sampled_from(FRAMES))
                            for _ in range(2)])
    steps = data.draw(st.sampled_from(
        (StepFn.auto(4), StepFn.constant(0), StepFn.constant(1))))
    want_enum = PairEnumeration(
        want_pairs, PairProperty(
            lambda a, b: fresh.project_public(a) == fresh.project_public(b),
            "equal public labels"),
        states, states, "public-equal pairs")
    want = outcome(check_ensures2, PC_STEP, want_enum, steps, steps,
                   reference_table(want_pairs, post, post,
                                   lambda a, b: a.events == b.events,
                                   describe, "traces"), frame)
    got = outcome(kernel.check_ensures2, PC_STEP, enum, steps, steps,
                  kernel.factored_post(events, post, post, "traces",
                                       describe), frame)
    assert_same(got, want)
    if isinstance(got, Verdict) and got.is_refuted:
        a, b = got.counterexample.initial
        assert (id(a), id(b)) in {(id(x), id(y)) for x, y in want_pairs}


# ---------------------------------------------------------------------------
# corpus checks

def test_corpus_ct_checks_match_the_reference():
    for name in ("compare_ct.spec", "compare_constant_ct.spec"):
        problem = load_problem(name)
        got = ct.check_ct_relational(problem)
        assert_same(got, check_ct_relational(problem))
        enum = problem.pair_parts(
            key_join(ct.partition_of(problem).project_public, "public"),
            "blocks", "post", rel=key_join(lambda s: s.events, "traces"))[0]
        want = public_pairs(ct.partition_of(problem), problem.states(0))
        assert same_objects(enum.pairs, want)


def test_given_pairs_keep_the_table_of_the_reference():
    # equivalence still hands its pairs over; the table is unchanged
    problem = load_problem("compare_equiv.spec")
    lefts, rights = problem.states(0), problem.states(1)
    pairs = tuple((a, b) for a in lefts for b in rights
                  if a.reg(0) == b.reg(0))
    pre2 = PairProperty(lambda a, b: a.reg(0) == b.reg(0), "same x0")
    rel = lambda a, b: a.reg(3) == b.reg(3)
    got = problem.pair_parts(pre2, "pairs", "post", pairs=pairs, rel=rel)
    want = pair_parts(problem, pre2, "pairs", "post", pairs=pairs, rel=rel)
    assert got[0].pairs == want[0].pairs
    assert_same(kernel.check_ensures2(machine.oracle(), *_order(got)),
                check_ensures2(machine.oracle(), *_order(want)))


def _order(parts):
    enum, post2, frame2, steps0, steps1 = parts
    return enum, steps0, steps1, post2, frame2


# ---------------------------------------------------------------------------
# equivalence pairs

def scan(find, rel, lefts, rights):
    """The pairs that find returns, or the spec error it raises."""
    try:
        return find(rel, lefts, rights)
    except specfile.SpecError as e:
        return str(e)


def assert_same_pairs(got, want) -> None:
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert same_objects(got, want)


@given(left=st.lists(SMALL_STATE_VALUES, max_size=8),
       right=st.lists(SMALL_STATE_VALUES, max_size=8),
       shared=st.booleans(),
       kept=st.frozensets(st.sampled_from(
           SMALL_LABELS + (machine.PC, machine.EVENTS))),
       limit=st.integers(0, 64))
@settings(max_examples=300, deadline=None)
def test_equivalence_pairs_match_the_frozen_scan(left, right, shared, kept,
                                                 limit):
    lefts = tuple(small_state(v) for v in left)
    rights = lefts if shared else tuple(small_state(v) for v in right)
    with mock.patch.object(equiv, "MAX_CANDIDATES", limit):
        got = scan(equiv.related_pairs, equiv.EquivRel.kept_equal(kept),
                   lefts, rights)
        want = scan(ref_equiv_pairs, RefEquivRel(kept), lefts, rights)
    assert_same_pairs(got, want)


def frozen_scan(rel, lefts, rights):
    return ref_equiv_pairs(RefEquivRel(rel.kept), lefts, rights)


def test_corpus_equivalence_checks_match_the_frozen_scan(monkeypatch):
    text = (CORPUS / "compare_equiv.spec").read_text()
    # the second keeps x5 too, which the rewrite writes and the original
    # does not: refuted at the first pair that reaches an output
    for spec in (text, text.replace("keep = x6", "keep = x5, x6")):
        problem = specfile.build_problem(specfile.parse_spec(spec), CORPUS)
        lefts, rights = problem.states(0), problem.states(1)
        ein = equiv._rel_from_spec(problem.spec, problem, "equiv_in")
        pairs = equiv.related_pairs(ein, lefts, rights)
        assert len(pairs) == 48
        assert_same_pairs(pairs, frozen_scan(ein, lefts, rights))

        got = equiv.check_equiv(problem)
        with monkeypatch.context() as m:
            m.setattr(equiv, "related_pairs", frozen_scan)
            want = equiv.check_equiv(problem)
        if isinstance(want, Verdict):
            assert_same(got, want)
            continue
        assert (got.anchors, got.equiv_in.kept, got.equiv_out.kept) == (
            want.anchors, want.equiv_in.kept, want.equiv_out.kept)
        assert same_objects(got.judgment.parts.pairs.pairs,
                            want.judgment.parts.pairs.pairs)
        assert_same(kernel.recheck(got.judgment),
                    kernel.recheck(want.judgment))
