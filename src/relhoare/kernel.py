"""Checking kernel for reachability triples over small-step systems.

Everything here is generic over a StepOracle, a successor function on
opaque hashable state handles; the machine model and the finite-system
oracle both plug in. The kernel decides five judgment forms by explicit
enumeration, never symbolically:

  ensures       all executions from each precondition state reach, within
                a step budget, a state satisfying the postcondition and
                related to the start by the frame.
  ensures_n     the same, but at an exact step count per start state: the
                property must hold on every state reachable in exactly n
                steps, and no execution may die earlier.
  ensures2      a relational form over pairs of states with one step
                count per side, evaluated as the nested exact-count
                quantifier: every pair of frontier states (one frontier
                per side) must satisfy the pair postcondition and frame.
                Pairs are explicit or a key join, which only the kernel
                builds, keying each state once per side. Every spec pair
                check factors its postcondition per side; on a key join,
                a later left state of a block that one left has passed is
                then compared with the block's first right state only.
  hybrid        an ensures2 judgment whose pair frame is a product,
                together with a unary precondition and postcondition for
                the second component; its unary frame is the product's
                right factor. Side conditions: every unary precondition
                state has a partner, and relational postcondition pairs
                project into the unary postcondition.
  eventually_n_at_pc  a promotion primitive: from each start state the pc
                first reaches the state's own address at exactly its own
                n steps, on every branch, and execution is stuck there.

Checks return a Verdict: Proven, Refuted with a replayable counterexample
(initial state plus branch choices), or Unknown when a budget ran out.
Exact-count checks never return Unknown. Proof rules and conversions are
separate, audited steps: apply_rule and convert take judgments, discharge
side conditions by enumeration (a failed one raises SideConditionFailed,
naming it) and record rule, premises and inputs in the derived judgment.
recheck re-checks it directly; audit_replay replays its whole derivation.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence


# ---------------------------------------------------------------------------
# errors

class KernelError(Exception):
    pass


class SchemaMismatch(KernelError):
    """Premises or components do not have the required judgment forms."""


class SideConditionFailed(KernelError):
    """A rule's side condition failed; the message names it."""


class NotDeterministic(KernelError):
    """Step synthesis met a state with more than one successor."""


class StepFnUnresolvable(KernelError):
    """An automatic step function could not settle on a single count."""


class MissingPromotionEvidence(KernelError):
    """Promotion was attempted without an eventually_n_at_pc judgment."""


class PromotionFailed(KernelError):
    """No usable first-stop evidence exists for some start state."""


class AsymmetricEnumeration(KernelError):
    """A pair list references states outside the declared domains."""


class FactorizationWitnessMissing(KernelError):
    """A pair frame has no product structure and no witness was given."""


class CheckFailed(KernelError):
    """A prove_* helper ran a check that did not come back Proven."""

    def __init__(self, verdict: "Verdict"):
        self.verdict = verdict
        super().__init__(f"check came back {verdict.outcome}: {verdict.summary()}")


# ---------------------------------------------------------------------------
# oracles, properties, frames

@dataclass(frozen=True)
class StepOracle:
    """Successor function over hashable, immutable state handles.

    finite_hint marks systems with finitely many states, which lets the
    budgeted search refute through cycle detection. pc_of, when present,
    reads a program-counter analogue off a state.

    run, when present, is a fast path over successors: run(s, limit,
    stops) advances s while the state has exactly one successor, at most
    limit steps, never stepping from a state whose pc (by pc_of) is in
    the set stops (None: no stops), and returns (the state reached, the
    steps taken), exactly what iterating successors gives. The walks take
    straight-line stretches through it; an oracle without one gets a
    loop over successors. A wrapper that replaces successors must also
    replace or drop run, since dataclasses.replace keeps the old one."""

    successors: Callable[[Any], Sequence[Any]]
    pc_of: Optional[Callable[[Any], int]] = None
    finite_hint: bool = False
    description: str = ""
    run: Optional[Callable[[Any, int, Optional[frozenset]], tuple]] = None


@dataclass(frozen=True)
class PropertyFn:
    """Decidable state predicate with a printable description. pcs, when
    set, is a guard: the predicate can hold only at states whose pc is in
    it, which lets a search skip the others."""

    holds: Callable[[Any], bool]
    description: str = ""
    pcs: Optional[frozenset] = None

    def __call__(self, s) -> bool:
        return self.holds(s)


@dataclass(frozen=True)
class FrameFn:
    """Relation between a start state and a later state. A maychange
    frame (agree outside a label set) also carries that set, which lets
    side conditions reason about frames without enumerating pairs.
    transitive marks frames known closed under composition; maychange
    frames always are."""

    related: Callable[[Any, Any], bool]
    intensional_form: Optional[frozenset] = None
    description: str = ""
    transitive: bool = False

    def __call__(self, s, t) -> bool:
        return self.related(s, t)

    @property
    def is_transitive(self) -> bool:
        return self.transitive or self.intensional_form is not None


@dataclass(frozen=True)
class PairProperty:
    holds: Callable[[Any, Any], bool]
    description: str = ""

    def __call__(self, a, b) -> bool:
        return self.holds(a, b)


@dataclass(frozen=True)
class KeyJoin(PairProperty):
    """The pair predicate key0(a) == key1(b): a join of two sides on a
    per-side key. Its pairs fall into blocks, one per key, which lets a
    check compare a left state with one right of a block instead of all."""

    key0: Callable[[Any], Any] = None
    key1: Callable[[Any], Any] = None


def key_join(key0: Callable, description: str,
             key1: Optional[Callable] = None) -> KeyJoin:
    """The KeyJoin of key0 on the left and key1 (by default key0) on the
    right."""
    key1 = key1 or key0
    return KeyJoin(lambda a, b: key0(a) == key1(b), description, key0, key1)


@dataclass(frozen=True)
class PairFrame:
    """Relation between a start pair and a later pair. product_of, when
    set, names unary frames whose product this is; the hybrid check's
    factorization condition reads it."""

    related: Callable[[tuple, tuple], bool]
    product_of: Optional[tuple] = None  # (FrameFn, FrameFn)
    description: str = ""

    def __call__(self, p, q) -> bool:
        return self.related(p, q)


def prop(fn: Callable[[Any], bool], description: str = "") -> PropertyFn:
    return PropertyFn(fn, description)


TRUE = PropertyFn(lambda s: True, "true")

# the frame of a check that declares none: any later state is allowed
ANYTHING = FrameFn(lambda s, t: True, description="anything")


def prop_and(p: PropertyFn, q: PropertyFn) -> PropertyFn:
    return PropertyFn(lambda s: p.holds(s) and q.holds(s),
                      f"({p.description} and {q.description})")


def pair_and(p: PairProperty, q: PairProperty) -> PairProperty:
    return PairProperty(lambda a, b: p.holds(a, b) and q.holds(a, b),
                        f"({p.description} and {q.description})")


def product_frame(f0: FrameFn, f1: FrameFn) -> PairFrame:
    return PairFrame(
        lambda pre, post: f0.related(pre[0], post[0]) and f1.related(pre[1], post[1]),
        product_of=(f0, f1),
        description=f"({f0.description} x {f1.description})")


def product_property(q0: PropertyFn, q1: PropertyFn) -> PairProperty:
    return PairProperty(lambda a, b: q0.holds(a) and q1.holds(b),
                        f"({q0.description} x {q1.description})")


def swap_pair_property(q: PairProperty) -> PairProperty:
    return PairProperty(lambda a, b: q.holds(b, a), f"swap({q.description})")


def swap_pair_frame(f: PairFrame) -> PairFrame:
    product = None
    if f.product_of is not None:
        product = (f.product_of[1], f.product_of[0])
    return PairFrame(lambda p, q: f.related((p[1], p[0]), (q[1], q[0])),
                     product_of=product, description=f"swap({f.description})")


def compose_frames(f0: FrameFn, f1: FrameFn,
                   mids: Optional[Callable[[Any], Iterable]] = None) -> FrameFn:
    """Relational composition. Two maychange frames compose to the
    maychange of the union; otherwise a mid-state supplier is needed to
    witness the existential."""
    if f0.intensional_form is not None and f1.intensional_form is not None:
        from .machine import maychange  # local: the kernel stays machine-free
        return maychange(f0.intensional_form | f1.intensional_form,
                         f"({f0.description} o {f1.description})")
    if mids is None:
        raise FactorizationWitnessMissing(
            "cannot compose frames without label sets or a mid-state supplier")
    return FrameFn(
        lambda s, t: any(f0.related(s, m) and f1.related(m, t) for m in mids(s)),
        description=f"({f0.description} o {f1.description})")


# ---------------------------------------------------------------------------
# per-state wrappers and enumerations

@dataclass(frozen=True)
class PerState:
    """A table of properties or frames keyed by start state (or pair),
    for enumerations whose instances need their own conditions."""

    table: dict = field(hash=False)
    description: str = ""

    def at(self, key):
        try:
            return self.table[key]
        except KeyError:
            raise SchemaMismatch(f"no entry for state in {self.description!r}")


def per_state(mapping: Mapping, description: str = "") -> PerState:
    return PerState(dict(mapping), description)


def _at(cond, key):
    return cond.at(key) if isinstance(cond, PerState) else cond


@dataclass(frozen=True)
class FactoredPost(PerState):
    """A pair postcondition in factored form: at a pair (a, b), final
    states x and y must satisfy rel(x, y), q0(x) and q1(y), where q0 and
    q1 are PropertyFns or PerState tables keyed by the side's start
    state. `at` builds a pair's PairProperty, named describe(d0, d1) of
    the two sides' descriptions. With a KeyJoin rel each conjunct reads
    one side, so `check_ensures2` compares a later left of a pair block
    with the block's first right only."""

    rel: Callable[[Any, Any], bool] = None
    q0: Any = None
    q1: Any = None
    describe: Callable[[str, str], str] = None

    def at(self, pair) -> PairProperty:
        qa, qb = _at(self.q0, pair[0]), _at(self.q1, pair[1])
        return PairProperty(
            lambda x, y: self.rel(x, y) and qa.holds(x) and qb.holds(y),
            self.describe(qa.description, qb.description))


def factored_post(rel: Callable, q0, q1, description: str,
                  describe: Optional[Callable] = None) -> FactoredPost:
    """rel and then each side's postcondition; every pair's is named
    describe(d0, d1), or else description."""
    describe = describe or (lambda d0, d1: description)
    return FactoredPost({}, description, rel, q0, q1, describe)


@dataclass(frozen=True)
class Enumeration:
    """Initial states plus the predicate they were drawn from. states is
    a sized re-iterable: a tuple, or a sequence that makes them anew on
    each pass and keeps none."""

    states: Sequence
    pre: PropertyFn = TRUE
    description: str = ""

    def validate(self) -> None:
        for s in () if self.pre is TRUE else self.states:
            if not self.pre.holds(s):
                raise SchemaMismatch(
                    f"enumerated state fails its own precondition "
                    f"{self.pre.description!r}")


class LazyTuple(SequenceABC):
    """A tuple that `build` (a function returning an iterable) makes on
    first use; it reads, compares and hashes like that tuple."""

    def __init__(self, build: Callable[[], Iterable]):
        self._build = build
        self._items: Optional[tuple] = None

    @property
    def items(self) -> tuple:
        if self._items is None:
            self._items = tuple(self._build())
            self._build = None
        return self._items

    def __getitem__(self, i):
        return self.items[i]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyTuple):
            other = other.items
        return self.items == other

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return repr(self.items)


@dataclass(frozen=True)
class PairEnumeration:
    """Initial pairs; optional per-side domains are enforced.

    Pairs are explicit, or, with a KeyJoin pre2 and no pairs, the key
    join of domain0 x domain1 in scan order, which the kernel builds: it
    keys each right once with key1, grouping the rights into one tuple
    per key in order, and each left once with key0 (not again where the
    sides are one domain and key). `blocks` holds each left's tuple, and
    `pairs` is a LazyTuple expanded on first read. A join needs no
    validation: its domains are its sides, and its pairs come from the
    keys that define pre2."""

    pairs: Any = None  # tuple of (s0, s1); a LazyTuple for a key join
    pre2: PairProperty = PairProperty(lambda a, b: True, "true")
    domain0: Optional[tuple] = None
    domain1: Optional[tuple] = None
    description: str = ""
    blocks: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)  # per left, for a join

    def __post_init__(self):
        if self.pairs is not None:
            return
        if not isinstance(self.pre2, KeyJoin) or None in (self.domain0,
                                                          self.domain1):
            raise SchemaMismatch("an enumeration without pairs needs a "
                                 "key join and both domains")
        key0, key1 = self.pre2.key0, self.pre2.key1
        groups: dict = {}  # key -> its rights; rows: each state's group
        rows = [groups.setdefault(key1(b), []) for b in self.domain1]
        for b, row in zip(self.domain1, rows):
            row.append(b)
        if self.domain0 is not self.domain1 or key0 is not key1:
            rows = [groups.get(key0(a), ()) for a in self.domain0]
        blocks = {id(row): tuple(row) for row in groups.values()}
        object.__setattr__(self, "blocks", tuple(
            blocks.get(id(row), ()) for row in rows))
        object.__setattr__(self, "pairs", LazyTuple(self.scan))

    @staticmethod
    def join(pre2: KeyJoin, lefts, rights,
             description: str = "") -> "PairEnumeration":
        """Every (a, b) in lefts x rights with pre2(a, b), joined by the
        kernel; lefts and rights are the domains."""
        return PairEnumeration(None, pre2, tuple(lefts), tuple(rights),
                               description)

    def scan(self):
        """The pairs in order; for a key join, without storing them."""
        if self.blocks is None:
            return iter(self.pairs)
        return ((a, b) for a, rights in zip(self.domain0, self.blocks)
                for b in rights)

    def validate(self) -> None:
        if self.blocks is not None:
            return
        for i, domain in enumerate((self.domain0, self.domain1)):
            if domain is not None and not set(domain).issuperset(
                    pair[i] for pair in self.pairs):
                raise AsymmetricEnumeration(
                    f"pair references a {('left', 'right')[i]} state "
                    f"outside domain{i}")
        for s0, s1 in self.pairs:
            if not self.pre2.holds(s0, s1):
                raise SchemaMismatch(
                    f"enumerated pair fails its own precondition "
                    f"{self.pre2.description!r}")


# ---------------------------------------------------------------------------
# step functions

AUTO_BUDGET = 4096


@dataclass(frozen=True)
class StepFn:
    """Step-count description: a constant, a per-state table, or
    automatic resolution by simulation.

    Automatic resolution scans forward one frontier at a time and settles
    on the first depth at which every frontier state satisfies the target
    (or, in terminal mode, at which every frontier state is stuck). If
    some branch dies while others continue the counts disagree and the
    resolution fails."""

    kind: str  # "const" | "table" | "auto"
    value: Any = None
    description: str = ""

    @staticmethod
    def constant(n: int) -> "StepFn":
        return StepFn("const", n, str(n))

    @staticmethod
    def table(mapping: Mapping, description: str = "per-state table") -> "StepFn":
        return StepFn("table", dict(mapping), description)

    @staticmethod
    def auto(budget: int = AUTO_BUDGET) -> "StepFn":
        return StepFn("auto", budget, "auto")

    def resolve(self, sys: StepOracle, s, target: Optional[Callable] = None) -> int:
        if self.kind == "const":
            return int(self.value)
        if self.kind == "table":
            try:
                return int(self.value[s])
            except KeyError:
                raise StepFnUnresolvable("state missing from step table")
        return _explore(sys, s, self, target)[0]


def _rule(steps, i: int, sys: StepOracle, s):
    """What `_explore` needs for the i-th start state s: the exact depth
    that a sequence (aligned with the enumeration) or a constant or table
    StepFn gives it, or an automatic StepFn, which it resolves itself."""
    if not isinstance(steps, StepFn):
        return steps[i]
    return steps if steps.kind == "auto" else steps.resolve(sys, s)


def _record(counts, n: int):
    """counts, an array('q') until a count does not fit one, with n."""
    try:
        counts.append(n)
    except OverflowError:
        counts = [*counts, n]
    return counts


# ---------------------------------------------------------------------------
# verdicts and counterexamples

@dataclass
class Counterexample:
    """Replayable refutation: initial state(s) and the successor indices
    chosen along the failing path(s)."""

    reason: str
    initial: Any
    choices: Any  # tuple[int,...] for one side, (tuple, tuple) for pairs
    witness: Any
    sides: int = 1
    detail: str = ""
    traces: Optional[tuple] = None  # attached by trace-level checks


@dataclass
class Verdict:
    outcome: str  # "proven" | "refuted" | "unknown"
    counterexample: Optional[Counterexample] = None
    stats: dict = field(default_factory=dict)

    @property
    def is_proven(self) -> bool:
        return self.outcome == "proven"

    @property
    def is_refuted(self) -> bool:
        return self.outcome == "refuted"

    def summary(self) -> str:
        extra = ""
        if self.counterexample is not None:
            extra = f" ({self.counterexample.reason})"
        return f"{self.outcome}{extra}"


def proven(**stats) -> Verdict:
    return Verdict("proven", stats=stats)


def refuted(ce: Counterexample, **stats) -> Verdict:
    return Verdict("refuted", counterexample=ce, stats=stats)


def unknown(**stats) -> Verdict:
    return Verdict("unknown", stats=stats)


def replay(sys: StepOracle, initial, choices: Sequence[int]) -> list:
    """Re-execute a recorded path; returns all states visited in order."""
    out = [initial]
    cur = initial
    for i in choices:
        succ = sys.successors(cur)
        if i >= len(succ):
            raise KernelError("recorded choice is out of range on replay")
        cur = succ[i]
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# core searches

_NO_COMMON_STOP = "branches disagree on the termination step count"


def _walker(sys: StepOracle):
    """(run, successors) for one walk over sys: the oracle's own, or for
    an oracle without a run, a loop over successors that hands the list
    it computed last, at the state it stopped at, to the walk's next
    successors call of that state."""
    if sys.run is not None:
        return sys.run, sys.successors
    successors, pc_of, last = sys.successors, sys.pc_of, [None, None]

    def run(s, limit, stops=None):
        steps = 0
        while steps < limit and (stops is None or pc_of(s) not in stops):
            ss = successors(s)
            if len(ss) != 1:
                last[:] = s, ss
                break
            s, steps = ss[0], steps + 1
        return s, steps

    return run, lambda s: last[1] if s is last[0] else successors(s)


def _explore(sys: StepOracle, s, n_or_auto, target: Optional[Callable]):
    """The kernel's one walk: the deduplicated frontiers from s, calling
    successors once per frontier state. A one-state frontier is advanced
    by the oracle's run instead: to the exact depth, or with an automatic
    StepFn and no target, to its first fork or stuck state.

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
    run, successors = _walker(sys)
    runs = not auto or target is None  # no target call between depths
    frontier = [s]
    k = 0
    while k <= depth:
        if runs and len(frontier) == 1 and k < depth:
            x, steps = run(frontier[0], depth - k)
            frontier, k = [x], k + steps
        if auto and target is not None and all(target(x) for x in frontier):
            return k, tuple(frontier), None
        if not auto and k == depth:
            for x in frontier:
                if target is not None and not target(x):
                    return depth, (), ("post", depth, x)
            return depth, tuple(frontier), None
        succs = [successors(x) for x in frontier]
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
        k += 1
    raise StepFnUnresolvable(f"no resolution within {depth} steps")


def _choices(sys: StepOracle, s, depth: int, state) -> tuple:
    """Successor indices along the path to state at depth that the walk
    of `_explore` finds first, rebuilt by one walk with parent pointers."""
    frontier, parents = [s], []
    for _ in range(depth):
        parent: dict = {}
        for x in frontier:
            for i, t in enumerate(sys.successors(x)):
                if t not in parent:
                    parent[t] = (x, i)
        parents.append(parent)
        frontier = list(parent)
    path = []
    for parent in reversed(parents):
        state, i = parent[state]
        path.append(i)
    return tuple(reversed(path))


def eventually_n_holds(sys: StepOracle, s, n: int, q: PropertyFn) -> bool:
    """Does every execution from s satisfy q at exactly n steps, with no
    branch dying earlier? Exact, never Unknown."""
    target = q.holds if isinstance(q, PropertyFn) else q
    return _explore(sys, s, n, target)[2] is None


def _ev_search(sys: StepOracle, s0, target: Callable, budget: int, finite: bool,
               pcs: Optional[frozenset] = None):
    """Budgeted all-paths reachability of target. Returns a tuple
    (outcome, reason, choices, witness, frontier) where outcome is
    "proven", "refuted" or "unknown". On finite systems a repeated state
    along one path refutes (a target-avoiding cycle); otherwise running
    out of budget yields unknown.

    pcs, with the oracle's pc reader, guards target: it is called only at
    s0 and at states whose pc is in pcs. Off finite systems, a state
    outside the guard with one successor is stepped through in its frame
    (one budget, a 0 in the choices, no frame, target call or memo
    lookup), and the states after it that are also outside the guard and
    have one successor go by in one run of the oracle; the memo keeps a
    proven frame's first and last state, so a state walked twice is
    re-walked at most to the next fork. Only frames pushed later read the
    memo, so it takes entries only while a frame on the stack has a child
    still to push, and never a state that met the (pure) target, which a
    later visit meets again. Where a stepped-through state recurs deeper,
    that may give unknown where the full memo proves. A wrong guard never
    proves. The frontier lists the states that met the target in
    discovery order, with repeats."""
    if sys.pc_of is None:
        pcs = None
    pc_of = sys.pc_of
    run, successors = _walker(sys)
    proven_states: set = set()
    frontier: list = []
    # a frame: state, successors, next index, budget, unknown child seen,
    # the choices its state adds to the path, and its first state
    stack = [[s0, None, 0, budget, False, 0, s0]]
    choices: list = []
    on_path: set = set()
    outcome: Optional[str] = None
    chained = False
    pending = 0  # frames on the stack with a child still to push

    def pop_frame(expanded: bool, state) -> None:
        n = stack.pop()[5]
        if expanded and finite:
            on_path.discard(state)
        if n:
            del choices[-n:]

    while stack:
        frame = stack[-1]
        state, succs, idx, b, _, _, first = frame
        if succs is None:
            if not chained and proven_states and state in proven_states:
                outcome = "proven"
                pop_frame(False, state)
                continue
            guarded = pcs is None or pc_of(state) in pcs
            chained = False
            if (guarded or state is s0) and target(state):
                if pending and first is not state:
                    proven_states.add(first)
                frontier.append(state)
                outcome = "proven"
                pop_frame(False, state)
                continue
            if finite and state in on_path:
                return "refuted", "cycle", tuple(choices), state, frontier
            ss = list(successors(state))
            if not ss:
                return "refuted", "stuck", tuple(choices), state, frontier
            if b <= 0:
                outcome = "unknown"
                pop_frame(False, state)
                continue
            if len(ss) == 1 and not guarded and not finite:
                x, steps = run(ss[0], b - 1, pcs) if b > 1 else (ss[0], 0)
                frame[0], frame[3] = x, b - 1 - steps
                frame[5] += 1 + steps
                choices += [0] * (1 + steps)
                chained = True
                continue
            frame[1] = succs = ss
            if finite:
                on_path.add(state)
            pending += len(ss) > 1
            idx = 0
        else:
            if outcome == "unknown":
                frame[4] = True
        if idx < len(succs):
            frame[2] = idx + 1
            pending -= 0 < idx == len(succs) - 1  # the last of two or more
            choices.append(idx)
            stack.append([succs[idx], None, 0, b - 1, False, 1, succs[idx]])
            outcome = None
            continue
        outcome = "unknown" if frame[4] else "proven"
        if pending and not frame[4]:
            proven_states.update((state, first))
        pop_frame(True, state)

    return outcome, None, None, None, frontier


def eventually_holds(sys: StepOracle, s, q: PropertyFn, budget: int) -> Verdict:
    """Three-valued all-paths reachability of q from s within a budget."""
    target = q.holds if isinstance(q, PropertyFn) else q
    outcome, reason, choices, witness, frontier = _ev_search(
        sys, s, target, budget, sys.finite_hint, getattr(q, "pcs", None))
    if outcome == "proven":
        return proven(frontier=len(set(frontier)))
    if outcome == "refuted":
        ce = Counterexample(reason, s, choices, witness,
                            detail=f"target {getattr(q, 'description', '')!r}")
        return refuted(ce)
    return unknown(budget=budget)


# ---------------------------------------------------------------------------
# judgment forms

@dataclass(frozen=True)
class EnsuresParts:
    enum: Enumeration
    post: Any  # PropertyFn | PerState
    frame: Any  # FrameFn | PerState
    budget: int


@dataclass(frozen=True)
class EnsuresNParts:
    enum: Enumeration
    steps: Sequence  # ints aligned with enum.states
    post: Any
    frame: Any


@dataclass(frozen=True)
class Ensures2Parts:
    pairs: PairEnumeration
    steps0: tuple  # aligned with pairs.pairs
    steps1: tuple
    post2: Any  # PairProperty | PerState keyed by pair
    frame2: Any  # PairFrame | PerState


@dataclass(frozen=True)
class HybridParts:
    """An ensures2 judgment's parts plus unary conditions for the second
    component, whose frame is the right factor of rel's product frame."""

    rel: Ensures2Parts
    unary: Enumeration
    upost: Any

    @property
    def uframe(self) -> FrameFn:
        return self.rel.frame2.product_of[1]


@dataclass(frozen=True)
class PcParts:
    enum: Enumeration
    x0: int
    stops: Any  # (xw, n) per state: aligned, or a PerState table


@dataclass(frozen=True)
class Checked:
    """Evidence from a direct check: per-instance reached frontier."""

    instances: int
    reached: Sequence  # aligned with states or pairs; may be a LazyTuple


@dataclass(frozen=True)
class Derived:
    """Evidence from a rule or conversion: the rule, its premises and its
    inputs, which is all that audit_replay needs to apply it again."""

    rule_id: str
    premises: tuple
    side_inputs: tuple = ()


@dataclass(frozen=True)
class Judgment:
    form: str  # "ensures" | "ensures_n" | "ensures2" | "hybrid" | "eventually_n_at_pc"
    sys: StepOracle
    parts: Any
    evidence: Any


def judgment_signature(j: Judgment) -> tuple:
    """Stable summary used by the evidence replay audit."""
    p = j.parts
    if j.form == "ensures":
        return (j.form, p.enum.states, p.budget,
                p.post.description, p.frame.description)
    if j.form == "ensures_n":
        return (j.form, p.enum.states, p.steps,
                p.post.description, p.frame.description)
    if j.form == "ensures2":
        return (j.form, p.pairs.pairs, p.steps0, p.steps1,
                p.post2.description, p.frame2.description)
    if j.form == "hybrid":
        inner = judgment_signature(replace(j, form="ensures2", parts=p.rel))
        return ((j.form,) + inner[1:]
                + (p.unary.states, p.upost.description, p.uframe.description))
    if j.form == "eventually_n_at_pc":
        return (j.form, p.enum.states, p.x0, p.stops)
    raise SchemaMismatch(f"unknown judgment form {j.form}")


# ---------------------------------------------------------------------------
# direct checks

def check_ensures(sys: StepOracle, enum: Enumeration, post, frame,
                  budget: int) -> Verdict:
    """Budgeted check of the step-free triple, one instance at a time.
    The first non-proven instance decides the verdict. A Proven verdict's
    `reached` frontiers are searched for again on first read."""
    enum.validate()
    warnings = () if enum.states else ("EmptyPrecondition",)

    def search(s):
        q, f = _at(post, s), _at(frame, s)
        return _ev_search(sys, s, lambda t: q.holds(t) and f.related(s, t),
                          budget, sys.finite_hint, q.pcs)

    for s in enum.states:
        outcome, reason, choices, witness, _ = search(s)
        if outcome == "refuted":
            q, f = _at(post, s), _at(frame, s)
            ce = Counterexample(reason, s, choices, witness,
                                detail=f"post {q.description!r} with frame "
                                       f"{f.description!r}")
            return refuted(ce, instances=len(enum.states), warnings=warnings)
        if outcome == "unknown":
            return unknown(instances=len(enum.states), budget=budget,
                           warnings=warnings)
    return proven(instances=len(enum.states), warnings=warnings,
                  reached=LazyTuple(lambda: (
                      tuple(dict.fromkeys(search(s)[4]))
                      for s in enum.states)))


def check_ensures_n(sys: StepOracle, enum: Enumeration, steps, post,
                    frame) -> Verdict:
    """Exact-count check. Resolves the step count per start state, from a
    StepFn or a tuple aligned with the states, and in the same walk
    requires the post and frame on the whole depth-n frontier with no
    earlier stuck state. Never Unknown. A Proven verdict's `reached`
    frontiers are walked again, at the resolved counts, on first read."""
    enum.validate()
    warnings = () if enum.states else ("EmptyPrecondition",)
    resolved = array("q")
    for i, s in enumerate(enum.states):
        q = _at(post, s)
        f = _at(frame, s)
        target = lambda t, q=q, f=f, s=s: q.holds(t) and f.related(s, t)
        n, _, fail = _explore(sys, s, _rule(steps, i, sys, s), target)
        resolved = _record(resolved, n)
        if fail is not None:
            reason, depth, witness = fail
            ce = Counterexample(reason, s, _choices(sys, s, depth, witness),
                                witness, detail=f"exact step count {n}")
            return refuted(ce, instances=len(enum.states),
                           steps=resolved, warnings=warnings)
    return proven(instances=len(enum.states), steps=resolved,
                  warnings=warnings, reached=LazyTuple(lambda: (
                      _explore(sys, s, n, None)[1]
                      for s, n in zip(enum.states, resolved))))


def check_ensures2(sys: StepOracle, pairs: PairEnumeration, steps0, steps1,
                   post2, frame2) -> Verdict:
    """Relational exact-count check over enumerated pairs.

    Step counts are StepFn objects or tuples aligned with the pair list;
    automatic ones resolve to a side's termination depth. A side with a
    state stuck before its depth refutes the pair; otherwise every pair of
    frontier states (one frontier per side) must satisfy the pair
    postcondition and pair frame, which enumerates the nested exact-count
    quantifier. The first failing pair in order refutes; `compare` gives
    its counterexample. A start state is walked once per step rule.

    A key join with a FactoredPost over a KeyJoin rel, a product frame and
    StepFn step counts takes a skip (`_block_scan`): each condition on a
    pair reads one side and the rel is an equivalence (equal keys), so a
    later left of a block that a left has passed meets the block's first
    right only. Where the sides are one (by identity: domain, join key,
    step rule, post, frame factor and rel key, as in a one-program check),
    a state's one walk makes its record, keeping no finals: its count and,
    when every final meets its post and frame and carries one rel key,
    that key, interned. A pair whose records hold one key holds; any other
    fails, and `compare` decides it as the pairwise loop would, raising
    what a record caught if that loop gets there first. Records walk and
    read posts in that loop's order, since a left with no record meets
    itself first (`_block_scan`).

    The stats' `steps0`, `steps1` and `reached` are LazyTuples for the
    pairs up to the failing one (all when proven), read back from the
    walks or records (finals walked again); stats["explored"] counts
    distinct (start state, step rule) walks. Never Unknown."""
    pairs.validate()
    memo: dict = {}  # (start state, step rule) -> (n, finals, fail)

    def explore(steps, i, s):
        rule = _rule(steps, i, sys, s)
        found = memo.get((s, rule))
        if found is None:
            found = memo[s, rule] = _explore(sys, s, rule, None)
        return found

    def compare(i, pair):
        """Explore both sides of the i-th pair; its counterexample, or
        None when it holds."""
        s0, s1 = pair
        q2 = _at(post2, pair)
        f2 = _at(frame2, pair)
        n0, finals0, fail0 = explore(steps0, i, s0)
        n1, finals1, fail1 = explore(steps1, i, s1)
        if fail0 is not None:
            reason, depth, witness = fail0
            return Counterexample(
                reason, pair, (_choices(sys, s0, depth, witness), ()),
                (witness, s1), sides=2, detail="left side died early")
        if fail1 is not None:
            reason, depth, witness = fail1
            return Counterexample(
                reason, pair, ((), _choices(sys, s1, depth, witness)),
                (s0, witness), sides=2, detail="right side died early")
        for a in finals0:
            for b in finals1:
                if not (q2.holds(a, b) and f2.related(pair, (a, b))):
                    return Counterexample(
                        "post", pair,
                        (_choices(sys, s0, n0, a), _choices(sys, s1, n1, b)),
                        (a, b), sides=2,
                        detail=f"pair post {q2.description!r} with frame "
                               f"{f2.description!r}")
        return None

    records, keys = {}, {}  # state -> (n, rel key); each rel key, interned

    def record(steps, i, s):
        found = records.get(s)
        if found is None:
            q, f = _at(post2.q0, s), frame2.product_of[0]
            n, finals, fail = _explore(sys, s, _rule(steps, i, sys, s), None)
            key = None
            try:  # compare raises it too, or refutes before
                if fail is None and all(q.holds(x) and f.related(s, x)
                                        for x in finals):
                    [key] = {post2.rel.key0(x) for x in finals}  # or raises
            except Exception:
                pass
            found = records[s] = n, keys.setdefault(key, key)
        return found

    blocked = (pairs.blocks is not None and isinstance(post2, FactoredPost)
               and isinstance(post2.rel, KeyJoin)
               and isinstance(frame2, PairFrame) and frame2.product_of
               and isinstance(steps0, StepFn) and isinstance(steps1, StepFn))
    shared = blocked and all(x is y for x, y in (
        (pairs.domain0, pairs.domain1), (pairs.pre2.key0, pairs.pre2.key1),
        (steps0, steps1), (post2.q0, post2.q1),
        (post2.rel.key0, post2.rel.key1), frame2.product_of))
    count, tried = ((sum(map(len, pairs.blocks)), _block_scan(pairs))
                    if blocked else (len(pairs.pairs), enumerate(pairs.pairs)))
    first = ce = None
    for i, pair in tried:
        if shared and record(steps0, i, pair[0])[1] is \
                record(steps0, i, pair[1])[1] is not None:
            continue
        ce = compare(i, pair)
        if ce is not None:
            first = i, pair
            break
    walked = None if first is None else first[0] + 1

    def column(f, look=record if shared else explore):
        return LazyTuple(lambda: (
            f(look(steps0, i, a), look(steps1, i, b))
            for i, (a, b) in enumerate(itertools.islice(pairs.scan(),
                                                        walked))))

    stats = dict(instances=count, steps0=column(lambda r0, r1: r0[0]),
                 steps1=column(lambda r0, r1: r1[0]),
                 warnings=() if count else ("EmptyPrecondition",),
                 explored=len(records if shared else memo))
    if ce is None:
        return proven(reached=column(lambda r0, r1: tuple(
            (a, b) for a in r0[1] for b in r1[1]), explore), **stats)
    if ce.reason != "post":  # a side died early: no step counts
        del stats["steps0"], stats["steps1"]
    return refuted(ce, **stats)


def _block_scan(pairs: PairEnumeration):
    """(index, pair) for the pairs of a key join in scan order, read by
    a loop that stops at its first failing pair: once a left has met
    every right of its block, a later left of the block meets only the
    block's first right. Where the sides are one domain and key, a left
    whose block is new is its first state, so it meets itself first."""
    done: set = set()  # ids of blocks whose rights all held with a left
    i = 0
    for a, rights in zip(pairs.domain0, pairs.blocks):
        for j, b in enumerate(rights[:1] if id(rights) in done else rights):
            yield i + j, (a, b)
        done.add(id(rights))
        i += len(rights)


def check_hybrid(sys: StepOracle, hybrid: HybridParts) -> Verdict:
    """Relational check plus the hybrid side conditions, each refuting
    when it fails: every unary precondition state has a partner, and
    reached postcondition pairs project into the unary postcondition. The
    pair frame must be a product; its right factor is the unary frame."""
    rel = hybrid.rel
    if not (isinstance(rel.frame2, PairFrame) and rel.frame2.product_of):
        raise FactorizationWitnessMissing(
            "a hybrid needs a product pair frame")

    verdict = check_ensures2(sys, rel.pairs, rel.steps0, rel.steps1,
                             rel.post2, rel.frame2)
    if not verdict.is_proven:
        return verdict

    partners = {s1 for _, s1 in rel.pairs.pairs}
    for s1 in hybrid.unary.states:
        if s1 not in partners:
            ce = Counterexample("no_partner", s1, (), s1,
                                detail="unary precondition state has no "
                                       "relational partner")
            return refuted(ce)

    reached = verdict.stats.get("reached", ())
    for i, finals in enumerate(reached):
        s1 = rel.pairs.pairs[i][1]
        for a, b in finals:
            if not _at(hybrid.upost, s1).holds(b):
                ce = Counterexample(
                    "projection", rel.pairs.pairs[i], ((), ()), (a, b),
                    sides=2,
                    detail="relational postcondition pair fails to project "
                           "into the unary postcondition")
                return refuted(ce)
    return verdict


def _frames_equal(f0: FrameFn, f1: FrameFn) -> bool:
    if f0 is f1:
        return True
    if f0.intensional_form is not None and f1.intensional_form is not None:
        return f0.intensional_form == f1.intensional_form
    return f0.description == f1.description


def _halting_at(sys: StepOracle, xw: int) -> StepOracle:
    """sys with every state whose pc is xw made stuck."""
    pc_of = sys.pc_of
    return StepOracle(lambda st: () if pc_of(st) == xw else sys.successors(st))


def check_eventually_n_at_pc(sys: StepOracle, parts: PcParts) -> Verdict:
    """From every start state (whose pc must be x0) the pc reaches the
    state's xw for the first time at exactly its step n, on every branch,
    and is stuck there: one (xw, n) per state, aligned with the states or
    a PerState table. A start state whose pc is not x0 is refused even
    after a failure; a Proven verdict's steps are the counts n."""
    if sys.pc_of is None:
        raise SchemaMismatch("oracle has no pc reader")
    enum, x0, stops = parts.enum, parts.x0, parts.stops
    enum.validate()
    pc_of, counts, ce, halting = sys.pc_of, array("q"), None, {}
    for i, s in enumerate(enum.states):
        if pc_of(s) != x0:
            raise SchemaMismatch(f"start state has pc {pc_of(s):#x}, not {x0:#x}")
        if ce is not None:
            continue
        xw, n = stops.at(s) if isinstance(stops, PerState) else stops[i]
        # walked with xw made stuck, an early visit to xw shows as a stuck
        # state; until one shows, the walk is the same as on sys
        done = lambda st: pc_of(st) == xw and not sys.successors(st)
        if xw not in halting:
            halting[xw] = _halting_at(sys, xw)
        _, _, fail = _explore(halting[xw], s, n, done)
        counts = _record(counts, n)
        if fail is None:
            continue
        reason, k, st = fail
        path = _choices(sys, s, k, st)
        if reason == "stuck" and pc_of(st) == xw:
            ce = Counterexample("pc_hit_early", s, path, st,
                                detail=f"pc reached {xw:#x} at step {k}, "
                                       f"expected {n}")
        elif reason == "stuck":
            ce = Counterexample("stuck", s, path, st,
                                detail=f"stuck at step {k} before {n}")
        elif pc_of(st) != xw:
            ce = Counterexample("pc_miss", s, path, st,
                                detail=f"pc is {pc_of(st):#x} at step {n}, "
                                       f"expected {xw:#x}")
        else:
            ce = Counterexample("not_terminated", s, path, st,
                                detail=f"state at {xw:#x} still has "
                                       f"successors")
    if ce is not None:
        return refuted(ce)
    return proven(instances=len(enum.states), steps=counts,
                  warnings=() if counts else ("EmptyPrecondition",))


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
    x0 = x0s.pop()
    stops, failure = [], None
    for s in enum.states:
        try:
            n, finals, _ = _explore(sys, s, StepFn.auto(budget), None)
        except StepFnUnresolvable as e:
            failure = PromotionFailed(
                _NO_COMMON_STOP if str(e) == _NO_COMMON_STOP else
                f"no stuck state within {budget} steps; the program does "
                f"not end in a stopper")
            break
        pcs = {pc_of(x) for x in finals}
        if len(pcs) != 1:
            failure = PromotionFailed("branches stop at different addresses")
            break
        stops.append((pcs.pop(), n))
    # every branch runs n steps and stops at xw, so only an early visit to
    # xw can refute; its path is as long as the visit is early. The states
    # before a failing one are checked first, so errors keep state order
    v = check_eventually_n_at_pc(sys, PcParts(Enumeration(tuple(
        itertools.islice(enum.states, len(stops)))), x0, tuple(stops)))
    if not v.is_proven:
        ce = v.counterexample
        raise PromotionFailed(
            f"pc revisits the stop address {pc_of(ce.witness):#x} (first "
            f"seen at step {len(ce.choices)})")
    if failure is not None:
        raise failure
    return Judgment("eventually_n_at_pc", sys,
                    PcParts(enum, x0, tuple(stops)),
                    Checked(instances=len(enum.states), reached=()))


# ---------------------------------------------------------------------------
# prove helpers (check, then wrap as a judgment)

def _proven(form: str, sys, v: Verdict, parts: Callable) -> Judgment:
    """v as a judgment with parts built from its stats, if it is Proven."""
    if not v.is_proven:
        raise CheckFailed(v)
    ev = Checked(v.stats["instances"], v.stats.get("reached", ()))
    return Judgment(form, sys, parts(v.stats), ev)


def prove_ensures(sys, enum, post, frame, budget) -> Judgment:
    return _proven("ensures", sys,
                   check_ensures(sys, enum, post, frame, budget),
                   lambda _: EnsuresParts(enum, post, frame, budget))


def prove_ensures_n(sys, enum, steps, post, frame) -> Judgment:
    return _proven("ensures_n", sys,
                   check_ensures_n(sys, enum, steps, post, frame),
                   lambda st: EnsuresNParts(enum, st["steps"], post, frame))


def prove_ensures2(sys, pairs, steps0, steps1, post2, frame2) -> Judgment:
    return _proven("ensures2", sys,
                   check_ensures2(sys, pairs, steps0, steps1, post2, frame2),
                   lambda st: Ensures2Parts(pairs, st["steps0"], st["steps1"],
                                            post2, frame2))


def recheck(j: Judgment) -> Verdict:
    """Re-run the direct check for a judgment's components, ignoring how
    the judgment was produced. Derived judgments must survive this."""
    p = j.parts
    if j.form == "ensures":
        return check_ensures(j.sys, p.enum, p.post, p.frame, p.budget)
    if j.form == "ensures_n":
        return check_ensures_n(j.sys, p.enum, p.steps, p.post, p.frame)
    if j.form == "ensures2":
        return check_ensures2(j.sys, p.pairs, p.steps0, p.steps1,
                              p.post2, p.frame2)
    if j.form == "hybrid":
        return check_hybrid(j.sys, p)
    if j.form == "eventually_n_at_pc":
        return check_eventually_n_at_pc(j.sys, p)
    raise SchemaMismatch(f"unknown judgment form {j.form}")


# ---------------------------------------------------------------------------
# rules

def _expect_form(j: Judgment, form: str, role: str) -> None:
    if j.form != form:
        raise SchemaMismatch(f"{role} must be an {form} judgment, got {j.form}")


def _same_sys(premises) -> StepOracle:
    systems = {id(j.sys) for j in premises}
    if len(systems) != 1:
        raise SchemaMismatch("premises come from different systems")
    return premises[0].sys


def _reached(j: Judgment) -> tuple:
    if not isinstance(j.evidence, Checked):
        v = recheck(j)
        if not v.is_proven:
            raise SideConditionFailed("premise does not re-check as proven")
        return v.stats.get("reached", ())
    return j.evidence.reached


def _all_reached(j: Judgment, holds: Callable, failure: str,
                 reached=None) -> None:
    """Every state (or pair) j reaches from each start satisfies
    holds(start, state), else SideConditionFailed(failure). reached is
    _reached(j) when the caller has read it already."""
    p = j.parts
    starts = p.pairs.pairs if j.form == "ensures2" else p.enum.states
    for s, finals in zip(starts, _reached(j) if reached is None else reached):
        for t in finals:
            if not holds(s, t):
                raise SideConditionFailed(failure)


def apply_rule(rule_id: str, premises: Sequence[Judgment],
               side_inputs: Optional[Mapping] = None) -> Judgment:
    """Apply one audited proof rule. Side conditions are discharged by
    enumeration or on intensional frame forms; a failure raises
    SideConditionFailed (or a more specific error), else the judgment's
    evidence records rule_id, the premises and side_inputs."""
    side_inputs = dict(side_inputs or {})
    handler = _RULES.get(rule_id)
    if handler is None:
        raise SchemaMismatch(f"unknown rule {rule_id!r}")
    premises = tuple(premises)
    parts, form = handler(premises, side_inputs)
    sys = _same_sys(premises)
    ev = Derived(rule_id, premises, tuple(side_inputs.items()))
    return Judgment(form, sys, parts, ev)


def _rule_pre(premises, inputs):
    (j,) = premises
    new_enum: Enumeration = inputs["pre"]
    if j.form not in ("ensures", "ensures_n"):
        raise SchemaMismatch("pre applies to unary judgments")
    old = set(j.parts.enum.states)
    for s in new_enum.states:
        if s not in old:
            raise SideConditionFailed("new precondition is not a subset of "
                                      "the old one")
    if j.form == "ensures":
        return replace(j.parts, enum=new_enum), j.form
    index = dict(zip(j.parts.enum.states, j.parts.steps))
    steps = tuple(index[s] for s in new_enum.states)
    return replace(j.parts, enum=new_enum, steps=steps), j.form


def _rule_post(premises, inputs):
    (j,) = premises
    new_post = inputs["post"]
    domain = tuple(inputs.get("domain", ()))
    if j.form not in ("ensures", "ensures_n"):
        raise SchemaMismatch("post applies to unary judgments")
    _all_reached(j, lambda s, t: _at(new_post, s).holds(t),
                 "weakened postcondition fails on a reached state")
    # tables are keyed by start state; each distinct (old, new) pair of
    # conditions is compared on the domain once
    for old_q, new_q in dict.fromkeys((_at(j.parts.post, s), _at(new_post, s))
                                      for s in j.parts.enum.states):
        for t in domain:
            if old_q.holds(t) and not new_q.holds(t):
                raise SideConditionFailed(
                    "weakened postcondition does not contain the old one")
    return replace(j.parts, post=new_post), j.form


def _rule_frame(premises, inputs):
    (j,) = premises
    new_frame = inputs["frame"]
    if j.form not in ("ensures", "ensures_n"):
        raise SchemaMismatch("frame applies to unary judgments")
    old = j.parts.frame
    if isinstance(old, FrameFn) and isinstance(new_frame, FrameFn) \
            and old.intensional_form is not None \
            and new_frame.intensional_form is not None:
        if not old.intensional_form <= new_frame.intensional_form:
            raise SideConditionFailed(
                "extended frame does not contain the old label set")
    else:
        _all_reached(j, lambda s, t: _at(new_frame, s).related(s, t),
                     "extended frame fails on a reached state")
    return replace(j.parts, frame=new_frame), j.form


def _rule_seq(premises, inputs):
    j1, j2 = premises
    _expect_form(j1, "ensures", "first premise")
    _expect_form(j2, "ensures", "second premise")
    mid_states = set(j2.parts.enum.states)
    reached = _reached(j1)
    _all_reached(j1, lambda s, t: t in mid_states,
                 "a state reached by the first premise is not covered by "
                 "the second premise's precondition", reached)
    mids_by_state = dict(zip(j1.parts.enum.states, reached))
    f1 = j1.parts.frame if isinstance(j1.parts.frame, FrameFn) else None
    f2 = j2.parts.frame if isinstance(j2.parts.frame, FrameFn) else None
    if f1 is None or f2 is None:
        raise SchemaMismatch("seq needs plain frames on both premises")
    composed = compose_frames(f1, f2, mids=lambda s: mids_by_state.get(s, ()))
    parts = EnsuresParts(j1.parts.enum, j2.parts.post, composed,
                         j1.parts.budget + j2.parts.budget)
    return parts, "ensures"


def _rule_branch_cases(premises, inputs):
    j1, j2 = premises
    _expect_form(j1, "ensures", "first premise")
    _expect_form(j2, "ensures", "second premise")
    whole: Enumeration = inputs["pre"]
    union = set(j1.parts.enum.states) | set(j2.parts.enum.states)
    if set(whole.states) != union:
        raise SideConditionFailed(
            "case split does not cover exactly the joint precondition")
    if j1.parts.post.description != j2.parts.post.description:
        raise SideConditionFailed("branch cases must share a postcondition")
    if j1.parts.frame.description != j2.parts.frame.description:
        raise SideConditionFailed("branch cases must share a frame")
    first = set(j1.parts.enum.states)
    # each start state keeps the condition of its own case
    post, frame = (c1 if c1 is c2 else per_state(
        {s: _at(c1 if s in first else c2, s) for s in whole.states},
        c1.description) for c1, c2 in ((j1.parts.post, j2.parts.post),
                                       (j1.parts.frame, j2.parts.frame)))
    parts = EnsuresParts(whole, post, frame,
                         max(j1.parts.budget, j2.parts.budget))
    return parts, "ensures"


def _rule_loop(premises, inputs):
    if len(premises) < 2:
        raise SchemaMismatch("loop needs an entry premise and at least an "
                             "exit premise")
    for j in premises:
        _expect_form(j, "ensures", "loop premise")
    frames = {j.parts.frame for j in premises}
    if len(frames) > 1:
        labels = {getattr(f, "intensional_form", None) for f in frames}
        if None in labels or len(labels) > 1:
            raise SideConditionFailed("loop premises must share one frame")
    frame = premises[0].parts.frame
    if not isinstance(frame, FrameFn) or not frame.is_transitive:
        raise SideConditionFailed(
            "loop needs a frame known to be transitive (a maychange frame "
            "or one marked transitive)")
    for ja, jb in zip(premises, premises[1:]):
        allowed = set(jb.parts.enum.states)
        _all_reached(ja, lambda s, t: t in allowed,
                     "an invariant stage does not cover the states reached "
                     "by the previous stage")
    parts = EnsuresParts(premises[0].parts.enum, premises[-1].parts.post,
                         frame, sum(j.parts.budget for j in premises))
    return parts, "ensures"


def _rule_conj(premises, inputs):
    j1, j2 = premises
    _expect_form(j1, "ensures_n", "first premise")
    _expect_form(j2, "ensures_n", "second premise")
    # by value: states may be streams, counts a check's array or a tuple
    states1, states2 = j1.parts.enum.states, j2.parts.enum.states
    if states1 is not states2 and tuple(states1) != tuple(states2):
        raise SideConditionFailed("conj premises must share their "
                                  "enumerated precondition states")
    steps1, steps2 = tuple(j1.parts.steps), tuple(j2.parts.steps)
    if steps1 != steps2:
        diff = next((s, a, b) for s, a, b in
                    zip(j1.parts.enum.states, steps1, steps2) if a != b)
        raise SideConditionFailed(
            f"conj premises disagree on step counts ({diff[1]} vs {diff[2]}); "
            f"exact-count triples only conjoin at one count")
    if j1.parts.frame.description != j2.parts.frame.description:
        raise SideConditionFailed("conj premises must share a frame")
    post = _conj_conditions(j1.parts.post, j2.parts.post,
                            j1.parts.enum.states)
    return replace(j1.parts, post=post), "ensures_n"


def _conj_conditions(p1, p2, keys, both=prop_and):
    if isinstance(p1, PerState) or isinstance(p2, PerState):
        return per_state({k: both(_at(p1, k), _at(p2, k)) for k in keys},
                         f"({p1.description} and {p2.description})")
    return both(p1, p2)


def _rule_conj2(premises, inputs):
    j1, j2 = premises
    _expect_form(j1, "ensures2", "first premise")
    _expect_form(j2, "ensures2", "second premise")
    if j1.parts.pairs.pairs != j2.parts.pairs.pairs:
        raise SideConditionFailed("relational conj premises must share "
                                  "their enumerated pairs")
    if j1.parts.steps0 != j2.parts.steps0 or j1.parts.steps1 != j2.parts.steps1:
        raise SideConditionFailed("relational conj premises disagree on "
                                  "step counts")
    if j1.parts.frame2.description != j2.parts.frame2.description:
        raise SideConditionFailed("relational conj premises must share a "
                                  "pair frame")
    post2 = _conj_conditions(j1.parts.post2, j2.parts.post2,
                             j1.parts.pairs.pairs, pair_and)
    return replace(j1.parts, post2=post2), "ensures2"


def _rule_comm(premises, inputs):
    (j,) = premises
    _expect_form(j, "ensures2", "premise")
    p = j.parts
    swapped_pairs = PairEnumeration(
        tuple((b, a) for a, b in p.pairs.pairs),
        PairProperty(lambda a, b: p.pairs.pre2.holds(b, a),
                     f"swap({p.pairs.pre2.description})"),
        p.pairs.domain1, p.pairs.domain0,
        f"swap({p.pairs.description})")
    post2 = (per_state({(b, a): swap_pair_property(_at(p.post2, (a, b)))
                        for a, b in p.pairs.pairs},
                       f"swap({p.post2.description})")
             if isinstance(p.post2, PerState) else swap_pair_property(p.post2))
    frame2 = (per_state({(b, a): swap_pair_frame(_at(p.frame2, (a, b)))
                         for a, b in p.pairs.pairs},
                        f"swap({p.frame2.description})")
              if isinstance(p.frame2, PerState) else swap_pair_frame(p.frame2))
    parts = Ensures2Parts(swapped_pairs, p.steps1, p.steps0, post2, frame2)
    return parts, "ensures2"


def _rule_comp(premises, inputs):
    j1, j2 = premises
    _expect_form(j1, "ensures2", "first premise")
    _expect_form(j2, "ensures2", "second premise")
    mid_pairs = {pair: i for i, pair in enumerate(j2.parts.pairs.pairs)}
    reached = _reached(j1)
    steps0, steps1 = [], []
    for i, pair in enumerate(j1.parts.pairs.pairs):
        mids = reached[i]
        if not mids:
            raise SideConditionFailed("first premise recorded no reached "
                                      "pairs to continue from")
        counts = set()
        for mid in mids:
            if mid not in mid_pairs:
                raise SideConditionFailed(
                    "a pair reached by the first premise is not enumerated "
                    "by the second premise")
            k = mid_pairs[mid]
            counts.add((j2.parts.steps0[k], j2.parts.steps1[k]))
        if len(counts) != 1:
            raise SideConditionFailed(
                "continuation step counts differ between reached pairs")
        m0, m1 = counts.pop()
        steps0.append(j1.parts.steps0[i] + m0)
        steps1.append(j1.parts.steps1[i] + m1)
    frame2 = _compose_pair_frames(j1.parts.frame2, j2.parts.frame2,
                                  dict(zip(j1.parts.pairs.pairs, reached)))
    post2 = j2.parts.post2
    if isinstance(post2, PerState):
        table = {}
        for pair, mids in zip(j1.parts.pairs.pairs, reached):
            posts = tuple(dict.fromkeys(_at(j2.parts.post2, mid)
                                        for mid in mids))
            if len({q.description for q in posts}) != 1:
                raise SideConditionFailed(
                    "continuation postconditions differ between reached "
                    "pairs")
            # a final pair meets the post of the middle it passed through
            table[pair] = posts[0] if len(posts) == 1 else PairProperty(
                lambda a, b, posts=posts: any(q.holds(a, b) for q in posts),
                posts[0].description)
        post2 = per_state(table, j2.parts.post2.description)
    parts = Ensures2Parts(j1.parts.pairs, tuple(steps0), tuple(steps1),
                          post2, frame2)
    return parts, "ensures2"


def _compose_pair_frames(fa, fb, mids_of: dict):
    if isinstance(fa, PairFrame) and isinstance(fb, PairFrame) \
            and fa.product_of and fb.product_of:
        l0, l1 = fa.product_of
        r0, r1 = fb.product_of
        if all(f.intensional_form is not None for f in (l0, l1, r0, r1)):
            return product_frame(
                compose_frames(l0, r0), compose_frames(l1, r1))

    def related(pre, post):
        return any(_at(fa, pre).related(pre, m) and _at(fb, m).related(m, post)
                   for m in mids_of.get(pre, ()))

    return PairFrame(related,
                     description=f"({fa.description} o {fb.description})")


def _rule_frame_compose(premises, inputs):
    """Transitive composition through a shared middle program: premises
    over pairs (a, b) and (b, c) with product frames F0 x F1 and F1 x F2
    compose to (a, c) with frame F0 x F2, joining on identical middle
    states."""
    j1, j2 = premises
    _expect_form(j1, "ensures2", "first premise")
    _expect_form(j2, "ensures2", "second premise")
    fa, fb = j1.parts.frame2, j2.parts.frame2
    if not (isinstance(fa, PairFrame) and isinstance(fb, PairFrame)
            and fa.product_of and fb.product_of):
        raise FactorizationWitnessMissing(
            "transitive composition needs product frames on both premises")
    f0, f1_left = fa.product_of
    f1_right, f2 = fb.product_of
    if not _frames_equal(f1_left, f1_right):
        raise SideConditionFailed("premises disagree on the middle frame")

    by_mid: dict = {}
    for k, (b, c) in enumerate(j2.parts.pairs.pairs):
        by_mid.setdefault(b, []).append(k)
    composed, steps0, steps1, witness = [], [], [], {}
    reached1 = _reached(j1)
    reached2 = _reached(j2)
    for i, (a, b) in enumerate(j1.parts.pairs.pairs):
        for k in by_mid.get(b, ()):
            if j1.parts.steps1[i] != j2.parts.steps0[k]:
                raise SideConditionFailed(
                    "middle step counts disagree on a joined pair")
            c = j2.parts.pairs.pairs[k][1]
            if (a, c) in witness:
                continue
            witness[(a, c)] = (i, k)
            composed.append((a, c))
            steps0.append(j1.parts.steps0[i])
            steps1.append(j2.parts.steps1[k])
    if not composed:
        raise SideConditionFailed("no pairs join on a shared middle state")

    post_pairs = {}
    for (a, c), (i, k) in witness.items():
        finals = set()
        lefts = {x for x, m in reached1[i]}
        mids_l = {m for x, m in reached1[i]}
        mids_r = {m for m, y in reached2[k]}
        rights = {y for m, y in reached2[k]}
        if not (mids_l & mids_r):
            raise SideConditionFailed(
                "joined premises reach disjoint middle states")
        for x in lefts:
            for y in rights:
                finals.add((x, y))
        post_pairs[(a, c)] = frozenset(finals)

    def make_post(key):
        allowed = post_pairs[key]
        return PairProperty(lambda x, y: (x, y) in allowed,
                            "reached-join membership")

    post2 = per_state({key: make_post(key) for key in composed},
                      f"({j1.parts.post2.description} o "
                      f"{j2.parts.post2.description})")
    pre2 = PairProperty(lambda a, c: (a, c) in witness,
                        f"({j1.parts.pairs.pre2.description} o "
                        f"{j2.parts.pairs.pre2.description})")
    pairs = PairEnumeration(tuple(composed), pre2,
                            description="joined on middle states")
    parts = Ensures2Parts(pairs, tuple(steps0), tuple(steps1), post2,
                          product_frame(f0, f2))
    return parts, "ensures2"


def _rule_pre2(premises, inputs):
    (j,) = premises
    _expect_form(j, "ensures2", "premise")
    new_pairs: PairEnumeration = inputs["pre"]
    old = {pair: i for i, pair in enumerate(j.parts.pairs.pairs)}
    for pair in new_pairs.pairs:
        if pair not in old:
            raise SideConditionFailed("new pair set is not a subset of the "
                                      "old one")
    steps0 = tuple(j.parts.steps0[old[p]] for p in new_pairs.pairs)
    steps1 = tuple(j.parts.steps1[old[p]] for p in new_pairs.pairs)
    return (replace(j.parts, pairs=new_pairs, steps0=steps0, steps1=steps1),
            "ensures2")


def _rule_post2(premises, inputs):
    (j,) = premises
    _expect_form(j, "ensures2", "premise")
    new_post = inputs["post"]
    _all_reached(j, lambda pair, ab: _at(new_post, pair).holds(*ab),
                 "weakened pair postcondition fails on a reached pair")
    return replace(j.parts, post2=new_post), "ensures2"


def _rule_frame2(premises, inputs):
    (j,) = premises
    _expect_form(j, "ensures2", "premise")
    new_frame = inputs["frame"]
    old = j.parts.frame2
    intensional = False
    if isinstance(old, PairFrame) and isinstance(new_frame, PairFrame) \
            and old.product_of and new_frame.product_of:
        (a0, a1), (b0, b1) = old.product_of, new_frame.product_of
        if all(f.intensional_form is not None for f in (a0, a1, b0, b1)):
            if not (a0.intensional_form <= b0.intensional_form
                    and a1.intensional_form <= b1.intensional_form):
                raise SideConditionFailed(
                    "extended pair frame does not contain the old one")
            intensional = True
    if not intensional:
        _all_reached(j, lambda p, pq: _at(new_frame, p).related(p, pq),
                     "extended pair frame fails on a reached pair")
    return replace(j.parts, frame2=new_frame), "ensures2"


def _rule_restrict2(premises, inputs):
    """Restriction by a frame-invariant pair property: when the pair frame
    can never move a pair across the property's boundary, the property
    can be added to both the precondition and the postcondition."""
    (j,) = premises
    _expect_form(j, "ensures2", "premise")
    f: PairProperty = inputs["restriction"]
    domain = tuple(inputs.get("domain", ()))
    frame2 = j.parts.frame2
    later = domain + tuple(pq for finals in _reached(j) for pq in finals)
    for p in j.parts.pairs.pairs:
        f2 = _at(frame2, p)
        for q in later:
            if f2.related(p, q):
                if f.holds(*p) != f.holds(*q):
                    raise SideConditionFailed(
                        "restriction property is not invariant under the "
                        "pair frame")
    keep = [i for i, p in enumerate(j.parts.pairs.pairs) if f.holds(*p)]
    pairs = PairEnumeration(
        tuple(j.parts.pairs.pairs[i] for i in keep),
        PairProperty(lambda a, b: j.parts.pairs.pre2.holds(a, b) and f.holds(a, b),
                     f"({j.parts.pairs.pre2.description} and {f.description})"),
        j.parts.pairs.domain0, j.parts.pairs.domain1,
        j.parts.pairs.description)
    post2 = _conj_conditions(j.parts.post2, f, pairs.pairs, pair_and)
    parts = Ensures2Parts(pairs, tuple(j.parts.steps0[i] for i in keep),
                          tuple(j.parts.steps1[i] for i in keep), post2,
                          j.parts.frame2)
    return parts, "ensures2"


_RULES = {
    "pre": _rule_pre,
    "post": _rule_post,
    "frame": _rule_frame,
    "seq": _rule_seq,
    "branch_cases": _rule_branch_cases,
    "loop": _rule_loop,
    "conj": _rule_conj,
    "conj2": _rule_conj2,
    "comm": _rule_comm,
    "comp": _rule_comp,
    "frame_compose": _rule_frame_compose,
    "pre2": _rule_pre2,
    "post2": _rule_post2,
    "frame2": _rule_frame2,
    "restrict2": _rule_restrict2,
}


# ---------------------------------------------------------------------------
# conversions between judgment forms

def convert(j: Judgment, conversion_id: str,
            aux: Optional[Mapping] = None) -> Judgment:
    """Convert between judgment forms. Each conversion validates its
    premises, discharges side conditions by enumeration or simulation,
    and returns a derived judgment that re-checks directly; its evidence
    records "convert:<id>", j and any further premises, and aux."""
    aux = dict(aux or {})
    handler = _CONVERSIONS.get(conversion_id)
    if handler is None:
        raise SchemaMismatch(f"unknown conversion {conversion_id!r}")
    parts, form, extra_premises = handler(j, aux)
    ev = Derived("convert:" + conversion_id, (j, *extra_premises),
                 tuple(aux.items()))
    return Judgment(form, j.sys, parts, ev)


def _conv_drop_steps(j, aux):
    _expect_form(j, "ensures_n", "premise")
    budget = (max(j.parts.steps) if j.parts.steps else 0) + 1
    return (EnsuresParts(j.parts.enum, j.parts.post, j.parts.frame, budget),
            "ensures", ())


def _deterministic(sys: StepOracle) -> StepOracle:
    """sys with a fork raising NotDeterministic."""
    def successors(st):
        succ = sys.successors(st)
        if len(succ) > 1:
            raise NotDeterministic("state has multiple successors; step "
                                   "synthesis needs a deterministic system")
        return succ
    return StepOracle(successors)


def _conv_synthesize_steps(j, aux):
    """Deterministic systems admit exact counts: each start state's is the
    first step at which the target holds, as the exact-count check
    resolves it on the system with forks refused."""
    _expect_form(j, "ensures", "premise")
    p = j.parts
    try:
        v = check_ensures_n(_deterministic(j.sys), p.enum,
                            StepFn.auto(max(p.budget, 0)), p.post, p.frame)
    except StepFnUnresolvable as e:
        raise SideConditionFailed(f"no step count synthesized: {e}") from None
    return (EnsuresNParts(p.enum, v.stats["steps"], p.post, p.frame),
            "ensures_n", ())


def _conv_product(j, aux):
    other = aux.get("other")
    if other is None:
        raise SchemaMismatch("product conversion needs aux['other']")
    _expect_form(j, "ensures_n", "premise")
    _expect_form(other, "ensures_n", "second premise")
    _same_sys((j, other))
    left, right = j.parts, other.parts
    pairs = tuple((a, b) for a in left.enum.states for b in right.enum.states)
    steps0, steps1 = [], []
    li = dict(zip(left.enum.states, left.steps))
    ri = dict(zip(right.enum.states, right.steps))
    for a, b in pairs:
        steps0.append(li[a])
        steps1.append(ri[b])
    pre2 = PairProperty(
        lambda a, b: left.enum.pre.holds(a) and right.enum.pre.holds(b),
        f"({left.enum.pre.description} x {right.enum.pre.description})")
    if isinstance(left.post, PerState) or isinstance(right.post, PerState):
        post2 = per_state(
            {(a, b): product_property(_at(left.post, a), _at(right.post, b))
             for a, b in pairs},
            f"({left.post.description} x {right.post.description})")
    else:
        post2 = product_property(left.post, right.post)
    if isinstance(left.frame, PerState) or isinstance(right.frame, PerState):
        frame2 = per_state(
            {(a, b): product_frame(_at(left.frame, a), _at(right.frame, b))
             for a, b in pairs},
            f"({left.frame.description} x {right.frame.description})")
    else:
        frame2 = product_frame(left.frame, right.frame)
    enum = PairEnumeration(pairs, pre2, left.enum.states, right.enum.states,
                           "product of two unary enumerations")
    return (Ensures2Parts(enum, tuple(steps0), tuple(steps1), post2, frame2),
            "ensures2", (other,))


def _conv_hybridize(j, aux):
    """Attach a unary exact-count judgment for the first component to a
    relational judgment, producing the hybrid form: the relational pre
    and post are restricted by the unary conditions on the left, the
    frame gains the unary frame on the left, and the unary precondition
    and postcondition for the second program come from aux. The
    relational frame must be a product; its right factor becomes the
    second program's frame."""
    rel = aux.get("relational")
    if rel is None:
        raise SchemaMismatch("hybridize needs aux['relational']")
    _expect_form(j, "ensures_n", "premise")
    _expect_form(rel, "ensures2", "second premise")
    _same_sys((j, rel))
    unary_pre: Enumeration = aux["unary_pre"]
    upost = aux["upost"]

    frame2 = rel.parts.frame2
    if not (isinstance(frame2, PairFrame) and frame2.product_of):
        raise FactorizationWitnessMissing(
            "hybridize needs a product pair frame")
    fl, fr = frame2.product_of
    jf = j.parts.frame
    if isinstance(jf, FrameFn) and jf.intensional_form is not None \
            and fl.intensional_form is not None:
        from .machine import maychange  # local: the kernel stays machine-free
        frame2 = product_frame(
            maychange(fl.intensional_form & jf.intensional_form,
                      f"({fl.description} and {jf.description})"), fr)

    left_states = set(j.parts.enum.states)
    li = dict(zip(j.parts.enum.states, j.parts.steps))
    keep = [i for i, (a, b) in enumerate(rel.parts.pairs.pairs)
            if a in left_states]
    if not keep:
        raise SideConditionFailed("no relational pair starts in the unary "
                                  "precondition")
    for i in keep:
        a = rel.parts.pairs.pairs[i][0]
        if rel.parts.steps0[i] != li[a]:
            raise SideConditionFailed(
                "unary and relational step counts disagree on a shared "
                "start state")
    pairs = tuple(rel.parts.pairs.pairs[i] for i in keep)
    steps0 = tuple(rel.parts.steps0[i] for i in keep)
    steps1 = tuple(rel.parts.steps1[i] for i in keep)

    def restricted_post(pair):
        q2 = _at(rel.parts.post2, pair)
        q0 = _at(j.parts.post, pair[0])
        return PairProperty(
            lambda a, b: q2.holds(a, b) and q0.holds(a),
            f"({q2.description} and left {q0.description})")

    post2 = per_state({p: restricted_post(p) for p in pairs},
                      f"({rel.parts.post2.description} and left "
                      f"{j.parts.post.description})")

    pre2 = PairProperty(
        lambda a, b: rel.parts.pairs.pre2.holds(a, b) and a in left_states,
        f"({rel.parts.pairs.pre2.description} and left in unary pre)")
    pair_enum = PairEnumeration(pairs, pre2, rel.parts.pairs.domain0,
                                rel.parts.pairs.domain1,
                                rel.parts.pairs.description)
    rel_parts = Ensures2Parts(pair_enum, steps0, steps1, post2, frame2)
    hybrid = HybridParts(rel_parts, unary_pre, upost)
    v = check_hybrid(j.sys, hybrid)
    if not v.is_proven:
        raise SideConditionFailed(
            f"hybrid side conditions fail: {v.summary()}")
    return hybrid, "hybrid", (rel,)


def _conv_hybrid_extract(j, aux):
    """Project the unary exact-count judgment for the second program out
    of a hybrid judgment."""
    _expect_form(j, "hybrid", "premise")
    p = j.parts
    by_right: dict = {}
    for i, (a, b) in enumerate(p.rel.pairs.pairs):
        by_right.setdefault(b, set()).add(p.rel.steps1[i])
    steps = []
    for s1 in p.unary.states:
        counts = by_right.get(s1)
        if counts is None:
            raise SideConditionFailed("unary state has no relational partner")
        if len(counts) != 1:
            raise SideConditionFailed(
                "partners disagree on the right-side step count")
        steps.append(counts.pop())
    parts = EnsuresNParts(p.unary, tuple(steps), p.upost, p.uframe)
    return parts, "ensures_n", ()


def _conv_promote(j, aux):
    """Turn a budgeted judgment into an exact-count one using first-stop
    evidence: the recorded per-state stop counts become the step
    function."""
    _expect_form(j, "ensures", "premise")
    pc_j = aux.get("pc_evidence")
    if pc_j is None or getattr(pc_j, "form", None) != "eventually_n_at_pc":
        raise MissingPromotionEvidence(
            "promotion needs an eventually_n_at_pc judgment in "
            "aux['pc_evidence']")
    _same_sys((j, pc_j))
    if set(pc_j.parts.enum.states) != set(j.parts.enum.states):
        raise SideConditionFailed(
            "promotion evidence covers different start states")
    index = dict(zip(pc_j.parts.enum.states, pc_j.parts.stops))
    steps = tuple(index[s][1] for s in j.parts.enum.states)
    parts = EnsuresNParts(j.parts.enum, steps, j.parts.post, j.parts.frame)
    return parts, "ensures_n", (pc_j,)


_CONVERSIONS = {
    "drop_steps": _conv_drop_steps,
    "synthesize_steps": _conv_synthesize_steps,
    "product": _conv_product,
    "hybridize": _conv_hybridize,
    "hybrid_extract": _conv_hybrid_extract,
    "promote": _conv_promote,
}


def audit_replay(j: Judgment) -> bool:
    """Re-run every rule application in the derivation of j: each Derived
    judgment reachable through the premises, once and deepest first, then
    j itself. True iff every replay reproduces its judgment's signature.
    Checked premises end the walk; their audit is recheck."""
    if not isinstance(j.evidence, Derived):
        raise SchemaMismatch("only derived judgments replay")
    steps: dict = {}  # id -> derived judgment, premises before conclusions

    def walk(d: Judgment) -> None:
        if isinstance(d.evidence, Derived) and id(d) not in steps:
            for premise in d.evidence.premises:
                walk(premise)
            steps[id(d)] = d

    walk(j)
    for d in steps.values():
        ev, inputs = d.evidence, dict(d.evidence.side_inputs)
        if ev.rule_id.startswith("convert:"):
            again = convert(ev.premises[0], ev.rule_id.split(":", 1)[1], inputs)
        else:
            again = apply_rule(ev.rule_id, ev.premises, inputs)
        if judgment_signature(again) != judgment_signature(d):
            return False
    return True
