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
  hybrid        an ensures2 judgment together with unary conditions for
                the second component and three side conditions: every
                unary precondition state has a partner, relational
                postcondition pairs project into the unary postcondition,
                and the pair frame factors as a product.
  eventually_n_at_pc  a promotion primitive: from each start state the pc
                first reaches a given address at exactly n steps, on
                every branch, and execution is stuck there.

Checks return a Verdict: Proven, Refuted with a replayable counterexample
(initial state plus branch choices), or Unknown when a budget ran out.
Exact-count checks never return Unknown. Proof rules and conversions are
separate, audited steps: apply_rule and convert take checked judgments,
discharge their side conditions by enumeration, record how each one was
discharged, and produce a derived judgment that can be re-checked
directly or replayed from its recorded evidence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
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
    reads a program-counter analogue off a state."""

    successors: Callable[[Any], Sequence[Any]]
    state_eq: Callable[[Any, Any], bool] = operator.eq
    pc_of: Optional[Callable[[Any], int]] = None
    finite_hint: bool = False
    description: str = ""


@dataclass(frozen=True)
class PropertyFn:
    """Decidable state predicate with a printable description.

    labels_read, when known, lists the machine labels the predicate
    depends on; frame-invariance checks use it."""

    holds: Callable[[Any], bool]
    description: str = ""
    labels_read: Optional[frozenset] = None

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
class PairFrame:
    """Relation between a start pair and a later pair. product_of, when
    set, names unary frames whose product this is; the hybrid check's
    factorization condition reads it."""

    related: Callable[[tuple, tuple], bool]
    product_of: Optional[tuple] = None  # (FrameFn, FrameFn)
    description: str = ""

    def __call__(self, p, q) -> bool:
        return self.related(p, q)


def prop(fn: Callable[[Any], bool], description: str = "",
         labels_read=None) -> PropertyFn:
    return PropertyFn(fn, description, labels_read)


TRUE = PropertyFn(lambda s: True, "true")

# the frame of a check that declares none: any later state is allowed
ANYTHING = FrameFn(lambda s, t: True, description="anything")


def prop_and(p: PropertyFn, q: PropertyFn) -> PropertyFn:
    reads = None
    if p.labels_read is not None and q.labels_read is not None:
        reads = p.labels_read | q.labels_read
    return PropertyFn(lambda s: p.holds(s) and q.holds(s),
                      f"({p.description} and {q.description})", reads)


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
        union = f0.intensional_form | f1.intensional_form
        return FrameFn(lambda s, t: _delta_within(s, t, union),
                       intensional_form=union,
                       description=f"({f0.description} o {f1.description})")
    if mids is None:
        raise FactorizationWitnessMissing(
            "cannot compose frames without label sets or a mid-state supplier")
    return FrameFn(
        lambda s, t: any(f0.related(s, m) and f1.related(m, t) for m in mids(s)),
        description=f"({f0.description} o {f1.description})")


def _delta_within(s, t, labels) -> bool:
    # local import keeps this module independent of the machine model
    from .machine import MachineState, state_delta
    if isinstance(s, MachineState):
        return state_delta(s, t) <= labels
    raise KernelError("label frames only apply to machine states")


# ---------------------------------------------------------------------------
# per-state wrappers and enumerations

@dataclass(frozen=True)
class PerState:
    """A table of properties or frames keyed by start state (or pair),
    for enumerations whose instances need their own conditions."""

    table: tuple  # ((key, value), ...)
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_index", dict(self.table))

    def at(self, key):
        try:
            return self._index[key]
        except KeyError:
            raise SchemaMismatch(f"no entry for state in {self.description!r}")


def per_state(mapping: Mapping, description: str = "") -> PerState:
    return PerState(tuple(mapping.items()), description)


def _at(cond, key):
    return cond.at(key) if isinstance(cond, PerState) else cond


def _describe(cond) -> str:
    return cond.description


@dataclass(frozen=True)
class Enumeration:
    """Explicit initial states plus the predicate they were drawn from."""

    states: tuple
    pre: PropertyFn = TRUE
    description: str = ""

    def validate(self) -> None:
        for s in self.states:
            if not self.pre.holds(s):
                raise SchemaMismatch(
                    f"enumerated state fails its own precondition "
                    f"{self.pre.description!r}")


@dataclass(frozen=True)
class PairEnumeration:
    """Explicit initial pairs; optional per-side domains are enforced."""

    pairs: tuple  # of (s0, s1)
    pre2: PairProperty = PairProperty(lambda a, b: True, "true")
    domain0: Optional[tuple] = None
    domain1: Optional[tuple] = None
    description: str = ""

    def validate(self) -> None:
        if self.domain0 is not None:
            allowed = set(self.domain0)
            for s0, _ in self.pairs:
                if s0 not in allowed:
                    raise AsymmetricEnumeration(
                        "pair references a left state outside domain0")
        if self.domain1 is not None:
            allowed = set(self.domain1)
            for _, s1 in self.pairs:
                if s1 not in allowed:
                    raise AsymmetricEnumeration(
                        "pair references a right state outside domain1")
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
    that a tuple (aligned with the enumeration) or a constant or table
    StepFn gives it, or an automatic StepFn, which it resolves itself."""
    if isinstance(steps, tuple):
        return steps[i]
    return steps if steps.kind == "auto" else steps.resolve(sys, s)


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

    def describe(self) -> str:
        lines = [f"reason: {self.reason}"]
        if self.detail:
            lines.append(f"detail: {self.detail}")
        if self.sides == 1:
            lines.append(f"initial: {self.initial!r}")
            lines.append(f"choices: {list(self.choices)}")
            lines.append(f"witness: {self.witness!r}")
        else:
            lines.append(f"initial left:  {self.initial[0]!r}")
            lines.append(f"initial right: {self.initial[1]!r}")
            lines.append(f"choices left:  {list(self.choices[0])}")
            lines.append(f"choices right: {list(self.choices[1])}")
        return "\n".join(lines)


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


def eventually_holds(sys: StepOracle, s, q: PropertyFn, budget: int) -> Verdict:
    """Three-valued all-paths reachability of q from s within a budget."""
    target = q.holds if isinstance(q, PropertyFn) else q
    outcome, reason, choices, witness, frontier = _ev_search(
        sys, s, target, budget, sys.finite_hint)
    if outcome == "proven":
        return proven(frontier=len(frontier))
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
    steps: tuple  # ints aligned with enum.states
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
    rel: Ensures2Parts
    unary: Enumeration
    upost: Any
    uframe: FrameFn
    left_frame: Optional[FrameFn] = None  # witness for the factorization
    domain: Optional[tuple] = None


@dataclass(frozen=True)
class PcParts:
    enum: Enumeration
    x0: int
    stops: tuple  # (xw, n) per state, aligned


@dataclass(frozen=True)
class Checked:
    """Evidence from a direct check: per-instance reached frontier."""

    instances: int
    reached: tuple  # aligned with states or pairs
    warnings: tuple = ()
    notes: str = ""


@dataclass(frozen=True)
class SideCondition:
    name: str
    method: str  # "enumeration" | "intensional" | "structural" | "simulation"
    detail: str = ""


@dataclass(frozen=True)
class Derived:
    """Evidence from a rule or conversion: premises, inputs, and how each
    side condition was discharged. Deterministic enough to replay."""

    rule_id: str
    premises: tuple
    side_conditions: tuple
    side_inputs: tuple = ()


@dataclass(frozen=True)
class Judgment:
    form: str  # "ensures" | "ensures_n" | "ensures2" | "hybrid" | "eventually_n_at_pc"
    sys: StepOracle
    parts: Any
    evidence: Any

    def describe(self) -> str:
        e = self.evidence
        how = (f"checked over {e.instances} instance(s)"
               if isinstance(e, Checked) else f"derived by {e.rule_id}")
        return f"<{self.form} judgment, {how}>"


def judgment_signature(j: Judgment) -> tuple:
    """Stable summary used by the evidence replay audit."""
    p = j.parts
    if j.form == "ensures":
        return (j.form, p.enum.states, p.budget,
                _describe(p.post), _describe(p.frame))
    if j.form == "ensures_n":
        return (j.form, p.enum.states, p.steps,
                _describe(p.post), _describe(p.frame))
    if j.form == "ensures2":
        return (j.form, p.pairs.pairs, p.steps0, p.steps1,
                _describe(p.post2), _describe(p.frame2))
    if j.form == "hybrid":
        inner = (j.form, p.rel.pairs.pairs, p.rel.steps0, p.rel.steps1,
                 _describe(p.rel.post2), _describe(p.rel.frame2))
        return inner + (p.unary.states, _describe(p.upost), _describe(p.uframe))
    if j.form == "eventually_n_at_pc":
        return (j.form, p.enum.states, p.x0, p.stops)
    raise SchemaMismatch(f"unknown judgment form {j.form}")


# ---------------------------------------------------------------------------
# direct checks

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


def check_ensures_n(sys: StepOracle, enum: Enumeration, steps: StepFn, post,
                    frame) -> Verdict:
    """Exact-count check. Resolves the step function per start state and,
    in the same walk, requires the post and frame on the whole depth-n
    frontier with no earlier stuck state. Never Unknown."""
    enum.validate()
    warnings = []
    if not enum.states:
        warnings.append("EmptyPrecondition")
    resolved, reached = [], []
    for i, s in enumerate(enum.states):
        q = _at(post, s)
        f = _at(frame, s)
        target = lambda t, q=q, f=f, s=s: q.holds(t) and f.related(s, t)
        n, finals, fail = _explore(sys, s, _rule(steps, i, sys, s), target)
        resolved.append(n)
        if fail is not None:
            reason, depth, witness = fail
            ce = Counterexample(reason, s, _choices(sys, s, depth, witness),
                                witness, detail=f"exact step count {n}")
            return refuted(ce, instances=len(enum.states),
                           steps=tuple(resolved), warnings=tuple(warnings))
        reached.append(finals)
    return proven(instances=len(enum.states), steps=tuple(resolved),
                  warnings=tuple(warnings), reached=tuple(reached))


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


def check_hybrid(sys: StepOracle, hybrid: HybridParts) -> Verdict:
    """Relational check plus the three hybrid side conditions: partner
    existence for every unary precondition state, projection of reached
    postcondition pairs into the unary postcondition, and factorization
    of the pair frame as a product whose right component is the unary
    frame."""
    rel = hybrid.rel
    frame2 = rel.frame2
    plain_frame = frame2 if isinstance(frame2, PairFrame) else None
    if plain_frame is not None and plain_frame.product_of is None \
            and hybrid.left_frame is None:
        raise FactorizationWitnessMissing(
            "pair frame has no product structure and no left-frame witness")

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
    if hybrid.domain is not None:
        if isinstance(rel.post2, PerState) or isinstance(hybrid.upost, PerState):
            raise SchemaMismatch(
                "domain-based projection needs a single relational "
                "postcondition and a single unary postcondition")
        for a in hybrid.domain:
            for b in hybrid.domain:
                if rel.post2.holds(a, b) and not hybrid.upost.holds(b):
                    ce = Counterexample(
                        "projection", (a, b), ((), ()), (a, b), sides=2,
                        detail="a domain pair in the relational "
                               "postcondition fails to project")
                    return refuted(ce)

    if plain_frame is not None and plain_frame.product_of is not None:
        right = plain_frame.product_of[1]
        if not _frames_equal(right, hybrid.uframe):
            raise SideConditionFailed(
                "pair frame does not factor with the unary frame on the right")
    verdict.stats["side_conditions"] = (
        "partner existence: enumeration",
        "postcondition projection: enumeration over reached pairs",
        "frame factorization: intensional product structure",
    )
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
    # walked with xw made stuck, an early visit to xw shows as a stuck
    # state; until one shows, the walk is the same as on sys
    halted = _halting_at(sys, xw)
    done = lambda st: pc_of(st) == xw and not sys.successors(st)
    for s in enum.states:
        _, _, fail = _explore(halted, s, n, done)
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
        try:
            n, finals, _ = _explore(sys, s, StepFn.auto(budget), None)
        except StepFnUnresolvable as e:
            if str(e) == _NO_COMMON_STOP:
                raise PromotionFailed(_NO_COMMON_STOP) from None
            raise PromotionFailed(
                f"no stuck state within {budget} steps; the program does "
                f"not end in a stopper") from None
        pcs = {pc_of(x) for x in finals}
        if len(pcs) != 1:
            raise PromotionFailed("branches stop at different addresses")
        xw = pcs.pop()
        # no branch is stuck before n, so the first stuck state of the
        # walk with xw made stuck is the first visit to xw
        _, _, early = _explore(_halting_at(sys, xw), s, n, None)
        if early is not None:
            raise PromotionFailed(
                f"pc revisits the stop address {xw:#x} (first seen at "
                f"step {early[1]})")
        stops.append((xw, n))
    parts = PcParts(enum, x0s.pop(), tuple(stops))
    evidence = Checked(instances=len(enum.states), reached=tuple(stops),
                       notes="first-stop resolution by simulation")
    return Judgment("eventually_n_at_pc", sys, parts, evidence)


# ---------------------------------------------------------------------------
# prove helpers (check, then wrap as a judgment)

def prove_ensures(sys, enum, post, frame, budget) -> Judgment:
    v = check_ensures(sys, enum, post, frame, budget)
    if not v.is_proven:
        raise CheckFailed(v)
    parts = EnsuresParts(enum, post, frame, budget)
    ev = Checked(v.stats["instances"], v.stats.get("reached", ()),
                 v.stats.get("warnings", ()))
    return Judgment("ensures", sys, parts, ev)


def prove_ensures_n(sys, enum, steps, post, frame) -> Judgment:
    v = check_ensures_n(sys, enum, steps, post, frame)
    if not v.is_proven:
        raise CheckFailed(v)
    parts = EnsuresNParts(enum, v.stats["steps"], post, frame)
    ev = Checked(v.stats["instances"], v.stats.get("reached", ()),
                 v.stats.get("warnings", ()))
    return Judgment("ensures_n", sys, parts, ev)


def prove_ensures2(sys, pairs, steps0, steps1, post2, frame2) -> Judgment:
    v = check_ensures2(sys, pairs, steps0, steps1, post2, frame2)
    if not v.is_proven:
        raise CheckFailed(v)
    parts = Ensures2Parts(pairs, v.stats["steps0"], v.stats["steps1"],
                          post2, frame2)
    ev = Checked(v.stats["instances"], v.stats.get("reached", ()),
                 v.stats.get("warnings", ()))
    return Judgment("ensures2", sys, parts, ev)


def recheck(j: Judgment) -> Verdict:
    """Re-run the direct check for a judgment's components, ignoring how
    the judgment was produced. Derived judgments must survive this."""
    p = j.parts
    if j.form == "ensures":
        return check_ensures(j.sys, p.enum, p.post, p.frame, p.budget)
    if j.form == "ensures_n":
        return check_ensures_n(j.sys, p.enum, _steps_table(p.enum.states, p.steps),
                               p.post, p.frame)
    if j.form == "ensures2":
        return check_ensures2(j.sys, p.pairs, p.steps0, p.steps1,
                              p.post2, p.frame2)
    if j.form == "hybrid":
        return check_hybrid(j.sys, p)
    if j.form == "eventually_n_at_pc":
        for s, (xw, n) in zip(p.enum.states, p.stops):
            v = check_eventually_n_at_pc(
                j.sys, Enumeration((s,), p.enum.pre), p.x0, xw, n)
            if not v.is_proven:
                return v
        return proven(instances=len(p.enum.states))
    raise SchemaMismatch(f"unknown judgment form {j.form}")


def _steps_table(states, steps) -> StepFn:
    return StepFn.table(dict(zip(states, steps)), "recorded")


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


def apply_rule(rule_id: str, premises: Sequence[Judgment],
               side_inputs: Optional[Mapping] = None) -> Judgment:
    """Apply one audited proof rule. Side conditions are discharged by
    enumeration or on intensional frame forms and recorded in the derived
    judgment's evidence; any failure raises SideConditionFailed (or a
    more specific error) rather than producing a judgment."""
    side_inputs = dict(side_inputs or {})
    handler = _RULES.get(rule_id)
    if handler is None:
        raise SchemaMismatch(f"unknown rule {rule_id!r}")
    premises = tuple(premises)
    parts, form, conditions = handler(premises, side_inputs)
    sys = _same_sys(premises)
    ev = Derived(rule_id, premises, tuple(conditions),
                 tuple(side_inputs.items()))
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
    cond = [SideCondition("precondition subset", "enumeration",
                          f"{len(new_enum.states)} of {len(old)} states kept")]
    if j.form == "ensures":
        parts = EnsuresParts(new_enum, j.parts.post, j.parts.frame,
                             j.parts.budget)
        return parts, "ensures", cond
    index = dict(zip(j.parts.enum.states, j.parts.steps))
    steps = tuple(index[s] for s in new_enum.states)
    return (EnsuresNParts(new_enum, steps, j.parts.post, j.parts.frame),
            "ensures_n", cond)


def _rule_post(premises, inputs):
    (j,) = premises
    new_post = inputs["post"]
    domain = inputs.get("domain", ())
    if j.form not in ("ensures", "ensures_n"):
        raise SchemaMismatch("post applies to unary judgments")
    reached = _reached(j)
    checked = 0
    for s, finals in zip(j.parts.enum.states, reached):
        for t in finals:
            checked += 1
            if not _at(new_post, t).holds(t):
                raise SideConditionFailed(
                    "weakened postcondition fails on a reached state")
    for t in domain:
        if _at(j.parts.post, t).holds(t) and not _at(new_post, t).holds(t):
            raise SideConditionFailed(
                "weakened postcondition does not contain the old one")
    cond = [SideCondition("postcondition containment", "enumeration",
                          f"checked on {checked} reached state(s) and "
                          f"{len(tuple(domain))} domain state(s)")]
    if j.form == "ensures":
        return (EnsuresParts(j.parts.enum, new_post, j.parts.frame,
                             j.parts.budget), "ensures", cond)
    return (EnsuresNParts(j.parts.enum, j.parts.steps, new_post,
                          j.parts.frame), "ensures_n", cond)


def _rule_frame(premises, inputs):
    (j,) = premises
    new_frame = inputs["frame"]
    if j.form not in ("ensures", "ensures_n"):
        raise SchemaMismatch("frame applies to unary judgments")
    old = j.parts.frame
    method = "enumeration"
    if isinstance(old, FrameFn) and isinstance(new_frame, FrameFn) \
            and old.intensional_form is not None \
            and new_frame.intensional_form is not None:
        if not old.intensional_form <= new_frame.intensional_form:
            raise SideConditionFailed(
                "extended frame does not contain the old label set")
        method = "intensional"
    else:
        for s, finals in zip(j.parts.enum.states, _reached(j)):
            for t in finals:
                if not _at(new_frame, s).related(s, t):
                    raise SideConditionFailed(
                        "extended frame fails on a reached state")
    cond = [SideCondition("frame extension", method, _describe(new_frame))]
    if j.form == "ensures":
        return (EnsuresParts(j.parts.enum, j.parts.post, new_frame,
                             j.parts.budget), "ensures", cond)
    return (EnsuresNParts(j.parts.enum, j.parts.steps, j.parts.post,
                          new_frame), "ensures_n", cond)


def _rule_seq(premises, inputs):
    j1, j2 = premises
    _expect_form(j1, "ensures", "first premise")
    _expect_form(j2, "ensures", "second premise")
    mid_states = set(j2.parts.enum.states)
    count = 0
    mids_by_state = {}
    for s, finals in zip(j1.parts.enum.states, _reached(j1)):
        mids_by_state[s] = tuple(finals)
        for t in finals:
            count += 1
            if t not in mid_states:
                raise SideConditionFailed(
                    "a state reached by the first premise is not covered "
                    "by the second premise's precondition")
    f1 = j1.parts.frame if isinstance(j1.parts.frame, FrameFn) else None
    f2 = j2.parts.frame if isinstance(j2.parts.frame, FrameFn) else None
    if f1 is None or f2 is None:
        raise SchemaMismatch("seq needs plain frames on both premises")
    composed = compose_frames(f1, f2, mids=lambda s: mids_by_state.get(s, ()))
    cond = [SideCondition("middle coverage", "enumeration",
                          f"{count} reached state(s) all enumerated by the "
                          f"second premise")]
    parts = EnsuresParts(j1.parts.enum, j2.parts.post, composed,
                         j1.parts.budget + j2.parts.budget)
    return parts, "ensures", cond


def _rule_branch_cases(premises, inputs):
    j1, j2 = premises
    _expect_form(j1, "ensures", "first premise")
    _expect_form(j2, "ensures", "second premise")
    whole: Enumeration = inputs["pre"]
    union = set(j1.parts.enum.states) | set(j2.parts.enum.states)
    if set(whole.states) != union:
        raise SideConditionFailed(
            "case split does not cover exactly the joint precondition")
    if _describe(j1.parts.post) != _describe(j2.parts.post):
        raise SideConditionFailed("branch cases must share a postcondition")
    if _describe(j1.parts.frame) != _describe(j2.parts.frame):
        raise SideConditionFailed("branch cases must share a frame")
    cond = [SideCondition("case coverage", "enumeration",
                          f"{len(whole.states)} state(s) split into "
                          f"{len(j1.parts.enum.states)} + "
                          f"{len(j2.parts.enum.states)}")]
    post = per_state(
        {s: _at((j1 if s in set(j1.parts.enum.states) else j2).parts.post, s)
         for s in whole.states},
        _describe(j1.parts.post)) if isinstance(j1.parts.post, PerState) \
        else j1.parts.post
    parts = EnsuresParts(whole, post, j1.parts.frame,
                         max(j1.parts.budget, j2.parts.budget))
    return parts, "ensures", cond


def _rule_loop(premises, inputs):
    if len(premises) < 2:
        raise SchemaMismatch("loop needs an entry premise and at least an "
                             "exit premise")
    for j in premises:
        _expect_form(j, "ensures", "loop premise")
    frames = {j.parts.frame for j in premises
              if isinstance(j.parts.frame, FrameFn)}
    if len(frames) > 1:
        labels = {f.intensional_form for f in frames}
        if None in labels or len(labels) > 1:
            raise SideConditionFailed("loop premises must share one frame")
    frame = premises[0].parts.frame
    if not isinstance(frame, FrameFn) or not frame.is_transitive:
        raise SideConditionFailed(
            "loop needs a frame known to be transitive (a maychange frame "
            "or one marked transitive)")
    count = 0
    for ja, jb in zip(premises, premises[1:]):
        allowed = set(jb.parts.enum.states)
        for s, finals in zip(ja.parts.enum.states, _reached(ja)):
            for t in finals:
                count += 1
                if t not in allowed:
                    raise SideConditionFailed(
                        "an invariant stage does not cover the states "
                        "reached by the previous stage")
    cond = [SideCondition("invariant chain coverage", "enumeration",
                          f"{count} reached state(s) across "
                          f"{len(premises) - 1} stage boundaries"),
            SideCondition("frame transitivity", "intensional",
                          "maychange frames are transitive")]
    parts = EnsuresParts(premises[0].parts.enum, premises[-1].parts.post,
                         frame, sum(j.parts.budget for j in premises))
    return parts, "ensures", cond


def _rule_conj(premises, inputs):
    j1, j2 = premises
    _expect_form(j1, "ensures_n", "first premise")
    _expect_form(j2, "ensures_n", "second premise")
    if j1.parts.enum.states != j2.parts.enum.states:
        raise SideConditionFailed("conj premises must share their "
                                  "enumerated precondition states")
    if j1.parts.steps != j2.parts.steps:
        diff = next((s, a, b) for s, a, b in
                    zip(j1.parts.enum.states, j1.parts.steps, j2.parts.steps)
                    if a != b)
        raise SideConditionFailed(
            f"conj premises disagree on step counts ({diff[1]} vs {diff[2]}); "
            f"exact-count triples only conjoin at one count")
    if _describe(j1.parts.frame) != _describe(j2.parts.frame):
        raise SideConditionFailed("conj premises must share a frame")
    cond = [SideCondition("step agreement", "enumeration",
                          "per-state step counts identical"),
            SideCondition("shared frame", "structural",
                          _describe(j1.parts.frame))]
    post = _conj_conditions(j1.parts.post, j2.parts.post,
                            j1.parts.enum.states)
    parts = EnsuresNParts(j1.parts.enum, j1.parts.steps, post,
                          j1.parts.frame)
    return parts, "ensures_n", cond


def _conj_conditions(p1, p2, keys):
    if isinstance(p1, PerState) or isinstance(p2, PerState):
        return per_state({k: prop_and(_at(p1, k), _at(p2, k)) for k in keys},
                         f"({_describe(p1)} and {_describe(p2)})")
    return prop_and(p1, p2)


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
    if _describe(j1.parts.frame2) != _describe(j2.parts.frame2):
        raise SideConditionFailed("relational conj premises must share a "
                                  "pair frame")
    cond = [SideCondition("step agreement", "enumeration", "both sides"),
            SideCondition("shared frame", "structural",
                          _describe(j1.parts.frame2))]
    if isinstance(j1.parts.post2, PerState) or isinstance(j2.parts.post2, PerState):
        post2 = per_state(
            {p: pair_and(_at(j1.parts.post2, p), _at(j2.parts.post2, p))
             for p in j1.parts.pairs.pairs},
            f"({_describe(j1.parts.post2)} and {_describe(j2.parts.post2)})")
    else:
        post2 = pair_and(j1.parts.post2, j2.parts.post2)
    parts = Ensures2Parts(j1.parts.pairs, j1.parts.steps0, j1.parts.steps1,
                          post2, j1.parts.frame2)
    return parts, "ensures2", cond


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
                       f"swap({_describe(p.post2)})")
             if isinstance(p.post2, PerState) else swap_pair_property(p.post2))
    frame2 = (per_state({(b, a): swap_pair_frame(_at(p.frame2, (a, b)))
                         for a, b in p.pairs.pairs},
                        f"swap({_describe(p.frame2)})")
              if isinstance(p.frame2, PerState) else swap_pair_frame(p.frame2))
    cond = [SideCondition("component swap", "structural",
                          "pairs, step functions, postcondition and frame "
                          "all swapped")]
    parts = Ensures2Parts(swapped_pairs, p.steps1, p.steps0, post2, frame2)
    return parts, "ensures2", cond


def _rule_comp(premises, inputs):
    j1, j2 = premises
    _expect_form(j1, "ensures2", "first premise")
    _expect_form(j2, "ensures2", "second premise")
    mid_pairs = {pair: i for i, pair in enumerate(j2.parts.pairs.pairs)}
    steps0, steps1 = [], []
    checked = 0
    for i, pair in enumerate(j1.parts.pairs.pairs):
        mids = _reached(j1)[i]
        if not mids:
            raise SideConditionFailed("first premise recorded no reached "
                                      "pairs to continue from")
        counts = set()
        for mid in mids:
            checked += 1
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
    cond = [SideCondition("middle coverage", "enumeration",
                          f"{checked} reached pair(s) all enumerated by the "
                          f"second premise"),
            SideCondition("step arithmetic", "structural",
                          "counts add per side")]
    frame2 = _compose_pair_frames(j1.parts.frame2, j2.parts.frame2,
                                  j1, dict(enumerate(_reached(j1))))
    post2 = j2.parts.post2
    if isinstance(post2, PerState):
        table = {}
        for i, pair in enumerate(j1.parts.pairs.pairs):
            mids = _reached(j1)[i]
            posts = {_at(j2.parts.post2, mid) for mid in mids}
            if len({q.description for q in posts}) != 1:
                raise SideConditionFailed(
                    "continuation postconditions differ between reached "
                    "pairs")
            table[pair] = posts.pop()
        post2 = per_state(table, _describe(j2.parts.post2))
    parts = Ensures2Parts(j1.parts.pairs, tuple(steps0), tuple(steps1),
                          post2, frame2)
    return parts, "ensures2", cond


def _compose_pair_frames(fa, fb, j1, mids_index):
    if isinstance(fa, PairFrame) and isinstance(fb, PairFrame) \
            and fa.product_of and fb.product_of:
        l0, l1 = fa.product_of
        r0, r1 = fb.product_of
        if all(f.intensional_form is not None for f in (l0, l1, r0, r1)):
            return product_frame(
                compose_frames(l0, r0), compose_frames(l1, r1))
    pairs_list = j1.parts.pairs.pairs
    index = {pair: i for i, pair in enumerate(pairs_list)}

    def related(pre, post):
        mids = mids_index.get(index.get(pre, -1), ())
        return any(_at(fa, pre).related(pre, m) and _at(fb, m).related(m, post)
                   for m in mids)

    return PairFrame(related,
                     description=f"({_describe(fa)} o {_describe(fb)})")


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
                      f"({_describe(j1.parts.post2)} o "
                      f"{_describe(j2.parts.post2)})")
    pre2 = PairProperty(lambda a, c: (a, c) in witness,
                        f"({j1.parts.pairs.pre2.description} o "
                        f"{j2.parts.pairs.pre2.description})")
    pairs = PairEnumeration(tuple(composed), pre2,
                            description="joined on middle states")
    cond = [SideCondition("middle state join", "enumeration",
                          f"{len(composed)} composed pair(s)"),
            SideCondition("middle frame agreement", "intensional",
                          _describe(f1_left)),
            SideCondition("middle step agreement", "enumeration",
                          "counts equal on every join")]
    parts = Ensures2Parts(pairs, tuple(steps0), tuple(steps1), post2,
                          product_frame(f0, f2))
    return parts, "ensures2", cond


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
    cond = [SideCondition("pair subset", "enumeration",
                          f"{len(new_pairs.pairs)} of {len(old)} pairs kept")]
    parts = Ensures2Parts(new_pairs, steps0, steps1, j.parts.post2,
                          j.parts.frame2)
    return parts, "ensures2", cond


def _rule_post2(premises, inputs):
    (j,) = premises
    _expect_form(j, "ensures2", "premise")
    new_post = inputs["post"]
    checked = 0
    for finals in _reached(j):
        for a, b in finals:
            checked += 1
            if not _at(new_post, (a, b)).holds(a, b):
                raise SideConditionFailed(
                    "weakened pair postcondition fails on a reached pair")
    cond = [SideCondition("postcondition containment", "enumeration",
                          f"checked on {checked} reached pair(s)")]
    parts = Ensures2Parts(j.parts.pairs, j.parts.steps0, j.parts.steps1,
                          new_post, j.parts.frame2)
    return parts, "ensures2", cond


def _rule_frame2(premises, inputs):
    (j,) = premises
    _expect_form(j, "ensures2", "premise")
    new_frame = inputs["frame"]
    old = j.parts.frame2
    method = "enumeration"
    if isinstance(old, PairFrame) and isinstance(new_frame, PairFrame) \
            and old.product_of and new_frame.product_of:
        (a0, a1), (b0, b1) = old.product_of, new_frame.product_of
        if all(f.intensional_form is not None for f in (a0, a1, b0, b1)):
            if not (a0.intensional_form <= b0.intensional_form
                    and a1.intensional_form <= b1.intensional_form):
                raise SideConditionFailed(
                    "extended pair frame does not contain the old one")
            method = "intensional"
    if method == "enumeration":
        for pair, finals in zip(j.parts.pairs.pairs, _reached(j)):
            for pq in finals:
                if not _at(new_frame, pair).related(pair, pq):
                    raise SideConditionFailed(
                        "extended pair frame fails on a reached pair")
    cond = [SideCondition("frame extension", method, _describe(new_frame))]
    parts = Ensures2Parts(j.parts.pairs, j.parts.steps0, j.parts.steps1,
                          j.parts.post2, new_frame)
    return parts, "ensures2", cond


def _rule_restrict2(premises, inputs):
    """Restriction by a frame-invariant pair property: when the pair frame
    can never move a pair across the property's boundary, the property
    can be added to both the precondition and the postcondition."""
    (j,) = premises
    _expect_form(j, "ensures2", "premise")
    f: PairProperty = inputs["restriction"]
    domain = tuple(inputs.get("domain", ()))
    frame2 = j.parts.frame2
    checked = 0
    for p in list(j.parts.pairs.pairs) + list(domain):
        for q in list(domain) + [pq for finals in _reached(j) for pq in finals]:
            if _at(frame2, p).related(p, q):
                checked += 1
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
    post2 = (pair_and(j.parts.post2, f) if not isinstance(j.parts.post2, PerState)
             else per_state({p: pair_and(_at(j.parts.post2, p), f)
                             for p in pairs.pairs},
                            f"({_describe(j.parts.post2)} and {f.description})"))
    cond = [SideCondition("frame invariance", "enumeration",
                          f"{checked} frame-related pair combination(s)")]
    parts = Ensures2Parts(pairs, tuple(j.parts.steps0[i] for i in keep),
                          tuple(j.parts.steps1[i] for i in keep), post2,
                          j.parts.frame2)
    return parts, "ensures2", cond


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
    and returns a derived judgment that re-checks directly."""
    aux = dict(aux or {})
    handler = _CONVERSIONS.get(conversion_id)
    if handler is None:
        raise SchemaMismatch(f"unknown conversion {conversion_id!r}")
    parts, form, conditions, extra_premises = handler(j, aux)
    ev = Derived("convert:" + conversion_id, (j, *extra_premises),
                 tuple(conditions), tuple(aux.items()))
    return Judgment(form, j.sys, parts, ev)


def _conv_drop_steps(j, aux):
    _expect_form(j, "ensures_n", "premise")
    budget = (max(j.parts.steps) if j.parts.steps else 0) + 1
    cond = [SideCondition("budget covers counts", "structural",
                          f"budget {budget}")]
    return (EnsuresParts(j.parts.enum, j.parts.post, j.parts.frame, budget),
            "ensures", cond, ())


def _conv_synthesize_steps(j, aux):
    """Deterministic systems admit exact counts: walk each start state,
    requiring a single successor everywhere, until the target holds."""
    _expect_form(j, "ensures", "premise")
    sys = j.sys
    steps = []
    visited = 0
    for s in j.parts.enum.states:
        q = _at(j.parts.post, s)
        f = _at(j.parts.frame, s)
        cur, n = s, 0
        while not (q.holds(cur) and f.related(s, cur)):
            succ = sys.successors(cur)
            visited += 1
            if len(succ) > 1:
                raise NotDeterministic(
                    "state has multiple successors; step synthesis needs a "
                    "deterministic system")
            if not succ:
                raise SideConditionFailed(
                    "execution died before reaching the postcondition")
            if n >= j.parts.budget:
                raise SideConditionFailed(
                    "budget exhausted while synthesizing a step count")
            cur = succ[0]
            n += 1
        steps.append(n)
    cond = [SideCondition("determinism", "simulation",
                          f"{visited} visited state(s), each with one "
                          f"successor"),
            SideCondition("step synthesis", "simulation",
                          f"counts {tuple(steps)}")]
    return (EnsuresNParts(j.parts.enum, tuple(steps), j.parts.post,
                          j.parts.frame), "ensures_n", cond, ())


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
            f"({_describe(left.post)} x {_describe(right.post)})")
    else:
        post2 = product_property(left.post, right.post)
    if isinstance(left.frame, PerState) or isinstance(right.frame, PerState):
        frame2 = per_state(
            {(a, b): product_frame(_at(left.frame, a), _at(right.frame, b))
             for a, b in pairs},
            f"({_describe(left.frame)} x {_describe(right.frame)})")
    else:
        frame2 = product_frame(left.frame, right.frame)
    enum = PairEnumeration(pairs, pre2, left.enum.states, right.enum.states,
                           "product of two unary enumerations")
    cond = [SideCondition("product construction", "structural",
                          f"{len(pairs)} pair(s)")]
    return (Ensures2Parts(enum, tuple(steps0), tuple(steps1), post2, frame2),
            "ensures2", cond, (other,))


def _conv_hybridize(j, aux):
    """Attach a unary exact-count judgment for the first component to a
    relational judgment, producing the hybrid form: the relational pre
    and post are restricted by the unary conditions on the left, the
    frame gains the unary frame on the left, and the unary components for
    the second program come from aux."""
    rel = aux.get("relational")
    if rel is None:
        raise SchemaMismatch("hybridize needs aux['relational']")
    _expect_form(j, "ensures_n", "premise")
    _expect_form(rel, "ensures2", "second premise")
    _same_sys((j, rel))
    unary_pre: Enumeration = aux["unary_pre"]
    upost = aux["upost"]
    uframe: FrameFn = aux["uframe"]

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
                      f"({_describe(rel.parts.post2)} and left "
                      f"{_describe(j.parts.post)})")

    rel_frame = rel.parts.frame2
    left_frame = None
    if isinstance(rel_frame, PairFrame) and rel_frame.product_of:
        fl, fr = rel_frame.product_of
        jf = j.parts.frame
        if isinstance(jf, FrameFn) and jf.intensional_form is not None \
                and fl.intensional_form is not None:
            inter = fl.intensional_form & jf.intensional_form
            from_labels = FrameFn(
                lambda s, t, L=inter: _delta_within(s, t, L),
                intensional_form=inter,
                description=f"({fl.description} and {jf.description})")
            left_frame = from_labels
            frame2 = product_frame(from_labels, fr)
        else:
            frame2 = rel_frame
            left_frame = fl
    else:
        raise FactorizationWitnessMissing(
            "hybridize needs a product pair frame")

    pre2 = PairProperty(
        lambda a, b: rel.parts.pairs.pre2.holds(a, b) and a in left_states,
        f"({rel.parts.pairs.pre2.description} and left in unary pre)")
    pair_enum = PairEnumeration(pairs, pre2, rel.parts.pairs.domain0,
                                rel.parts.pairs.domain1,
                                rel.parts.pairs.description)
    rel_parts = Ensures2Parts(pair_enum, steps0, steps1, post2, frame2)
    hybrid = HybridParts(rel_parts, unary_pre, upost, uframe,
                         left_frame=left_frame)
    v = check_hybrid(j.sys, hybrid)
    if not v.is_proven:
        raise SideConditionFailed(
            f"hybrid side conditions fail: {v.summary()}")
    cond = [SideCondition("step agreement on shared starts", "enumeration",
                          f"{len(keep)} pair(s)"),
            SideCondition("partner existence", "enumeration",
                          f"{len(unary_pre.states)} unary state(s)"),
            SideCondition("postcondition projection", "enumeration",
                          "checked over reached pairs"),
            SideCondition("frame factorization", "intensional",
                          _describe(frame2))]
    return hybrid, "hybrid", cond, (rel,)


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
    cond = [SideCondition("partner step agreement", "enumeration",
                          f"{len(steps)} state(s)")]
    parts = EnsuresNParts(p.unary, tuple(steps), p.upost, p.uframe)
    return parts, "ensures_n", cond, ()


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
    cond = [SideCondition("first-stop evidence", "simulation",
                          f"per-state stop counts {steps}"),
            SideCondition("stopper termination", "simulation",
                          "each stop address is stuck on arrival")]
    parts = EnsuresNParts(j.parts.enum, steps, j.parts.post, j.parts.frame)
    return parts, "ensures_n", cond, (pc_j,)


_CONVERSIONS = {
    "drop_steps": _conv_drop_steps,
    "synthesize_steps": _conv_synthesize_steps,
    "product": _conv_product,
    "hybridize": _conv_hybridize,
    "hybrid_extract": _conv_hybrid_extract,
    "promote": _conv_promote,
}


def audit_replay(j: Judgment) -> bool:
    """Re-run the recorded rule application of a derived judgment and
    confirm it reproduces the same conclusion."""
    ev = j.evidence
    if not isinstance(ev, Derived):
        raise SchemaMismatch("only derived judgments replay")
    inputs = dict(ev.side_inputs)
    if ev.rule_id.startswith("convert:"):
        replayed = convert(ev.premises[0], ev.rule_id.split(":", 1)[1], inputs)
    else:
        replayed = apply_rule(ev.rule_id, ev.premises, inputs)
    return judgment_signature(replayed) == judgment_signature(j)
