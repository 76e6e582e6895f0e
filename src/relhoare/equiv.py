"""Program equivalence checking and proof transfer.

Two loaded programs are equivalent over enumerated inputs when every
input pair related by `equiv_in` runs (each side to its exact step
count) to output pairs related by `equiv_out`. Every relation is a
kept label set: related states agree on every label in it, and may
differ arbitrarily elsewhere — the complement reading of a maychange
set. So a state's values at the kept labels are its key, and two states
are related exactly when their keys are equal.

Equivalence judgments compose sequentially (same program pair, the
first judgment's exit anchors feeding the second's entries) and
transitively (a shared middle program, joined on identical middle
states). A correctness proof for one side transfers across a proven
equivalence to the other side: a budgeted proof is first promoted to an
exact-count one using first-stop evidence (impossible when the program
never sticks, hence no stopper, which is reported as PromotionFailed),
then attached to the relational judgment as a hybrid and projected out
on the far side. Every derived judgment re-checks directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from . import kernel, machine, specfile

__all__ = [
    "AnchorMismatch", "EquivRel", "EquivJudgment", "check_equiv",
    "compose_sequential", "compose_transitive", "related_pairs",
    "transfer_correctness",
]


class AnchorMismatch(Exception):
    """Composed judgments do not agree on their shared pc anchors or
    their program pair."""


@dataclass(frozen=True)
class EquivRel:
    """State relation: agreement on a kept label set."""

    kept: frozenset
    description: str
    # id(state) -> its key, one object per distinct key (`_interned`);
    # `_held` keeps every keyed state alive, so no id in `_keys` can pass
    # to another state while the relation stands
    _keys: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    _held: list = field(default_factory=list, init=False, repr=False,
                        compare=False)
    _interned: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @staticmethod
    def kept_equal(labels, description: str = "") -> "EquivRel":
        labels = frozenset(labels)
        if not description:
            description = f"agree on {{{machine.format_labels(labels)}}}"
        return EquivRel(labels, description)

    def key(self, s) -> tuple:
        """A state's values at the kept labels, read once per state and
        relation. The relation's table is keyed by the state's identity
        and holds the state; equal keys are one object, so two states
        agree on the kept set iff their keys are the same object."""
        k = self._keys.get(id(s))
        if k is None:
            self._held.append(s)
            k = tuple(s.read_label(l) for l in self.kept)
            k = self._keys[id(s)] = self._interned.setdefault(k, k)
        return k

    def related(self, s0, s1) -> bool:
        """Whether the two states agree on the kept set: two lookups by
        identity and one identity test of their keys, with `key` reading
        a key the table lacks (an equal state that is another object)."""
        keys = self._keys
        try:
            return keys[id(s0)] is keys[id(s1)]
        except KeyError:
            return self.key(s0) is self.key(s1)


# The most candidate pairs (left start states times right ones) that the
# pair scan of `related_pairs` takes on: at about 0.16 us a candidate
# (589,824 candidates in 0.095 s on a 2-core Xeon, Python 3.11), this is
# some 2.7 s of scanning.
MAX_CANDIDATES = 1 << 24


@dataclass(frozen=True)
class EquivJudgment:
    """A proven equivalence: the two programs, the relations, the pc
    anchors (entry and exit per side; an exit anchor is None when the
    runs stop at more than one address), and the underlying relational
    judgment."""

    programs: tuple
    bases: tuple
    equiv_in: EquivRel
    equiv_out: EquivRel
    anchors: tuple  # (pc0, pc0_exit, pc1, pc1_exit)
    judgment: kernel.Judgment


def _rel_from_spec(spec: specfile.CheckSpec, problem: specfile.Problem,
                   which: str) -> EquivRel:
    items = getattr(spec, which)
    if not items:
        raise specfile.SpecError(f"[{which}] declares no relation")
    return EquivRel.kept_equal(problem.resolve_labels(items))


def _unique_pc(values) -> Optional[int]:
    values = set(values)
    return values.pop() if len(values) == 1 else None


def refuse_scan(candidates: int) -> None:
    """Refuse a scan of more than MAX_CANDIDATES candidate pairs."""
    if candidates > MAX_CANDIDATES:
        raise specfile.SpecError(
            f"equivalence would scan {candidates} candidate pairs, more "
            f"than the limit of {MAX_CANDIDATES}")


def related_pairs(rel: EquivRel, lefts: tuple, rights: tuple) -> tuple:
    """Every pair of a left and a right state that rel relates, in the
    order of a scan of lefts x rights. More than MAX_CANDIDATES
    candidates is a spec error, raised before any state is keyed. Each
    state is keyed once, up front, and then each candidate costs one
    `rel.related` call: two lookups by identity and one identity test."""
    refuse_scan(len(lefts) * len(rights))
    for s in lefts + rights:
        rel.key(s)
    related = rel.related  # read now: a wrapped method sees every call
    return tuple((a, b) for a in lefts
                 for b in filter(partial(related, a), rights))


def check_equiv(problem: specfile.Problem,
                sys: Optional[kernel.StepOracle] = None):
    """Enumerate all equiv_in-related pairs of initial states and check
    them relationally. Returns the EquivJudgment when Proven and the
    refuting Verdict otherwise."""
    sys = sys or machine.oracle()
    spec = problem.spec
    ein = _rel_from_spec(spec, problem, "equiv_in")
    eout = _rel_from_spec(spec, problem, "equiv_out")

    lefts, rights = problem.states(0), problem.states(1)
    pairs = related_pairs(ein, lefts, rights)
    pre2 = kernel.PairProperty(ein.related, ein.description)
    enum, post2, frame2, steps0, steps1 = problem.pair_parts(
        pre2, "equiv_in-related pairs",
        post_description=f"{eout.description} and both sides' postconditions",
        pairs=pairs, rel=eout.related)

    try:
        j = kernel.prove_ensures2(sys, enum, steps0, steps1, post2, frame2)
    except kernel.CheckFailed as e:
        return e.verdict

    exit0 = _unique_pc(a.pc for finals in j.evidence.reached
                       for a, _ in finals)
    exit1 = _unique_pc(b.pc for finals in j.evidence.reached
                       for _, b in finals)
    anchors = (_unique_pc(s.pc for s in lefts), exit0,
               _unique_pc(s.pc for s in rights), exit1)
    return EquivJudgment(problem.programs, problem.bases, ein, eout,
                         anchors, j)


def compose_sequential(e1: EquivJudgment, e2: EquivJudgment
                       ) -> EquivJudgment:
    """Run e1's program sections, then e2's: valid when e2 picks up at
    exactly the addresses where e1 stopped and relates at least as
    coarsely as e1 guarantees (e2's kept set inside e1's)."""
    if e1.programs != e2.programs or e1.bases != e2.bases:
        raise AnchorMismatch("judgments are about different program pairs")
    if e1.anchors[1] is None or e1.anchors[3] is None:
        raise AnchorMismatch("first judgment has no unique exit anchors")
    if (e1.anchors[1], e1.anchors[3]) != (e2.anchors[0], e2.anchors[2]):
        raise AnchorMismatch(
            f"exit anchors ({e1.anchors[1]:#x}, {e1.anchors[3]:#x}) do not "
            f"meet the entry anchors ({e2.anchors[0]:#x}, "
            f"{e2.anchors[2]:#x})")
    if not (e2.equiv_in.kept <= e1.equiv_out.kept):
        missing = e2.equiv_in.kept - e1.equiv_out.kept
        raise kernel.SideConditionFailed(
            "second judgment relies on labels the first does not keep: "
            f"{machine.format_labels(missing)}")
    j = kernel.apply_rule("comp", (e1.judgment, e2.judgment))
    anchors = (e1.anchors[0], e2.anchors[1], e1.anchors[2], e2.anchors[3])
    return EquivJudgment(e1.programs, e1.bases, e1.equiv_in, e2.equiv_out,
                         anchors, j)


def compose_transitive(e1: EquivJudgment, e2: EquivJudgment
                       ) -> EquivJudgment:
    """Chain e1 over (C0, C1) with e2 over (C1, C2) into (C0, C2),
    joining on identical middle states. An outer pair related through a
    middle state agrees on the labels both judgments keep, so the
    composed relations are the intersections of the kept sets."""
    if e1.programs[1] != e2.programs[0] or e1.bases[1] != e2.bases[0]:
        raise AnchorMismatch("no shared middle program")
    if (e1.anchors[2], e1.anchors[3]) != (e2.anchors[0], e2.anchors[1]):
        raise AnchorMismatch("middle anchors disagree")

    j = kernel.apply_rule("frame_compose", (e1.judgment, e2.judgment))
    ein = EquivRel.kept_equal(e1.equiv_in.kept & e2.equiv_in.kept)
    eout = EquivRel.kept_equal(e1.equiv_out.kept & e2.equiv_out.kept)
    programs = (e1.programs[0], e2.programs[1])
    bases = (e1.bases[0], e2.bases[1])
    anchors = (e1.anchors[0], e1.anchors[1], e2.anchors[2], e2.anchors[3])
    return EquivJudgment(programs, bases, ein, eout, anchors, j)


def transfer_correctness(correctness: kernel.Judgment, e: EquivJudgment,
                         upost=None, budget: Optional[int] = None
                         ) -> kernel.Judgment:
    """Carry a correctness judgment for the first program over to the
    second. A budgeted (step-free) judgment is promoted first: its runs
    must all end stuck on a stopper so exact counts exist; then the
    relational judgment absorbs it as a hybrid and the far side is
    projected out. The equivalence's pair frame must be a product (the
    hybrid raises FactorizationWitnessMissing otherwise); its right
    factor is the transferred frame. Pass `upost` to name the
    transferred postcondition; the default is the reached-output form
    of the equivalence judgment. The extracted judgment is re-checked
    before being returned."""
    j = correctness
    if j.form == "ensures":
        ev = kernel.first_stop_evidence(
            j.sys, j.parts.enum, budget if budget is not None
            else j.parts.budget)
        j = kernel.convert(j, "promote", {"pc_evidence": ev})
    elif j.form != "ensures_n":
        raise kernel.SchemaMismatch(
            "transfer starts from a budgeted or exact-count unary judgment")

    rel = e.judgment
    rights, seen = [], set()
    for _, b in rel.parts.pairs.pairs:
        if b not in seen:
            seen.add(b)
            rights.append(b)
    enum1 = kernel.Enumeration(tuple(rights),
                               description="second program's start states")

    if upost is None:
        finals: dict = {}
        for (_, b), reached in zip(rel.parts.pairs.pairs,
                                   kernel._reached(rel)):
            finals.setdefault(b, set()).update(y for _, y in reached)
        upost = kernel.per_state(
            {b: kernel.prop(lambda s, allowed=frozenset(v): s in allowed,
                            "a recorded reached output")
             for b, v in finals.items()},
            "recorded reached outputs")

    hybrid = kernel.convert(j, "hybridize", {
        "relational": rel, "unary_pre": enum1, "upost": upost})
    extracted = kernel.convert(hybrid, "hybrid_extract")
    v = kernel.recheck(extracted)
    if not v.is_proven:
        raise kernel.CheckFailed(v)
    return extracted
