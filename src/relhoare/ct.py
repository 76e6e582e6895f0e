"""Constant-time checking over enumerated private data.

Two formulations, checked against each other in the test suite:

* Pairwise: every two runs that start equal on all public labels must
  produce identical event traces. This enumerates all qualifying pairs
  of initial states and hands them to the relational exact-count
  checker with trace equality conjoined onto the postcondition.

* Single-run with a witness: every run's trace must equal a template
  expanded at the run's public parameters. A program passing this is
  constant time by construction, since the template cannot mention
  private data; the pairwise form is recoverable from two copies of the
  single-run judgment through the product conversion (`bridge`).

A verdict of Proven means constant-time over the enumerated domain,
nothing stronger: the checker is exhaustive, not symbolic.

Branch events in the pairwise postcondition compare in full (from, to)
form, which is strictly stronger than the taken/not-taken projection;
the projected form exists for reporting (`project_trace` re-exported
from the machine model).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from . import kernel, machine, specfile
from .machine import project_trace  # re-exported: simplified trace form

__all__ = [
    "Partition", "PartitionOverlap", "TemplateExpansionFailure",
    "expand_template", "check_ct_relational", "check_ct_unary",
    "bridge", "project_trace", "partition_of", "public_pairs",
]


class PartitionOverlap(Exception):
    """A label is claimed by both sides of a public/private partition.
    The event trace and the program counter always count as public, so
    declaring them private is an overlap too."""


class TemplateExpansionFailure(Exception):
    """A witness template mentions a name with no public value."""


@dataclass(frozen=True)
class Partition:
    """Disjoint split of the machine's labels into public and private.

    `public=None` means "everything that is not private", the usual
    case; an explicit public set is validated for disjointness but not
    required to be exhaustive. Each state is projected once per
    partition: a check builds its own partition, and every pair a start
    state sits in reuses that state's projection."""

    private: frozenset
    public: Optional[frozenset] = None
    _projections: dict = field(default_factory=dict, init=False,
                               repr=False, compare=False)

    def __post_init__(self):
        for label in (machine.EVENTS, machine.PC):
            if label in self.private:
                raise PartitionOverlap(
                    f"{label} is public by definition and cannot be private")
        if self.public is not None:
            both = self.public & self.private
            if both:
                raise PartitionOverlap(
                    f"labels on both sides: {machine.format_labels(both)}")

    def project_public(self, s):
        """Canonical form of a state with private labels blanked; two
        states are public-equal iff their projections are equal."""
        p = self._projections.get(s)
        if p is None:
            p = self._projections[s] = machine.mask_labels(s, self.private)
        return p

    def equal_public(self, s0, s1) -> bool:
        return self.project_public(s0) == self.project_public(s1)


def partition_of(problem: specfile.Problem) -> Partition:
    spec = problem.spec
    private = problem.resolve_labels(spec.private)
    public = problem.resolve_labels(spec.public) if spec.public else None
    return Partition(private, public)


# ---------------------------------------------------------------------------
# witness templates

def expand_template(items, values: dict) -> tuple:
    """Expand a parsed witness template at one public valuation into a
    projected trace: ("load", addr, size), ("store", addr, size) and
    ("branch", taken) entries."""
    env = specfile._Env(dict(values))
    out: list = []
    _expand_into(items, env, out)
    return tuple(out)


def _expand_into(items, env, out) -> None:
    for item in items:
        try:
            if item[0] == "repeat":
                _, var, bound, body, _line = item
                stop = specfile.eval_expr(bound, env)
                saved = env.values.get(var)
                for i in range(stop):
                    env.values[var] = i
                    _expand_into(body, env, out)
                if saved is None:
                    env.values.pop(var, None)
                else:
                    env.values[var] = saved
            elif item[0] == "branch":
                out.append(("branch",
                            specfile.eval_constraint(item[1], env)))
            else:
                kind, addr_ast, size, _line = item
                addr = specfile.eval_expr(addr_ast, env) & machine.MASK64
                out.append((kind, addr, size))
        except specfile.SpecEvalError as e:
            raise TemplateExpansionFailure(
                f"witness template needs non-public data: {e}") from e


# ---------------------------------------------------------------------------
# checks

def public_pairs(part: Partition, states) -> tuple:
    """Every pair (a, b) of states with equal public projections, in the
    order a scan of all n² pairs keeps them: a hash join that meets each
    left state with its projection's group, in enumeration order."""
    groups: dict = {}
    for s in states:
        groups.setdefault(part.project_public(s), []).append(s)
    return tuple((a, b) for a in states
                 for b in groups[part.project_public(a)])


def check_ct_relational(problem: specfile.Problem,
                        sys: Optional[kernel.StepOracle] = None
                        ) -> kernel.Verdict:
    """Pairwise form: all public-equal pairs of enumerated initial
    states must reach their exact-count frontiers with identical full
    event traces (and the declared postcondition and frame on each
    side). A Refuted verdict carries both diverging traces."""
    sys = sys or machine.oracle()
    part = partition_of(problem)
    pairs = public_pairs(part, problem.states(0))
    pre2 = kernel.PairProperty(part.equal_public, "equal public labels")
    enum, post2, frame2, steps0, steps1 = problem.pair_parts(
        pre2, "public-equal pairs",
        post_description="equal traces and the declared postcondition",
        pairs=pairs, rel=lambda a, b: a.events == b.events,
        describe=lambda da, db: f"equal traces and ({da}) on both sides")
    verdict = kernel.check_ensures2(sys, enum, steps0, steps1, post2, frame2)
    return _with_traces(verdict)


def _with_traces(verdict: kernel.Verdict) -> kernel.Verdict:
    ce = verdict.counterexample
    if ce is None or ce.sides != 2 or ce.reason != "post":
        return verdict
    a, b = ce.witness
    ce = dataclasses.replace(ce, traces=(a.events, b.events))
    return dataclasses.replace(verdict, counterexample=ce)


def _unary_parts(problem: specfile.Problem):
    partition_of(problem)  # validates the declaration

    def inst_post(inst):
        expected = project_trace(inst.state0.events) \
            + expand_template(problem.spec.witness, inst.env)
        q = problem.post_property(0, inst)

        def holds(s, expected=expected, q=q) -> bool:
            return project_trace(s.events) == expected and q.holds(s)

        return kernel.PropertyFn(holds,
                                 f"trace is the {len(expected)}-event "
                                 f"witness and ({q.description})")

    enum, post, frame = problem.unary_parts(
        inst_post, "witness trace and the declared postcondition")
    return enum, problem.steps("f0", 0), post, frame


def check_ct_unary(problem: specfile.Problem,
                   sys: Optional[kernel.StepOracle] = None
                   ) -> kernel.Verdict:
    """Single-run form: each enumerated run, after its exact step count,
    must carry exactly its initial trace extended by the witness
    template expanded at the run's public parameters (projected form),
    along with the declared postcondition."""
    sys = sys or machine.oracle()
    enum, steps, post, frame = _unary_parts(problem)
    return kernel.check_ensures_n(sys, enum, steps, post, frame)


def prove_ct_unary(problem: specfile.Problem,
                   sys: Optional[kernel.StepOracle] = None
                   ) -> kernel.Judgment:
    """The single-run check as a judgment, for bridging."""
    sys = sys or machine.oracle()
    enum, steps, post, frame = _unary_parts(problem)
    return kernel.prove_ensures_n(sys, enum, steps, post, frame)


def bridge(j: kernel.Judgment, partition: Partition) -> kernel.Judgment:
    """Recover the pairwise form from a single-run judgment: take the
    product of the judgment with itself, keep only public-equal pairs,
    and weaken the postcondition to trace equality. The result re-checks
    directly, which the caller is expected to do."""
    prod = kernel.convert(j, "product", {"other": j})
    part_pairs = tuple(p for p in prod.parts.pairs.pairs
                       if partition.equal_public(*p))
    pre2 = kernel.PairProperty(partition.equal_public,
                               "equal public labels")
    enum = kernel.PairEnumeration(part_pairs, pre2,
                                  prod.parts.pairs.domain0,
                                  prod.parts.pairs.domain1,
                                  "public-equal pairs")
    restricted = kernel.apply_rule("pre2", (prod,), {"pre": enum})
    trace_eq = kernel.PairProperty(lambda a, b: a.events == b.events,
                                   "equal event traces")
    return kernel.apply_rule("post2", (restricted,), {"post": trace_eq})
