"""Constant-time checking over enumerated private data.

Two formulations, checked against each other in the test suite:

* Pairwise: every two runs that start equal on all public labels must
  produce identical event traces. The qualifying pairs of initial
  states are a key join on the public projection, which the relational
  exact-count checker builds itself (one block per public class, never
  stored as pairs, each state projected once per side), with trace
  equality conjoined onto the postcondition; since trace equality is
  equality of a per-state key, the kernel compares a start state with
  one state of its class once another has passed the whole class,
  rather than with every state of it.

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
from dataclasses import dataclass
from typing import Callable, Optional

from . import kernel, machine, specfile
from .machine import project_trace  # re-exported: simplified trace form

__all__ = [
    "Partition", "PartitionOverlap", "TemplateExpansionFailure",
    "expand_template", "compile_template", "check_ct_relational",
    "check_ct_unary", "bridge", "project_trace", "partition_of",
]


class PartitionOverlap(Exception):
    """A label that is always public is declared private: the event
    trace and the program counter."""


class TemplateExpansionFailure(Exception):
    """A witness template mentions a name with no public value."""


@dataclass(frozen=True)
class Partition:
    """Split of the machine's labels into private ones, listed, and
    public ones: every label not listed, the pc and the event trace
    included. The projection is the key of the join that groups start
    states into public classes."""

    private: frozenset

    def __post_init__(self):
        for label in (machine.EVENTS, machine.PC):
            if label in self.private:
                raise PartitionOverlap(
                    f"{label} is public by definition and cannot be private")

    def project_public(self, s):
        """Canonical form of a state with private labels blanked; two
        states are public-equal iff their projections are equal."""
        return machine.mask_labels(s, self.private)

    def equal_public(self, s0, s1) -> bool:
        return self.project_public(s0) == self.project_public(s1)


def partition_of(problem: specfile.Problem) -> Partition:
    return Partition(problem.resolve_labels(problem.spec.private))


# ---------------------------------------------------------------------------
# witness templates

def expand_template(items, values: dict) -> tuple:
    """Expand a parsed witness template at one public valuation into a
    projected trace: ("load", addr, size), ("store", addr, size) and
    ("branch", taken) entries."""
    return compile_template(items)(values)


def compile_template(items) -> Callable[[dict], tuple]:
    """expand_template with the template compiled once: the function it
    returns expands the template at a public valuation."""
    steps = [_compile_item(item) for item in items]

    def expand(values: dict) -> tuple:
        values = dict(values)
        out: list = []
        try:
            for step in steps:
                step(values, out)
        except specfile.SpecEvalError as e:
            raise TemplateExpansionFailure(
                f"witness template needs non-public data: {e}") from e
        return tuple(out)

    return expand


def _compile_item(item) -> Callable[[dict, list], None]:
    if item[0] == "repeat":
        _, var, bound, body, _line = item
        stop_of = specfile.compile_expr(bound)
        body_steps = [_compile_item(i) for i in body]

        def repeat(values, out):
            stop = stop_of(values, None)
            saved = values.get(var)
            for i in range(stop):
                values[var] = i
                for step in body_steps:
                    step(values, out)
            if saved is None:
                values.pop(var, None)
            else:
                values[var] = saved
        return repeat
    if item[0] == "branch":
        taken = specfile.compile_constraint(item[1])
        return lambda values, out: out.append(("branch", taken(values, None)))
    kind, addr_ast, size, _line = item
    addr = specfile.compile_expr(addr_ast)
    return lambda values, out: out.append(
        (kind, addr(values, None) & machine.MASK64, size))


# ---------------------------------------------------------------------------
# checks

def _events(s) -> tuple:
    return s.events


def check_ct_relational(problem: specfile.Problem,
                        sys: Optional[kernel.StepOracle] = None
                        ) -> kernel.Verdict:
    """Pairwise form: all public-equal pairs of enumerated initial
    states must reach their exact-count frontiers with identical full
    event traces (and the declared postcondition and frame on each
    side). A Refuted verdict carries both diverging traces."""
    sys = sys or machine.oracle()
    part = partition_of(problem)
    enum, post2, frame2, steps0, steps1 = problem.pair_parts(
        kernel.key_join(part.project_public, "equal public labels"),
        "public-equal pairs",
        post_description="equal traces and the declared postcondition",
        rel=kernel.key_join(_events, "equal traces"),
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
    expand = compile_template(problem.spec.witness)

    def inst_post(inst):
        expected = project_trace(inst.state0.events) + expand(inst.env)
        q = problem.post_property(0, inst)

        def holds(s, expected=expected, q=q) -> bool:
            return project_trace(s.events) == expected and q.holds(s)

        return kernel.PropertyFn(holds,
                                 f"trace is the {len(expected)}-event "
                                 f"witness and ({q.description})", q.pcs)

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
