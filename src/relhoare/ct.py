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

* Single-run with a witness: every run's projected trace must equal
  the [witness] template expanded at the run's public parameters, which
  `specfile` compiles into the declared postcondition of a ct_unary
  spec, so that the check is the exact-count one of a unary_n spec. A
  program passing this is constant time by construction, since the
  template cannot mention private data; the pairwise form is
  recoverable from two copies of the single-run judgment
  (`prove_ct_unary`) through the product conversion (`bridge`).

`specfile.build_problem` resolves the [private] section of both kinds
and refuses pc and events there; `partition_of` reads the result.

A verdict of Proven means constant-time over the enumerated domain,
nothing stronger: the checker is exhaustive, not symbolic.

Branch events in the pairwise postcondition compare in full (from, to)
form, which is strictly stronger than the taken/not-taken projection
(`machine.project_trace`) that witnesses and reports use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from . import kernel, machine, specfile
from .specfile import PartitionOverlap

__all__ = [
    "Partition", "PartitionOverlap", "check_ct_relational", "check_ct_unary",
    "prove_ct_unary", "bridge", "partition_of",
]


@dataclass(frozen=True)
class Partition:
    """Split of the machine's labels into private ones, listed, and
    public ones: every label not listed, the pc and the event trace
    included. The projection is the key of the join that groups start
    states into public classes."""

    private: frozenset

    def __post_init__(self):
        specfile.check_private(self.private)

    def project_public(self, s):
        """Canonical form of a state with private labels blanked; two
        states are public-equal iff their projections are equal."""
        return machine.mask_labels(s, self.private)


def partition_of(problem: specfile.Problem) -> Partition:
    return Partition(problem.private)


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


def check_ct_unary(problem: specfile.Problem) -> kernel.Verdict:
    # the unary_n check, named for bench/tracing.py; goes with that file
    return kernel.check_ensures_n(machine.oracle(), *problem.exact_parts())


def prove_ct_unary(problem: specfile.Problem) -> kernel.Judgment:
    """The single-run check as a judgment, for bridging."""
    return kernel.prove_ensures_n(machine.oracle(), *problem.exact_parts())


def bridge(j: kernel.Judgment, partition: Partition) -> kernel.Judgment:
    """Recover the pairwise form from a single-run judgment: take the
    product of the judgment with itself, keep only public-equal pairs
    (the kernel's key join on the public projection), and weaken the
    postcondition to trace equality. The result re-checks directly,
    which the caller is expected to do."""
    prod = kernel.convert(j, "product", {"other": j})
    enum = kernel.PairEnumeration.join(
        kernel.key_join(partition.project_public, "equal public labels"),
        prod.parts.pairs.domain0, prod.parts.pairs.domain1,
        "public-equal pairs")
    restricted = kernel.apply_rule("pre2", (prod,), {"pre": enum})
    trace_eq = kernel.PairProperty(lambda a, b: a.events == b.events,
                                   "equal event traces")
    return kernel.apply_rule("post2", (restricted,), {"post": trace_eq})
