"""Exhaustive oracle for the logic's metatheory on tiny transition systems.

A FinSys is a bare successor relation on at most a handful of integer
states. At this size every judgment form is computable exactly with
bitmask fixpoints, so the kernel's rules and conversions can be validated
against ground truth: generate random systems, construct instances where
a rule's premises genuinely hold, and assert its conclusion by direct
computation. A violation here would mean an unsound rule, not a flaky
test, which is why the acceptance run demands zero across ten thousand
systems.

State sets are Python ints used as bitmasks; sets of state pairs are
masks over pair indices a*n+b. Unary frames are per-start-state row
masks (row[s] = states that s may be related to afterwards); pair frames
are rows over pair indices. All checks reduce to mask algebra plus the
two fixpoint iterations:

  eventually        least fixpoint: grow q with states whose successor
                    set is nonempty and already inside.
  eventually at n   backward iteration of the same step, n times.

The suite's trials are independent, so run_soundness_suite runs them in
contiguous slices on every usable CPU: the calling process runs the
first slice, forked workers the rest. Every trial draws from its own
place in one seeded stream, and the slices' results are merged in trial
order, so the report is the same as a serial run's.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from . import kernel


# ---------------------------------------------------------------------------
# systems

@dataclass(frozen=True)
class FinSys:
    """Finite transition system: states 0..n_states-1 and directed edges.
    Successor lists are sorted ascending so enumeration order, and with
    it every counterexample, is deterministic."""

    n_states: int
    edges: frozenset

    def __post_init__(self):
        buckets: list = [[] for _ in range(self.n_states)]
        for a, b in self.edges:
            if not (0 <= a < self.n_states and 0 <= b < self.n_states):
                raise ValueError(f"edge ({a},{b}) references a missing state")
            buckets[a].append(b)
        succs = tuple(tuple(sorted(bucket)) for bucket in buckets)
        masks = tuple(_mask(s) for s in succs)
        object.__setattr__(self, "succs", succs)
        object.__setattr__(self, "succ_masks", masks)

    def successors(self, s: int) -> tuple:
        return self.succs[s]

    def oracle(self) -> kernel.StepOracle:
        return kernel.StepOracle(lambda s: list(self.succs[s]),
                                 pc_of=lambda s: s, finite_hint=True,
                                 description=f"finite system on "
                                             f"{self.n_states} states")


def finsys(n_states: int, edges: Iterable) -> FinSys:
    return FinSys(n_states, frozenset((int(a), int(b)) for a, b in edges))


def _mask(states: Iterable[int]) -> int:
    m = 0
    for s in states:
        m |= 1 << s
    return m


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# _SPREAD[n][m] sets bit x*n for each x in the state mask m, so the pair
# mask of A x B is B * _SPREAD[n][A]: B < 2^n, so no carry crosses a row.
_SPREAD = tuple(tuple(sum(1 << x * n for x in _bits(m)) for m in range(1 << n))
                for n in range(7))


def pair_index(g: FinSys, a: int, b: int) -> int:
    return a * g.n_states + b


def pair_of(g: FinSys, i: int) -> tuple:
    return divmod(i, g.n_states)


def product_relation_system(g: FinSys) -> FinSys:
    """The interleaving product: from (a, b) one side steps while the
    other stays. This is the construction whose budgeted search loses
    pairs that the nested form keeps; it exists here as a negative
    exhibit, not as a checking backend."""
    edges = set()
    for a in range(g.n_states):
        for b in range(g.n_states):
            i = pair_index(g, a, b)
            for a2 in g.succs[a]:
                edges.add((i, pair_index(g, a2, b)))
            for b2 in g.succs[b]:
                edges.add((i, pair_index(g, a, b2)))
    return FinSys(g.n_states * g.n_states, frozenset(edges))


def random_system(seed: int, n_states: int, max_out_degree: int) -> FinSys:
    """Deterministic in all three arguments. Stuck states are allowed and
    common; they are where refutations come from."""
    if not (1 <= n_states <= 6):
        raise ValueError("n_states must be between 1 and 6")
    if not (0 <= max_out_degree <= 3):
        raise ValueError("max_out_degree must be between 0 and 3")
    rng = random.Random(f"finsys|{seed}|{n_states}|{max_out_degree}")
    edges = set()
    for src in range(n_states):
        degree = rng.randint(0, max_out_degree)
        for dst in rng.sample(range(n_states), min(degree, n_states)):
            edges.add((src, dst))
    return FinSys(n_states, frozenset(edges))


def all_systems(n_states: int) -> Iterator[FinSys]:
    """Every system on the given number of states, one per edge subset."""
    cells = [(a, b) for a in range(n_states) for b in range(n_states)]
    for picks in range(1 << len(cells)):
        yield FinSys(n_states,
                     frozenset(cells[i] for i in _bits(picks)))


# ---------------------------------------------------------------------------
# exact fixpoint computations

def _pre_step(g: FinSys, x: int) -> int:
    out = 0
    for s in range(g.n_states):
        sm = g.succ_masks[s]
        if sm and not (sm & ~x):
            out |= 1 << s
    return out


def exact_eventually_set(g: FinSys, q: Iterable[int]) -> frozenset:
    """Least fixed point: the states from which every path reaches q."""
    e = _mask(q)
    while True:
        e2 = e | _pre_step(g, e)
        if e2 == e:
            return frozenset(_bits(e))
        e = e2


def exact_eventually_n_set(g: FinSys, n: int, q: Iterable[int]) -> frozenset:
    """Backward iteration: states whose every branch survives n steps and
    lands in q at exactly n."""
    e = _mask(q)
    for _ in range(n):
        e = _pre_step(g, e)
    return frozenset(_bits(e))


class _Tables:
    """Per-system caches for the suite: pre-steps by mask, forward
    frontiers by depth, progress masks, eventually sets."""

    def __init__(self, g: FinSys):
        self.g = g
        self.full = (1 << g.n_states) - 1
        self._pre: dict = {}
        self._levels = [[1 << s for s in range(g.n_states)]]
        self._ev: dict = {}
        self._reach: Optional[tuple] = None
        # progress(k) shrinks with k and stays put once it repeats
        prog = [self.full]
        while (nxt := self.pre_step(prog[-1])) != prog[-1]:
            prog.append(nxt)
        self._prog = prog

    def pre_step(self, x: int) -> int:
        got = self._pre.get(x)
        if got is None:
            self._pre[x] = got = _pre_step(self.g, x)
        return got

    def frontier(self, s: int, k: int) -> int:
        levels = self._levels
        while len(levels) <= k:
            nxt = []
            for m in levels[-1]:
                out = 0
                for x in _bits(m):
                    out |= self.g.succ_masks[x]
                nxt.append(out)
            levels.append(nxt)
        return levels[k][s]

    def progress(self, k: int) -> int:
        prog = self._prog
        return prog[k] if k < len(prog) else prog[-1]

    def has_progress(self, s: int, k: int) -> bool:
        prog = self._prog
        return bool((prog[k] if k < len(prog) else prog[-1]) >> s & 1)

    def evn_mask(self, n: int, q: int) -> int:
        for _ in range(n):
            q = self.pre_step(q)
        return q

    def ev_mask(self, q: int) -> int:
        got = self._ev.get(q)
        if got is None:
            e = q
            while True:
                e2 = e | self.pre_step(e)
                if e2 == e:
                    break
                e = e2
            self._ev[q] = got = e
        return got

    def reach_rows(self) -> tuple:
        """Reflexive-transitive closure rows; a transitive frame that
        always holds between a state and anything it reaches."""
        if self._reach is None:
            rows = []
            for s in range(self.g.n_states):
                seen = 1 << s
                queue = [s]
                while queue:
                    x = queue.pop()
                    for y in _bits(self.g.succ_masks[x] & ~seen):
                        seen |= 1 << y
                        queue.append(y)
                rows.append(seen)
            self._reach = tuple(rows)
        return self._reach


# unary judgments, exactly

def _ensures_holds(tb: _Tables, p_mask: int, q_mask: int, f_rows) -> bool:
    for s in _bits(p_mask):
        target = q_mask & f_rows[s]
        if not (tb.ev_mask(target) >> s) & 1:
            return False
    return True


def _ensures_n_holds(tb: _Tables, p_mask: int, steps, q_mask: int, f_rows) -> bool:
    for s in _bits(p_mask):
        n = steps[s] if isinstance(steps, (list, tuple)) else steps
        target = q_mask & f_rows[s]
        if not (tb.evn_mask(n, target) >> s) & 1:
            return False
    return True


# relational judgments, exactly

def _nested_holds(tb: _Tables, s0: int, s1: int, n0: int, n1: int,
                  qx: int, fx_row: Optional[int] = None) -> bool:
    """The nested exact-count quantifier, unfolded: both sides must make
    progress to their counts and the frontier product must sit inside the
    allowed pair set."""
    if not (tb.has_progress(s0, n0) and tb.has_progress(s1, n1)):
        return False
    allowed = qx if fx_row is None else (qx & fx_row)
    spread = _SPREAD[tb.g.n_states]
    return not (tb.frontier(s1, n1) * spread[tb.frontier(s0, n0)] & ~allowed)


def _rel_holds(tb: _Tables, pairs, n0: int, n1: int, qx: int,
               fx_rows=None) -> bool:
    for i, (s0, s1) in enumerate(pairs):
        row = None if fx_rows is None else fx_rows[pair_index(tb.g, s0, s1)]
        if not _nested_holds(tb, s0, s1, n0, n1, qx, row):
            return False
    return True


def _swap_pair_mask(g: FinSys, qx: int) -> int:
    """The transpose: row a of qx becomes column a."""
    n, full = g.n_states, (1 << g.n_states) - 1
    spread = _SPREAD[n]
    out = 0
    for a in range(n):
        out |= spread[qx >> a * n & full] << a
    return out


def _join_pairs(g: FinSys, q1: int, q2: int) -> int:
    """Relational composition: (x, z) for each (x, y) in q1 and (y, z) in
    q2, as one product per middle state y."""
    n, full = g.n_states, (1 << g.n_states) - 1
    spread = _SPREAD[n]
    into = _swap_pair_mask(g, q1)  # row y: the x with (x, y) in q1
    out = 0
    for y in range(n):
        out |= (q2 >> y * n & full) * spread[into >> y * n & full]
    return out


def _product_rows(g: FinSys, f0_rows, f1_rows) -> list:
    """Pair-frame rows for the product of two unary frames: row a*n+b is
    f0_rows[a] x f1_rows[b]."""
    spread = _SPREAD[g.n_states]
    return [f1 * spread[f0] for f0 in f0_rows for f1 in f1_rows]


def _compose_rows(rows_a, rows_b) -> list:
    out = []
    for row in rows_a:
        m = 0
        for mid in _bits(row):
            m |= rows_b[mid]
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# the soundness suite

@dataclass
class SuiteReport:
    trials: int
    rules_tested: tuple
    violations: list  # (rule_id, system, inputs)
    elapsed: float
    instances: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def format(self) -> str:
        lines = [f"trials: {self.trials}",
                 f"rules:  {', '.join(self.rules_tested)}",
                 f"elapsed: {self.elapsed:.2f}s"]
        for rule in self.rules_tested:
            lines.append(f"  {rule}: {self.instances.get(rule, 0)} "
                         f"instance(s) with premises satisfied")
        if self.violations:
            lines.append(f"VIOLATIONS: {len(self.violations)}")
            for rule_id, g, inputs in self.violations[:20]:
                lines.append(f"  {rule_id} on {sorted(g.edges)}: {inputs}")
        else:
            lines.append("violations: none")
        return "\n".join(lines)


def _rand_mask(rng, nbits: int) -> int:
    return rng.getrandbits(nbits) if nbits else 0


def _superset(rng, base: int, nbits: int) -> int:
    return base | _rand_mask(rng, nbits)


def _full_rows(g: FinSys) -> list:
    full = (1 << g.n_states) - 1
    return [full] * g.n_states


def _check_containment(g, tb, rng, report):
    out = []
    for _ in range(2):
        q = _rand_mask(rng, g.n_states)
        n = rng.randint(0, 4)
        en = tb.evn_mask(n, q)
        ev = tb.ev_mask(q)
        _count(report, "containment")
        if en & ~ev:
            out.append(("containment", g, f"q={q:#x} n={n}"))
    return out


def _check_conj(g, tb, rng, report):
    out = []
    q1 = _rand_mask(rng, g.n_states)
    q2 = _rand_mask(rng, g.n_states)
    n = rng.randint(0, 4)
    both = tb.evn_mask(n, q1) & tb.evn_mask(n, q2)
    if both:
        _count(report, "conj")
    if both & ~tb.evn_mask(n, q1 & q2):
        out.append(("conj", g, f"q1={q1:#x} q2={q2:#x} n={n}"))
    return out


def _check_comm(g, tb, rng, report):
    out = []
    n2 = g.n_states * g.n_states
    qx = _rand_mask(rng, n2)
    n0, n1 = rng.randint(0, 2), rng.randint(0, 2)
    s0, s1 = rng.randrange(g.n_states), rng.randrange(g.n_states)
    left = _nested_holds(tb, s0, s1, n0, n1, qx)
    right = _nested_holds(tb, s1, s0, n1, n0, _swap_pair_mask(g, qx))
    _count(report, "comm")
    if left != right:
        out.append(("comm", g, f"pair=({s0},{s1}) n=({n0},{n1}) qx={qx:#x}"))
    return out


def _reached_pairs_mask(tb, pairs, n0, n1) -> Optional[int]:
    """Exact union of frontier products; None when some side dies."""
    spread = _SPREAD[tb.g.n_states]
    qx = 0
    for s0, s1 in pairs:
        if not (tb.has_progress(s0, n0) and tb.has_progress(s1, n1)):
            return None
        qx |= tb.frontier(s1, n1) * spread[tb.frontier(s0, n0)]
    return qx


def _check_comp(g, tb, rng, report, break_rule=None):
    out = []
    n2 = g.n_states * g.n_states
    pairs = [_rand_pair(rng, g)]
    n0, n1, m0, m1 = (rng.randint(0, 2) for _ in range(4))
    qx = _reached_pairs_mask(tb, pairs, n0, n1)
    if qx is None:
        return out
    qx = _superset(rng, qx, n2) if rng.random() < 0.5 else qx
    if not _rel_holds(tb, pairs, n0, n1, qx):
        return out
    mids = [pair_of(g, i) for i in _bits(qx)]
    rx = _reached_pairs_mask(tb, mids, m0, m1)
    if rx is None or not _rel_holds(tb, mids, m0, m1, rx):
        return out
    _count(report, "comp")
    c0, c1 = n0 + m0, n1 + m1
    if break_rule == "comp":
        c1 += 1  # harness self-test: a mis-added count must be caught
    if not _rel_holds(tb, pairs, c0, c1, rx):
        out.append(("comp", g,
                    f"pairs={pairs} n=({n0},{n1}) m=({m0},{m1}) "
                    f"qx={qx:#x} rx={rx:#x}"))
    return out


def _rand_pair(rng, g) -> tuple:
    return (rng.randrange(g.n_states), rng.randrange(g.n_states))


def _rand_rows(rng, g) -> list:
    return [_rand_mask(rng, g.n_states) for _ in range(g.n_states)]


def _superset_rows(rng, g, base_rows) -> list:
    return [_superset(rng, r, g.n_states) for r in base_rows]


def _check_rel_commutativity(g, tb, rng, report):
    out = []
    n2 = g.n_states * g.n_states
    pairs = [_rand_pair(rng, g) for _ in range(2)]
    n0, n1 = rng.randint(0, 2), rng.randint(0, 2)
    qx = _rand_mask(rng, n2)
    f0, f1 = _rand_rows(rng, g), _rand_rows(rng, g)
    fx = _product_rows(g, f0, f1)
    left = _rel_holds(tb, pairs, n0, n1, qx, fx)
    swapped = [(b, a) for a, b in pairs]
    fxs = _product_rows(g, f1, f0)
    right = _rel_holds(tb, swapped, n1, n0, _swap_pair_mask(g, qx), fxs)
    _count(report, "rel_commutativity")
    if left != right:
        out.append(("rel_commutativity", g,
                    f"pairs={pairs} n=({n0},{n1}) qx={qx:#x}"))
    return out


def _constructed_rel(tb, rng, pairs, n0, n1, with_extras=True):
    """A relational instance whose premises hold by construction: the
    postcondition is a superset of the exact frontier products and the
    frame rows are supersets of the same products, per start pair."""
    g = tb.g
    n2 = g.n_states * g.n_states
    qx = _reached_pairs_mask(tb, pairs, n0, n1)
    if qx is None:
        return None
    fx_rows = [0] * n2
    for s0, s1 in pairs:
        m = _reached_pairs_mask(tb, [(s0, s1)], n0, n1)
        fx_rows[pair_index(g, s0, s1)] = \
            _superset(rng, m, n2) if with_extras else m
    if with_extras:
        qx = _superset(rng, qx, n2)
    return qx, fx_rows


def _check_rel_compositional(g, tb, rng, report):
    out = []
    pairs = [_rand_pair(rng, g)]
    n0, n1, m0, m1 = (rng.randint(0, 2) for _ in range(4))
    first = _constructed_rel(tb, rng, pairs, n0, n1)
    if first is None:
        return out
    qx, gx_rows = first
    if not _rel_holds(tb, pairs, n0, n1, qx, gx_rows):
        return out
    mids = [pair_of(g, i) for i in _bits(qx)]
    second = _constructed_rel(tb, rng, mids, m0, m1)
    if second is None:
        return out
    rx, hx_rows = second
    if not _rel_holds(tb, mids, m0, m1, rx, hx_rows):
        return out
    _count(report, "rel_compositional")
    composed = _compose_rows(gx_rows, hx_rows)
    if not _rel_holds(tb, pairs, n0 + m0, n1 + m1, rx, composed):
        out.append(("rel_compositional", g,
                    f"pairs={pairs} n=({n0},{n1}) m=({m0},{m1})"))
    return out


def _check_rel_frame_composition(g, tb, rng, report):
    out = []
    a, b, c = (rng.randrange(g.n_states) for _ in range(3))
    n0, nm, n2 = (rng.randint(0, 2) for _ in range(3))
    if not (tb.has_progress(a, n0) and tb.has_progress(b, nm)
            and tb.has_progress(c, n2)):
        return out
    f0 = [_superset(rng, tb.frontier(a, n0), g.n_states)
          if s == a else _rand_mask(rng, g.n_states)
          for s in range(g.n_states)]
    fm = [_superset(rng, tb.frontier(b, nm), g.n_states)
          if s == b else _rand_mask(rng, g.n_states)
          for s in range(g.n_states)]
    f2 = [_superset(rng, tb.frontier(c, n2), g.n_states)
          if s == c else _rand_mask(rng, g.n_states)
          for s in range(g.n_states)]
    q1 = _reached_pairs_mask(tb, [(a, b)], n0, nm)
    q2 = _reached_pairs_mask(tb, [(b, c)], nm, n2)
    fx1 = _product_rows(g, f0, fm)
    fx2 = _product_rows(g, fm, f2)
    if not (_rel_holds(tb, [(a, b)], n0, nm, q1, fx1)
            and _rel_holds(tb, [(b, c)], nm, n2, q2, fx2)):
        return out
    _count(report, "rel_frame_composition")
    joined = _join_pairs(g, q1, q2)
    fxc = _product_rows(g, f0, f2)
    if not _rel_holds(tb, [(a, c)], n0, n2, joined, fxc):
        out.append(("rel_frame_composition", g,
                    f"a={a} b={b} c={c} n=({n0},{nm},{n2})"))
    return out


def _check_rel_conjunction(g, tb, rng, report):
    out = []
    pairs = [_rand_pair(rng, g)]
    n0, n1 = rng.randint(0, 2), rng.randint(0, 2)
    base = _reached_pairs_mask(tb, pairs, n0, n1)
    if base is None:
        return out
    n2 = g.n_states * g.n_states
    q1 = _superset(rng, base, n2)
    q2 = _superset(rng, base, n2)
    if not (_rel_holds(tb, pairs, n0, n1, q1)
            and _rel_holds(tb, pairs, n0, n1, q2)):
        return out
    _count(report, "rel_conjunction")
    if not _rel_holds(tb, pairs, n0, n1, q1 & q2):
        out.append(("rel_conjunction", g,
                    f"pairs={pairs} n=({n0},{n1}) q1={q1:#x} q2={q2:#x}"))
    return out


def _constructed_unary(tb, rng, p_mask, max_n=2):
    """A unary exact-count instance that holds by construction: each
    start state gets its own count; the postcondition collects every
    frontier and the frame rows cover them."""
    g = tb.g
    steps = [0] * g.n_states
    q = 0
    f_rows = [_rand_mask(rng, g.n_states) for _ in range(g.n_states)]
    for s in _bits(p_mask):
        n = rng.randint(0, max_n)
        while not tb.has_progress(s, n):
            n -= 1
        steps[s] = n
        front = tb.frontier(s, n)
        q |= front
        f_rows[s] |= front
    q = _superset(rng, q, g.n_states)
    return steps, q, f_rows


def _check_drop_steps(g, tb, rng, report):
    out = []
    p = _rand_mask(rng, g.n_states)
    steps, q, f_rows = _constructed_unary(tb, rng, p)
    if not _ensures_n_holds(tb, p, steps, q, f_rows):
        return out
    _count(report, "drop_steps")
    if not _ensures_holds(tb, p, q, f_rows):
        out.append(("drop_steps", g, f"p={p:#x} q={q:#x} steps={steps}"))
    return out


def _check_product(g, tb, rng, report):
    out = []
    p0 = _rand_mask(rng, g.n_states)
    p1 = _rand_mask(rng, g.n_states)
    s0, q0, f0 = _constructed_unary(tb, rng, p0)
    s1, q1, f1 = _constructed_unary(tb, rng, p1)
    if not (_ensures_n_holds(tb, p0, s0, q0, f0)
            and _ensures_n_holds(tb, p1, s1, q1, f1)):
        return out
    _count(report, "product")
    qx = q1 * _SPREAD[g.n_states][q0]
    fx = _product_rows(g, f0, f1)
    for a in _bits(p0):
        for b in _bits(p1):
            if not _nested_holds(tb, a, b, s0[a], s1[b], qx,
                                 fx[pair_index(g, a, b)]):
                out.append(("product", g, f"pair=({a},{b})"))
                return out
    return out


def _check_hybrid_extract(g, tb, rng, report):
    out = []
    pairs = [_rand_pair(rng, g) for _ in range(2)]
    m0, m1 = rng.randint(0, 2), rng.randint(0, 2)
    qx = _reached_pairs_mask(tb, pairs, m0, m1)
    if qx is None:
        return out
    f0 = _rand_rows(rng, g)
    f1 = _rand_rows(rng, g)
    for s0, s1 in pairs:
        f0[s0] |= tb.frontier(s0, m0)
        f1[s1] |= tb.frontier(s1, m1)
    fx = _product_rows(g, f0, f1)
    if not _rel_holds(tb, pairs, m0, m1, qx, fx):
        return out
    _count(report, "hybrid_extract")
    # unary components constructed so the three hybrid clauses hold
    p = _mask(s1 for _, s1 in pairs)
    q = _mask(b for i in _bits(qx) for _, b in [pair_of(g, i)])
    if not _ensures_n_holds(tb, p, m1, q, f1):
        out.append(("hybrid_extract", g,
                    f"pairs={pairs} m=({m0},{m1}) qx={qx:#x}"))
    return out


def _check_pre(g, tb, rng, report):
    out = []
    p = _rand_mask(rng, g.n_states)
    _, q, f_rows = _constructed_unary(tb, rng, p)
    if not _ensures_holds(tb, p, q, f_rows):
        return out
    sub = p & _rand_mask(rng, g.n_states)
    _count(report, "pre")
    if not _ensures_holds(tb, sub, q, f_rows):
        out.append(("pre", g, f"p={p:#x} sub={sub:#x} q={q:#x}"))
    return out


def _check_post(g, tb, rng, report):
    out = []
    p = _rand_mask(rng, g.n_states)
    _, q, f_rows = _constructed_unary(tb, rng, p)
    if not _ensures_holds(tb, p, q, f_rows):
        return out
    wider = _superset(rng, q, g.n_states)
    _count(report, "post")
    if not _ensures_holds(tb, p, wider, f_rows):
        out.append(("post", g, f"p={p:#x} q={q:#x} wider={wider:#x}"))
    return out


def _check_frame(g, tb, rng, report):
    out = []
    p = _rand_mask(rng, g.n_states)
    _, q, f_rows = _constructed_unary(tb, rng, p)
    if not _ensures_holds(tb, p, q, f_rows):
        return out
    wider = _superset_rows(rng, g, f_rows)
    _count(report, "frame")
    if not _ensures_holds(tb, p, q, wider):
        out.append(("frame", g, f"p={p:#x} q={q:#x}"))
    return out


def _check_seq(g, tb, rng, report):
    out = []
    p = _rand_mask(rng, g.n_states)
    _, mid, f1_rows = _constructed_unary(tb, rng, p)
    if not _ensures_holds(tb, p, mid, f1_rows):
        return out
    _, q, f2_rows = _constructed_unary(tb, rng, mid)
    if not _ensures_holds(tb, mid, q, f2_rows):
        return out
    _count(report, "seq")
    composed = _compose_rows(f1_rows, f2_rows)
    if not _ensures_holds(tb, p, q, composed):
        out.append(("seq", g, f"p={p:#x} mid={mid:#x} q={q:#x}"))
    return out


def _check_branch_cases(g, tb, rng, report):
    out = []
    p1 = _rand_mask(rng, g.n_states)
    p2 = _rand_mask(rng, g.n_states)
    whole = p1 | p2
    _, q, f_rows = _constructed_unary(tb, rng, whole)
    if not (_ensures_holds(tb, p1, q, f_rows)
            and _ensures_holds(tb, p2, q, f_rows)):
        return out
    _count(report, "branch_cases")
    if not _ensures_holds(tb, whole, q, f_rows):
        out.append(("branch_cases", g, f"p1={p1:#x} p2={p2:#x} q={q:#x}"))
    return out


def _check_loop(g, tb, rng, report):
    out = []
    frame_rows = tb.reach_rows() if rng.random() < 0.5 else _full_rows(g)
    i0 = _rand_mask(rng, g.n_states)
    stages = [i0]
    for _ in range(rng.randint(1, 3)):
        prev = stages[-1]
        nxt = 0
        for s in _bits(prev):
            n = rng.randint(0, 2)
            while not tb.has_progress(s, n):
                n -= 1
            nxt |= tb.frontier(s, n)
        stages.append(nxt)
    for a, b in zip(stages, stages[1:]):
        if not _ensures_holds(tb, a, b, frame_rows):
            return out
    _count(report, "loop")
    if not _ensures_holds(tb, stages[0], stages[-1], frame_rows):
        out.append(("loop", g, f"stages={[f'{s:#x}' for s in stages]}"))
    return out


def _check_pre2(g, tb, rng, report):
    out = []
    pairs = [_rand_pair(rng, g) for _ in range(2)]
    n0, n1 = rng.randint(0, 2), rng.randint(0, 2)
    built = _constructed_rel(tb, rng, pairs, n0, n1)
    if built is None:
        return out
    qx, fx = built
    if not _rel_holds(tb, pairs, n0, n1, qx, fx):
        return out
    _count(report, "pre2")
    if not _rel_holds(tb, pairs[:1], n0, n1, qx, fx):
        out.append(("pre2", g, f"pairs={pairs}"))
    return out


def _check_post2(g, tb, rng, report):
    out = []
    pairs = [_rand_pair(rng, g)]
    n0, n1 = rng.randint(0, 2), rng.randint(0, 2)
    built = _constructed_rel(tb, rng, pairs, n0, n1)
    if built is None:
        return out
    qx, fx = built
    if not _rel_holds(tb, pairs, n0, n1, qx, fx):
        return out
    _count(report, "post2")
    wider = _superset(rng, qx, g.n_states * g.n_states)
    if not _rel_holds(tb, pairs, n0, n1, wider, fx):
        out.append(("post2", g, f"pairs={pairs} qx={qx:#x}"))
    return out


def _check_frame2(g, tb, rng, report):
    out = []
    pairs = [_rand_pair(rng, g)]
    n0, n1 = rng.randint(0, 2), rng.randint(0, 2)
    built = _constructed_rel(tb, rng, pairs, n0, n1)
    if built is None:
        return out
    qx, fx = built
    if not _rel_holds(tb, pairs, n0, n1, qx, fx):
        return out
    _count(report, "frame2")
    n2 = g.n_states * g.n_states
    wider = [_superset(rng, r, n2) for r in fx]
    if not _rel_holds(tb, pairs, n0, n1, qx, wider):
        out.append(("frame2", g, f"pairs={pairs}"))
    return out


def _check_restrict2(g, tb, rng, report):
    out = []
    pairs = [_rand_pair(rng, g)]
    n0, n1 = rng.randint(0, 2), rng.randint(0, 2)
    built = _constructed_rel(tb, rng, pairs, n0, n1)
    if built is None:
        return out
    qx, fx = built
    if not _rel_holds(tb, pairs, n0, n1, qx, fx):
        return out
    # build a property invariant under the frame: close a random seed set
    # under frame edges in both directions
    n2 = g.n_states * g.n_states
    phi = _rand_mask(rng, n2)
    changed = True
    while changed:
        changed = False
        for p in range(n2):
            row = fx[p]
            if (phi >> p) & 1:
                if row & ~phi:
                    phi |= row
                    changed = True
            elif row & phi:
                phi |= (1 << p) | row
                changed = True
    kept = [pr for pr in pairs if (phi >> pair_index(g, *pr)) & 1]
    if not kept:
        return out
    _count(report, "restrict2")
    if not _rel_holds(tb, kept, n0, n1, qx & phi, fx):
        out.append(("restrict2", g, f"pairs={kept} phi={phi:#x}"))
    return out


def _check_kernel_agreement(g, tb, rng, report):
    """Cross-implementation: the kernel's recursive exact-count check
    agrees with backward iteration on every state."""
    out = []
    sys = g.oracle()
    q = _rand_mask(rng, g.n_states)
    n = rng.randint(0, 4)
    en = tb.evn_mask(n, q)
    qf = kernel.prop(lambda s, q=q: bool((q >> s) & 1), f"in {q:#x}")
    _count(report, "kernel_agreement")
    for s in range(g.n_states):
        if kernel.eventually_n_holds(sys, s, n, qf) != bool((en >> s) & 1):
            out.append(("kernel_agreement", g, f"s={s} n={n} q={q:#x}"))
            return out
    return out


def _check_ev_agreement(g, tb, rng, report):
    """Cross-implementation: the budgeted search with cycle refutation is
    exact on finite systems once the budget exceeds the state count."""
    out = []
    sys = g.oracle()
    q = _rand_mask(rng, g.n_states)
    ev = tb.ev_mask(q)
    qf = kernel.prop(lambda s, q=q: bool((q >> s) & 1), f"in {q:#x}")
    _count(report, "ev_agreement")
    for s in range(g.n_states):
        v = kernel.eventually_holds(sys, s, qf, budget=g.n_states + 2)
        expect = "proven" if (ev >> s) & 1 else "refuted"
        if v.outcome != expect:
            out.append(("ev_agreement", g,
                        f"s={s} q={q:#x} got={v.outcome} want={expect}"))
            return out
    return out


_CHECKS = (
    ("containment", _check_containment),
    ("conj", _check_conj),
    ("comm", _check_comm),
    ("comp", _check_comp),
    ("rel_commutativity", _check_rel_commutativity),
    ("rel_compositional", _check_rel_compositional),
    ("rel_frame_composition", _check_rel_frame_composition),
    ("rel_conjunction", _check_rel_conjunction),
    ("drop_steps", _check_drop_steps),
    ("product", _check_product),
    ("hybrid_extract", _check_hybrid_extract),
    ("pre", _check_pre),
    ("post", _check_post),
    ("frame", _check_frame),
    ("seq", _check_seq),
    ("branch_cases", _check_branch_cases),
    ("loop", _check_loop),
    ("pre2", _check_pre2),
    ("post2", _check_post2),
    ("frame2", _check_frame2),
    ("restrict2", _check_restrict2),
    ("kernel_agreement", _check_kernel_agreement),
    ("ev_agreement", _check_ev_agreement),
)

_KERNEL_CHECKS = {"kernel_agreement", "ev_agreement"}


def _count(report: dict, rule: str) -> None:
    report[rule] = report.get(rule, 0) + 1


def run_soundness_suite(seed: int, trials: int,
                        _break: Optional[str] = None) -> SuiteReport:
    """Generate random systems and, for every rule, build instances where
    the premises hold exactly, then assert the conclusion exactly. The
    _break hook deliberately mutates one rule's conclusion so tests can
    confirm the harness detects unsound rules; it must never be set in
    real runs.

    The trials run on every usable CPU (see _run_slices), and the report
    is the same as one serial run's: the same systems, draws, instance
    counts and violations, in trial order. An exception in any slice is
    raised here, so a report never covers a subset of the trials."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    t0 = time.perf_counter()
    ran = 0
    violations: list = []
    counts: dict = {}
    for n, part_violations, part_counts in _run_slices(seed, trials, _break):
        ran += n
        violations.extend(part_violations)
        for rule, c in part_counts.items():
            counts[rule] = counts.get(rule, 0) + c
    if ran != trials:
        raise RuntimeError(f"the suite's slices ran {ran} of {trials} trials")
    elapsed = time.perf_counter() - t0
    return SuiteReport(trials=trials,
                       rules_tested=tuple(r for r, _ in _CHECKS),
                       violations=violations, elapsed=elapsed,
                       instances=counts)


# Fewest trials per slice. A run of fewer than two slices' worth stays in
# the calling process: forking would save it at most a few tenths of a
# second, and short runs (the tests' 20 to 1,000 trials) stay easy to
# trace and debug.
_SLICE_FLOOR = 1000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _run_slices(seed: int, trials: int, _break: Optional[str]) -> list:
    """The results of _run_slice over contiguous slices of the trials, in
    slice order: one slice per usable CPU, each of at least _SLICE_FLOOR
    trials. The calling process runs the first slice and a forked worker
    runs each of the others. With one slice, without fork, or while
    another thread runs (a forked child gets only the calling thread, so
    a lock another thread holds would never be released in it), the
    whole run stays in this process. Every worker is reaped before this
    returns or raises; when anything fails, the workers are killed
    first."""
    k = min(_usable_cpus(), trials // _SLICE_FLOOR)
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_run_slice(seed, 0, trials, _break)]
    import pickle
    import signal
    cuts = [trials * i // k for i in range(k + 1)]
    workers: list = []  # (pid, read end of its pipe)
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            workers.append(_fork_slice(seed, start, stop, _break))
        parts = [_run_slice(seed, 0, cuts[1], _break)]
        for (_, fd), start, stop in zip(workers, cuts[1:], cuts[2:]):
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            ok, value = pickle.loads(data) if data \
                else (False, "the worker exited without a result")
            if not ok:
                raise RuntimeError(f"suite trials {start}..{stop - 1} "
                                   f"failed in a worker:\n{value}")
            parts.append(value)
        return parts
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in workers:
            os.close(fd)
            os.waitpid(pid, 0)


def _fork_slice(seed: int, start: int, stop: int,
                _break: Optional[str]) -> tuple:
    """Fork a worker that runs trials start..stop-1 and writes to a pipe
    either (True, the slice's result) or (False, the traceback text),
    pickled; return its pid and the pipe's read end. The worker never
    returns into the caller."""
    import pickle
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    try:
        os.close(read)
        try:
            out = pickle.dumps((True, _run_slice(seed, start, stop, _break)))
        except BaseException:
            import traceback
            out = pickle.dumps((False, traceback.format_exc()))
        with open(write, "wb") as pipe:
            pipe.write(out)
    finally:
        os._exit(0)


def _run_slice(seed: int, start: int, stop: int,
               _break: Optional[str]) -> tuple:
    """Trials start..stop-1 of the suite for this seed, as (trial count,
    violations, instance counts). The master stream skips the draws of
    the trials before start, so trial t tests the same system with the
    same draws whichever slice runs it."""
    master = random.Random(f"suite|{seed}")
    for _ in range(start):
        master.getrandbits(64)
    violations: list = []
    counts: dict = {}
    for trial in range(start, stop):
        rng = random.Random(master.getrandbits(64))
        g = random_system(rng.getrandbits(32), rng.randint(1, 6),
                          rng.randint(0, 3))
        tb = _Tables(g)
        run_kernel_checks = trial % 10 == 0
        for rule_id, fn in _CHECKS:
            if rule_id in _KERNEL_CHECKS and not run_kernel_checks:
                continue
            if rule_id == "comp":
                violations.extend(fn(g, tb, rng, counts, break_rule=_break))
            else:
                violations.extend(fn(g, tb, rng, counts))
    return stop - start, violations, counts
