"""Differential tests of the finite-system oracles against a frozen
reference.

The reference below is the oracle code as it was before it was rewritten
as word-level mask operations: `_bits`, `_pre_step`, `_Tables` (its
frontier, progress and eventually tables), `_nested_holds`, `_rel_holds`,
`_reached_pairs_mask`, `_swap_pair_mask`, `_product_rows`, and the
middle-state join of `_check_rel_frame_composition` (as `_frame_join`),
copied verbatim. It walks every mask one bit at a time and builds every
product one pair at a time. On random systems of 1 to 6 states, with
random masks, rows, pair lists and step counts, the oracles must agree
with it exactly.

`ref_run_soundness_suite` is the suite's trial loop as it was when it
ran every trial in one process, copied verbatim (with its module's names
qualified), except that it counts and records each check's verdict as
the sliced suite's trial loop does. It calls the module's own checks, so
it draws whatever they draw: the seed pins in test_finsys.py, not this
loop, catch a change in the draws. With the slice floor lowered to 1 and
one, two or three CPUs, the sliced suite must report the same instance
counts, violations and text.
"""

from __future__ import annotations

import functools
import random
import time
from typing import Iterator, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhoare import finsys
from relhoare.finsys import FinSys, pair_index


# ---------------------------------------------------------------------------
# frozen reference

def _bits(mask: int) -> Iterator[int]:
    s = 0
    while mask:
        if mask & 1:
            yield s
        mask >>= 1
        s += 1


def _pre_step(g: FinSys, x: int) -> int:
    out = 0
    for s in range(g.n_states):
        sm = g.succ_masks[s]
        if sm and not (sm & ~x):
            out |= 1 << s
    return out


class _Tables:
    """Per-system caches for the suite: forward frontiers, progress
    masks, eventually sets."""

    def __init__(self, g: FinSys):
        self.g = g
        self.full = (1 << g.n_states) - 1
        self._front: dict = {}
        self._prog = [self.full]
        self._ev: dict = {}
        self._reach: Optional[tuple] = None

    def frontier(self, s: int, k: int) -> int:
        key = (s, k)
        got = self._front.get(key)
        if got is None:
            if k == 0:
                got = 1 << s
            else:
                got = 0
                for x in _bits(self.frontier(s, k - 1)):
                    got |= self.g.succ_masks[x]
            self._front[key] = got
        return got

    def progress(self, k: int) -> int:
        while len(self._prog) <= k:
            self._prog.append(_pre_step(self.g, self._prog[-1]))
        return self._prog[k]

    def has_progress(self, s: int, k: int) -> bool:
        return bool((self.progress(k) >> s) & 1)

    def evn_mask(self, n: int, q: int) -> int:
        e = q
        for _ in range(n):
            e = _pre_step(self.g, e)
        return e

    def ev_mask(self, q: int) -> int:
        got = self._ev.get(q)
        if got is None:
            e = q
            while True:
                e2 = e | _pre_step(self.g, e)
                if e2 == e:
                    break
                e = e2
            self._ev[q] = got = e
        return got


def _nested_holds(tb: _Tables, s0: int, s1: int, n0: int, n1: int,
                  qx: int, fx_row: Optional[int] = None) -> bool:
    """The nested exact-count quantifier, unfolded: both sides must make
    progress to their counts and the frontier product must sit inside the
    allowed pair set."""
    if not (tb.has_progress(s0, n0) and tb.has_progress(s1, n1)):
        return False
    allowed = qx if fx_row is None else (qx & fx_row)
    n = tb.g.n_states
    for a in _bits(tb.frontier(s0, n0)):
        base = a * n
        for b in _bits(tb.frontier(s1, n1)):
            if not (allowed >> (base + b)) & 1:
                return False
    return True


def _rel_holds(tb: _Tables, pairs, n0: int, n1: int, qx: int,
               fx_rows=None) -> bool:
    for i, (s0, s1) in enumerate(pairs):
        row = None if fx_rows is None else fx_rows[pair_index(tb.g, s0, s1)]
        if not _nested_holds(tb, s0, s1, n0, n1, qx, row):
            return False
    return True


def _swap_pair_mask(g: FinSys, qx: int) -> int:
    out = 0
    n = g.n_states
    for i in _bits(qx):
        a, b = divmod(i, n)
        out |= 1 << (b * n + a)
    return out


def _product_rows(g: FinSys, f0_rows, f1_rows) -> list:
    """Pair-frame rows for the product of two unary frames."""
    n = g.n_states
    rows = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            m = 0
            for x in _bits(f0_rows[a]):
                base = x * n
                for y in _bits(f1_rows[b]):
                    m |= 1 << (base + y)
            rows[a * n + b] = m
    return rows


def _reached_pairs_mask(tb, pairs, n0, n1) -> Optional[int]:
    """Exact union of frontier products; None when some side dies."""
    g = tb.g
    qx = 0
    for s0, s1 in pairs:
        if not (tb.has_progress(s0, n0) and tb.has_progress(s1, n1)):
            return None
        for a in _bits(tb.frontier(s0, n0)):
            base = a * g.n_states
            for b in _bits(tb.frontier(s1, n1)):
                qx |= 1 << (base + b)
    return qx


def _frame_join(g: FinSys, q1: int, q2: int) -> int:
    # composed postcondition: join on a shared middle state
    joined = 0
    n = g.n_states
    for i in _bits(q1):
        x, y = divmod(i, n)
        for j in _bits(q2):
            y2, z = divmod(j, n)
            if y == y2:
                joined |= 1 << (x * n + z)
    return joined


def ref_run_soundness_suite(seed: int, trials: int,
                            _break: Optional[str] = None
                            ) -> finsys.SuiteReport:
    """Generate random systems and, for every rule, build instances where
    the premises hold exactly, then assert the conclusion exactly. The
    _break hook deliberately mutates one rule's conclusion so tests can
    confirm the harness detects unsound rules; it must never be set in
    real runs."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    t0 = time.perf_counter()
    master = random.Random(f"suite|{seed}")
    violations: list = []
    counts: dict = {}
    for trial in range(trials):
        rng = random.Random(master.getrandbits(64))
        g = finsys.random_system(rng.getrandbits(32), rng.randint(1, 6),
                                 rng.randint(0, 3))
        tb = finsys._Tables(g)
        run_kernel_checks = trial % 10 == 0
        for rule_id, fn in finsys._CHECKS:
            if rule_id in finsys._KERNEL_CHECKS and not run_kernel_checks:
                continue
            if rule_id == "comp":
                inputs = fn(g, tb, rng, break_rule=_break)
            else:
                inputs = fn(g, tb, rng)
            if inputs is not None:
                counts[rule_id] = counts.get(rule_id, 0) + 1
                if inputs:
                    violations.append((rule_id, g, inputs))
    elapsed = time.perf_counter() - t0
    return finsys.SuiteReport(trials=trials,
                              rules_tested=tuple(dict.fromkeys(
                                  r for r, _ in finsys._CHECKS)),
                              violations=violations, elapsed=elapsed,
                              instances=counts)


# ---------------------------------------------------------------------------
# random inputs

@st.composite
def systems(draw):
    """A random finite system on 1 to 6 states: from `random_system`, with
    out-degree up to 3, or from a drawn edge list."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return finsys.random_system(draw(st.integers(0, 10**6)), n,
                                    draw(st.integers(0, 3)))
    state = st.integers(0, n - 1)
    return finsys.finsys(n, draw(st.lists(st.tuples(state, state),
                                          max_size=12)))


def masks(bits: int):
    """A subset of `bits` cells, often empty or full."""
    full = (1 << bits) - 1
    return st.one_of(st.just(0), st.just(full), st.integers(0, full))


def rows(n: int, bits: int):
    return st.lists(masks(bits), min_size=n, max_size=n)


counts = st.integers(0, 4)


def pair_lists(n: int):
    state = st.integers(0, n - 1)
    return st.lists(st.tuples(state, state), max_size=4)


# ---------------------------------------------------------------------------
# the oracles against the reference

@given(mask=st.one_of(st.integers(0, 63), st.integers(0, 1 << 40)))
@settings(max_examples=300, deadline=None)
def test_bits_matches_the_reference(mask):
    assert list(finsys._bits(mask)) == list(_bits(mask))


@given(g=systems(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_tables_match_the_reference(g, data):
    """One table answers a drawn sequence of queries, so a memo that
    returns an earlier query's answer is caught."""
    n = g.n_states
    tb, ref = finsys._Tables(g), _Tables(g)
    state = st.integers(0, n - 1)
    queries = st.one_of(
        st.tuples(st.just("pre_step"), masks(n)),
        st.tuples(st.just("frontier"), state, counts),
        st.tuples(st.just("has_progress"), state, counts),
        st.tuples(st.just("evn_mask"), counts, masks(n)),
        st.tuples(st.just("ev_mask"), masks(n)))
    for op, *args in data.draw(st.lists(queries, min_size=1, max_size=12)):
        if op == "pre_step":
            want = _pre_step(g, *args)
            assert finsys._pre_step(g, *args) == want
        else:
            want = getattr(ref, op)(*args)
        if op == "has_progress":  # a state's depth answers this query
            s, k = args
            got = k <= tb.depth[s]
        else:
            got = getattr(tb, op)(*args)
        assert got == want, (op, args)


@given(g=systems(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_pair_judgments_match_the_reference(g, data):
    n = g.n_states
    n2 = n * n
    tb, ref = finsys._Tables(g), _Tables(g)
    s0, s1 = data.draw(st.tuples(st.integers(0, n - 1),
                                 st.integers(0, n - 1)))
    n0, n1 = data.draw(counts), data.draw(counts)
    qx = data.draw(masks(n2))
    row = data.draw(st.one_of(st.none(), masks(n2)))
    assert (finsys._nested_holds(tb, s0, s1, n0, n1, qx, row)
            == _nested_holds(ref, s0, s1, n0, n1, qx, row))
    pairs = data.draw(pair_lists(n))
    fx_rows = data.draw(st.one_of(st.none(), rows(n2, n2)))
    assert (finsys._rel_holds(tb, pairs, n0, n1, qx, fx_rows)
            == _rel_holds(ref, pairs, n0, n1, qx, fx_rows))
    assert (finsys._reached_pairs_mask(tb, pairs, n0, n1)
            == _reached_pairs_mask(ref, pairs, n0, n1))


@given(g=systems(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_pair_masks_match_the_reference(g, data):
    n = g.n_states
    qx, q2 = data.draw(masks(n * n)), data.draw(masks(n * n))
    f0, f1 = data.draw(rows(n, n)), data.draw(rows(n, n))
    assert finsys._swap_pair_mask(g, qx) == _swap_pair_mask(g, qx)
    assert finsys._product_rows(g, f0, f1) == _product_rows(g, f0, f1)
    assert finsys._join_pairs(g, qx, q2) == _frame_join(g, qx, q2)


def test_spread_puts_one_bit_per_row():
    for n in range(1, 7):
        for m in range(1 << n):
            want = sum(1 << (x * n) for x in _bits(m))
            assert finsys._SPREAD[n][m] == want


# ---------------------------------------------------------------------------
# the sliced suite against the serial loop

def _summary(report: finsys.SuiteReport) -> tuple:
    """Everything a report says except how long it took."""
    text = [line for line in report.format().splitlines()
            if not line.startswith("elapsed:")]
    violations = [(rule, g.n_states, sorted(g.edges), inputs)
                  for rule, g, inputs in report.violations]
    return report.trials, report.instances, violations, text


@functools.lru_cache(maxsize=None)
def _reference_summary(seed: int, trials: int, brk: Optional[str]) -> tuple:
    return _summary(ref_run_soundness_suite(seed, trials, brk))


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("brk", [None, "comp"])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_sliced_suite_matches_the_serial_loop(monkeypatch, seed, brk, cpus):
    """A slice floor of 1 splits even 7 trials into a slice per CPU, and
    3 CPUs cut 7, 999 and 2,001 trials into uneven slices."""
    monkeypatch.setattr(finsys, "_SLICE_FLOOR", 1)
    monkeypatch.setattr(finsys, "_usable_cpus", lambda: cpus)
    for trials in (1, 7, 999, 2001):
        got = _summary(finsys.run_soundness_suite(seed, trials, _break=brk))
        assert got == _reference_summary(seed, trials, brk), trials
