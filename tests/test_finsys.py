"""Finite-system oracle: exact fixpoints, products, soundness suite."""

import multiprocessing
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhoare import finsys, kernel
from relhoare.finsys import (
    FinSys, all_systems, exact_eventually_n_set, exact_eventually_set,
    pair_index, product_relation_system, random_system,
    run_soundness_suite,
)


def test_eventually_is_a_least_fixpoint():
    g = finsys.finsys(4, [(0, 1), (1, 2), (3, 3)])
    assert exact_eventually_set(g, {2}) == {0, 1, 2}
    # 3 spins forever and never reaches 2
    assert 3 not in exact_eventually_set(g, {2})


def test_eventually_requires_all_branches():
    g = finsys.finsys(3, [(0, 1), (0, 2)])
    assert 0 not in exact_eventually_set(g, {1})
    assert exact_eventually_set(g, {1, 2}) == {0, 1, 2}


def test_eventually_n_counts_exactly():
    chain = finsys.finsys(4, [(0, 1), (1, 2), (2, 3)])
    assert exact_eventually_n_set(chain, 2, {2}) == {0}
    assert exact_eventually_n_set(chain, 0, {2}) == {2}
    assert exact_eventually_n_set(chain, 3, {2}) == frozenset()


def test_stuck_states_satisfy_nothing_at_positive_n():
    g = finsys.finsys(2, [])
    assert exact_eventually_n_set(g, 1, {0, 1}) == frozenset()
    assert exact_eventually_n_set(g, 0, {0}) == {0}


@given(seed=st.integers(0, 10**6), n=st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_containment_on_random_systems(seed, n):
    g = random_system(seed, 5, 3)
    q = frozenset(s for s in range(5) if (seed >> s) & 1)
    assert exact_eventually_n_set(g, n, q) <= exact_eventually_set(g, q)


@given(seed=st.integers(0, 10**6), n=st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_exact_sets_agree_with_kernel_checks(seed, n):
    g = random_system(seed, 4, 2)
    oracle = g.oracle()
    q = frozenset(s for s in range(4) if (seed >> (s + 3)) & 1)
    post = kernel.prop(lambda s: s in q, f"in {sorted(q)}")
    frame = kernel.FrameFn(lambda s, t: True, description="anything")
    evn = exact_eventually_n_set(g, n, q)
    for s in range(4):
        v = kernel.check_ensures_n(oracle, kernel.Enumeration((s,)),
                                   kernel.StepFn.constant(n), post, frame)
        assert v.is_proven == (s in evn)


def test_product_interleaves_one_side_at_a_time():
    g = finsys.finsys(2, [(0, 1)])
    prod = product_relation_system(g)
    i = pair_index(g, 0, 0)
    succ = set(prod.successors(i))
    assert succ == {pair_index(g, 1, 0), pair_index(g, 0, 1)}


def test_all_systems_enumerates_every_edge_subset():
    systems = list(all_systems(2))
    assert len(systems) == 16
    assert len({s.edges for s in systems}) == 16


def test_random_system_is_deterministic_in_its_seed():
    assert random_system(11, 5, 3).edges == random_system(11, 5, 3).edges
    with pytest.raises(ValueError):
        random_system(0, 9, 3)


def test_edges_must_reference_real_states():
    with pytest.raises(ValueError):
        FinSys(2, frozenset({(0, 5)}))


def test_suite_passes_and_counts_instances():
    report = run_soundness_suite(seed=3, trials=150)
    assert report.passed
    assert report.trials == 150
    assert len(report.rules_tested) == 23
    # every rule must have seen at least one instance with premises met
    assert all(report.instances.get(rule, 0) > 0
               for rule in report.rules_tested)


def test_suite_detects_a_deliberately_broken_rule():
    report = run_soundness_suite(seed=3, trials=200, _break="comp")
    assert not report.passed
    assert any(rule == "comp" for rule, _, _ in report.violations)
    assert "VIOLATIONS" in report.format()


def test_suite_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_soundness_suite(seed=1, trials=0)


def _fail_on_call(monkeypatch, on_call: int, how: str) -> None:
    """Make the first check fail on its on_call-th call in a process:
    raise in every worker ("worker"), end every worker without a result
    ("exit"), or raise in the calling process while every worker hangs
    for a minute ("caller")."""
    caller = os.getpid()
    rule, check = finsys._CHECKS[0]
    calls = [0]

    def failing(g, tb, rng, report):
        calls[0] += 1
        if calls[0] == on_call:
            in_worker = os.getpid() != caller
            if how == "worker" and in_worker:
                raise RuntimeError("check failed in the worker")
            if how == "exit" and in_worker:
                os._exit(0)
            if how == "caller" and in_worker:
                time.sleep(60)  # only a kill ends this worker soon
            if how == "caller" and not in_worker:
                raise RuntimeError("check failed in the caller")
        return check(g, tb, rng, report)

    monkeypatch.setattr(finsys, "_CHECKS",
                        ((rule, failing),) + finsys._CHECKS[1:])


def _assert_no_child_process() -> None:
    """No worker is left running, and none is left unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("how, message", [
    ("worker", "(?s)suite trials 10..19 failed in a worker:\n.*"
               "RuntimeError: check failed in the worker"),
    ("caller", "check failed in the caller"),
    ("exit", "suite trials 10..19 failed in a worker:\n"
             "the worker exited without a result"),
])
def test_a_failing_slice_fails_the_suite(monkeypatch, how, message):
    monkeypatch.setattr(finsys, "_SLICE_FLOOR", 1)
    monkeypatch.setattr(finsys, "_usable_cpus", lambda: 3)
    _fail_on_call(monkeypatch, 3, how)
    report = None
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match=message):
        report = run_soundness_suite(seed=0, trials=30)
    assert report is None
    assert time.monotonic() - t0 < 30
    _assert_no_child_process()


def test_a_parallel_run_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(finsys, "_SLICE_FLOOR", 1)
    monkeypatch.setattr(finsys, "_usable_cpus", lambda: 3)
    report = run_soundness_suite(seed=0, trials=30)
    assert report.passed and report.trials == 30
    _assert_no_child_process()


@pytest.mark.parametrize("cpus, floor, fork, thread, trials", [
    (1, 1, True, False, 30),       # one CPU
    (3, 1, False, False, 30),      # no fork
    (3, 1, True, True, 30),        # another thread runs
    (3, 1000, True, False, 1999),  # too few trials for two slices
])
def test_the_suite_stays_in_one_process(monkeypatch, cpus, floor, fork,
                                        thread, trials):
    monkeypatch.setattr(finsys, "_SLICE_FLOOR", floor)
    monkeypatch.setattr(finsys, "_usable_cpus", lambda: cpus)
    if not fork:
        monkeypatch.delattr(os, "fork")
    _fail_on_call(monkeypatch, 1, "worker")
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(60,))
    if thread:
        other.start()
    try:
        assert run_soundness_suite(seed=0, trials=trials).passed
    finally:
        done.set()
        if thread:
            other.join(timeout=60)
    assert not other.is_alive()


# Per-rule instance counts and violation lists captured before the oracles
# were rewritten as word-level mask operations: a speed-up that changes a
# random draw changes which systems a seed tests, and shows up here.
PINNED_INSTANCES_SEED_0 = {
    'branch_cases': 1000,
    'comm': 1000,
    'comp': 259,
    'conj': 213,
    'containment': 2000,
    'drop_steps': 1000,
    'ev_agreement': 100,
    'frame': 1000,
    'frame2': 416,
    'hybrid_extract': 365,
    'kernel_agreement': 100,
    'loop': 1000,
    'post': 1000,
    'post2': 440,
    'pre': 1000,
    'pre2': 362,
    'product': 1000,
    'rel_commutativity': 1000,
    'rel_compositional': 237,
    'rel_conjunction': 437,
    'rel_frame_composition': 346,
    'restrict2': 368,
    'seq': 1000,
}

PINNED_INSTANCES_SEED_3 = {
    'branch_cases': 1000,
    'comm': 1000,
    'comp': 303,
    'conj': 217,
    'containment': 2000,
    'drop_steps': 1000,
    'ev_agreement': 100,
    'frame': 1000,
    'frame2': 452,
    'hybrid_extract': 381,
    'kernel_agreement': 100,
    'loop': 1000,
    'post': 1000,
    'post2': 435,
    'pre': 1000,
    'pre2': 390,
    'product': 1000,
    'rel_commutativity': 1000,
    'rel_compositional': 259,
    'rel_conjunction': 457,
    'rel_frame_composition': 371,
    'restrict2': 403,
    'seq': 1000,
}

PINNED_BROKEN_COMP_SEED_3 = [
    (6, ((0, 2), (1, 0), (1, 1), (2, 2), (2, 3), (3, 0), (3, 2), (3, 5),
         (4, 1), (4, 4), (4, 5), (5, 2), (5, 4), (5, 5)),
     'pairs=[(4, 3)] n=(2,1) m=(2,0) qx=0x965025965 rx=0x965965965'),
    (3, ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1),
         (2, 2)),
     'pairs=[(0, 2)] n=(1,0) m=(0,0) qx=0x124 rx=0x124'),
    (3, (),
     'pairs=[(1, 2)] n=(0,0) m=(0,0) qx=0x20 rx=0x20'),
    (6, ((0, 5), (1, 2), (1, 4), (2, 0), (2, 1), (4, 3), (5, 4)),
     'pairs=[(2, 2)] n=(0,2) m=(2,1) qx=0x34000 rx=0x6db01b000'),
    (5, ((0, 0), (0, 2), (0, 4), (1, 1), (1, 2), (2, 2), (3, 2), (3, 4),
         (4, 0), (4, 3)),
     'pairs=[(3, 0)] n=(1,1) m=(2,0) qx=0x151dce2 rx=0x171dcf7'),
    (4, ((0, 3), (1, 1), (1, 2), (3, 3)),
     'pairs=[(3, 1)] n=(0,0) m=(0,1) qx=0x2000 rx=0x6000'),
    (3, ((0, 2), (1, 1), (2, 0)),
     'pairs=[(0, 0)] n=(0,0) m=(2,1) qx=0x1 rx=0x4'),
    (3, ((0, 1), (1, 0)),
     'pairs=[(1, 0)] n=(1,1) m=(1,2) qx=0x2 rx=0x10'),
    (5, ((0, 0), (0, 4), (1, 1), (2, 1), (2, 4), (3, 0), (4, 1)),
     'pairs=[(3, 3)] n=(0,1) m=(1,1) qx=0x8000 rx=0x11'),
    (4, ((0, 3), (1, 2), (3, 1)),
     'pairs=[(1, 0)] n=(0,1) m=(0,1) qx=0x80 rx=0x20'),
    (5, ((0, 1), (0, 2), (1, 1), (2, 1), (2, 3), (3, 0), (3, 2), (4, 0),
         (4, 2), (4, 4)),
     'pairs=[(2, 3)] n=(0,0) m=(2,0) qx=0x2000 rx=0x2108'),
    (5, ((0, 1), (2, 2), (2, 4)),
     'pairs=[(2, 1)] n=(0,0) m=(1,0) qx=0x800 rx=0x200800'),
    (2, ((0, 1), (1, 0)),
     'pairs=[(1, 0)] n=(1,2) m=(1,0) qx=0xd rx=0x7'),
    (6, ((0, 2), (0, 3), (3, 1), (3, 2), (4, 5), (5, 3), (5, 5)),
     'pairs=[(5, 4)] n=(1,1) m=(0,0) qx=0x800800000 rx=0x800800000'),
]


@pytest.mark.parametrize("seed, want", [(0, PINNED_INSTANCES_SEED_0),
                                        (3, PINNED_INSTANCES_SEED_3)])
def test_suite_draws_are_pinned(seed, want):
    report = run_soundness_suite(seed=seed, trials=1000)
    assert report.instances == want
    assert report.passed


def test_broken_rule_violations_are_pinned():
    report = run_soundness_suite(seed=3, trials=200, _break="comp")
    got = [(g.n_states, tuple(sorted(g.edges)), inputs)
           for rule, g, inputs in report.violations]
    assert {rule for rule, _, _ in report.violations} == {"comp"}
    assert got == PINNED_BROKEN_COMP_SEED_3
