"""Constant-time checks: partitions, witness templates, both forms,
and the bridge from the single-run form back to the pairwise one."""

import collections
import dataclasses
import os
import shutil
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhoare import cli, ct, kernel, machine, specfile
from relhoare.ct import Partition, PartitionOverlap
from relhoare.specfile import TemplateExpansionFailure

from conftest import (
    CORPUS, ROOT, SMALL_LABELS, SMALL_STATE_VALUES, load_problem,
    small_state,
)


def build(text: str) -> specfile.Problem:
    return specfile.build_problem(specfile.parse_spec(text), CORPUS)


# ---------------------------------------------------------------------------
# partitions

def test_partition_rejects_private_pc_and_events():
    with pytest.raises(PartitionOverlap):
        Partition(frozenset({machine.PC}))
    with pytest.raises(PartitionOverlap):
        Partition(frozenset({machine.EVENTS}))


def test_public_projection_blanks_private_labels():
    part = Partition(frozenset({machine.reg_label(5)}))
    a = machine.zeroed_state().with_reg(5, 111).with_reg(6, 7)
    b = machine.zeroed_state().with_reg(5, 222).with_reg(6, 7)
    assert part.project_public(a) == part.project_public(b)
    assert part.project_public(a) != part.project_public(b.with_reg(6, 8))
    assert part.project_public(a).reg(5) == 0


@given(values=st.lists(SMALL_STATE_VALUES, max_size=8),
       private=st.frozensets(st.sampled_from(SMALL_LABELS)))
@settings(max_examples=150)
def test_public_pairs_match_the_scan_of_all_pairs(values, private):
    states = [small_state(v) for v in values]
    part = Partition(private)
    public = kernel.key_join(part.project_public, "equal public labels")
    got = kernel.PairEnumeration.join(public, states, states).pairs
    want = tuple((a, b) for a in states for b in states
                 if machine.mask_labels(a, private)
                 == machine.mask_labels(b, private))
    # the same objects in the same order, not merely equal states
    assert [(id(a), id(b)) for a, b in got] == \
        [(id(a), id(b)) for a, b in want]
    # a state built again from the same values gets the same key
    for v in values:
        again = small_state(v)
        assert part.project_public(again) == \
            machine.mask_labels(again, private)


def test_partition_of_reads_the_spec_sections():
    problem = load_problem("compare_constant_ct_unary.spec")
    part = ct.partition_of(problem)
    assert machine.mem_label(10) in part.private
    assert machine.mem_label(21) in part.private


# ---------------------------------------------------------------------------
# witness templates

def test_expand_template_with_repeat():
    spec = specfile.parse_spec((CORPUS / "compare_constant_ct_unary.spec")
                               .read_text())
    expand = specfile.compile_witness(spec.witness)
    trace = expand({"n": 2})
    assert trace == (
        ("branch", False),
        ("load", 11, 4), ("load", 21, 4), ("branch", True),
        ("load", 10, 4), ("load", 20, 4), ("branch", False),
    )
    assert expand({"n": 0}) == (("branch", True),)
    # past the limit, the repeat stops at the end of its round
    assert expand({"n": 2}, 1) == trace[:4]
    assert expand({"n": 2}, 4) == trace


def test_expand_template_failure_wraps_eval_errors():
    spec = specfile.parse_spec(
        "[check]\nkind = ct_unary\n\n[program0]\nfile = compare.masm\n\n"
        "[witness]\nload unknown_param, 4\n".replace(
            "unknown_param", "0"))
    # force an evaluation failure by withholding a template variable
    items = (("load", ("param", "n"), 4, 1),)
    with pytest.raises(TemplateExpansionFailure):
        specfile.compile_witness(items)({})
    assert specfile.compile_witness(spec.witness)({}) == (("load", 0, 4),)


# ---------------------------------------------------------------------------
# the two forms on the corpus

def test_pairwise_refuted_on_secret_dependent_trace():
    v = ct.check_ct_relational(load_problem("compare_ct.spec"))
    assert v.is_refuted
    assert v.counterexample.traces is not None
    t0, t1 = (machine.project_trace(t) for t in v.counterexample.traces)
    assert t0 != t1
    assert t0[:3] == t1[:3]  # divergence appears after the common prefix


def test_pairwise_proven_on_branchless_rewrite():
    v = ct.check_ct_relational(load_problem("compare_constant_ct.spec"))
    assert v.is_proven
    assert v.stats["instances"] == 768


def test_block_checks_evaluate_the_post_linearly_in_the_states(monkeypatch):
    # once a left has met all of its block, a later left of the block
    # meets only the block's first right, so the declared postcondition is
    # evaluated a bounded number of times per start state, not per pair
    calls = collections.Counter()
    post_property = specfile.Problem.post_property

    def counted(self, side, inst):
        q = post_property(self, side, inst)

        def holds(s):
            calls[side] += 1
            return q.holds(s)

        return kernel.PropertyFn(holds, q.description, q.pcs)

    monkeypatch.setattr(specfile.Problem, "post_property", counted)
    problem = build((CORPUS / "compare_constant_ct.spec").read_text())
    lefts = rights = len(problem.states(0))
    v = ct.check_ct_relational(problem)
    assert v.is_proven
    assert (lefts, v.stats["instances"]) == (48, 768)
    assert 0 < sum(calls.values()) <= 2 * (lefts + rights)


def test_single_run_proven_with_witness_template():
    v = ct.check_ct_unary(load_problem("compare_constant_ct_unary.spec"))
    assert v.is_proven


def test_single_run_refuted_with_wrong_witness():
    text = (CORPUS / "compare_constant_ct_unary.spec").read_text()
    head, _, _ = text.partition("[witness]")
    wrong = head + "[witness]\nbranch n = 0\n"
    v = ct.check_ct_unary(build(wrong))
    assert v.is_refuted


def test_a_witness_longer_than_the_run_is_cut_short(tmp_path):
    # the template spells out 2^40 rounds, far more than fit in memory,
    # but no run of f0 = 10 * n + 7 steps carries more than that many
    # events, so the expansion stops there and every run refutes
    text = (CORPUS / "compare_constant_ct_unary.spec").read_text()
    huge = text.replace("repeat i < n:", "repeat i < n + 0x10000000000:")
    assert huge != text
    (tmp_path / "huge.spec").write_text(huge)
    shutil.copy(CORPUS / "compare_constant.masm", tmp_path)
    limited = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from relhoare.cli import main\n"
        "sys.exit(main(['check', 'huge.spec']))\n")
    proc = subprocess.run([sys.executable, "-c", limited], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.startswith("VERDICT: Refuted\n")


def _witness_spec(tmp_path, template: str):
    """compare_constant_ct_unary.spec with another witness, and the line
    number of the template's first line."""
    head = (CORPUS / "compare_constant_ct_unary.spec").read_text().split(
        "[witness]")[0]
    shutil.copy(CORPUS / "compare_constant.masm", tmp_path)
    (tmp_path / "w.spec").write_text(head + "[witness]\n" + template)
    return tmp_path / "w.spec", head.count("\n") + 2


def test_a_witness_nested_too_deeply_names_its_line(tmp_path, capsys):
    deep = specfile.MAX_REPEAT_DEPTH
    path, _ = _witness_spec(tmp_path, "repeat a < 1:\n" * deep
                            + "load 10, 4\n" + "end\n" * deep)
    # as deep as allowed: checked, and the one-load witness is wrong
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().out.startswith("VERDICT: Refuted\n")
    path, first = _witness_spec(tmp_path, "repeat a < 1:\n" * 1200
                                + "load 10, 4\n" + "end\n" * 1200)
    assert cli.main(["check", str(path)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: line {first + deep}: repeat nested "
                              f"more than {deep} deep\n")


def test_a_repeat_that_adds_no_event_stops_at_the_enumeration_cap(
        tmp_path):
    path, first = _witness_spec(
        tmp_path, "repeat i < 0x10000000000:\nrepeat j < 0:\nload 10, 4\n"
        "end\nend\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for cap in ("100", "65536"):
        proc = subprocess.run(
            [sys.executable, "-m", "relhoare", "check", str(path),
             "--enum-cap", cap], capture_output=True, text=True, env=env,
            timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", f"error: line {first}: one expansion of the witness runs "
                   f"more than {cap} repeat rounds, the enumeration cap\n")


def test_a_ct_unary_check_compiles_its_witness_as_one_function(monkeypatch):
    # the start-state constructor, the witness, the post with its trace
    # comparison, the post's pc guard and f0: one function each
    defined = []
    define = machine._define

    def record(name, lines, filename):
        if filename == "<spec>":
            defined.append(lines[1].split("(")[0].strip())
        return define(name, lines, filename)

    monkeypatch.setattr(machine, "_define", record)
    v = ct.check_ct_unary(build(
        (CORPUS / "compare_constant_ct_unary.spec").read_text()))
    assert v.is_proven
    assert sorted(defined) == ["def construct", "def expr", "def expr",
                               "def holds", "def witness"]


def test_forms_agree_on_the_same_program():
    pairwise = ct.check_ct_relational(load_problem("compare_constant_ct.spec"))
    single = ct.check_ct_unary(load_problem("compare_constant_ct_unary.spec"))
    assert pairwise.outcome == single.outcome == "proven"


def test_a_warm_projection_cache_does_not_excuse_a_foreign_pair(monkeypatch):
    # explicit pairs are checked against pre2: a hand-built pair that is
    # not public-equal is refused, also by a partition that has just
    # keyed every start state of a check
    problem = load_problem("compare_constant_ct.spec")
    part = ct.partition_of(problem)
    monkeypatch.setattr(ct, "partition_of", lambda problem: part)
    assert ct.check_ct_relational(problem).is_proven
    states = problem.states(0)
    a, b = next((a, b) for a in states for b in states
                if machine.mask_labels(a, part.private)
                != machine.mask_labels(b, part.private))
    enum = kernel.PairEnumeration(
        ((a, b),), kernel.PairProperty(
            lambda x, y: part.project_public(x) == part.project_public(y),
            "equal public"))
    steps = kernel.StepFn.constant(0)
    with pytest.raises(kernel.SchemaMismatch):
        kernel.check_ensures2(machine.oracle(), enum, steps, steps,
                              kernel.PairProperty(lambda x, y: True, "true"),
                              kernel.product_frame(kernel.ANYTHING,
                                                   kernel.ANYTHING))


def counting(sys: kernel.StepOracle):
    """sys with a list of every state handed to successors or run."""
    calls: list = []

    def successors(s):
        calls.append(s)
        return sys.successors(s)

    def run(s, limit, stops=None):
        calls.append(s)
        return sys.run(s, limit, stops)

    return dataclasses.replace(sys, successors=successors, run=run), calls


def test_the_768_instance_scale_up_is_linear_in_start_states(tmp_path,
                                                            capsys):
    # four two-valued cells become four-valued: 3 x 4^4 instances, 3
    # public classes of 256, so 196,608 public-equal pairs
    text = (CORPUS / "compare_constant_ct.spec").read_text()
    wide = text.replace(") in 0..1", ") in 0..3")
    assert wide.count(") in 0..3") == 2
    (tmp_path / "compare_constant.masm").write_text(
        (CORPUS / "compare_constant.masm").read_text())
    spec = tmp_path / "compare_constant_ct_768.spec"
    spec.write_text(wide)
    tracemalloc.start()
    try:
        code = cli.main(["check", str(spec)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out.splitlines()
    assert code == 0 and out[0] == "VERDICT: Proven"
    assert "pairs: 196608 public-equal pair(s)" in out
    # about 6 MiB here; storing every pair and its closures took 140
    assert peak < 24 * 2**20
    problem = specfile.build_problem(specfile.parse_spec(wide), tmp_path)
    starts = problem.states(0)
    sys, calls = counting(machine.oracle())
    v = ct.check_ct_relational(problem, sys)
    assert v.is_proven and v.stats["instances"] == 196608
    assert v.stats["explored"] == len(starts) == 768
    firsts = set(starts)
    explored = collections.Counter(s for s in calls if s in firsts)
    assert len(explored) == 768 and set(explored.values()) == {1}


# ---------------------------------------------------------------------------
# degenerate programs

TRIVIAL = """
[check]
kind = ct_unary
budget = 16

[program0]
file = {file}
base = 0x1000

[params]
secret in 0..3

[pre]
x5 = secret

[private]
x5

[post]
terminated(base0 + {stop})

[steps]
f0 = {steps}

[frame]
maychange = pc, x0, x1

[witness]
"""


def test_stopper_only_program_is_constant_time(tmp_path):
    (tmp_path / "nothing.masm").write_text("halt\n")
    text = TRIVIAL.format(file="nothing.masm", stop=0, steps=0)
    problem = specfile.build_problem(specfile.parse_spec(text), tmp_path)
    assert ct.check_ct_unary(problem).is_proven


def test_straight_line_arithmetic_is_constant_time(tmp_path):
    (tmp_path / "alu.masm").write_text(
        "movi x0, #5\nadd x1, x0, x5\nhalt\n")
    text = TRIVIAL.format(file="alu.masm", stop=8, steps=2)
    problem = specfile.build_problem(specfile.parse_spec(text), tmp_path)
    v = ct.check_ct_unary(problem)
    assert v.is_proven
    # the secret flows into x1 but never into any event
    assert ct.check_ct_relational(problem).is_proven


# ---------------------------------------------------------------------------
# bridging the single-run form to the pairwise form

def test_bridge_recovers_the_pairwise_judgment():
    problem = load_problem("compare_constant_ct_unary.spec")
    j = ct.prove_ct_unary(problem)
    bridged = ct.bridge(j, ct.partition_of(problem))
    assert bridged.form == "ensures2"
    assert len(bridged.parts.pairs.pairs) == 768
    assert kernel.recheck(bridged).is_proven
    assert kernel.audit_replay(bridged)
    # the join keeps the product's public-equal pairs, in product order
    part = ct.partition_of(problem)
    product = kernel.convert(j, "product", {"other": j}).parts.pairs.pairs
    assert bridged.parts.pairs.pairs == tuple(
        (a, b) for a, b in product
        if part.project_public(a) == part.project_public(b))
