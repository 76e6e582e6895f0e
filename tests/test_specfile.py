"""Spec-file parsing, validation errors, and problem construction."""

import sys
import textwrap

import pytest

from relhoare import cli, kernel, machine, specfile
from relhoare.specfile import (
    DomainTooLarge, SpecEvalError, SpecSyntaxError, UndeclaredParam,
    UnknownSection, build_problem, parse_spec,
)

from conftest import CORPUS


def spec_text(body: str) -> str:
    return textwrap.dedent(body).lstrip()


def tiny_spec(tmp_path, body: str, program: str = "movi x0, #1\nhalt\n"):
    (tmp_path / "prog.masm").write_text(program)
    path = tmp_path / "case.spec"
    path.write_text(spec_text(body))
    return path


BASIC = """
    [check]
    kind = unary
    budget = 16

    [program0]
    file = prog.masm
    base = 0x1000

    [params]
    a in 0..3

    [pre]
    x1 = a

    [post]
    terminated(base0 + 4) and x0 = 1

    [frame]
    maychange = pc, x0
"""


def test_basic_spec_round_trip(tmp_path):
    path = tiny_spec(tmp_path, BASIC)
    spec = parse_spec(path.read_text())
    assert spec.kind == "unary" and spec.budget == 16
    problem = build_problem(spec, tmp_path)
    assert problem.count() == 4
    assert [inst.state0.reg(1) for inst in problem.instances] == [0, 1, 2, 3]
    assert all(inst.state0.pc == 0x1000 for inst in problem.instances)


def test_unknown_section_reports_line():
    with pytest.raises(UnknownSection) as e:
        parse_spec("[check]\nkind = unary\n\n[wibble]\nx = 1\n")
    assert e.value.line == 4


def test_unknown_kind_is_a_syntax_error():
    with pytest.raises(SpecSyntaxError):
        parse_spec("[check]\nkind = quantum\n")


def test_undeclared_param_reports_line():
    text = spec_text("""
        [check]
        kind = unary

        [program0]
        file = prog.masm

        [pre]
        x0 = mystery
    """)
    with pytest.raises(UndeclaredParam) as e:
        parse_spec(text)
    assert e.value.line == 8


@pytest.mark.parametrize("missing", ["x0", "xw", "n"])
def test_promote_without_a_required_key_is_refused_at_parse(missing):
    keys = {"x0": "base0", "xw": "base0 + 4", "n": "1"}
    del keys[missing]
    text = "[check]\nkind = promote\n" + "".join(
        f"{k} = {v}\n" for k, v in keys.items())
    with pytest.raises(specfile.SpecError,
                       match=f"promote checks need {missing} in the "
                             r"\[check\] section"):
        parse_spec(text)


def test_syntax_error_on_bad_range():
    with pytest.raises(SpecSyntaxError) as e:
        parse_spec("[check]\nkind = unary\n\n[params]\nn in 5\n")
    assert e.value.line == 5


@pytest.mark.parametrize("base", ["-4", "0x10000000000001000"])
def test_a_program_base_is_an_address(base):
    text = "[check]\nkind = unary\n\n[program0]\nfile = p.masm\n" \
        "base = {}\n"
    assert parse_spec(text.format("0xfffffffffffff000")).programs[0].base \
        == 0xfffffffffffff000
    with pytest.raises(SpecSyntaxError,
                       match=f"^line 6: base {base} is not an address in "
                             r"0\.\.0xffffffffffffffff$") as e:
        parse_spec(text.format(base))
    assert e.value.line == 6


@pytest.mark.parametrize("section", ["equiv_in", "equiv_out"])
def test_an_equivalence_relation_is_a_kept_label_set(section):
    text = "[check]\nkind = equiv\n\n[equiv_in]\nkeep = x6\n\n" \
        "[equiv_out]\nkeep = x6\n"
    lines = text.splitlines()
    lineno = lines.index(f"[{section}]") + 2
    lines[lineno - 1] = "predicate = x0_le"
    with pytest.raises(SpecSyntaxError,
                       match=r"^line \d+: expected keep = <labels>$") as e:
        parse_spec("\n".join(lines) + "\n")
    assert e.value.line == lineno
    spec = parse_spec(text)
    assert spec.equiv_in == spec.equiv_out != []


def test_domain_cap_is_enforced_not_sampled(tmp_path):
    path = tiny_spec(tmp_path, """
        [check]
        kind = unary

        [program0]
        file = prog.masm

        [params]
        a in 0..255
        b in 0..255

        [pre]
        x0 = a + b

        [post]
        x0 = a + b
    """)
    spec = parse_spec(path.read_text())
    with pytest.raises(DomainTooLarge):
        build_problem(spec, tmp_path, cap=1000)
    assert build_problem(spec, tmp_path, cap=70000).count() == 65536


def with_cells(cells: str):
    """compare_correct.spec with its first [params] cell line replaced."""
    text = (CORPUS / "compare_correct.spec").read_text()
    assert "mem[10 .. 12) in 0..1" in text
    return parse_spec(text.replace("mem[10 .. 12) in 0..1", cells))


def test_a_wide_cell_range_is_refused_before_it_is_enumerated():
    # 20,000 cells of two values: 2^20000 instances, a number with more
    # digits than an error message should hold
    spec = with_cells("mem[0x10000 .. 0x14e20) in 0..1")
    with pytest.raises(DomainTooLarge) as e:
        build_problem(spec, CORPUS)
    assert str(e.value) == ("enumeration exceeds the cap of 65536 "
                            "instances")


@pytest.mark.parametrize("cells, named", [
    ("mem[0xffffffffffffffff .. 0x10000000000000001) in 0..1",
     "mem[0xffffffffffffffff .. 0x10000000000000001)"),
    ("mem[0 - 1 .. 1) in 0..1", "mem[-0x1 .. 0x1)")],
    ids=["past_the_top", "below_zero"])
def test_a_cell_range_outside_the_address_space_is_refused(cells, named):
    # such cells used to wrap to the bottom of memory: a byte at 2^64 (or
    # at -1) was written at 0 (or at 2^64 - 1)
    with pytest.raises(specfile.SpecError) as e:
        build_problem(with_cells(cells), CORPUS)
    assert str(e.value) == (f"memory cells {named} lie outside the address "
                            "space 0..2^64-1")
    # a range that ends at the top of memory is still in it
    top = with_cells("mem[0xfffffffffffffffe .. 0x10000000000000000) in 0..1")
    assert build_problem(top, CORPUS).count() == 3 * 4 * 4


def test_more_cells_than_the_cap_are_refused_with_one_value_each():
    # a single instance, but each of its states writes 300 cells
    spec = with_cells("mem[0x10000 .. 0x1012c) in 0..0")
    assert build_problem(spec, CORPUS, cap=400).count() == 3 * 4
    with pytest.raises(DomainTooLarge,
                       match="cells number more than the cap of 100$"):
        build_problem(spec, CORPUS, cap=100)


def test_expression_grammar(tmp_path):
    path = tiny_spec(tmp_path, """
        [check]
        kind = unary
        budget = 8

        [program0]
        file = prog.masm
        base = 0x1000

        [params]
        n in 2..2

        [pre]
        x1 = n * 3 + 1
        x2 = min(n, 7) + max(n, 7)
        x3 = n * n - 1
        x4 = 0x10

        [post]
        terminated(base0 + 4)

        [frame]
        maychange = pc, x0
    """)
    problem = build_problem(parse_spec(path.read_text()), tmp_path)
    (inst,) = problem.instances
    assert inst.state0.reg(1) == 7
    assert inst.state0.reg(2) == 2 + 7
    assert inst.state0.reg(3) == 3
    assert inst.state0.reg(4) == 16


def test_mem_cells_and_memread(tmp_path):
    path = tiny_spec(tmp_path, """
        [check]
        kind = unary
        budget = 8

        [program0]
        file = prog.masm
        base = 0x1000

        [params]
        mem[64 .. 66) in 1..2

        [post]
        terminated(base0 + 4) and mem1(64) + mem1(65) >= 2

        [frame]
        maychange = pc, x0
    """)
    problem = build_problem(parse_spec(path.read_text()), tmp_path)
    assert problem.count() == 4
    cells = sorted((inst.state0.read_label(machine.mem_label(64)),
                    inst.state0.read_label(machine.mem_label(65)))
                   for inst in problem.instances)
    assert cells == [(1, 1), (1, 2), (2, 1), (2, 2)]
    inst = problem.instances[0]
    final = inst.state0
    while machine.successors(final):
        final = machine.successors(final)[0]
    assert problem.post_property(0, inst).holds(final)


def test_verify_only_pre_lines_filter_instances(tmp_path):
    path = tiny_spec(tmp_path, """
        [check]
        kind = unary
        budget = 8

        [program0]
        file = prog.masm
        base = 0x1000

        [params]
        a in 0..5

        [pre]
        x1 = a
        a < 3

        [post]
        terminated(base0 + 4)

        [frame]
        maychange = pc, x0
    """)
    problem = build_problem(parse_spec(path.read_text()), tmp_path)
    assert [inst.state0.reg(1) for inst in problem.instances] == [0, 1, 2]


def test_conflicting_assignments_raise(tmp_path):
    path = tiny_spec(tmp_path, """
        [check]
        kind = unary

        [program0]
        file = prog.masm

        [params]
        a in 1..1

        [pre]
        x1 = a
        x1 = a + 1

        [post]
        x1 = a
    """)
    with pytest.raises(SpecEvalError):
        build_problem(parse_spec(path.read_text()), tmp_path)


def test_flag_and_alignment_atoms(tmp_path):
    path = tiny_spec(tmp_path, """
        [check]
        kind = unary
        budget = 8

        [program0]
        file = prog.masm
        base = 0x1000

        [pre]
        flag z = 1

        [post]
        terminated(base0 + 4) and aligned(program0, base0) and flag z = 1

        [frame]
        maychange = pc, x0
    """)
    problem = build_problem(parse_spec(path.read_text()), tmp_path)
    (inst,) = problem.instances
    assert inst.state0.flag_z == 1
    post = problem.post_property(0, inst)
    final = inst.state0
    while machine.successors(final):
        final = machine.successors(final)[0]
    assert post.holds(final)


def test_witness_repeat_blocks_parse_and_validate():
    text = spec_text("""
        [check]
        kind = ct_unary

        [program0]
        file = prog.masm

        [params]
        n in 1..2

        [witness]
        branch n = 0
        repeat i < n:
          load 10 + i, 4
          branch i + 1 < n
        end
    """)
    spec = parse_spec(text)
    assert spec.witness and spec.witness[0][0] == "branch"
    with pytest.raises(SpecSyntaxError):
        parse_spec(text.replace("end", ""))  # unclosed repeat
    with pytest.raises(UndeclaredParam):
        parse_spec(text.replace("10 + i", "10 + j"))


def test_frames_with_mem_ranges(tmp_path):
    path = tiny_spec(tmp_path, """
        [check]
        kind = unary
        budget = 8

        [program0]
        file = prog.masm
        base = 0x1000

        [post]
        terminated(base0 + 4)

        [frame]
        maychange = pc, x0, mem[32 .. 34)
    """)
    problem = build_problem(parse_spec(path.read_text()), tmp_path)
    frame = problem.frame(0)
    assert machine.mem_label(32) in frame.intensional_form
    assert machine.mem_label(33) in frame.intensional_form
    assert machine.mem_label(34) not in frame.intensional_form


def test_undeclared_frame_allows_anything(tmp_path):
    path = tiny_spec(tmp_path, BASIC.split("[frame]")[0])
    problem = build_problem(parse_spec(path.read_text()), tmp_path)
    assert problem.frame(0) is kernel.ANYTHING


@pytest.mark.parametrize("kind, right, same_steps", [
    ("ct_relational", 0, True), ("relational", 1, False)])
def test_pair_parts_pick_the_right_side_and_its_steps(
        tmp_path, kind, right, same_steps):
    path = tiny_spec(tmp_path, f"""
        [check]
        kind = {kind}

        [program0]
        file = prog.masm

        [program1]
        file = prog.masm
        base = 0x2000

        [params]
        a in 0..1

        [pre]
        x1 = a

        [steps]
        f0 = a + 1
    """)
    problem = build_problem(parse_spec(path.read_text()), tmp_path)
    assert problem.right == right
    pairs = tuple(zip(problem.states(0), problem.states(right)))
    enum, post2, frame2, steps0, steps1 = problem.pair_parts(
        kernel.PairProperty(lambda a, b: True), "pairs",
        post_description="both", pairs=pairs)
    assert enum.domain1 == problem.states(right)
    assert frame2.product_of == (kernel.ANYTHING, kernel.ANYTHING)
    assert (steps1 is steps0) == same_steps
    assert post2.at(pairs[0]).description == "both"


def test_steps_expressions_resolve_per_instance(tmp_path):
    path = tiny_spec(tmp_path, """
        [check]
        kind = unary_n

        [program0]
        file = prog.masm
        base = 0x1000

        [params]
        a in 0..1

        [pre]
        x1 = a

        [post]
        terminated(base0 + 4)

        [steps]
        f0 = a + 1 - a + 1

        [frame]
        maychange = pc, x0
    """)
    problem = build_problem(parse_spec(path.read_text()), tmp_path)
    steps = problem.steps("f0", 0)
    for inst in problem.instances:
        assert steps.resolve(machine.oracle(), inst.state0) == 2


def test_corpus_specs_parse_and_build():
    for path in sorted(CORPUS.glob("*.spec")):
        spec = parse_spec(path.read_text())
        problem = build_problem(spec, CORPUS)
        assert problem.count() > 0, path.name


def test_instances_satisfy_their_own_preconditions():
    from conftest import load_problem
    problem = load_problem("compare_correct.spec")
    for inst in problem.instances:
        assert specfile.pre_property(problem, 0, inst).holds(inst.state0)


def test_cell_domains_span_the_byte_values():
    spec = parse_spec("[check]\nkind = unary\n\n[params]\n"
                      "mem[0 .. 2) in 0..255\nn in -5..300\n")
    assert [(c.lo, c.hi) for c in spec.cells] == [(0, 255)]
    for domain in ("0..256", "-1..0", "255..256"):
        with pytest.raises(SpecSyntaxError, match="byte values") as e:
            parse_spec(f"[check]\nkind = unary\n\n[params]\n"
                       f"mem[0 .. 2) in {domain}\n")
        assert e.value.line == 5


# ---------------------------------------------------------------------------
# pc guards of postconditions

def post_guards(tmp_path, post: str, params: str = "a in 0..3") -> list:
    """The pc guard of each instance's postcondition, for a [post] with
    the given lines (one per line of post)."""
    body = (BASIC.replace("terminated(base0 + 4) and x0 = 1",
                          post.replace("\n", "\n    "))
            .replace("a in 0..3", params))
    problem = build_problem(parse_spec(tiny_spec(tmp_path, body).read_text()),
                            tmp_path)
    return [problem.post_property(0, inst).pcs for inst in problem.instances]


@pytest.mark.parametrize("post, want", [
    ("terminated(base0 + 4)", {0x1004}),
    ("terminated(base0 + 4) and x0 = 1", {0x1004}),
    ("x0 = 1 and terminated(base0 + 4)", {0x1004}),
    ("terminated(base0 + 4) or terminated(base0 + 8)", {0x1004, 0x1008}),
    ("(terminated(base0 + 4) or terminated(base0 + 8)) and "
     "terminated(base0 + 8)", {0x1008}),
    ("terminated(base0 + 4) and terminated(base0 + 8)", set()),
    # the address is masked to 64 bits, as terminated() masks it
    ("terminated(base0 - 0x1004)", {(1 << 64) - 4}),
    # several lines are their `and`; a line without a guard adds nothing
    ("terminated(base0 + 4) or terminated(base0 + 8)\nx0 = 1",
     {0x1004, 0x1008}),
    ("terminated(base0 + 4) or terminated(base0 + 8)\n"
     "terminated(base0 + 8) or terminated(base0 + 12)", {0x1008}),
])
def test_a_guard_is_the_pcs_a_post_can_hold_at(tmp_path, post, want):
    assert post_guards(tmp_path, post) == [frozenset(want)] * 4


@pytest.mark.parametrize("post", [
    "x0 = 1",
    "terminated(x1)",                       # the address reads a register
    "terminated(base0 + x1)",
    "terminated(base0 + mem1(10))",         # ... or memory
    "terminated(base0 + 4) or x0 = 1",      # a disjunct with no guard
    "x0 = 1 or terminated(base0 + 4)",
    "not terminated(base0 + 4)",
    "terminated(base1 + 4)",                # a name no instance binds
])
def test_a_post_that_may_hold_at_any_pc_has_no_guard(tmp_path, post):
    assert post_guards(tmp_path, post) == [None] * 4


def test_a_guard_reads_the_instance_parameters(tmp_path):
    assert post_guards(tmp_path, "terminated(base0 + 4 * a)") == [
        frozenset({0x1000 + 4 * a}) for a in range(4)]


def test_equal_guards_are_one_object(tmp_path):
    guards = post_guards(tmp_path, "terminated(base0 + 4 * min(a, 1)) or "
                                   "terminated(base0 + 8)")
    assert guards[0] == frozenset({0x1000, 0x1008})
    assert guards[1] == frozenset({0x1004, 0x1008})
    assert guards[1] is guards[2] is guards[3]


def test_the_posts_of_one_start_state_meet_their_guards(tmp_path):
    # b is only in [post], so both values of b build each start state
    body = (BASIC.replace("terminated(base0 + 4) and x0 = 1",
                          "terminated(base0 + 4) or "
                          "terminated(base0 + 4 + 4 * b)")
            .replace("a in 0..3", "a in 0..3\n    b in 0..1"))
    problem = build_problem(parse_spec(tiny_spec(tmp_path, body).read_text()),
                            tmp_path)
    _, post, _ = problem.unary_parts()
    meets = [post.at(s).pcs for s in problem.states(0)]
    assert meets == [frozenset({0x1004})] * 8
    assert all(pcs is meets[0] for pcs in meets)
    assert problem.post_property(0, problem.instances[0]).pcs is meets[0]


def test_a_post_that_fails_to_evaluate_is_an_error_off_its_guard(
        tmp_path, capsys):
    # no run reaches base0 + 400, the guard, where the post would first
    # be called; it is also called at each start state, so base1, which
    # a one-program check does not bind, is an error and not a Refuted
    body = BASIC.replace("terminated(base0 + 4) and x0 = 1",
                         "x0 = base1 and terminated(base0 + 400)")
    assert cli.main(["check", str(tiny_spec(tmp_path, body))]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unbound name 'base1'\n"


# ---------------------------------------------------------------------------
# integer literals

def test_a_decimal_literal_too_long_to_convert_is_a_syntax_error(
        tmp_path, capsys):
    body = BASIC.replace("x1 = a", "x1 = a\n    x2 = " + "9" * 5000)
    path = tiny_spec(tmp_path, body)
    with pytest.raises(SpecSyntaxError) as e:
        parse_spec(path.read_text())
    assert e.value.line == 14
    assert cli.main(["check", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: line 14: a decimal literal of 5000 digits is "
                   f"longer than {sys.get_int_max_str_digits()} digits; "
                   "write it in hex\n")


def test_a_huge_value_outside_its_label_is_named_in_hex(tmp_path, capsys):
    big = "0x1" + "0" * 5000
    body = BASIC.replace("x1 = a", f"x1 = a\n    x5 = {big}")
    assert cli.main(["check", str(tiny_spec(tmp_path, body))]) == 3
    assert capsys.readouterr().err == (
        f"error: line 14: assignment 'x5 = {big}' sets {big}, outside the "
        "label's range 0..2^64-1\n")


def test_huge_hex_literals_are_evaluated_exactly(tmp_path, capsys):
    big = "0x" + "f" * 5000
    body = (BASIC.replace("x1 = a", f"x1 = a\n    x0 = {big} - {big}")
            .replace("x0 = 1", f"x0 = 1 + {big} - {big}"))
    assert cli.main(["check", str(tiny_spec(tmp_path, body))]) == 0
    assert capsys.readouterr().out.startswith("VERDICT: Proven\n")


# ---------------------------------------------------------------------------
# nesting depth

def test_nested_unary_minuses_check_like_the_closure_tree(tmp_path, capsys):
    # one generated parenthesis per minus would pass Python's limit of
    # 200 nested parentheses; the closure tree took these at this depth
    body = (BASIC.replace("x1 = a", "x1 = a\n    x2 = " + "- " * 300 + "a")
            .replace("x0 = 1", "x0 = " + "- " * 300 + "1"))
    assert cli.main(["check", str(tiny_spec(tmp_path, body))]) == 0
    assert capsys.readouterr().out.startswith("VERDICT: Proven\n")
    problem = build_problem(parse_spec(tiny_spec(tmp_path, body).read_text()),
                            tmp_path)
    assert [i.state0.regs[2] for i in problem.instances] == [0, 1, 2, 3]


@pytest.mark.parametrize("section, line", [("pre", 14), ("post", 16)])
def test_source_nested_too_deeply_to_compile_names_its_line(
        tmp_path, capsys, section, line):
    # a deeper parse than the default recursion limit allows, so that the
    # generated source passes Python's limit of 200 nested parentheses
    deep = "min(" * 250 + "1" + ", 5)" * 250
    old = "x1 = a" if section == "pre" else "x0 = 1"
    new = f"x1 = a\n    x0 = {deep}" if section == "pre" else f"x0 = {deep}"
    path = tiny_spec(tmp_path, BASIC.replace(old, new))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4000)
    try:
        assert cli.main(["check", str(path)]) == 3
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().err == (
        f"error: line {line}: expression nested too deeply to compile\n")
