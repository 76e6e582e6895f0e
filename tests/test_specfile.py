"""Spec-file parsing, validation errors, and problem construction."""

import textwrap

import pytest

from relhoare import kernel, machine, specfile
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
