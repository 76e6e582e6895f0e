"""Differential tests of the spec compiler and instance builder against a
frozen reference.

The reference below is `specfile`'s evaluation and construction code as
it was before specs were compiled once per spec: the tree-walking
`eval_expr`/`eval_constraint` over an `_Env`, and `build_problem`,
`_grid`, `_construct` and `_apply_assignment`, which reload the program
and re-walk every [pre] line for each instance, and `ct`'s witness
template expansion over that evaluator. All are copied verbatim. The
functions that `specfile` generates for expressions, constraints, [pre]
and [post] lines, witness templates and start states must agree with the
reference on every AST of the corpus and on drawn ASTs over small
machine states: the same value, or the same exception with the same
message. That holds also for parameters named like the generated code's
locals and builtins, whose names must not reach the generated source.
The builder must yield the same instances, in the same order, or raise
the same error. The one exception is a [pre] assignment whose value does
not fit its label: the reference masked the value and then reported the
line as a conflict, the builder refuses it with its value and the
label's range.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import re
import tokenize
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relhoare import asm, cli, machine, specfile
from relhoare.specfile import (
    DEFAULT_ENUM_CAP, TWO_PROGRAM_KINDS, CheckSpec, Constraint,
    DomainTooLarge, Instance, Problem, SpecEvalError, SpecSyntaxError,
    TemplateExpansionFailure,
)

from conftest import CORPUS, SMALL_STATE_VALUES, load_problem, small_state


# ---------------------------------------------------------------------------
# frozen reference: evaluation

class _Env:
    """Evaluation context: parameter values plus program builtins, with
    an optional machine state for register/memory reads."""

    __slots__ = ("values", "state")

    def __init__(self, values: dict, state=None):
        self.values = values
        self.state = state


def eval_expr(ast, env: _Env) -> int:
    kind = ast[0]
    if kind == "int":
        return ast[1]
    if kind == "param" or kind == "builtin":
        try:
            return env.values[ast[1]]
        except KeyError:
            raise SpecEvalError(f"unbound name {ast[1]!r}")
    if kind == "bin":
        a, b = eval_expr(ast[2], env), eval_expr(ast[3], env)
        if ast[1] == "+":
            return a + b
        if ast[1] == "-":
            return a - b
        return a * b
    if kind == "reg":
        _need_state(env)
        return env.state.reg(ast[1])
    if kind == "pc":
        _need_state(env)
        return env.state.pc
    if kind == "memread":
        _need_state(env)
        return env.state.mem.read(eval_expr(ast[2], env) & machine.MASK64,
                                  ast[1])
    if kind == "call":
        args = [eval_expr(a, env) for a in ast[2]]
        if ast[1] == "min":
            return min(args)
        if ast[1] == "max":
            return max(args)
        _need_state(env)
        a, b, n = args
        k = 0
        while k < n and env.state.mem.get((a + k) & machine.MASK64) \
                == env.state.mem.get((b + k) & machine.MASK64):
            k += 1
        return k
    raise SpecEvalError(f"cannot evaluate {kind} node")


def _need_state(env: _Env) -> None:
    if env.state is None:
        raise SpecEvalError("expression reads machine state")


def eval_constraint(ast, env: _Env, programs=None) -> bool:
    kind = ast[0]
    if kind == "and":
        return eval_constraint(ast[1], env, programs) \
            and eval_constraint(ast[2], env, programs)
    if kind == "or":
        return eval_constraint(ast[1], env, programs) \
            or eval_constraint(ast[2], env, programs)
    if kind == "not":
        return not eval_constraint(ast[1], env, programs)
    if kind == "cmp":
        a, b = eval_expr(ast[2], env), eval_expr(ast[3], env)
        return {"=": a == b, "!=": a != b, "<": a < b, "<=": a <= b,
                ">": a > b, ">=": a >= b}[ast[1]]
    if kind == "flag":
        _need_state(env)
        bit = eval_expr(ast[2], env)
        got = env.state.flag_n if ast[1] == "n" else env.state.flag_z
        return got == bit
    if kind == "terminated":
        _need_state(env)
        return machine.is_terminated_at(env.state,
                                        eval_expr(ast[1], env) & machine.MASK64)
    if kind == "aligned":
        _need_state(env)
        if programs is None or programs[ast[1]] is None:
            raise SpecEvalError("aligned() references a missing program")
        return machine.is_aligned_at(env.state, eval_expr(ast[2], env),
                                     programs[ast[1]].data)
    raise SpecEvalError(f"cannot evaluate {kind} constraint")



# ---------------------------------------------------------------------------
# frozen reference: building instances

def build_problem(spec: CheckSpec, root, cap: int = DEFAULT_ENUM_CAP) -> Problem:
    """Assemble the referenced programs, enumerate every parameter
    valuation, and construct the initial state(s) of each instance."""
    root = Path(root)
    programs: list = [None, None]
    bases = [0, 0]
    for side, ref in spec.programs.items():
        if not ref.path:
            raise SpecSyntaxError(f"[program{side}] has no file")
        programs[side] = asm.assemble((root / ref.path).read_text())
        bases[side] = ref.base
    if programs[0] is None:
        raise SpecSyntaxError("spec names no [program0]")
    two_sided = spec.kind in TWO_PROGRAM_KINDS
    if two_sided and programs[1] is None:
        raise SpecSyntaxError(f"kind {spec.kind} needs [program1]")

    builtins = {"base0": bases[0], "len0": programs[0].byte_len}
    if programs[1] is not None:
        builtins.update(base1=bases[1], len1=programs[1].byte_len)
    env0 = _Env(dict(builtins))

    cell_addrs: list = []
    cell_domains: list = []
    for cell in spec.cells:
        lo = eval_expr(cell.lo_addr, env0)
        hi = eval_expr(cell.hi_addr, env0)
        for addr in range(lo, hi):
            cell_addrs.append(addr)
            cell_domains.append((cell.lo, cell.hi))

    total = 1
    for p in spec.scalars:
        total *= p.hi - p.lo + 1
    for lo, hi in cell_domains:
        total *= hi - lo + 1
    if total > cap:
        raise DomainTooLarge(
            f"enumeration of {total} instances exceeds the cap of {cap}")

    instances = []
    for scalar_values in _grid([(p.lo, p.hi) for p in spec.scalars]):
        env = dict(builtins)
        env.update(zip((p.name for p in spec.scalars), scalar_values))
        for cell_values in _grid(cell_domains):
            cells = tuple(zip(cell_addrs, cell_values))
            s0 = _construct(spec, programs, bases, env, cells,
                            0 if 0 in spec.programs else None)
            if s0 is None:
                continue
            s1 = None
            if two_sided:
                s1 = _construct(spec, programs, bases, env, cells, 1)
                if s1 is None:
                    continue
            instances.append(Instance(len(instances), env, s0, s1))
    return Problem(spec, tuple(programs), tuple(bases), instances, builtins)


def _grid(domains: list):
    if not domains:
        yield ()
        return
    lo, hi = domains[0]
    for v in range(lo, hi + 1):
        for rest in _grid(domains[1:]):
            yield (v,) + rest


def _construct(spec, programs, bases, env, cells, side):
    """Build one initial state, or None when a verify-only precondition
    line filters this valuation out of the enumerated set."""
    state = machine.zeroed_state()
    key = side if side is not None else 0
    state = asm.load_program(state, programs[key], bases[key])
    for addr, value in cells:
        state = state._replace(mem=state.mem.write(addr, value, 1))
    constraints = spec.pre.get(side)
    if constraints is None:
        constraints = spec.pre.get(None, [])
    e = _Env(dict(env))
    assigned = set()
    for c in constraints:
        updated = _apply_assignment(c, state, e)
        if updated is not None:
            state = updated
            assigned.add(id(c))
    e2 = _Env(dict(env), state)
    for c in constraints:
        if not eval_constraint(c.ast, e2, tuple(programs)):
            if id(c) in assigned:
                raise SpecEvalError(
                    f"assignment {c.text!r} does not hold on its own "
                    "constructed state (conflicting assignments?)", c.line)
            return None
    return state


def _apply_assignment(c: Constraint, state, env: _Env):
    ast = c.ast
    if ast[0] == "flag":
        try:
            bit = eval_expr(ast[2], env)
        except SpecEvalError:
            return None
        label = machine.FLAG_N if ast[1] == "n" else machine.FLAG_Z
        return state.with_label(label, bit)
    if ast[0] != "cmp" or ast[1] != "=":
        return None
    lhs, rhs = ast[2], ast[3]
    try:
        value = eval_expr(rhs, env)
    except SpecEvalError:
        return None
    if lhs[0] == "reg":
        return state.with_reg(lhs[1], value & machine.MASK64)
    if lhs[0] == "pc":
        return state._replace(pc=value & machine.MASK64)
    if lhs[0] == "memread":
        try:
            addr = eval_expr(lhs[2], env)
        except SpecEvalError:
            return None
        return state._replace(
            mem=state.mem.write(addr & machine.MASK64, value, lhs[1]))
    return None



# ---------------------------------------------------------------------------
# frozen reference: witness templates (ct.expand_template)

def expand_template(items, values: dict) -> tuple:
    """Expand a parsed witness template at one public valuation into a
    projected trace: ("load", addr, size), ("store", addr, size) and
    ("branch", taken) entries."""
    env = _Env(dict(values))
    out: list = []
    _expand_into(items, env, out)
    return tuple(out)


def _expand_into(items, env, out) -> None:
    for item in items:
        try:
            if item[0] == "repeat":
                _, var, bound, body, _line = item
                stop = eval_expr(bound, env)
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
                            eval_constraint(item[1], env)))
            else:
                kind, addr_ast, size, _line = item
                addr = eval_expr(addr_ast, env) & machine.MASK64
                out.append((kind, addr, size))
        except SpecEvalError as e:
            raise TemplateExpansionFailure(
                f"witness template needs non-public data: {e}") from e


# ---------------------------------------------------------------------------
# helpers

def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raised."""
    try:
        return ("value", fn(*args))
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(e), str(e))


def same_outcome(compiled, reference):
    assert outcome(*compiled) == outcome(*reference)


CORPUS_SPECS = sorted(p.name for p in CORPUS.glob("*.spec"))


def spec_asts(spec: specfile.CheckSpec) -> tuple:
    """(constraint ASTs, expression ASTs) of every line of a spec."""
    constraints = [c.ast for store in (spec.pre, spec.post)
                   for cs in store.values() for c in cs]
    exprs = [v for v in spec.steps.values() if v != "auto"]
    exprs += list(spec.promote.values())
    exprs += [a for cell in spec.cells for a in (cell.lo_addr, cell.hi_addr)]

    def witness(items):
        for item in items:
            if item[0] == "repeat":
                exprs.append(item[2])
                witness(item[3])
            elif item[0] == "branch":
                constraints.append(item[1])
            else:
                exprs.append(item[1])

    witness(spec.witness)
    return constraints, exprs


def sample_states(problem: Problem) -> list:
    """Start states of a few instances and the states one and two steps
    after them."""
    out = []
    for inst in itertools.islice(problem.instances, None, None,
                                 max(1, problem.count() // 6)):
        for s in (inst.state0, inst.state1):
            if s is None:
                continue
            out.append(s)
            for t in machine.successors(s):
                out.append(t)
                out.extend(machine.successors(t))
    return out


# ---------------------------------------------------------------------------
# the compiled evaluator

@pytest.mark.parametrize("name", CORPUS_SPECS)
def test_compiled_corpus_asts_match_the_reference(name):
    problem = load_problem(name)
    constraints, exprs = spec_asts(problem.spec)
    envs = [dict(i.env)
            for i in itertools.islice(problem.instances, None, None, 7)]
    # an unbound parameter: the values without the spec's scalars
    envs.append(dict(problem.builtins))
    states = [None] + sample_states(problem)
    for values in envs:
        for s in states:
            for ast in exprs:
                same_outcome(
                    (specfile.compile_expr(ast), values, s),
                    (eval_expr, ast, _Env(values, s)))
            for ast in constraints:
                for programs in (problem.programs, None):
                    same_outcome(
                        (specfile.compile_constraint(ast, programs),
                         values, s),
                        (eval_constraint, ast, _Env(values, s), programs))
                    same_outcome(
                        (specfile.eval_constraint, ast, values, s,
                         programs),
                        (eval_constraint, ast, _Env(values, s), programs))


@pytest.mark.parametrize("name", CORPUS_SPECS)
def test_properties_and_step_tables_match_the_reference(name):
    problem = load_problem(name)
    spec = problem.spec
    states = sample_states(problem)
    sides = (0, 1) if problem.programs[1] is not None else (0,)
    properties = (
        ("post", problem.post_property),
        ("pre", lambda side, inst: specfile.pre_property(problem, side,
                                                         inst)))
    for inst in itertools.islice(problem.instances, None, None, 5):
        for side in sides:
            for section, property_at in properties:
                constraints = problem._conditions(getattr(spec, section),
                                                  side)
                q = property_at(side, inst)
                text = " and ".join(c.text for c in constraints) or "true"
                # a ct_unary post first compares the trace with the witness
                witness = (section, side, spec.kind) == ("post", 0,
                                                         "ct_unary")
                assert q.description == (
                    f"trace is the witness and ({text})" if witness else text)

                def reference(s):
                    e = _Env(dict(inst.env), s)
                    if witness and machine.project_trace(s.events) != \
                            expand_template(spec.witness, inst.env):
                        return False
                    return all(eval_constraint(c.ast, e, problem.programs)
                               for c in constraints)

                for s in states:
                    same_outcome((q.holds, s), (reference, s))
    for key, value in spec.steps.items():
        if value == "auto":
            continue
        for side in sides:
            table = problem.steps(key, side).value
            for inst in problem.instances:
                start = inst.state1 if side else inst.state0
                assert table[start] == eval_expr(value, _Env(dict(inst.env)))


small_ints = st.integers(-3, 8)
# names an AST reads: "i" is bound only inside a witness template's
# repeat, "missing" never, so most reads find a value
PARAMS = ("a", "b", "a", "b", "i", "missing")
BUILTINS = ("base0", "len0", "base0", "len0", "base1")


def exprs(with_state: bool = True):
    leaves = [small_ints.map(lambda v: ("int", v)),
              st.sampled_from(PARAMS).map(lambda n: ("param", n)),
              st.sampled_from(BUILTINS).map(lambda n: ("builtin", n))]
    if with_state:
        leaves += [st.integers(0, 3).map(lambda i: ("reg", i)),
                   st.just(("pc",))]

    def extend(inner):
        branches = [
            st.tuples(st.just("bin"), st.sampled_from("+-*"), inner, inner),
            st.tuples(st.just("call"), st.sampled_from(("min", "max")),
                      st.tuples(inner, inner)),
        ]
        if with_state:
            # the length is kept small: prefixlen walks up to it
            length = st.one_of(small_ints.map(lambda v: ("int", v)),
                               st.just(("param", "a")))
            branches += [
                st.tuples(st.just("memread"), st.sampled_from((1, 4, 8)),
                          inner),
                st.tuples(st.just("call"), st.just("prefixlen"),
                          st.tuples(inner, inner, length)),
            ]
        return st.one_of(*branches)

    return st.recursive(st.one_of(*leaves), extend, max_leaves=6)


def constraints(with_state: bool = True):
    e = exprs(with_state)
    atoms = st.tuples(st.just("cmp"), st.sampled_from(specfile._CMP_OPS),
                      e, e)
    if with_state:
        atoms = st.one_of(
            atoms,
            st.tuples(st.just("flag"), st.sampled_from("nz"), e),
            st.tuples(st.just("terminated"), e),
            st.tuples(st.just("aligned"), st.sampled_from((0, 1)), e))
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(st.just("and"), inner, inner),
        st.tuples(st.just("or"), inner, inner),
        st.tuples(st.just("not"), inner)), max_leaves=4)


PROGRAM = asm.assemble("movi x0, #1\nhalt\n")


@st.composite
def values_of(draw) -> dict:
    values = {"a": draw(small_ints), "b": draw(small_ints), "base0": 0,
              "len0": PROGRAM.byte_len}
    if draw(st.integers(0, 4)) == 0:  # now and then one name is unbound
        del values[draw(st.sampled_from(sorted(values)))]
    return values


@st.composite
def states_of(draw):
    """A small machine state, or now and then none (a pre-state
    context)."""
    if draw(st.integers(0, 4)) == 0:
        return None
    return small_state(draw(SMALL_STATE_VALUES))


programs_of = st.sampled_from((None, (PROGRAM, None), (None, PROGRAM)))


def _neg(e):
    return ("bin", "-", ("int", 0), e)  # the parse of a unary minus


@given(ast=exprs(), values=values_of(), state=states_of())
@example(ast=("bin", "+", _neg(("param", "a")), ("param", "b")),
         values={"a": 5, "b": 7}, state=None)
@example(ast=("bin", "-", _neg(_neg(("param", "a"))), _neg(("int", 3))),
         values={"a": 5}, state=None)
@example(ast=("bin", "*", _neg(("param", "a")), ("bin", "*", _neg(
    ("int", 2)), ("param", "b"))), values={"a": 5, "b": 7}, state=None)
@example(ast=("call", "min", (_neg(("param", "a")), _neg(("param", "b")))),
         values={"a": 5, "b": 7}, state=None)
@settings(max_examples=400, deadline=None)
def test_compiled_expressions_match_the_reference(ast, values, state):
    same_outcome((specfile.compile_expr(ast), values, state),
                 (eval_expr, ast, _Env(values, state)))


@given(ast=constraints(), values=values_of(), state=states_of(),
       programs=programs_of)
@settings(max_examples=400, deadline=None)
def test_compiled_constraints_match_the_reference(ast, values, state,
                                                  programs):
    same_outcome((specfile.compile_constraint(ast, programs), values, state),
                 (eval_constraint, ast, _Env(values, state), programs))


@pytest.mark.parametrize("ast, values, state, programs, message", [
    (("cmp", "=", ("param", "n"), ("int", 0)), {}, None, None,
     "unbound name 'n'"),
    (("cmp", "=", ("reg", 0), ("int", 0)), {}, None, None,
     "expression reads machine state"),
    (("flag", "z", ("int", 1)), {}, None, None,
     "expression reads machine state"),
    (("terminated", ("int", 0)), {}, None, None,
     "expression reads machine state"),
    (("cmp", "=", ("call", "prefixlen", (("int", 0), ("int", 1),
                                         ("int", 2))), ("int", 0)),
     {}, None, None, "expression reads machine state"),
    (("aligned", 1, ("int", 0)), {}, machine.zeroed_state(),
     (PROGRAM, None), "aligned() references a missing program"),
    (("aligned", 0, ("int", 0)), {}, machine.zeroed_state(), None,
     "aligned() references a missing program"),
])
def test_each_evaluation_error_keeps_its_message(ast, values, state,
                                                 programs, message):
    with pytest.raises(SpecEvalError, match=re.escape(message)):
        eval_constraint(ast, _Env(values, state), programs)
    with pytest.raises(SpecEvalError, match=re.escape(message)):
        specfile.compile_constraint(ast, programs)(values, state)


def test_compiling_reads_no_value_and_no_program():
    # errors belong to evaluation: compiling a constraint that can only
    # fail succeeds, and every evaluation then raises
    fails = specfile.compile_constraint(
        ("and", ("aligned", 1, ("param", "nope")), ("pc",)), (PROGRAM, None))
    for state in (None, machine.zeroed_state()):
        with pytest.raises(SpecEvalError):
            fails({}, state)


def templates():
    """Witness templates: loads, stores and branches, and repeats whose
    variable may shadow a parameter, with small bounds. Now and then an
    expression reads machine state, which a template cannot."""
    expr = st.one_of(exprs(False), exprs(False), exprs(False), exprs())
    cond = st.one_of(constraints(False), constraints(False), constraints())
    item = st.one_of(
        st.tuples(st.sampled_from(("load", "store")), expr,
                  st.sampled_from((1, 4, 8)), st.just(1)),
        st.tuples(st.just("branch"), cond, st.just(1)))
    bound = st.one_of(st.integers(-1, 3).map(lambda v: ("int", v)),
                      st.sampled_from((("param", "a"), ("param", "i"))))
    return st.recursive(
        st.lists(item, min_size=1, max_size=3).map(tuple),
        lambda inner: st.lists(st.one_of(item, st.tuples(
            st.just("repeat"), st.sampled_from(("i", "a")), bound, inner,
            st.just(1))), max_size=3).map(tuple),
        max_leaves=4)


def _after_repeat(var):
    """A repeat over var, then a load that reads var again."""
    load = ("load", ("param", var), 1, 1)
    return (("repeat", var, ("int", 2), (load,), 1), load)


def _nest(depth: int):
    """Repeats nested depth deep, past Python's 20 nested blocks, each
    of two rounds under a or i in turn, and a load of both inside."""
    items = (("load", ("bin", "+", ("param", "a"), ("param", "i")), 1, 1),)
    for k in range(depth):
        bound = ("int", 2) if k % 12 == 0 else ("int", 1)
        items = (("repeat", "ai"[k % 2], bound, items, 1),)
    return items


@given(items=templates(), values=values_of())
@example(items=_after_repeat("i"), values={"a": 5})
@example(items=_after_repeat("a"), values={"a": 5})
@example(items=_nest(25), values={})
@example(items=(("repeat", "limit", ("int", 2), (
    ("load", ("param", "limit"), 1, 1), ("load", ("param", "out"), 1, 1)),
    1),), values={"out": 7})
@settings(max_examples=300, deadline=None)
def test_compiled_templates_match_the_reference(items, values):
    same_outcome((lambda: specfile.compile_witness(items)(values),),
                 (expand_template, items, values))


def test_the_corpus_witness_matches_the_reference():
    problem = load_problem("compare_constant_ct_unary.spec")
    expand = specfile.compile_witness(problem.spec.witness)
    for values in [i.env for i in problem.instances] + [{}]:
        same_outcome((expand, values),
                     (expand_template, problem.spec.witness, values))


# ---------------------------------------------------------------------------
# the builder

def instance_rows(problem: Problem) -> list:
    return [(i.index, i.env, i.state0, i.state1)
            for i in problem.instances]


def assert_same_build(text: str, root: Path) -> None:
    spec = specfile.parse_spec(text)
    ref = outcome(build_problem, spec, root)
    got = outcome(specfile.build_problem, spec, root)
    if ref[0] == "raised" or got[0] == "raised":
        assert got == ref
        return
    assert instance_rows(got[1]) == instance_rows(ref[1])
    assert got[1].builtins == ref[1].builtins
    assert got[1].programs == ref[1].programs


@pytest.mark.parametrize("name", CORPUS_SPECS)
def test_corpus_specs_build_the_reference_instances(name):
    assert_same_build((CORPUS / name).read_text(), CORPUS)


def test_a_second_build_does_not_reuse_the_first_programs():
    # the corpus specs built one after another, each with its own
    # programs and bases, within one process
    for name in CORPUS_SPECS + CORPUS_SPECS[::-1]:
        assert_same_build((CORPUS / name).read_text(), CORPUS)


@pytest.mark.parametrize("name", [
    "compare_correct.spec", "compare_constant_ct.spec", "compare_equiv.spec"])
@pytest.mark.parametrize("domain", ["0..3", "254..255", "0..0", "7..9"])
def test_widened_cell_grids_build_the_reference_instances(name, domain):
    text = (CORPUS / name).read_text()
    assert ") in 0..1" in text
    assert_same_build(text.replace(") in 0..1", f") in {domain}"), CORPUS)


PRE_CASES = {
    "conflicting registers": "x0 = a\nx0 = a + 1\n",
    "conflicting flags": "flag z = 1\nflag z = 0\n",
    "a store over a cell": "mem4(10) = a + 256 * b\n",
    "a store the cells conflict with": "mem1(10) = 1\n",
    "a byte store at a negative address": "mem1(0 - 1) = a\n",
    "a verify-only filter": "x0 = a\nmem1(10) = mem1(11)\n",
    "filters on registers": "x1 = b\nx0 = a\nx0 < x1 or flag n = 1\n",
    "pc and alignment": "pc = base0 + 4 * a\naligned(program0, base0)\n",
    "a missing program": "aligned(program1, base0)\n",
    "an unbound builtin": "x3 = base1\n",
    "a state read in an assignment": "x2 = x1 + 1\n",
    "a prefix filter": "prefixlen(10, 11, 2) = 1 or pc = 0\n",
    "flags from parameters": "flag n = b - 1\nflag z = 2 - b\n",
    "a wide store": "mem8(16) = a * 0x100000001 + b\n",
    "nothing": "",
}


@pytest.mark.parametrize("case", sorted(PRE_CASES))
@pytest.mark.parametrize("two_sided", [False, True])
def test_precondition_cases_build_the_reference_instances(
        tmp_path, case, two_sided):
    (tmp_path / "p.masm").write_text("movi x0, #1\nmovi x0, #2\nhalt\n")
    kind = "equiv" if two_sided else "unary"
    text = (f"[check]\nkind = {kind}\n\n"
            "[program0]\nfile = p.masm\nbase = 0x1000\n\n")
    if two_sided:
        text += "[program1]\nfile = p.masm\nbase = 0x2000\n\n"
    text += ("[params]\na in 0..2\nb in 1..2\nmem[10 .. 12) in 0..2\n\n"
             f"[pre]\n{PRE_CASES[case]}")
    if two_sided:
        # a side-1 line that filters what side 0 keeps
        text += "\n[pre1]\nx0 = a\nx1 = b\nnot (x0 = 1 and x1 = 2)\n"
    assert_same_build(text, tmp_path)


def test_conflicting_assignments_still_name_the_line(tmp_path):
    (tmp_path / "p.masm").write_text("halt\n")
    spec = specfile.parse_spec(
        "[check]\nkind = unary\n\n[program0]\nfile = p.masm\n\n"
        "[params]\na in 0..1\n\n[pre]\nx0 = a\nx0 = a + 1\n")
    with pytest.raises(SpecEvalError) as e:
        specfile.build_problem(spec, tmp_path)
    assert str(e.value) == (
        "line 11: assignment 'x0 = a' does not hold on its own constructed "
        "state (conflicting assignments?)")


@pytest.mark.parametrize("line, value, allowed", [
    ("flag n = a", 2, "0..1"),
    ("x5 = 0 - 1", -1, "0..2^64-1"),
    ("pc = 0 - 4 * a", -4, "0..2^64-1"),
    ("mem1(10) = 128 * a", 256, "0..255"),
    ("mem4(16) = 0 - a", -1, "0..2^32-1"),
])
def test_an_assignment_that_does_not_fit_its_label_names_the_value(
        tmp_path, line, value, allowed):
    """The reference masked such a value, then refused the line as a
    conflict although no other line assigns the label."""
    (tmp_path / "p.masm").write_text("halt\n")
    spec = specfile.parse_spec(
        "[check]\nkind = unary\n\n[program0]\nfile = p.masm\n\n"
        f"[params]\na in 0..2\n\n[pre]\n{line}\n")
    with pytest.raises(SpecEvalError) as e:
        specfile.build_problem(spec, tmp_path)
    assert str(e.value) == (f"line 11: assignment {line!r} sets {value}, "
                            f"outside the label's range {allowed}")


def test_assignments_at_the_ends_of_their_ranges_build(tmp_path):
    (tmp_path / "p.masm").write_text("halt\n")
    spec = specfile.parse_spec(
        "[check]\nkind = unary\n\n[program0]\nfile = p.masm\n\n"
        "[params]\na in 0..1\n\n[pre]\nflag n = a\nflag z = 1 - a\n"
        "x5 = 18446744073709551615 * a\nmem1(10) = 255 * a\n")
    problem = specfile.build_problem(spec, tmp_path)
    top = problem.instances[1].state0
    assert (top.flag_n, top.flag_z, top.reg(5)) == (1, 0, machine.MASK64)
    assert top.mem.get(10) == 255


def test_a_misaligned_base_is_refused_like_the_reference(tmp_path):
    (tmp_path / "p.masm").write_text("halt\n")
    text = ("[check]\nkind = unary\n\n[program0]\nfile = p.masm\n"
            "base = 0x1002\n\n[params]\na in 0..1\n")
    assert_same_build(text, tmp_path)
    with pytest.raises(asm.MisalignedBase):
        specfile.build_problem(specfile.parse_spec(text), tmp_path)


# ---------------------------------------------------------------------------
# names that clash with the generated code

CLASH_SPEC = """\
[check]
kind = unary_n
budget = 8

[program0]
file = p.masm
base = 0x1000

[params]
{name} in 0..2
b in 0..1
mem[16 .. 18) in 0..1

[pre]
x0 = {use}
x1 = {use} * 2 + b
mem1(24) = {use}
x0 < 2 or mem1(16) = {use}

[post]
terminated(base0 + 4) and x2 = 3 * {use} + b and mem1(24) = {use}
x0 = {use} or not (x1 = 0 - {use})

[frame]
maychange = pc, x2

[steps]
f0 = 1 + 0 * {use}
"""


def generated_sources(monkeypatch, text: str, root: Path) -> list:
    """Build the spec and read its properties, steps and frame; the
    source of every function that defines, in order."""
    sources = []
    define = machine._define

    def record(name, lines, filename):
        sources.append("\n".join(lines))
        return define(name, lines, filename)

    with monkeypatch.context() as m:
        m.setattr(machine, "_define", record)
        problem = specfile.build_problem(specfile.parse_spec(text), root)
        for inst in problem.instances:
            problem.post_property(0, inst).holds(inst.state0)
            specfile.pre_property(problem, 0, inst).holds(inst.state0)
        problem.steps("f0", 0)
        problem.frame(0)
    return sources


@pytest.mark.parametrize("name", ["values", "state", "M", "_make", "min",
                                  "print", "__import__"])
def test_names_that_clash_with_generated_code(tmp_path, monkeypatch, name):
    (tmp_path / "p.masm").write_text("add x2, x0, x1\nhalt\n")
    # min( is a call, so a parameter named min is only declared
    use = "b" if name == "min" else name
    text = CLASH_SPEC.format(name=name, use=use)
    assert_same_build(text, tmp_path)
    problem = specfile.build_problem(specfile.parse_spec(text), tmp_path)
    assert problem.count() > 0
    for inst in problem.instances:
        states = [inst.state0] + machine.successors(inst.state0)
        for q, constraints in (
                (specfile.pre_property(problem, 0, inst), problem.spec.pre),
                (problem.post_property(0, inst), problem.spec.post)):
            for s in states:
                e = _Env(dict(inst.env), s)
                same_outcome((q.holds, s), (lambda: all(
                    eval_constraint(c.ast, e) for c in constraints[None]),))
    (tmp_path / "c.spec").write_text(text)
    assert cli.main(["check", str(tmp_path / "c.spec")]) == 0
    # the sources do not depend on the names, and hold no literal but
    # integers
    sources = generated_sources(monkeypatch, text, tmp_path)
    assert any("def construct(" in source for source in sources)
    plain = CLASH_SPEC.format(name="p", use="b" if name == "min" else "p")
    assert sources == generated_sources(monkeypatch, plain, tmp_path)
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type != tokenize.STRING, source
            if tok.type == tokenize.NUMBER:
                int(tok.string, 0)  # an integer, or ValueError


# ---------------------------------------------------------------------------
# streamed instances against the reference and the stored path

@st.composite
def one_run_specs(draw):
    """A one-run spec over `add x2, x0, x1` and its shape: (text, whether
    its [pre] lines show distinct start states). Its parameters are
    assigned as they are or not at all (left to [post], the witness and
    the stops), and its [pre] lines may filter, assign a label twice or
    store over a [params] cell."""
    kind = draw(st.sampled_from(specfile.ONE_RUN_KINDS))
    a_hi, b_lo, b_hi = (draw(st.integers(0, 2)) for _ in range(3))
    b_hi = max(b_lo, b_hi)
    cells = draw(st.booleans())
    pre = []
    held = {"a": a_hi == 0, "b": b_lo == b_hi}
    if draw(st.booleans()):
        pre.append("x0 = a")
        held["a"] = True
    b_line = draw(st.sampled_from(("", "x1 = b", "mem1(24) = b",
                                   "mem4(16) = b", "x1 = 1")))
    if b_line:
        pre.append(b_line)
        held["b"] |= b_line.endswith("= b") and not (
            cells and b_line == "mem4(16) = b")
    twice = draw(st.sampled_from(("", "x0 = 2 * a - a", "x1 = 0 + 1")))
    twice = twice if twice.split(" = ")[0] in [l.split(" = ")[0]
                                                for l in pre] else ""
    over = cells and b_line == "mem4(16) = b"
    if twice:
        pre.append(twice)
    if draw(st.booleans()):
        pre.append(draw(st.sampled_from(("x0 + x1 < 3", "not (x0 = 1)",
                                         "mem1(16) = 0 or x1 = 1"))))
    text = f"[check]\nkind = {kind}\nbudget = 8\n"
    if kind == "promote":
        text += ("x0 = base0\n"
                 f"xw = base0 + {draw(st.sampled_from(('4', '4 * a')))}\n"
                 f"n = {draw(st.sampled_from(('1', 'b', '1 - a', '9')))}\n")
    text += ("\n[program0]\nfile = add.masm\nbase = 0x1000\n\n[params]\n"
             f"a in 0..{a_hi}\nb in {b_lo}..{b_hi}\n")
    if cells:
        text += "mem[16 .. 18) in 0..1\n"
    text += "\n[pre]\n" + "".join(line + "\n" for line in pre)
    k = draw(st.integers(0, 3))
    text += (f"\n[post]\nterminated(base0 + 4)\n"
             f"x2 {draw(st.sampled_from(('<=', '=', '!=')))} a + b + {k}\n")
    text += (f"\n[steps]\nf0 = "
             f"{draw(st.sampled_from(('1', '1 + 0 * b', '9 - 4 * b', '1 - b')))}"
             "\n")
    if kind == "ct_unary":  # add makes no event; x0 is not public data
        text += draw(st.sampled_from(
            ("", "\n[witness]\nrepeat i < b - 1:\nload 0, 1\nend\n",
             "\n[witness]\nrepeat i < b - 1:\nload x0, 1\nend\n")))
    distinct = held["a"] and held["b"] and not twice and not over
    return text, distinct


def _check_output(path: Path) -> tuple:
    """(exit code, stdout, stderr) of `relhoare check` on path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def add_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream")
    (root / "add.masm").write_text("add x2, x0, x1\nhalt\n")
    return root


def _precedence_case(kind: str, check: str = "", steps: str = "f0 = 1",
                     more: str = "", pre: str = "x1 = b") -> tuple:
    """A streamed spec whose first instance is refuted (x2 = b) and whose
    later valuations refuse the spec: stored, every valuation's witness,
    counts and stops are taken before any walk."""
    return (f"[check]\nkind = {kind}\nbudget = 8\n{check}\n"
            "[program0]\nfile = add.masm\nbase = 0x1000\n\n"
            f"[params]\na in 0..0\nb in 0..2\n\n[pre]\n{pre}\n\n"
            "[post]\nx2 != b\n\n"
            f"[steps]\n{steps}\n{more}", True)


@given(case=one_run_specs())
@example(case=_precedence_case(
    "ct_unary", more="[witness]\nrepeat i < b - 1:\nload x0, 1\nend\n"))
@example(case=_precedence_case("unary_n", steps="f0 = 1 - b"))
@example(case=_precedence_case("unary_n", steps="f0 = 1 + 4 * b"))
@example(case=_precedence_case(
    "promote", "x0 = base0\nxw = base0 + 4 * b\nn = 1 - b\n"))
@example(case=_precedence_case(
    "promote", "x0 = base0 + 4 * b\nxw = base0 + 4\nn = 1\n"))
@example(case=_precedence_case(
    "promote", "x0 = base0\nxw = base0 + 8\nn = 1\n",
    pre="x1 = b\npc = base0 + 4 * b"))
@settings(max_examples=200, deadline=None)
def test_streamed_instances_match_the_reference_and_the_stored_path(
        add_dir, case):
    text, distinct = case
    spec = specfile.parse_spec(text)
    ref = outcome(build_problem, spec, add_dir)
    got = outcome(specfile.build_problem, spec, add_dir)
    if ref[0] == "raised" or got[0] == "raised":
        assert got == ref
        return
    ref, got = ref[1], got[1]
    # a post-only parameter, a label assigned twice or a store over a
    # cell keeps the stored groups
    assert got.streamed == distinct
    rows = instance_rows(ref)
    assert instance_rows(got) == rows  # a second pass makes them again
    assert instance_rows(got) == rows
    assert got.count() == len(rows)
    if rows:
        assert (got.instances[-1].index, got.instances[-1].state0) \
            == rows[-1][::2]
    path = add_dir / "case.spec"
    path.write_text(text)
    streamed = _check_output(path)
    with mock.patch.object(specfile, "_distinct", lambda *args: False):
        assert not specfile.build_problem(spec, add_dir).streamed
        assert _check_output(path) == streamed
