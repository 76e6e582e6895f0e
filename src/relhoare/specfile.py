"""Check description files: parsing and instance construction.

A .spec file declares one check in a section-based text format:

    [check]         kind = unary | unary_n | relational | ct_relational |
                           ct_unary | equiv | promote; budget = <int>;
                    for promote: x0 = <expr>, xw = <expr>, n = <expr>
    [program0]      file = <path.masm>; base = <address>   ([program1] too)
    [params]        scalar domains `name in lo..hi` and byte-cell domains
                    `mem[lo .. hi) in lo..hi` (addresses are constants)
    [pre] [post]    one constraint per line, implicitly conjoined; for
                    two-program kinds the suffixed forms [pre0]/[pre1]/
                    [post0]/[post1] address one side
    [frame]         `maychange = pc, x3, events, mem[16 .. 20)` (suffixed
                    forms [frame0]/[frame1] for two-program kinds)
    [steps]         `f0 = auto | <expr>`; `f1 = ...` for the second side
    [public]        label lists, one or more per line, comma separated
    [private]
    [witness]       trace template: `load <expr>, <size>`, `store ...`,
                    `branch <comparison>`, `repeat i < <expr>:` ... `end`
    [equiv_in]      `keep = <labels>` — agreement on the kept labels
    [equiv_out]

    Constraint atoms: `x3 = <expr>`, `pc = <expr>`, `mem1/mem4/mem8(<e>)
    = <expr>`, `flag n = 0|1`, `flag z = 0|1`, `aligned(program0, <e>)`,
    `terminated(<e>)`; comparisons =, !=, <, <=, >, >=; connectives and,
    or, not, parentheses. Expressions: integers (decimal or 0x hex),
    declared parameters, + - *, min/max, prefixlen(a, b, n) (length of
    the common byte prefix of two buffers), register and pc reads, mem
    reads, and the builtins base0/base1/len0/len1.

Precondition lines of the shape `label = <parameter-only expression>` are
applied as assignments to construct the enumerated states; every line is
then verified on the constructed state. Enumeration is the product of
all scalar and cell domains and is refused above a configurable cap —
an oversized domain is an error, never a silent sample.

`Problem` also builds each check kind's kernel inputs: `unary_parts` for
one-run checks and `pair_parts` for two-run checks. An undeclared frame
allows anything; an undeclared `f1` is `f0` for ct_relational (both runs
are of [program0]) and `auto` for the two-program kinds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from . import asm, kernel, machine


# ---------------------------------------------------------------------------
# errors

class SpecError(Exception):
    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class SpecSyntaxError(SpecError):
    pass


class UnknownSection(SpecError):
    pass


class UndeclaredParam(SpecError):
    pass


class DomainTooLarge(SpecError):
    pass


class SpecEvalError(SpecError):
    pass


DEFAULT_ENUM_CAP = 1 << 16

KINDS = ("unary", "unary_n", "relational", "ct_relational", "ct_unary",
         "equiv", "promote")

# kinds whose pairs run [program1] on the right; ct_relational pairs two
# runs of [program0]
TWO_PROGRAM_KINDS = ("relational", "equiv")

_SECTIONS = ("check", "program0", "program1", "params", "pre", "pre0",
             "pre1", "post", "post0", "post1", "frame", "frame0", "frame1",
             "steps", "public", "private", "witness", "equiv_in",
             "equiv_out")

_BUILTINS = ("base0", "base1", "len0", "len1")


# ---------------------------------------------------------------------------
# tokenizing and expression parsing

_TOKEN_RE = re.compile(r"""
    (?P<hex>0x[0-9a-fA-F]+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|\.\.|[-+*()=<>,\[\]#])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str, line: int) -> list:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}", line)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "hex":
            out.append(("int", int(m.group(), 16)))
        elif m.lastgroup == "int":
            out.append(("int", int(m.group())))
        elif m.lastgroup == "name":
            out.append(("name", m.group()))
        else:
            out.append(("op", m.group()))
    return out


class _Tokens:
    def __init__(self, toks: list, line: int):
        self.toks = toks
        self.i = 0
        self.line = line

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise SpecSyntaxError("unexpected end of line", self.line)
        self.i += 1
        return t

    def accept_op(self, *ops) -> Optional[str]:
        t = self.peek()
        if t is not None and t[0] == "op" and t[1] in ops:
            self.i += 1
            return t[1]
        return None

    def expect_op(self, op) -> None:
        if not self.accept_op(op):
            raise SpecSyntaxError(f"expected {op!r}", self.line)

    def accept_name(self, *names) -> Optional[str]:
        t = self.peek()
        if t is not None and t[0] == "name" and t[1] in names:
            self.i += 1
            return t[1]
        return None

    def done(self) -> bool:
        return self.i >= len(self.toks)


_REG_RE = re.compile(r"^x(\d{1,2})$")

_CALLS = {"min": 2, "max": 2, "prefixlen": 3, "mem1": 1, "mem4": 1,
          "mem8": 1}
_MEM_SIZES = {"mem1": 1, "mem4": 4, "mem8": 8}


def _parse_expr(ts: _Tokens):
    return _parse_add(ts)


def _parse_add(ts: _Tokens):
    node = _parse_mul(ts)
    while True:
        op = ts.accept_op("+", "-")
        if op is None:
            return node
        node = ("bin", op, node, _parse_mul(ts))


def _parse_mul(ts: _Tokens):
    node = _parse_unary(ts)
    while ts.accept_op("*"):
        node = ("bin", "*", node, _parse_unary(ts))
    return node


def _parse_unary(ts: _Tokens):
    if ts.accept_op("-"):
        return ("bin", "-", ("int", 0), _parse_unary(ts))
    return _parse_atom(ts)


def _parse_atom(ts: _Tokens):
    ts.accept_op("#")  # immediates may carry the assembler's marker
    t = ts.next()
    if t[0] == "int":
        return ("int", t[1])
    if t[0] == "op" and t[1] == "(":
        node = _parse_expr(ts)
        ts.expect_op(")")
        return node
    if t[0] != "name":
        raise SpecSyntaxError(f"unexpected token {t[1]!r}", ts.line)
    name = t[1]
    m = _REG_RE.match(name)
    if m and int(m.group(1)) < 16:
        return ("reg", int(m.group(1)))
    if name == "pc":
        return ("pc",)
    if name in _CALLS:
        ts.expect_op("(")
        args = [_parse_expr(ts)]
        while ts.accept_op(","):
            args.append(_parse_expr(ts))
        ts.expect_op(")")
        if len(args) != _CALLS[name]:
            raise SpecSyntaxError(
                f"{name} takes {_CALLS[name]} argument(s)", ts.line)
        if name in _MEM_SIZES:
            return ("memread", _MEM_SIZES[name], args[0])
        return ("call", name, tuple(args))
    if name in _BUILTINS:
        return ("builtin", name)
    return ("param", name)


_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _parse_constraint(ts: _Tokens):
    return _parse_or(ts)


def _parse_or(ts: _Tokens):
    node = _parse_and(ts)
    while ts.accept_name("or"):
        node = ("or", node, _parse_and(ts))
    return node


def _parse_and(ts: _Tokens):
    node = _parse_not(ts)
    while ts.accept_name("and"):
        node = ("and", node, _parse_not(ts))
    return node


def _parse_not(ts: _Tokens):
    if ts.accept_name("not"):
        return ("not", _parse_not(ts))
    return _parse_prim(ts)


def _parse_prim(ts: _Tokens):
    t = ts.peek()
    if t == ("name", "aligned"):
        ts.next()
        ts.expect_op("(")
        prog = ts.next()
        if prog[0] != "name" or prog[1] not in ("program0", "program1"):
            raise SpecSyntaxError("aligned() needs program0 or program1",
                                  ts.line)
        ts.expect_op(",")
        addr = _parse_expr(ts)
        ts.expect_op(")")
        return ("aligned", 0 if prog[1] == "program0" else 1, addr)
    if t == ("name", "terminated"):
        ts.next()
        ts.expect_op("(")
        addr = _parse_expr(ts)
        ts.expect_op(")")
        return ("terminated", addr)
    if t == ("name", "flag"):
        ts.next()
        which = ts.next()
        if which[0] != "name" or which[1] not in ("n", "z"):
            raise SpecSyntaxError("flag n or flag z", ts.line)
        ts.expect_op("=")
        bit = _parse_expr(ts)
        return ("flag", which[1], bit)
    if t is not None and t[0] == "op" and t[1] == "(":
        # look ahead: a parenthesized constraint or expression
        save = ts.i
        ts.next()
        try:
            node = _parse_constraint(ts)
        except SpecSyntaxError:
            ts.i = save
        else:
            if ts.accept_op(")") and (ts.done() or not _expr_follows(ts)):
                return node
            ts.i = save
    left = _parse_expr(ts)
    op = None
    for candidate in _CMP_OPS:
        if ts.accept_op(candidate):
            op = candidate
            break
    if op is None:
        raise SpecSyntaxError("expected a comparison", ts.line)
    right = _parse_expr(ts)
    return ("cmp", op, left, right)


def _expr_follows(ts: _Tokens) -> bool:
    t = ts.peek()
    if t is None:
        return False
    if t[0] == "op" and t[1] in ("+", "-", "*") + _CMP_OPS:
        return True
    return False


# ---------------------------------------------------------------------------
# labels

_LABEL_NAMES = {"pc": machine.PC, "events": machine.EVENTS,
                "flag_n": machine.FLAG_N, "flag_z": machine.FLAG_Z}


def _parse_label_items(ts: _Tokens):
    """Comma-separated label tokens; mem ranges become ("memrange", lo,
    hi) with expression bounds resolved later."""
    items = []
    while not ts.done():
        t = ts.next()
        if t[0] == "name" and t[1] in _LABEL_NAMES:
            items.append(("label", _LABEL_NAMES[t[1]]))
        elif t[0] == "name" and _REG_RE.match(t[1]) \
                and int(t[1][1:]) < 16:
            items.append(("label", machine.reg_label(int(t[1][1:]))))
        elif t[0] == "name" and t[1] == "mem":
            ts.expect_op("[")
            lo = _parse_expr(ts)
            ts.expect_op("..")
            hi = _parse_expr(ts)
            ts.expect_op(")")
            items.append(("memrange", lo, hi))
        else:
            raise SpecSyntaxError(f"unknown label {t[1]!r}", ts.line)
        if not ts.done():
            ts.expect_op(",")
    return items


# ---------------------------------------------------------------------------
# parsed spec

@dataclass(frozen=True)
class ProgramRef:
    path: str
    base: int


@dataclass(frozen=True)
class ScalarParam:
    name: str
    lo: int
    hi: int
    line: int


@dataclass(frozen=True)
class CellRange:
    lo_addr: Any  # expr ast, parameter-free
    hi_addr: Any
    lo: int
    hi: int
    line: int


@dataclass(frozen=True)
class Constraint:
    ast: Any
    line: int
    text: str


@dataclass
class CheckSpec:
    kind: str
    budget: int = 4096
    programs: dict = field(default_factory=dict)  # side -> ProgramRef
    scalars: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    pre: dict = field(default_factory=dict)    # side|None -> [Constraint]
    post: dict = field(default_factory=dict)
    frames: dict = field(default_factory=dict)  # side|None -> label items
    steps: dict = field(default_factory=dict)   # "f0"/"f1" -> "auto"|ast
    public: list = field(default_factory=list)
    private: list = field(default_factory=list)
    witness: tuple = ()
    equiv_in: list = field(default_factory=list)
    equiv_out: list = field(default_factory=list)
    equiv_in_pred: Optional[str] = None
    equiv_out_pred: Optional[str] = None
    promote: dict = field(default_factory=dict)  # "x0"/"xw"/"n" -> ast


_PARAM_LINE_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s+in\s+(.+)$")
_MEM_PARAM_RE = re.compile(r"^\s*mem\s*\[(.+)\)\s+in\s+(.+)$")
_KEY_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+?)\s*$")


def parse_spec(text: str) -> CheckSpec:
    spec = CheckSpec(kind="")
    section = None
    witness_stack: list = [[]]
    pending_repeat: list = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split(";")[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise SpecSyntaxError("unterminated section header", lineno)
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise UnknownSection(f"unknown section [{name}]", lineno)
            if pending_repeat:
                raise SpecSyntaxError("repeat block not closed", lineno)
            section = name
            continue
        if section is None:
            raise SpecSyntaxError("content before any section", lineno)
        _parse_section_line(spec, section, stripped, lineno,
                            witness_stack, pending_repeat)
    if pending_repeat:
        raise SpecSyntaxError("repeat block not closed", len(lines))
    spec.witness = tuple(witness_stack[0])
    _validate(spec)
    return spec


def _parse_section_line(spec, section, line, lineno, wstack, pending):
    if section == "check":
        m = _KEY_RE.match(line)
        if m is None:
            raise SpecSyntaxError("expected key = value", lineno)
        key, value = m.group(1), m.group(2)
        if key == "kind":
            if value not in KINDS:
                raise SpecSyntaxError(f"unknown kind {value!r}", lineno)
            spec.kind = value
        elif key == "budget":
            spec.budget = int(value, 0)
        elif key in ("x0", "xw", "n"):
            spec.promote[key] = _expr_of(value, lineno)
        else:
            raise SpecSyntaxError(f"unknown check key {key!r}", lineno)
    elif section in ("program0", "program1"):
        side = 0 if section == "program0" else 1
        m = _KEY_RE.match(line)
        if m is None:
            raise SpecSyntaxError("expected key = value", lineno)
        key, value = m.group(1), m.group(2)
        ref = spec.programs.get(side, ProgramRef("", 0))
        if key == "file":
            spec.programs[side] = ProgramRef(value, ref.base)
        elif key == "base":
            spec.programs[side] = ProgramRef(ref.path, int(value, 0))
        else:
            raise SpecSyntaxError(f"unknown program key {key!r}", lineno)
    elif section == "params":
        m = _MEM_PARAM_RE.match(line)
        if m:
            bounds = m.group(1)
            if ".." not in bounds:
                raise SpecSyntaxError("mem range needs lo .. hi", lineno)
            lo_s, hi_s = bounds.split("..", 1)
            lo, hi = _domain_of(m.group(2), lineno)
            spec.cells.append(CellRange(_expr_of(lo_s, lineno),
                                        _expr_of(hi_s, lineno),
                                        lo, hi, lineno))
            return
        m = _PARAM_LINE_RE.match(line)
        if m is None:
            raise SpecSyntaxError("expected `name in lo..hi`", lineno)
        lo, hi = _domain_of(m.group(2), lineno)
        spec.scalars.append(ScalarParam(m.group(1), lo, hi, lineno))
    elif section in ("pre", "pre0", "pre1", "post", "post0", "post1"):
        side = None if section in ("pre", "post") else int(section[-1])
        store = spec.pre if section.startswith("pre") else spec.post
        ts = _Tokens(_tokenize(line, lineno), lineno)
        ast = _parse_constraint(ts)
        if not ts.done():
            raise SpecSyntaxError("trailing tokens after constraint", lineno)
        store.setdefault(side, []).append(Constraint(ast, lineno, line))
    elif section in ("frame", "frame0", "frame1"):
        side = None if section == "frame" else int(section[-1])
        m = _KEY_RE.match(line)
        if m is None or m.group(1) != "maychange":
            raise SpecSyntaxError("expected maychange = <labels>", lineno)
        ts = _Tokens(_tokenize(m.group(2), lineno), lineno)
        spec.frames.setdefault(side, []).extend(_parse_label_items(ts))
    elif section == "steps":
        m = _KEY_RE.match(line)
        if m is None or m.group(1) not in ("f0", "f1"):
            raise SpecSyntaxError("expected f0 = ... or f1 = ...", lineno)
        value = m.group(2).strip()
        spec.steps[m.group(1)] = "auto" if value == "auto" \
            else _expr_of(value, lineno)
    elif section in ("public", "private"):
        ts = _Tokens(_tokenize(line, lineno), lineno)
        items = _parse_label_items(ts)
        (spec.public if section == "public" else spec.private).extend(items)
    elif section in ("equiv_in", "equiv_out"):
        m = _KEY_RE.match(line)
        if m is None or m.group(1) not in ("keep", "predicate"):
            raise SpecSyntaxError(
                "expected keep = <labels> or predicate = <name>", lineno)
        if m.group(1) == "predicate":
            name = m.group(2).strip()
            if section == "equiv_in":
                spec.equiv_in_pred = name
            else:
                spec.equiv_out_pred = name
            return
        ts = _Tokens(_tokenize(m.group(2), lineno), lineno)
        target = spec.equiv_in if section == "equiv_in" else spec.equiv_out
        target.extend(_parse_label_items(ts))
    elif section == "witness":
        _parse_witness_line(line, lineno, wstack, pending)
    else:  # pragma: no cover - section list is closed
        raise UnknownSection(f"unhandled section {section}", lineno)


def _expr_of(text: str, lineno: int):
    ts = _Tokens(_tokenize(text, lineno), lineno)
    ast = _parse_expr(ts)
    if not ts.done():
        raise SpecSyntaxError("trailing tokens after expression", lineno)
    return ast


def _domain_of(text: str, lineno: int) -> tuple:
    if ".." not in text:
        raise SpecSyntaxError("domain needs lo..hi", lineno)
    lo_s, hi_s = text.split("..", 1)
    try:
        lo, hi = int(lo_s.strip(), 0), int(hi_s.strip(), 0)
    except ValueError:
        raise SpecSyntaxError("domain bounds must be integers", lineno)
    if hi < lo:
        raise SpecSyntaxError("empty domain", lineno)
    return lo, hi


def _parse_witness_line(line, lineno, wstack, pending):
    stripped = line.strip()
    if stripped == "end":
        if not pending:
            raise SpecSyntaxError("end without repeat", lineno)
        var, bound, lno = pending.pop()
        body = tuple(wstack.pop())
        wstack[-1].append(("repeat", var, bound, body, lno))
        return
    m = re.match(r"^repeat\s+([A-Za-z_][A-Za-z_0-9]*)\s*<\s*(.+?)\s*:$",
                 stripped)
    if m:
        pending.append((m.group(1), _expr_of(m.group(2), lineno), lineno))
        wstack.append([])
        return
    m = re.match(r"^(load|store)\s+(.+?)\s*,\s*(\d+)$", stripped)
    if m:
        size = int(m.group(3))
        if size not in (1, 4, 8):
            raise SpecSyntaxError("access size must be 1, 4 or 8", lineno)
        wstack[-1].append((m.group(1), _expr_of(m.group(2), lineno), size,
                           lineno))
        return
    m = re.match(r"^branch\s+(.+)$", stripped)
    if m:
        ts = _Tokens(_tokenize(m.group(1), lineno), lineno)
        cond = _parse_constraint(ts)
        if not ts.done():
            raise SpecSyntaxError("trailing tokens after branch", lineno)
        wstack[-1].append(("branch", cond, lineno))
        return
    raise SpecSyntaxError("expected load/store/branch/repeat/end", lineno)


# ---------------------------------------------------------------------------
# validation

def _walk_exprs(node):
    yield node
    kind = node[0]
    if kind == "bin":
        yield from _walk_exprs(node[2])
        yield from _walk_exprs(node[3])
    elif kind == "memread":
        yield from _walk_exprs(node[2])
    elif kind == "call":
        for a in node[2]:
            yield from _walk_exprs(a)
    elif kind in ("and", "or"):
        yield from _walk_exprs(node[1])
        yield from _walk_exprs(node[2])
    elif kind == "not":
        yield from _walk_exprs(node[1])
    elif kind == "cmp":
        yield from _walk_exprs(node[2])
        yield from _walk_exprs(node[3])
    elif kind in ("aligned", "terminated"):
        yield from _walk_exprs(node[-1])
    elif kind == "flag":
        yield from _walk_exprs(node[2])


def _validate(spec: CheckSpec) -> None:
    if not spec.kind:
        raise SpecSyntaxError("missing [check] kind", 0)
    if spec.kind == "promote":
        for key in ("x0", "xw", "n"):
            if key not in spec.promote:
                raise SpecError(
                    f"promote checks need {key} in the [check] section")
    declared = {p.name for p in spec.scalars}
    dupes = len(spec.scalars) != len(declared)
    if dupes:
        raise SpecSyntaxError("duplicate parameter declaration", 0)

    def check_names(ast, line, extra=frozenset()):
        for node in _walk_exprs(ast):
            if node[0] == "param" and node[1] not in declared | extra:
                raise UndeclaredParam(
                    f"parameter {node[1]!r} is not declared", line)

    for store in (spec.pre, spec.post):
        for constraints in store.values():
            for c in constraints:
                check_names(c.ast, c.line)
    for key, value in spec.steps.items():
        if value != "auto":
            check_names(value, 0)
    for key, value in spec.promote.items():
        check_names(value, 0)
    for cell in spec.cells:
        for ast in (cell.lo_addr, cell.hi_addr):
            check_names(ast, cell.line)
            for node in _walk_exprs(ast):
                if node[0] in ("param", "reg", "pc", "memread"):
                    raise SpecSyntaxError(
                        "cell addresses must be constants", cell.line)

    def check_witness(items, bound_vars):
        for item in items:
            if item[0] == "repeat":
                check_names(item[2], item[4], bound_vars)
                check_witness(item[3], bound_vars | {item[1]})
            elif item[0] == "branch":
                check_names(item[1], item[2], bound_vars)
            else:
                check_names(item[1], item[3], bound_vars)

    check_witness(spec.witness, frozenset())

    for items in list(spec.frames.values()) + [spec.public, spec.private,
                                               spec.equiv_in, spec.equiv_out]:
        for item in items:
            if item[0] == "memrange":
                for ast in (item[1], item[2]):
                    for node in _walk_exprs(ast):
                        if node[0] in ("param", "reg", "pc", "memread"):
                            raise SpecSyntaxError(
                                "label ranges must be constants", 0)


# ---------------------------------------------------------------------------
# evaluation

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


def constraint_labels(ast, env: _Env, programs=None) -> Optional[frozenset]:
    """The machine labels a constraint reads, resolved against a concrete
    parameter valuation; None when an address depends on machine state."""
    out: set = set()
    ok = _collect_labels(ast, env, programs, out)
    return frozenset(out) if ok else None


def _collect_labels(ast, env, programs, out) -> bool:
    kind = ast[0]
    if kind in ("and", "or"):
        return (_collect_labels(ast[1], env, programs, out)
                and _collect_labels(ast[2], env, programs, out))
    if kind == "not":
        return _collect_labels(ast[1], env, programs, out)
    if kind == "cmp":
        return (_expr_labels(ast[2], env, out)
                and _expr_labels(ast[3], env, out))
    if kind == "flag":
        out.add(machine.FLAG_N if ast[1] == "n" else machine.FLAG_Z)
        return _expr_labels(ast[2], env, out)
    if kind == "terminated":
        try:
            addr = eval_expr(ast[1], _Env(env.values))
        except SpecEvalError:
            return False
        out.add(machine.PC)
        out.update(machine.mem_range(addr, addr + 4))
        return True
    if kind == "aligned":
        if programs is None or programs[ast[1]] is None:
            return False
        try:
            base = eval_expr(ast[2], _Env(env.values))
        except SpecEvalError:
            return False
        out.add(machine.PC)
        out.update(machine.mem_range(base,
                                     base + programs[ast[1]].byte_len))
        return True
    return False


def _expr_labels(ast, env, out) -> bool:
    kind = ast[0]
    if kind in ("int", "param", "builtin"):
        return True
    if kind == "bin":
        return (_expr_labels(ast[2], env, out)
                and _expr_labels(ast[3], env, out))
    if kind == "reg":
        out.add(machine.reg_label(ast[1]))
        return True
    if kind == "pc":
        out.add(machine.PC)
        return True
    if kind == "memread":
        try:
            addr = eval_expr(ast[2], _Env(env.values))
        except SpecEvalError:
            return False
        out.update(machine.mem_range(addr, addr + ast[1]))
        return True
    if kind == "call":
        if ast[1] in ("min", "max"):
            return all(_expr_labels(a, env, out) for a in ast[2])
        try:
            a, b, n = (eval_expr(x, _Env(env.values)) for x in ast[2])
        except SpecEvalError:
            return False
        out.update(machine.mem_range(a, a + n))
        out.update(machine.mem_range(b, b + n))
        return True
    return False


# ---------------------------------------------------------------------------
# building checkable instances

@dataclass(frozen=True)
class Instance:
    index: int
    env: dict           # scalar parameters + builtins
    cells: tuple        # ((addr, value), ...)
    state0: Any
    state1: Any = None


@dataclass
class Problem:
    """A parsed spec bound to its assembled programs and enumerated
    instances, ready to hand to the checkers."""

    spec: CheckSpec
    programs: tuple  # (Program|None, Program|None)
    bases: tuple
    instances: list
    builtins: dict

    def count(self) -> int:
        return len(self.instances)

    def resolve_labels(self, items) -> frozenset:
        env = _Env(dict(self.builtins))
        out: set = set()
        for item in items:
            if item[0] == "label":
                out.add(item[1])
            else:
                lo = eval_expr(item[1], env)
                hi = eval_expr(item[2], env)
                out.update(machine.mem_range(lo, hi))
        return frozenset(out)

    @property
    def right(self) -> int:
        """The side a pair's right run starts from: 1 for two-program
        kinds, 0 when both runs start from [program0]."""
        return 1 if self.spec.kind in TWO_PROGRAM_KINDS else 0

    def states(self, side) -> tuple:
        return tuple(i.state1 if side else i.state0 for i in self.instances)

    def frame(self, side) -> kernel.FrameFn:
        items = self.spec.frames.get(side)
        if items is None and side is not None:
            items = self.spec.frames.get(None)
        if items is None:
            return kernel.ANYTHING
        return machine.maychange(self.resolve_labels(items))

    def unary_parts(self, post_of: Optional[Callable] = None,
                    description: str = "declared postcondition") -> tuple:
        """(Enumeration, per-state postcondition, frame) of a one-run
        check over the side-0 states. post_of maps an instance to its
        postcondition, the declared one by default."""
        post_of = post_of or (lambda inst: self.post_property(0, inst))
        enum = kernel.Enumeration(self.states(0),
                                  description="spec instances")
        post = kernel.per_state(
            {i.state0: post_of(i) for i in self.instances}, description)
        return enum, post, self.frame(0)

    def pair_parts(self, pre2: kernel.PairProperty, description: str,
                   post_description: str, pairs: Optional[tuple] = None,
                   rel: Callable = lambda a, b: True,
                   describe: Optional[Callable] = None) -> tuple:
        """(PairEnumeration, per-pair postcondition, product frame, left
        steps, right steps) of a two-run check. A pair's postcondition
        is rel and then each side's declared postcondition, named by
        describe(d0, d1) of the two sides' descriptions (called once per
        distinct pair of them) or else post_description. With no pairs
        given, each instance's own two start states form a pair, checked
        against that instance's postconditions; given pairs take each
        side's postcondition from the instance of its start state."""
        right = self.right
        if pairs is None:
            pairs = tuple(zip(self.states(0), self.states(right)))
            table = {(a, b): (self.post_property(0, i),
                              self.post_property(right, i))
                     for i, (a, b) in zip(self.instances, pairs)}
            posts = table.__getitem__
        else:
            post0 = {i.state0: self.post_property(0, i)
                     for i in self.instances}
            post1 = post0 if not right else {
                i.state1: self.post_property(1, i) for i in self.instances}
            posts = lambda p: (post0[p[0]], post1[p[1]])
        describe = describe or (lambda d0, d1: post_description)
        enum = kernel.PairEnumeration(pairs, pre2, self.states(0),
                                      self.states(right), description)
        texts: dict = {}  # (d0, d1) -> describe(d0, d1), shared by pairs

        def pair_post(p):
            qa, qb = posts(p)
            key = (qa.description, qb.description)
            if key not in texts:
                texts[key] = describe(*key)
            return kernel.PairProperty(
                lambda x, y: rel(x, y) and qa.holds(x) and qb.holds(y),
                texts[key])

        post2 = kernel.per_state({p: pair_post(p) for p in pairs},
                                 post_description)
        frame2 = kernel.product_frame(self.frame(0), self.frame(right))
        steps0 = self.steps("f0", 0)
        # a CT check with no f1 runs both sides by f0
        steps1 = (self.steps("f1", right)
                  if right or "f1" in self.spec.steps else steps0)
        return enum, post2, frame2, steps0, steps1

    def post_property(self, side, inst: Instance) -> kernel.PropertyFn:
        constraints = self._conditions(self.spec.post, side)
        env = _Env(dict(inst.env))
        labels: Optional[set] = set()
        for c in constraints:
            got = constraint_labels(c.ast, env, self.programs)
            if got is None:
                labels = None
                break
            labels.update(got)

        def holds(s, constraints=constraints, values=dict(inst.env)) -> bool:
            e = _Env(values, s)
            return all(eval_constraint(c.ast, e, self.programs)
                       for c in constraints)

        text = " and ".join(c.text for c in constraints) or "true"
        return kernel.PropertyFn(
            holds, text, None if labels is None else frozenset(labels))

    def steps(self, key: str, side) -> kernel.StepFn:
        value = self.spec.steps.get(key, "auto")
        if value == "auto":
            return kernel.StepFn.auto(self.spec.budget)
        table = {}
        for inst in self.instances:
            state = inst.state0 if side == 0 else inst.state1
            table[state] = eval_expr(value, _Env(dict(inst.env)))
        return kernel.StepFn.table(table, f"{key} expression")

    def _conditions(self, store, side):
        got = store.get(side)
        if got is None and side is not None:
            got = store.get(None)
        return got or []


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
            instances.append(Instance(len(instances), env, cells, s0, s1))
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


def pre_property(problem: Problem, side, inst: Instance) -> kernel.PropertyFn:
    constraints = problem._conditions(problem.spec.pre, side)
    values = dict(inst.env)

    def holds(s) -> bool:
        return all(eval_constraint(c.ast, _Env(values, s), problem.programs)
                   for c in constraints)

    text = " and ".join(c.text for c in constraints) or "true"
    return kernel.PropertyFn(holds, text)
