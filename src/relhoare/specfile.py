"""Check description files: parsing and instance construction.

A .spec file declares one check in a section-based text format:

    [check]         kind = unary | unary_n | relational | ct_relational |
                           ct_unary | equiv | promote; budget = <int>;
                    for promote: x0 = <expr>, xw = <expr>, n = <expr>
    [program0]      file = <path.masm>; base = <address>   ([program1] too)
    [params]        scalar domains `name in lo..hi` and byte-cell domains
                    `mem[lo .. hi) in lo..hi` (addresses are constants,
                    values within 0..255)
    [pre] [post]    one constraint per line, implicitly conjoined; for
                    two-program kinds the suffixed forms [pre0]/[pre1]/
                    [post0]/[post1] address one side
    [frame]         `maychange = pc, x3, events, mem[16 .. 20)` (suffixed
                    forms [frame0]/[frame1] for two-program kinds)
    [steps]         `f0 = auto | <expr>`; `f1 = ...` for the second side
    [private]       the secret labels of a constant-time check, one or more
                    per line, comma separated; every other label, pc and
                    events included, is public
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
all scalar and cell domains and is refused above a configurable cap,
which also bounds the number of cells — an oversized domain is an
error, never a silent sample.

`Problem` also builds each check kind's kernel inputs: `unary_parts` for
one-run checks and `pair_parts` for two-run checks. An undeclared frame
allows anything; an undeclared `f1` is `f0` for ct_relational (both runs
are of [program0]) and `auto` for the two-program kinds. Instances that
build one start state share its run, and their postconditions must all
hold on it; exact step counts that differ between them are an error.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

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
             "steps", "private", "witness", "equiv_in", "equiv_out")

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
    m = machine._REG_RE.fullmatch(name)
    if m:
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
        elif t[0] == "name" and machine._REG_RE.fullmatch(t[1]):
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
    private: list = field(default_factory=list)
    witness: tuple = ()
    equiv_in: list = field(default_factory=list)
    equiv_out: list = field(default_factory=list)
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
            if name == "public":
                raise UnknownSection(
                    "there is no [public] section: every label not listed "
                    "under [private] is public, so list the secret labels "
                    "under [private]", lineno)
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
            spec.budget = _int_of(value, lineno)
            if spec.budget < 0:
                raise SpecSyntaxError(f"budget {value} is negative", lineno)
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
            base = _int_of(value, lineno)
            if not 0 <= base <= machine.MASK64:
                raise SpecSyntaxError(
                    f"base {value} is not an address in "
                    f"0..{machine.MASK64:#x}", lineno)
            spec.programs[side] = ProgramRef(ref.path, base)
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
            if lo < 0 or hi > 0xFF:
                raise SpecSyntaxError(
                    f"cell domain {lo}..{hi} is not within the byte values "
                    "0..255", lineno)
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
    elif section == "private":
        ts = _Tokens(_tokenize(line, lineno), lineno)
        spec.private.extend(_parse_label_items(ts))
    elif section in ("equiv_in", "equiv_out"):
        m = _KEY_RE.match(line)
        if m is None or m.group(1) != "keep":
            raise SpecSyntaxError("expected keep = <labels>", lineno)
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


def _int_of(text: str, lineno: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise SpecSyntaxError(f"expected an integer, got {text!r}",
                              lineno) from None


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

    for items in list(spec.frames.values()) + [spec.private, spec.equiv_in,
                                               spec.equiv_out]:
        for item in items:
            if item[0] == "memrange":
                for ast in (item[1], item[2]):
                    for node in _walk_exprs(ast):
                        if node[0] in ("param", "reg", "pc", "memread"):
                            raise SpecSyntaxError(
                                "label ranges must be constants", 0)


# ---------------------------------------------------------------------------
# evaluation
#
# Each expression or constraint AST is compiled once into a closure over
# (values, state): values maps parameter and builtin names to integers,
# and state is the machine state that register, pc and memory reads see,
# or None where there is none. A closure raises SpecEvalError when its
# evaluation fails: on an unbound name, on a state read without a state,
# and when aligned() names a program the check does not have.

def _need_state(state) -> None:
    if state is None:
        raise SpecEvalError("expression reads machine state")


def compile_expr(ast) -> Callable[[dict, Any], int]:
    kind = ast[0]
    if kind == "int":
        value = ast[1]
        return lambda values, state: value
    if kind == "param" or kind == "builtin":
        name = ast[1]

        def read(values, state):
            try:
                return values[name]
            except KeyError:
                raise SpecEvalError(f"unbound name {name!r}")
        return read
    if kind == "bin":
        a, b = compile_expr(ast[2]), compile_expr(ast[3])
        if ast[1] == "+":
            return lambda values, state: a(values, state) + b(values, state)
        if ast[1] == "-":
            return lambda values, state: a(values, state) - b(values, state)
        return lambda values, state: a(values, state) * b(values, state)
    if kind == "reg":
        i = ast[1]

        def reg(values, state):
            _need_state(state)
            return state.regs[i]
        return reg
    if kind == "pc":
        def pc(values, state):
            _need_state(state)
            return state.pc
        return pc
    if kind == "memread":
        size, addr = ast[1], compile_expr(ast[2])

        def memread(values, state):
            _need_state(state)
            return state.mem.read(addr(values, state) & machine.MASK64, size)
        return memread
    if kind == "call":
        fns = [compile_expr(a) for a in ast[2]]
        if ast[1] in ("min", "max"):
            pick = min if ast[1] == "min" else max
            return lambda values, state: pick([f(values, state) for f in fns])

        def prefixlen(values, state):
            args = [f(values, state) for f in fns]
            _need_state(state)
            a, b, n = args
            get = state.mem.get
            k = 0
            while k < n and get((a + k) & machine.MASK64) \
                    == get((b + k) & machine.MASK64):
                k += 1
            return k
        return prefixlen

    def fail(values, state):
        raise SpecEvalError(f"cannot evaluate {kind} node")
    return fail


_CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compile_constraint(ast, programs=None) -> Callable[[dict, Any], bool]:
    """programs is the check's (program0, program1) pair, read by
    aligned(); either may be None."""
    kind = ast[0]
    if kind in ("and", "or"):
        p = compile_constraint(ast[1], programs)
        q = compile_constraint(ast[2], programs)
        if kind == "and":
            return lambda values, state: p(values, state) and q(values, state)
        return lambda values, state: p(values, state) or q(values, state)
    if kind == "not":
        p = compile_constraint(ast[1], programs)
        return lambda values, state: not p(values, state)
    if kind == "cmp":
        op, a, b = _CMP[ast[1]], compile_expr(ast[2]), compile_expr(ast[3])
        return lambda values, state: op(a(values, state), b(values, state))
    if kind == "flag":
        attr = "flag_n" if ast[1] == "n" else "flag_z"
        bit = compile_expr(ast[2])

        def flag(values, state):
            _need_state(state)
            expected = bit(values, state)
            return getattr(state, attr) == expected
        return flag
    if kind == "terminated":
        addr = compile_expr(ast[1])

        def terminated(values, state):
            _need_state(state)
            return machine.is_terminated_at(
                state, addr(values, state) & machine.MASK64)
        return terminated
    if kind == "aligned":
        base = compile_expr(ast[2])
        program = None if programs is None else programs[ast[1]]

        def aligned(values, state):
            _need_state(state)
            if program is None:
                raise SpecEvalError("aligned() references a missing program")
            return machine.is_aligned_at(state, base(values, state),
                                         program.data)
        return aligned

    def fail(values, state):
        raise SpecEvalError(f"cannot evaluate {kind} constraint")
    return fail


def _compile_all(constraints, programs=None) -> Callable:
    """One closure that holds when every Constraint holds, evaluated in
    order up to the first that fails."""
    fns = [compile_constraint(c.ast, programs) for c in constraints]
    if not fns:
        return lambda values, state: True
    holds = fns[0]
    for q in fns[1:]:
        holds = (lambda p, q: lambda values, state:
                 p(values, state) and q(values, state))(holds, q)
    return holds


def _guard(ast, names) -> Optional[Callable[[dict], frozenset]]:
    """The pcs at which a constraint can hold, as a function of an
    instance's values, or None where it may hold at any pc. names are
    the names every instance binds. terminated(e) holds only at pc e when
    e reads nothing else; `and` holds only where each guarded side
    does, and `or` only where one of two guarded sides does."""
    kind = ast[0]
    if kind == "terminated" and _stateless(ast[1], names):
        addr = compile_expr(ast[1])
        return lambda values: frozenset(
            (addr(values, None) & machine.MASK64,))
    if kind in ("and", "or"):
        p, q = _guard(ast[1], names), _guard(ast[2], names)
        if p is None or q is None:
            return (p or q) if kind == "and" else None
        if kind == "and":
            return lambda values: p(values) & q(values)
        return lambda values: p(values) | q(values)
    return None


def eval_constraint(ast, values: dict, state=None, programs=None) -> bool:
    """Evaluate a constraint once. Code that evaluates one AST for many
    instances or states compiles it once with compile_constraint."""
    return compile_constraint(ast, programs)(values, state)


# ---------------------------------------------------------------------------
# building checkable instances

@dataclass(frozen=True, slots=True)
class Instance:
    index: int
    env: dict           # scalar parameters + builtins
    cells: tuple        # ((addr, value), ...)
    state0: Any
    state1: Any = None


@dataclass
class Problem:
    """A parsed spec bound to its assembled programs and enumerated
    instances, ready to hand to the checkers. Each side's [pre] and
    [post] lines are compiled once, on first use, and shared by every
    instance."""

    spec: CheckSpec
    programs: tuple  # (Program|None, Program|None)
    bases: tuple
    instances: list
    builtins: dict
    _compiled: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _guards: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    _groups: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    _last: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def count(self) -> int:
        return len(self.instances)

    def resolve_labels(self, items) -> frozenset:
        out: set = set()
        for item in items:
            if item[0] == "label":
                out.add(item[1])
            else:
                lo = compile_expr(item[1])(self.builtins, None)
                hi = compile_expr(item[2])(self.builtins, None)
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
        items = self._conditions(self.spec.frames, side)
        return (machine.maychange(self.resolve_labels(items)) if items
                else kernel.ANYTHING)

    def unary_parts(self, post_of: Optional[Callable] = None,
                    description: str = "declared postcondition") -> tuple:
        """(Enumeration, per-state postcondition, frame) of a one-run
        check over the side-0 states. post_of maps an instance to its
        postcondition, the declared one by default."""
        enum = kernel.Enumeration(self.states(0),
                                  description="spec instances")
        return enum, self._posts(0, description, post_of), self.frame(0)

    def pair_parts(self, pre2: kernel.PairProperty, description: str,
                   post_description: str, pairs: Optional[tuple] = None,
                   rel: Callable = lambda a, b: True,
                   describe: Optional[Callable] = None) -> tuple:
        """(PairEnumeration, factored pair postcondition, product frame,
        left steps, right steps) of a two-run check. A KeyJoin pre2 joins
        every left start state with each right one of equal key, as pair
        blocks; otherwise the pairs are the given ones, or else each
        instance's own two start states. A pair's postcondition is rel and
        each side's postcondition at its start state, named describe(d0,
        d1) of their descriptions or else post_description."""
        right = self.right
        lefts, rights = self.states(0), self.states(right)
        if isinstance(pre2, kernel.KeyJoin):
            enum = kernel.PairEnumeration.join(pre2, lefts, rights,
                                               description)
        else:
            enum = kernel.PairEnumeration(
                tuple(zip(lefts, rights)) if pairs is None else pairs,
                pre2, lefts, rights, description)
        post0 = self._posts(0, "left postconditions")
        post1 = self._posts(1, "right postconditions") if right else post0
        post2 = kernel.factored_post(rel, post0, post1, post_description,
                                     describe)
        frame2 = kernel.product_frame(self.frame(0), self.frame(right))
        steps0 = self.steps("f0", 0)
        # a CT check with no f1 runs both sides by f0
        steps1 = (self.steps("f1", right)
                  if right or "f1" in self.spec.steps else steps0)
        return enum, post2, frame2, steps0, steps1

    def _starts(self, side) -> dict:
        """The instances by the start state they build on a side, in
        order: several do when a parameter is only in [post] or [steps].
        Built once per side."""
        groups = self._groups.get(side)
        if groups is None:
            groups = self._groups[side] = {}
            for s, inst in zip(self.states(side), self.instances):
                groups.setdefault(s, []).append(inst)
        return groups

    def layers(self) -> list:
        """The problem in parts, the k-th holding the k-th instance of
        each side-0 start state, so that no part repeats a start state:
        just the problem when none does."""
        starts = self._starts(0)
        if len(starts) == len(self.instances):
            return [self]
        return [replace(self, instances=[i for i in part if i]) for part in
                itertools.zip_longest(*starts.values())]

    def _posts(self, side, description: str,
               post_of: Optional[Callable] = None) -> kernel.PerState:
        """A side's postconditions by start state, post_of(instance) or the
        declared one, conjoined over the instances that build the state."""
        post_of = post_of or functools.partial(self.post_property, side)
        table = {}
        for s, insts in self._starts(side).items():
            qs = [post_of(i) for i in insts]
            table[s] = qs[0] if len(qs) == 1 else kernel.PropertyFn(
                lambda x, qs=qs: all(q.holds(x) for q in qs),
                " and ".join(dict.fromkeys(q.description for q in qs)),
                self._meet(q.pcs for q in qs))
        return kernel.per_state(table, description)

    def _meet(self, guards) -> Optional[frozenset]:
        """The intersection of the guards that are not None (None if
        none is), as one shared frozenset per distinct value."""
        guards = [g for g in guards if g is not None]
        if not guards:
            return None
        pcs = frozenset.intersection(*guards)
        return self._guards.setdefault(pcs, pcs)

    def post_property(self, side, inst: Instance) -> kernel.PropertyFn:
        return self._property("post", side, inst)

    def _property(self, section: str, side, inst: Instance):
        """A side's [pre] or [post] lines at one instance's values. The
        instances of one scalar valuation share one values dict and come
        one after another, so the last property built is kept and reused
        while the dict stays the same."""
        key = (section, side)
        last = self._last.get(key)
        if last is not None and last[0] is inst.env:
            return last[1]
        if key not in self._compiled:
            constraints = self._conditions(getattr(self.spec, section), side)
            names = set(self.builtins) | {p.name for p in self.spec.scalars}
            self._compiled[key] = (
                _compile_all(constraints, self.programs),
                " and ".join(c.text for c in constraints) or "true",
                _guard(functools.reduce(lambda a, b: ("and", a, b),
                                        [c.ast for c in constraints]), names)
                if constraints else None)
        holds, text, guard = self._compiled[key]
        prop = kernel.PropertyFn(
            functools.partial(holds, inst.env), text,
            None if guard is None else self._meet((guard(inst.env),)))
        self._last[key] = (inst.env, prop)
        return prop

    def steps(self, key: str, side) -> kernel.StepFn:
        value = self.spec.steps.get(key, "auto")
        if value == "auto":
            return kernel.StepFn.auto(self.spec.budget)
        count = compile_expr(value)
        table = {}
        for state, (first, *rest) in self._starts(side).items():
            table[state] = n = count(first.env, None)
            if n < 0:
                raise SpecError(f"{key} gives instance #{first.index} the "
                                f"negative step count {n}")
            for inst in rest:
                if count(inst.env, None) != n:
                    raise SpecError(
                        f"instances #{first.index} and #{inst.index} build "
                        f"one start state, but {key} gives them {n} and "
                        f"{count(inst.env, None)} steps")
        return kernel.StepFn.table(table, f"{key} expression")

    def _conditions(self, store, side):
        return store.get(side) or store.get(None) or []


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
        if ref.base + programs[side].byte_len > 1 << 64:
            raise SpecError(
                f"[program{side}] base {ref.base:#x} puts the "
                f"{programs[side].byte_len}-byte image of {ref.path} past "
                "the top of the address space")
    if programs[0] is None:
        raise SpecSyntaxError("spec names no [program0]")
    two_sided = spec.kind in TWO_PROGRAM_KINDS
    if two_sided and programs[1] is None:
        raise SpecSyntaxError(f"kind {spec.kind} needs [program1]")

    builtins = {"base0": bases[0], "len0": programs[0].byte_len}
    if programs[1] is not None:
        builtins.update(base1=bases[1], len1=programs[1].byte_len)

    # the cells are counted before any list of them is built, and the
    # product stops once past the cap: a wide range is refused at once,
    # with no huge number to format
    ranges = [(compile_expr(cell.lo_addr)(builtins, None),
               compile_expr(cell.hi_addr)(builtins, None),
               range(cell.lo, cell.hi + 1)) for cell in spec.cells]
    for lo, hi, _ in ranges:
        if lo < hi and (lo < 0 or hi > 1 << 64):
            raise SpecError(f"memory cells mem[{lo:#x} .. {hi:#x}) lie "
                            "outside the address space 0..2^64-1")
    if sum(max(hi - lo, 0) for lo, hi, _ in ranges) > cap:
        raise DomainTooLarge(
            f"the [params] memory cells number more than the cap of {cap}")

    total = 1
    for size in itertools.chain((p.hi - p.lo + 1 for p in spec.scalars),
                                (len(values) for lo, hi, values in ranges
                                 for _ in range(lo, hi))):
        total *= size
        if total > cap:
            raise DomainTooLarge(
                f"enumeration exceeds the cap of {cap} instances")

    # each cell's (addr, value) pairs, shared by the instances that pick them
    choices = [[(addr, v) for v in values]
               for lo, hi, values in ranges for addr in range(lo, hi)]
    programs = tuple(programs)
    names = set(builtins) | {p.name for p in spec.scalars}
    construct0 = _constructor(spec, programs, bases, 0, names)
    construct1 = _constructor(spec, programs, bases, 1, names) \
        if two_sided else None
    instances = []
    scalar_names = [p.name for p in spec.scalars]
    for scalar_values in itertools.product(
            *(range(p.lo, p.hi + 1) for p in spec.scalars)):
        env = dict(builtins)
        env.update(zip(scalar_names, scalar_values))
        for cells in itertools.product(*choices):
            s0 = construct0(env, cells)
            if s0 is None:
                continue
            s1 = None
            if construct1 is not None:
                s1 = construct1(env, cells)
                if s1 is None:
                    continue
            instances.append(Instance(len(instances), env, cells, s0, s1))
    return Problem(spec, programs, tuple(bases), instances, builtins)


def _constructor(spec, programs, bases, side, names) -> Callable:
    """The builder of one side's initial state from an instance's values
    and cells: None when a verify-only precondition line filters the
    instance out. The side's program is loaded once, on first use, and
    its [pre] lines are compiled once."""
    constraints = spec.pre.get(side) or spec.pre.get(None, [])
    assignments = {id(c): a for c in constraints
                   if (a := _assignment(c, names)) is not None}
    checks = [(compile_constraint(c.ast, programs), c) for c in constraints]
    loaded: list = []

    def construct(values, cells):
        if not loaded:
            loaded.append(asm.load_program(machine.zeroed_state(),
                                           programs[side], bases[side]))
        state = loaded[0]
        if cells:
            state = state._replace(mem=state.mem.write_cells(cells))
        for assign in assignments.values():
            state = assign(values, state)
        for holds, c in checks:
            if not holds(values, state):
                if id(c) in assignments:
                    raise SpecEvalError(
                        f"assignment {c.text!r} does not hold on its own "
                        "constructed state (conflicting assignments?)",
                        c.line)
                return None
        return state

    return construct


def _stateless(ast, names) -> bool:
    """Whether an expression evaluates without a machine state, given
    values for exactly these names."""
    for node in _walk_exprs(ast):
        kind = node[0]
        if kind in ("param", "builtin"):
            if node[1] not in names:
                return False
        elif kind == "call":
            if node[1] not in ("min", "max"):
                return False
        elif kind not in ("int", "bin"):
            return False
    return True


def _assignment(c: Constraint, names) -> Optional[Callable]:
    """A precondition line of the shape `label = <expression>` as a
    function (values, state) -> the state with that label written; None
    for any other line. The value, and a memory write's address, must
    evaluate from the instance's values alone: a line that reads machine
    state or an unbound name is only verified. Every instance binds the
    same names, so which lines assign is fixed per spec. A value that
    does not fit the label raises SpecEvalError."""
    ast = c.ast
    if ast[0] == "flag":
        if not _stateless(ast[2], names):
            return None
        label = machine.FLAG_N if ast[1] == "n" else machine.FLAG_Z
        bit = _fitted(c, compile_expr(ast[2]), 1)
        return lambda values, state: state.with_label(label, bit(values))
    if ast[0] != "cmp" or ast[1] != "=" or not _stateless(ast[3], names):
        return None
    lhs, expr = ast[2], compile_expr(ast[3])
    if lhs[0] == "reg":
        i, value = lhs[1], _fitted(c, expr, 64)
        return lambda values, state: state.with_reg(i, value(values))
    if lhs[0] == "pc":
        value = _fitted(c, expr, 64)
        return lambda values, state: state._replace(pc=value(values))
    if lhs[0] == "memread" and _stateless(lhs[2], names):
        size, addr = lhs[1], compile_expr(lhs[2])
        value = _fitted(c, expr, 8 * size)
        return lambda values, state: state._replace(mem=state.mem.write(
            addr(values, None) & machine.MASK64, value(values), size))
    return None


def _fitted(c: Constraint, expr: Callable, bits: int) -> Callable:
    """An assignment's value as a function of the instance's values,
    refusing one outside the `bits`-bit label it writes."""
    hi = (1 << bits) - 1
    allowed = f"0..{hi}" if bits <= 8 else f"0..2^{bits}-1"

    def value(values) -> int:
        v = expr(values, None)
        if not 0 <= v <= hi:
            raise SpecEvalError(f"assignment {c.text!r} sets {v}, outside "
                                f"the label's range {allowed}", c.line)
        return v

    return value


def pre_property(problem: Problem, side, inst: Instance) -> kernel.PropertyFn:
    return problem._property("pre", side, inst)
