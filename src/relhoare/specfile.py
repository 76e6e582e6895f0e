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
    [witness]       the projected trace of each ct_unary run, conjoined
                    before its [post] lines and expanded at its values:
                    `load <expr>, <size>`, `store ...`, `branch
                    <comparison>`, `repeat i < <expr>:` ... `end`; at
                    most MAX_REPEAT_DEPTH repeats deep, and an expansion
                    runs at most the enumeration cap's repeat rounds
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
one-run checks (`exact_parts` adds f0's counts), `pair_parts` for two-run
checks and `promote_parts` for a promote check (one entry x0, and a stop
xw and count n per start state). An undeclared frame allows anything; an
undeclared `f1` is `f0` for ct_relational (both runs are of [program0])
and `auto` for the two-program kinds. Instances that build one start
state share its run, and their postconditions must all hold on it; step
counts or stops that differ between them are an error, as are promote
instances with different entries, and so is an exact count above the
budget. `build_problem` resolves the [private] labels of both
constant-time kinds, refusing pc and events. The instances are
`Enumerated`, made anew on each pass, and each side's start states are
read through one `StartStates` view: streamed where distinct valuations
build distinct states, else kept from one pass. The parts make each
state's conditions from its instances as its walk asks for them; a
ct_unary check expands its [witness] at every valuation before its
counts are taken, and an equiv check whose candidate pairs would pass
the scan's limit is refused before any start state is built.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import re
import sys
from array import array
from collections import defaultdict
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Optional

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


class TemplateExpansionFailure(SpecError):
    pass


class PartitionOverlap(SpecError):
    """The pc or the event trace, always public, is declared private."""


def check_private(labels: frozenset) -> frozenset:
    """labels, unless they name the pc or the event trace."""
    for label in (machine.EVENTS, machine.PC):
        if label in labels:
            raise PartitionOverlap(
                f"{label} is public by definition and cannot be private")
    return labels


DEFAULT_ENUM_CAP = 1 << 16

# the deepest nest of [witness] repeats: each level is a call deeper in
# the expansion, and Python allows about 1000
MAX_REPEAT_DEPTH = 500

KINDS = ("unary", "unary_n", "relational", "ct_relational", "ct_unary",
         "equiv", "promote")

# kinds whose pairs run [program1] on the right; ct_relational pairs two
# runs of [program0]
TWO_PROGRAM_KINDS = ("relational", "equiv")

# kinds that check one run from each start state, whose instances may be
# streamed
ONE_RUN_KINDS = ("unary", "unary_n", "ct_unary", "promote")

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
            try:
                out.append(("int", int(m.group())))
            except ValueError:  # past the int-to-string digit limit
                raise SpecSyntaxError(
                    f"a decimal literal of {len(m.group())} digits is longer "
                    f"than {sys.get_int_max_str_digits()} digits; write it "
                    "in hex", line) from None
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
        with _nesting(lineno, "parse"):
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
    """The nodes of an expression or constraint AST, in pre-order, by a
    loop: a flat chain is as deep as it is long."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        kind = node[0]
        if kind in ("bin", "cmp"):
            stack += node[3], node[2]
        elif kind in ("and", "or", "not"):
            stack += reversed(node[1:])
        elif kind == "call":
            stack += reversed(node[2])
        elif kind in ("memread", "flag", "aligned", "terminated"):
            stack.append(node[-1])


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

    # the template in order, by a loop: (item, bound names, repeat depth)
    stack = [(item, frozenset(), 1) for item in reversed(spec.witness)]
    while stack:
        item, bound_vars, depth = stack.pop()
        repeat = item[0] == "repeat"
        check_names(item[2] if repeat else item[1], item[-1], bound_vars)
        if repeat and depth > MAX_REPEAT_DEPTH:
            raise SpecSyntaxError(
                f"repeat nested more than {MAX_REPEAT_DEPTH} deep", item[-1])
        elif repeat:
            inner = bound_vars | {item[1]}
            stack += [(x, inner, depth + 1) for x in reversed(item[3])]

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
# Each expression and constraint AST, each side's [pre] and [post] lines,
# each side's start-state constructor and a [witness] template is one
# function generated through machine._define. A condition takes (values,
# state): values maps parameter and builtin names to integers, and state
# is the machine state that register, pc and memory reads see, or None,
# always so in a template. The source holds only integers, operators and
# fixed local names; any other value (a name, a program's bytes, a
# helper) is a constant c0, c1, ... of its maker, so no name from the
# spec reaches the source. Each check compiles its own functions; nothing
# generated is kept between checks, and a constant expression compiles to
# no code. Evaluation goes left to right and short-circuits, and the
# first failure raises SpecEvalError (TemplateExpansionFailure from a
# template): an unbound name, a state read without a state, aligned()
# naming a missing program, or a node that cannot be evaluated.

_PY_CMP = dict(zip(_CMP_OPS, ("==", "!=", "<", "<=", ">", ">=")))
_TRUE = ("cmp", "=", ("int", 0), ("int", 0))  # the empty conjunction


def _literal(value: int) -> str:
    """An integer in hex: a long decimal would not convert."""
    return f"{value:#x}" if value >= 0 else f"(-{-value:#x})"


def show_int(value: int) -> str:
    """An integer for a message: decimal up to 64 bits, and hex past
    them, where decimal may not convert."""
    return str(value) if abs(value).bit_length() <= 64 else hex(value)


def _negation(ast) -> bool:
    """Whether a `bin` node is `0 - e`, the parse of a unary minus."""
    return ast[1] == "-" and ast[2] == ("int", 0)


def _fail(message: str, *reads):
    """Raise message once the source has made the state reads in reads."""
    raise SpecEvalError(message)


def _prefixlen(a: int, b: int, n: int, state) -> int:
    """The length of the common byte prefix of a and b, up to n."""
    get, k = state.mem.get, 0
    while k < n and get((a + k) & machine.MASK64) \
            == get((b + k) & machine.MASK64):
        k += 1
    return k


def _eval_error(e: Exception, state) -> Exception:
    """What a generated function raises for a KeyError (an unbound name)
    or an AttributeError (a state read without a state)."""
    if isinstance(e, KeyError):
        return SpecEvalError(f"unbound name {e.args[0]!r}")
    return SpecEvalError("expression reads machine state") \
        if state is None else e


class _Source:
    """Generated source under construction, and the constants it names."""

    def __init__(self, programs=None):
        self.programs = programs
        self.consts: dict = {}  # (type, value) -> its name in the source

    def const(self, value) -> str:
        return self.consts.setdefault((type(value), value),
                                      f"c{len(self.consts)}")

    def fail(self, message: str, reads: str = "") -> str:
        return f"{self.const(functools.partial(_fail, message))}({reads})"

    def expr(self, ast) -> str:
        kind = ast[0]
        if kind == "int":
            return _literal(ast[1])
        if kind == "param" or kind == "builtin":
            return f"values[{self.const(ast[1])}]"
        if kind == "bin":
            if _negation(ast):  # no parenthesis per unary minus
                return f"-{self.expr(ast[3])}"
            op = ast[1] if ast[1] in ("+", "-") else "*"
            left = self.expr(ast[2])
            if (ast[2][0] == "bin" and not _negation(ast[2])
                    and (op == "*") == (ast[2][1] == "*")):
                left = left[1:-1]  # a left-leaning chain stays flat
            return f"({left} {op} {self.expr(ast[3])})"
        if kind == "reg":
            return f"state.regs[{_literal(ast[1])}]"
        if kind == "pc":
            return "state.pc"
        if kind == "memread":  # state.mem is read before the address
            return (f"state.mem.read({self.expr(ast[2])} & M, "
                    f"{_literal(ast[1])})")
        if kind == "call":
            args = ", ".join(self.expr(a) for a in ast[2])
            if ast[1] in ("min", "max"):
                return f"{'min' if ast[1] == 'min' else 'max'}({args})"
            return f"{self.const(_prefixlen)}({args}, state)"
        return self.fail(f"cannot evaluate {kind} node")

    def cond(self, ast) -> str:
        kind = ast[0]
        if kind == "and" or kind == "or":
            left = self.cond(ast[1])
            if ast[1][0] == kind:
                left = left[1:-1]
            return f"({left} {kind} {self.cond(ast[2])})"
        if kind == "not":
            return f"not {self.cond(ast[1])}"
        if kind == "cmp":
            return (f"{self.expr(ast[2])} {_PY_CMP[ast[1]]} "
                    f"{self.expr(ast[3])}")
        if kind == "flag":
            attr = "flag_n" if ast[1] == "n" else "flag_z"
            return f"state.{attr} == {self.expr(ast[2])}"
        if kind == "terminated":
            return (f"(state.pc == {self.expr(ast[1])} & M and "
                    f"{self.const(machine.is_terminated_at)}(state, "
                    "state.pc))")
        if kind == "aligned":
            program = self.programs and self.programs[ast[1]]
            if program is None:
                return self.fail("aligned() references a missing program",
                                 "state.pc")
            # state.pc first: a read without a state fails before the base
            return (f"(state.pc, {self.const(machine.is_aligned_at)}(state, "
                    f"{self.expr(ast[2])}, {self.const(program.data)}))[1]")
        return self.fail(f"cannot evaluate {kind} constraint")

    def conjunction(self, asts) -> str:
        """The `and` of several constraints, in the text of their
        left-nested chain but generated by a loop, so that many lines
        need no deeper recursion than one."""
        texts = [self.cond(a) for a in asts]
        if len(texts) > 1 and asts[0][0] == "and":
            texts[0] = texts[0][1:-1]  # a left-leaning chain stays flat
        return texts[0] if len(texts) == 1 else f"({' and '.join(texts)})"

    def template(self, items, defs: list, cap: int) -> list:
        """The lines that append a witness template's entries to out. A
        repeat is a function of its own in defs, which loops on a copy of
        the values until a round leaves out longer than limit: repeats
        nest no blocks, of which Python allows 20. Past cap rounds of all
        its repeats together (rounds counts down from it), an expansion
        fails on the line of the repeat."""
        lines = []
        for item in items:
            if item[0] == "repeat":
                loop = self.template(item[3], defs, cap)
                over = self.const(functools.partial(
                    TemplateExpansionFailure, "one expansion of the witness "
                    f"runs more than {cap} repeat rounds, the enumeration "
                    "cap", item[4]))
                lines.append(f"r{len(defs)}(values)")
                defs.append([f"def r{len(defs)}(values):",
                             "    nonlocal rounds",
                             "    values = dict(values)",
                             f"    for values[{self.const(item[1])}] in "
                             f"range({self.expr(item[2])}):",
                             "        if (rounds := rounds - 1) < 0:",
                             f"            raise {over}()",
                             *("        " + line for line in loop),
                             "        if len(out) > limit:",
                             "            return"])
            elif item[0] == "branch":
                lines.append(f"out.append(({self.const('branch')}, "
                             f"{self.cond(item[1])}))")
            else:  # a load or a store
                lines.append(f"out.append(({self.const(item[0])}, "
                             f"{self.expr(item[1])} & M, "
                             f"{_literal(item[2])}))")
        return lines

    def define(self, name: str, body: list, prelude: list = (),
               params: str = "values, state") -> Callable:
        """The function name(params) that runs the prelude lines and then
        the body, where an unbound name or a missing state raises its
        SpecEvalError."""
        handler = f"raise {self.const(_eval_error)}(e, state)"
        lines = [*prelude, "try:", *("    " + line for line in body),
                 "except (KeyError, AttributeError) as e:", "    " + handler]
        make = machine._define(
            "make", [f"def make({', '.join(self.consts.values())}):",
                     f"    def {name}({params}):"]
            + ["        " + line for line in lines]
            + [f"    return {name}"], "<spec>")
        return make(*(value for _, value in self.consts))


@contextlib.contextmanager
def _nesting(line: int, doing: str = "compile"):
    """Python's limits on nesting met inside, in the parse of a spec line
    or in the source generated for it and its compile (the recursion
    limit, and the parser's limit of 200 nested parentheses), as a
    SpecSyntaxError on that line."""
    try:
        yield
    except (SyntaxError, RecursionError):
        raise SpecSyntaxError(f"expression nested too deeply to {doing}",
                              line) from None


def compile_expr(ast, line: int = 0) -> Callable[[dict, Any], int]:
    """line is the spec line that a compile error names."""
    if ast[0] == "int":  # a constant, such as a cell address, needs no code
        return lambda values, state: ast[1]
    g = _Source()
    with _nesting(line):
        return g.define("expr", [f"return {g.expr(ast)}"])


def compile_constraint(ast, programs=None,
                       line: int = 0) -> Callable[[dict, Any], bool]:
    """programs is the check's (program0, program1) pair, read by
    aligned(); either may be None."""
    g = _Source(programs)
    with _nesting(line):
        return g.define("holds", [f"return {g.cond(ast)}"])


def compile_witness(items, cap: int = DEFAULT_ENUM_CAP
                    ) -> Callable[..., tuple]:
    """A [witness] template as one generated function: expand(values,
    limit) is the projected trace the template spells out at the public
    values, ("load", addr, size), ("store", addr, size) and ("branch",
    taken) entries, cut short once longer than limit. An expansion whose
    repeats run more than cap rounds fails."""
    g, defs = _Source(), []
    with _nesting(0):
        body = g.template(items, defs, cap) + ["return tuple(out)"]
        witness = g.define("witness", body, ["state = None", "out = []",
                                             f"rounds = {_literal(cap)}",
                                             *itertools.chain(*defs)],
                           "values, limit")

    def expand(values: dict, limit=math.inf) -> tuple:
        try:
            return witness(values, limit)
        except SpecEvalError as e:
            raise TemplateExpansionFailure(
                f"witness template needs non-public data: {e}") from e

    return expand


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


def _too_deep(constraints, programs) -> SpecSyntaxError:
    """The error of the first of several lines, generated and compiled as
    one function, that is nested too deeply to compile on its own."""
    for c in constraints:
        try:
            compile_constraint(c.ast, programs, c.line)
        except SpecSyntaxError as e:
            return e
    return SpecSyntaxError("expression nested too deeply to compile", 0)


def eval_constraint(ast, values: dict, state=None, programs=None) -> bool:
    """Evaluate a constraint once. Code that evaluates one AST for many
    instances or states compiles it once with compile_constraint."""
    return compile_constraint(ast, programs)(values, state)


# ---------------------------------------------------------------------------
# building checkable instances

class Instance(NamedTuple):
    """One enumerated instance: its index in order, its scalar values and
    the start states it builds. A NamedTuple, immutable and quicker to
    make than a frozen dataclass: a streamed check makes one per start
    state in each pass."""

    index: int
    env: dict           # scalar parameters + builtins
    state0: Any
    state1: Any = None


class Enumerated(SequenceABC):
    """A problem's instances, made on demand in order, each valuation's
    in one run with one shared env dict: every pass builds them anew and
    keeps none, and an index is reached by a pass. total says that no
    [pre] line can filter an instance out or fail, so that every
    valuation has one instance per cell choice and the count needs no
    pass; otherwise the first len() makes one, which raises the first
    construction error and notes each valuation's count."""

    def __init__(self, scalars: list, builtins: dict, choices: list,
                 construct0, construct1=None, total: bool = False):
        self._domains = [(p.name, range(p.lo, p.hi + 1)) for p in scalars]
        self._builtins, self._choices = builtins, choices
        self._construct = construct0, construct1
        self._each = math.prod(map(len, choices)) if total else None
        self._counts = None  # each valuation's, once counted
        self._count = None if self._each is None else self._each * \
            math.prod(len(values) for _, values in self._domains)

    def _envs(self) -> Iterator[dict]:
        names = [name for name, _ in self._domains]
        for values in itertools.product(*(v for _, v in self._domains)):
            env = dict(self._builtins)
            env.update(zip(names, values))
            yield env

    def _states(self, env: dict) -> Iterator[tuple]:
        """A valuation's (state0, state1), in cell-choice order."""
        construct0, construct1 = self._construct
        for cells in itertools.product(*self._choices):
            s0 = construct0(env, cells)
            if s0 is None:
                continue
            s1 = None
            if construct1 is not None:
                s1 = construct1(env, cells)
                if s1 is None:
                    continue
            yield s0, s1

    def __iter__(self) -> Iterator[Instance]:
        index = 0
        for env in self._envs():
            for s0, s1 in self._states(env):
                yield Instance(index, env, s0, s1)
                index += 1

    def __len__(self) -> int:
        if self._count is None:
            self._counts = array("q", (sum(1 for _ in self._states(env))
                                       for env in self._envs()))
            self._count = sum(self._counts)
        return self._count

    def __getitem__(self, i: int) -> Instance:
        k = i + len(self) if i < 0 else i
        if not 0 <= k < len(self):
            raise IndexError("instance index out of range")
        return next(itertools.islice(self, k, None))

    def firsts(self) -> Iterator[Instance]:
        """The first instance of each valuation that has any, in order,
        made without building a state: its state0 is None."""
        len(self)  # unless total, each valuation's count is noted
        counts = (itertools.repeat(self._each) if self._counts is None
                  else self._counts)
        index = 0
        for env, n in zip(self._envs(), counts):
            if n:
                yield Instance(index, env, None)
                index += n


class StartStates:
    """One side's start states in instance order, and each state's
    group: its instance, or the list of its instances where several
    build it. A streamed view (of side 0, where distinct valuations
    build distinct states) makes them anew on each pass, noting the
    instance just built, so that `group` finds its state with no table;
    any other is looked up in an index built on first need. A kept view
    holds the states and the index from one pass."""

    def __init__(self, instances: Optional[Enumerated] = None,
                 states: Optional[tuple] = None, index: Optional[dict] = None):
        self.instances, self.current, self.streamed = (
            instances, None, states is None)
        self._states, self._index = states, index
        self.shared = index is not None and len(index) < len(states)

    @staticmethod
    def kept(instances, sides: int) -> tuple:
        """Each side's kept view of instances, from one pass."""
        # each side's states, index, and the field of its state in Instance
        kept = [([], {}, 2 + side) for side in range(sides)]
        for inst in instances:
            for states, index, at in kept:
                s = inst[at]
                states.append(s)
                group = index.setdefault(s, inst)
                if isinstance(group, list):
                    group.append(inst)
                elif group is not inst:
                    index[s] = [group, inst]
        return tuple(StartStates(None, tuple(states), index)
                     for states, index, _ in kept)

    def __iter__(self):
        if not self.streamed:
            yield from self._states
            return
        for inst in self.instances:
            self.current = inst
            yield inst.state0

    def __len__(self) -> int:
        return len(self.instances if self.streamed else self._states)

    def states(self) -> tuple:
        return tuple(self) if self.streamed else self._states

    def group(self, s):
        inst = self.current
        if inst is not None and inst.state0 is s:
            return inst
        if self._index is None:
            self._index = {i.state0: i for i in self.instances}
        try:
            return self._index[s]
        except KeyError:
            raise kernel.SchemaMismatch(
                "no instance builds this start state") from None

    def groups(self) -> Iterator:
        """Each distinct state's group, in order of first build: for a
        streamed view, each valuation's first instance, with no state."""
        return self.instances.firsts() if self.streamed \
            else iter(self._index.values())

    def first(self, s) -> Optional[int]:
        """The index of the first instance that builds s, or None: the
        instance just built if it built s, else from a kept view's index,
        else by a scan, as a streamed view keeps no index of its states."""
        inst = self.current
        if inst is not None and inst.state0 is s:
            return inst.index
        if self.streamed:
            return next((i.index for i in self.instances if i.state0 == s),
                        None)
        group = self._index.get(s)
        return None if group is None else _members(group)[0].index


def _members(group) -> SequenceABC:
    """The instances of a group: one, or a list of them."""
    return group if isinstance(group, list) else (group,)


@dataclass(frozen=True)
class _PerStart(kernel.PerState):
    """A per-state table: at a start state, fn of its instance, or many
    of its list of instances (else fn of the first), made when asked
    for and not kept. A table StepFn indexes it by the state too."""

    starts: StartStates = None
    fn: Callable = None
    many: Optional[Callable] = None

    def at(self, s):
        group = self.starts.group(s)
        if not isinstance(group, list):
            return self.fn(group)
        return self.fn(group[0]) if self.many is None else self.many(group)

    __getitem__ = at


@dataclass
class Problem:
    """A parsed spec bound to its assembled programs and enumerated
    instances, ready to hand to the checkers. Each side's [pre], [post]
    and [steps] lines and frame are compiled once, on first use, and
    shared by every instance and layer; each [pre] and [post] property
    is built once per valuation. private is the resolved [private]
    section of a constant-time check, and cap the enumeration cap.

    The instances are `Enumerated`, and views holds each side's
    `StartStates`, streamed for a one-run kind whose valuations build
    distinct start states; a streamed problem keeps one property, that
    of the valuation last built. The parts make each start state's
    postcondition, step count or stop when a walk asks for it, keeping
    none; whatever can refuse the spec before any walk (a witness
    expansion, a step count, an entry) is first taken at each state and
    dropped."""

    spec: CheckSpec
    programs: tuple  # (Program|None, Program|None)
    bases: tuple
    instances: Enumerated
    builtins: dict
    private: frozenset = frozenset()
    cap: int = DEFAULT_ENUM_CAP
    views: tuple = field(default=(), repr=False, compare=False)
    # compiled once, and shared by the layers that replace() makes
    _compiled: dict = field(default_factory=dict, repr=False, compare=False)
    _guards: dict = field(default_factory=dict, repr=False, compare=False)
    _props: dict = field(default_factory=lambda: defaultdict(dict),
                         repr=False, compare=False)

    def count(self) -> int:
        return len(self.views[0])

    @property
    def streamed(self) -> bool:
        return self.views[0].streamed

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
        """A side's start states in instance order, or None for each."""
        return self.views[side].states() if side < len(self.views) \
            else (None,) * self.count()

    def frame(self, side) -> kernel.FrameFn:
        key = ("frame", side)
        if key not in self._compiled:
            items = self._conditions(self.spec.frames, side)
            self._compiled[key] = (machine.maychange(self.resolve_labels(
                items)) if items else kernel.ANYTHING)
        return self._compiled[key]

    def unary_parts(self) -> tuple:
        """(Enumeration, per-state postcondition, frame) of a one-run
        check over the side-0 states."""
        post = self._posts(0, "declared postcondition")
        return (kernel.Enumeration(self.views[0],
                                   description="spec instances"),
                post, self.frame(0))

    def exact_parts(self) -> tuple:
        """unary_parts and f0's step counts, in check_ensures_n's order:
        a post's errors before a count's. A ct_unary check first expands
        its [witness] at every valuation, as an expansion may fail, and
        only then takes the counts."""
        enum, post, frame = self.unary_parts()
        if self.spec.kind == "ct_unary":
            for group in self.views[0].groups():
                for inst in _members(group):
                    self.post_property(0, inst)
        return enum, self.steps("f0", 0), post, frame

    @functools.cached_property
    def promote_parts(self) -> kernel.PcParts:
        """The side-0 start states of a promote check, the entry x0 that
        every instance gives, and each state's stop address xw and step
        count n."""
        x0, entry = self._expr("x0"), None

        def entries(groups):  # each must give instance #0's entry
            nonlocal entry
            strays = []  # those that do not; the first in order is named
            for group in groups:
                for inst in group if isinstance(group, list) else (group,):
                    here = x0(inst.env, None) & machine.MASK64
                    if entry is None:
                        entry = inst.index, here
                    elif here != entry[1]:
                        strays.append((inst.index, here))
                yield group
            if strays:
                index, here = min(strays)
                raise SpecError(
                    f"instances #{entry[0]} and #{index} share the one entry "
                    "of a promote check, but x0 gives them "
                    f"{entry[1]:#x} and {here:#x}")

        # one pass: x0's refusal comes first, then xw's, then n's
        for _ in self._per_start("n", self._per_start(
                "xw", entries(self.views[0].groups()))):
            pass
        xw, n = self._expr("xw"), self._expr("n")
        return kernel.PcParts(
            kernel.Enumeration(self.views[0]), 0 if entry is None
            else entry[1], _PerStart({}, "xw and n", self.views[0], lambda i: (
                xw(i.env, None) & machine.MASK64, n(i.env, None))))

    def pair_parts(self, pre2: kernel.PairProperty, description: str,
                   post_description: str, pairs: Optional[tuple] = None,
                   rel: Callable = lambda a, b: True,
                   describe: Optional[Callable] = None) -> tuple:
        """(PairEnumeration, factored pair postcondition, product frame,
        left steps, right steps) of a two-run check. A KeyJoin pre2 asks
        the kernel for its key join of the left and right start states,
        each keyed once (one tuple of states when both runs start from
        [program0]); otherwise the pairs are the given ones, or else
        each instance's own two start states. A pair's postcondition is
        rel and each side's postcondition at its start state, named
        describe(d0, d1) of their descriptions or else post_description."""
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

    def layers(self) -> list:
        """The problem in parts, the k-th holding the k-th instance of
        each side-0 start state, so that no part repeats a start state:
        just the problem when none does."""
        if not self.views[0].shared:
            return [self]
        return [replace(self, views=StartStates.kept(filter(None, part), 1))
                for part in itertools.zip_longest(
                    *map(_members, self.views[0].groups()))]

    def _posts(self, side, description: str) -> _PerStart:
        """A side's declared postconditions by start state, made when
        asked for: its instance's, or the conjunction of its instances'.
        The lines compile now, if any instance will ask for them."""
        if self.count():
            self._lines("post", side)
        return _PerStart({}, description, self.views[side],
                         functools.partial(self.post_property, side),
                         functools.partial(self._conjoined, side))

    def _conjoined(self, side, group: list) -> kernel.PropertyFn:
        qs = [self.post_property(side, i) for i in group]
        return kernel.PropertyFn(
            lambda x: all(q.holds(x) for q in qs),
            " and ".join(dict.fromkeys(q.description for q in qs)),
            self._meet(q.pcs for q in qs))

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
        instances of one scalar valuation share one values dict, so the
        property is built once per valuation and kept, keyed by the dict's
        identity; the entry holds the dict, so no other dict can take
        that identity. A ct_unary check's side-0 post first requires the
        run's projected trace to be the [witness] template, expanded only
        until longer than the run: its trace starts empty and gains at
        most an event a step."""
        props = self._props[section, side]
        kept = props.get(id(inst.env))
        if kept is not None:
            return kept[1]
        holds, text, guards, expand = self._lines(section, side)
        args = (inst.env,) if expand is None else (inst.env, expand(
            inst.env, self._expr("f0")(inst.env, None)))
        prop = kernel.PropertyFn(
            functools.partial(holds, *args), text,
            self._meet([guard(inst.env) for guard in guards]))
        if self.streamed:  # a pass builds a valuation's instances in a run
            props.clear()
        props[id(inst.env)] = (inst.env, prop)
        return prop

    def _lines(self, section: str, side) -> tuple:
        """A side's [pre] or [post] lines compiled once: the generated
        holds, the text, the guards, and the [witness] expansion that a
        ct_unary check's side-0 post compares its trace with, else None."""
        key = (section, side)
        if key not in self._compiled:
            constraints = self._conditions(getattr(self.spec, section), side)
            names = set(self.builtins) | {p.name for p in self.spec.scalars}
            asts = [c.ast for c in constraints] or [_TRUE]
            text = " and ".join(c.text for c in constraints) or "true"
            witness = key == ("post", 0) and self.spec.kind == "ct_unary"
            g = _Source(self.programs)
            try:
                with _nesting(0):
                    cond, params = g.conjunction(asts), "values, state"
                    if witness:  # expected is the expanded template
                        cond = (f"{g.const(machine.project_trace)}("
                                f"state.events) == expected and {cond}")
                        params = "values, expected, state"
                    holds = g.define("holds", [f"return {cond}"], (), params)
                guards = [_guard(a, names) for a in asts]
            except (SpecSyntaxError, RecursionError):
                raise _too_deep(constraints, self.programs) from None
            self._compiled[key] = (
                holds, f"trace is the witness and ({text})" if witness
                else text, [guard for guard in guards if guard is not None],
                compile_witness(self.spec.witness, self.cap) if witness
                else None)
        return self._compiled[key]

    def _expr(self, key: str) -> Callable:
        """A [steps] line or a promote check's x0, xw or n, compiled once:
        auto is the budget."""
        if key not in self._compiled:
            value = self.spec.promote.get(key) or self.spec.steps.get(
                key, "auto")
            self._compiled[key] = compile_expr(
                ("int", self.spec.budget) if value == "auto" else value)
        return self._compiled[key]

    def steps(self, key: str, side) -> kernel.StepFn:
        value = self.spec.steps.get(key, "auto")
        if value == "auto":
            return kernel.StepFn.auto(self.spec.budget)
        for _ in self._per_start(key, self.views[side].groups()):
            pass
        expr, description = self._expr(key), f"{key} expression"
        return kernel.StepFn("table", _PerStart(
            {}, description, self.views[side],
            lambda inst: expr(inst.env, None)), description)

    def _per_start(self, key: str, groups) -> Iterator:
        """groups, passed on while key's expression is checked at each
        start state's group: taken at its first instance, which the
        others must repeat, it is a step count, never negative and at
        most the budget, or for xw a 64-bit address. Once through, the
        first refusal is raised, a count above the budget only if no
        count is negative or disagrees."""
        expr, count = self._expr(key), key != "xw"
        show, unit, mask = ((show_int, " steps", -1) if count
                            else (hex, "", machine.MASK64))
        failure = over = None
        for group in groups:
            yield group
            several = isinstance(group, list)
            if failure is not None or not (count or several):
                continue  # one instance gives any address
            first, rest = (group[0], group[1:]) if several else (group, ())
            v = expr(first.env, None) & mask
            if v < 0:
                failure = SpecError(f"{key} gives instance #{first.index} "
                                    f"the negative step count {show_int(v)}")
            for inst in rest:
                if failure is None and (
                        other := expr(inst.env, None) & mask) != v:
                    failure = SpecError(
                        f"instances #{first.index} and #{inst.index} build "
                        f"one start state, but {key} gives them "
                        f"{show(v)} and {show(other)}{unit}")
            if count and over is None and v > self.spec.budget:
                over = first.index, v
        if failure is not None:
            raise failure
        if over is not None:
            raise SpecError(
                f"{key} gives instance #{over[0]} {show_int(over[1])} steps, "
                f"more than the budget of {show_int(self.spec.budget)}")

    def _conditions(self, store, side):
        return store.get(side) or store.get(None) or []


def build_problem(spec: CheckSpec, root, cap: int = DEFAULT_ENUM_CAP) -> Problem:
    """Assemble the referenced programs, enumerate every parameter
    valuation, and construct the initial state(s) of each instance: for
    an equiv check, only once its count of candidate pairs is allowed."""
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
    ranges = [(compile_expr(cell.lo_addr, cell.line)(builtins, None),
               compile_expr(cell.hi_addr, cell.line)(builtins, None),
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
    construct0, total = _constructor(spec, programs, bases, 0, names)
    construct1, total1 = (_constructor(spec, programs, bases, 1, names)
                          if two_sided else (None, True))
    instances = Enumerated(spec.scalars, builtins, choices, construct0,
                           construct1, total and total1)
    if spec.kind == "equiv":  # a side's start states, one per instance
        from .equiv import refuse_scan  # equiv imports this module
        refuse_scan(len(instances) ** 2)
    if spec.kind in ONE_RUN_KINDS and _distinct(spec, builtins, ranges):
        len(instances)  # unless total, a pass raising what a build would
        views = (StartStates(instances),)
    else:
        views = StartStates.kept(instances, 2 if two_sided else 1)
    problem = Problem(spec, programs, tuple(bases), instances, builtins,
                      cap=cap, views=views)
    if spec.kind in ("ct_relational", "ct_unary"):
        problem.private = check_private(problem.resolve_labels(spec.private))
    return problem


def _constructor(spec, programs, bases, side, names) -> tuple:
    """The builder of one side's initial state from an instance's values
    and cells, None where a verify-only [pre] line filters the instance
    out: one generated function that computes each assignment once, in
    line order, builds the state in one `_make` and then checks the [pre]
    lines on it in order. The program is loaded once, on first use.
    Returned with whether it is total: no line can filter or fail."""
    constraints = spec.pre.get(side) or spec.pre.get(None, [])
    targets = [_assignment(c.ast, names) for c in constraints]
    writers = [t[0] for t in targets if t is not None]
    g = _Source(programs)
    load = functools.cache(lambda: asm.load_program(
        machine.zeroed_state(), programs[side], bases[side]))
    build, fields, writes, checks = [f"s = {g.const(load)}()"], {}, [], []
    total = True
    try:  # generating or compiling source may meet Python's nesting limits
        for k, (c, target) in enumerate(zip(constraints, targets)):
            if target is None:
                checks += [f"if not {g.cond(c.ast)}:", "    return None"]
                continue
            label, value, bits = target
            v = f"v{k}"
            if value[0] == "int" and 0 <= value[1] < 1 << bits:
                v = _literal(value[1])  # a constant that fits its label
            elif _held(value, spec.scalars, bits):
                v = g.expr(value)  # a parameter whose values all fit
            else:
                total = False
                misfit = g.const(functools.partial(_misfit, c, bits))
                build += [f"{v} = {g.expr(value)}",
                          f"if not 0 <= {v} <= {_literal((1 << bits) - 1)}:",
                          f"    {misfit}({v})"]
            if label[0] == "mem":
                writes.append(f"mem = mem.write({g.expr(label[2])} & M, "
                              f"{v}, {_literal(label[1])})")
            else:
                fields[label] = v
            if label[0] == "mem" or writers.count(label) > 1:
                # only a later write can make an assignment fail on the
                # state
                conflict = functools.partial(
                    SpecEvalError, f"assignment {c.text!r} does not hold on "
                    "its own constructed state (conflicting assignments?)",
                    c.line)
                checks += [f"if not {g.cond(c.ast)}:",
                           f"    raise {g.const(conflict)}()"]
        build.append("mem = s.mem.write_cells(cells) if cells else s.mem")
        build += writes
        regs = "s.regs"
        if any(label[0] == "reg" for label in fields):
            build.append("r = s.regs")
            items = []  # each run of registers not assigned is one slice
            for assigned, run in itertools.groupby(
                    range(16), lambda i: ("reg", i) in fields):
                run = list(run)
                items += ([fields["reg", i] for i in run] if assigned else
                          [f"*r[{_literal(run[0])}:"
                           f"{_literal(run[-1] + 1)}]"])
            regs = "(" + ", ".join(items) + ",)"
        build.append(f"state = _make({regs}, "
                     f"{fields.get(('pc',), 's.pc')}, "
                     f"{fields.get(('flag_n',), 's.flag_n')}, "
                     f"{fields.get(('flag_z',), 's.flag_z')}, mem, s.events)")
        return g.define("construct", checks + ["return state"], build,
                        "values, cells"), total and not checks
    except (SyntaxError, RecursionError):
        raise _too_deep(constraints, programs) from None


def _held(value, scalars, bits: int) -> bool:
    """Whether an assigned value is a parameter whose every value fits a
    label of `bits` bits, and so is held there as it is."""
    return value[0] == "param" and any(
        p.name == value[1] and 0 <= p.lo and p.hi < 1 << bits
        for p in scalars)


def _distinct(spec, builtins, ranges) -> bool:
    """Whether the side-0 [pre] lines show that distinct valuations build
    distinct start states: every scalar of more than one value is held
    by a label it is assigned to as it is, no label is assigned twice,
    every memory assignment writes at a constant address, and no byte is
    written twice by the [params] cells (ranges) and the assignments, so
    that no later write hides a cell's or an assignment's value."""
    names = set(builtins) | {p.name for p in spec.scalars}
    lines = spec.pre.get(0) or spec.pre.get(None, [])
    labels, held = [], set()
    cells = [addr for lo, hi, _ in ranges for addr in range(lo, hi)]
    for target in filter(None, (_assignment(c.ast, names) for c in lines)):
        label, value, bits = target
        if label[0] != "mem":
            labels.append(label)
        elif _stateless(label[2], builtins):
            addr = compile_expr(label[2])(builtins, None)
            cells += [(addr + k) & machine.MASK64 for k in range(label[1])]
        else:
            return False
        if _held(value, spec.scalars, bits):
            held.add(value[1])
    return (len(set(labels)) == len(labels) and len(set(cells)) == len(cells)
            and all(p.name in held or p.lo == p.hi for p in spec.scalars))


def _stateless(ast, names) -> bool:
    """Whether an expression, or a comparison of expressions joined by
    and, or and not, evaluates without a machine state, given values for
    exactly these names."""
    for node in _walk_exprs(ast):
        kind = node[0]
        if kind in ("param", "builtin"):
            if node[1] not in names:
                return False
        elif kind == "call":
            if node[1] not in ("min", "max"):
                return False
        elif kind not in ("int", "bin", "cmp", "and", "or", "not"):
            return False
    return True


def _assignment(ast, names) -> Optional[tuple]:
    """A precondition line `label = <expression>` as (("reg", i), ("pc",),
    ("flag_n",), ("flag_z",) or ("mem", size, address AST); the value's
    AST; the label's width in bits), None for any other line. The value
    and a write's address must evaluate from the values every instance
    binds, names: a line that reads a state or another name is only
    verified."""
    if ast[0] == "flag":
        if not _stateless(ast[2], names):
            return None
        return ("flag_n" if ast[1] == "n" else "flag_z",), ast[2], 1
    if ast[0] != "cmp" or ast[1] != "=" or not _stateless(ast[3], names):
        return None
    lhs = ast[2]
    if lhs[0] == "reg":
        return ("reg", lhs[1]), ast[3], 64
    if lhs[0] == "pc":
        return ("pc",), ast[3], 64
    if lhs[0] == "memread" and _stateless(lhs[2], names):
        return ("mem", lhs[1], lhs[2]), ast[3], 8 * lhs[1]
    return None


def _misfit(c: Constraint, bits: int, value: int):
    """Refuse a value outside the `bits`-bit label an assignment writes."""
    allowed = f"0..{(1 << bits) - 1}" if bits <= 8 else f"0..2^{bits}-1"
    raise SpecEvalError(f"assignment {c.text!r} sets {show_int(value)}, "
                        f"outside the label's range {allowed}", c.line)


def pre_property(problem: Problem, side, inst: Instance) -> kernel.PropertyFn:
    return problem._property("pre", side, inst)
