"""Textual DSL for constraint definitions and quantified expressions.

Grammar (informal EBNF)::

    document       := (constraint_def | expr_def)*
    constraint_def := "constraint" NAME "arity" INT ":="
                      ("table" BITSTRING | "formula" formula) ";"
    expr_def       := "expr" NAME ":=" prefix ":" matrix ";"
    prefix         := (("E"|"A") varlist)*     -- blocks separated by ";"
    matrix         := [application ("," application)*]
    application    := NAME "(" arg ("," arg)* ")"
    arg            := VARIABLE | "0" | "1"

BITSTRING is 2**arity characters of 0/1: row 0 (all arguments 0) first, and
the *first* argument is the most significant bit of the row index.  The
formula sub-language for defining constraints uses variables ``v1..vk`` and
the operators ``! & | ^ -> <->`` (tightest to loosest; ``->`` associates to
the right) plus parentheses; the table is computed by evaluating all 2**k
assignments.

Constraint names resolve to earlier definitions in the document, then to the
built-in preset library.  Every failure is reported as a :class:`ParseError`
carrying a 1-based line/column position; parsing never raises anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .model import (
    Argument,
    Constraint,
    ConstraintApplication,
    QuantifierBlock,
    Quantifier,
    QuantifiedExpression,
    make_constraint,
)
from .presets import PRESETS

# Each nesting level costs several interpreter stack frames; the cap must
# trip well before Python's recursion limit does.
_MAX_FORMULA_DEPTH = 100


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class SourceDocument:
    constraints: dict[str, Constraint] = field(default_factory=dict)
    expressions: dict[str, QuantifiedExpression] = field(default_factory=dict)
    positions: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)

    def lookup(self, name: str) -> Constraint | None:
        return self.constraints.get(name) or PRESETS.get(name)


_PUNCT = (":=", "<->", "->", ":", ";", ",", "(", ")", "!", "&", "|", "^")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "num" | punctuation itself | "eof"
    text: str
    line: int
    col: int


def _to_int(digits: str) -> int | None:
    """Value of a decimal string, or None past the digits ``int`` converts."""
    try:
        return int(digits)
    except ValueError:
        return None


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            if ch.isdecimal():
                j = i
                while j < n and text[j].isdecimal():
                    j += 1
                tokens.append(_Token("num", text[i:j], line, col))
                col += j - i
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(_Token("ident", text[i:j], line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], env: SourceDocument):
        self.tokens = tokens
        self.pos = 0
        self.env = env

    @property
    def tok(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tok
        self.pos += 1
        return t

    def fail(self, message: str, tok: _Token | None = None):
        t = tok or self.tok
        raise ParseError(message, t.line, t.col)

    def expect(self, kind: str, what: str) -> _Token:
        if self.tok.kind != kind:
            self.fail(f"expected {what}, got {self.tok.text or 'end of input'!r}")
        return self.advance()

    def ident(self, what: str) -> _Token:
        return self.expect("ident", what)

    # document level -----------------------------------------------------

    def document(self) -> SourceDocument:
        while self.tok.kind != "eof":
            t = self.tok
            if t.kind == "ident" and t.text == "constraint":
                self.constraint_def()
            elif t.kind == "ident" and t.text == "expr":
                self.expr_def()
            else:
                self.fail("expected 'constraint' or 'expr' definition")
        return self.env

    def constraint_def(self) -> None:
        self.advance()  # 'constraint'
        name_tok = self.ident("constraint name")
        name = name_tok.text
        if name in self.env.constraints:
            self.fail(f"constraint {name!r} already defined", name_tok)
        kw = self.ident("'arity'")
        if kw.text != "arity":
            self.fail("expected 'arity'", kw)
        arity_tok = self.expect("num", "arity integer")
        arity = _to_int(arity_tok.text)
        if arity is None:
            self.fail("arity out of range 1..16", arity_tok)
        self.expect(":=", "':='")
        body = self.ident("'table' or 'formula'")
        if body.text == "table":
            bits_tok = self.expect("num", "bit string")
            try:
                constraint = make_constraint(name, arity, bits_tok.text)
            except ValueError as e:
                raise ParseError(str(e), bits_tok.line, bits_tok.col) from None
        elif body.text == "formula":
            if not 1 <= arity <= 16:
                self.fail(f"arity {arity} out of range 1..16", arity_tok)
            tree = self.formula(arity, 0)
            bits = [
                _eval_formula(tree, row, arity) for row in range(1 << arity)
            ]
            constraint = make_constraint(name, arity, bits)
        else:
            self.fail("expected 'table' or 'formula'", body)
        self.expect(";", "';'")
        self.env.constraints[name] = constraint
        self.env.positions[("constraint", name)] = (name_tok.line, name_tok.col)

    def expr_def(self) -> None:
        self.advance()  # 'expr'
        name_tok = self.ident("expression name")
        name = name_tok.text
        if name in self.env.expressions:
            self.fail(f"expression {name!r} already defined", name_tok)
        self.expect(":=", "':='")
        expr = self.expression_body()
        self.env.expressions[name] = expr
        self.env.positions[("expr", name)] = (name_tok.line, name_tok.col)

    # expressions ---------------------------------------------------------

    def expression_body(self) -> QuantifiedExpression:
        blocks: list[QuantifierBlock] = []
        bound: set[str] = set()
        while self.tok.kind == "ident" and self.tok.text in ("E", "A"):
            q_tok = self.advance()
            quant = Quantifier.EXISTS if q_tok.text == "E" else Quantifier.FORALL
            if blocks and blocks[-1].quantifier is quant:
                self.fail("adjacent quantifier blocks must alternate", q_tok)
            names: list[str] = []
            while self.tok.kind == "ident" and self.tok.text not in ("E", "A"):
                v_tok = self.advance()
                if v_tok.text in bound or v_tok.text in names:
                    self.fail(f"duplicate variable {v_tok.text!r}", v_tok)
                names.append(v_tok.text)
            if not names:
                self.fail("quantifier block binds no variables", q_tok)
            bound.update(names)
            blocks.append(QuantifierBlock(quant, tuple(names)))
            if self.tok.kind == ";":
                nxt = self.tokens[self.pos + 1]
                if not (nxt.kind == "ident" and nxt.text in ("E", "A")):
                    break  # the ';' ends the definition (empty matrix case)
                self.advance()
        self.expect(":", "':' between prefix and matrix")
        apps: list[ConstraintApplication] = []
        if self.tok.kind != ";":
            while True:
                apps.append(self.application(bound))
                if self.tok.kind == ",":
                    self.advance()
                    continue
                break
        self.expect(";", "';'")
        return QuantifiedExpression(tuple(blocks), tuple(apps))

    def application(self, bound: set[str]) -> ConstraintApplication:
        name_tok = self.ident("constraint name")
        constraint = self.env.lookup(name_tok.text)
        if constraint is None:
            self.fail(f"unknown constraint {name_tok.text!r}", name_tok)
        self.expect("(", "'('")
        args: list[Argument] = []
        while True:
            t = self.tok
            if t.kind == "ident":
                self.advance()
                if t.text not in bound:
                    self.fail(f"free variable {t.text!r} in matrix", t)
                args.append(Argument(var=t.text))
            elif t.kind == "num" and t.text in ("0", "1"):
                self.advance()
                args.append(Argument(const=int(t.text)))
            else:
                self.fail("expected variable or constant 0/1")
            if self.tok.kind == ",":
                self.advance()
                continue
            break
        self.expect(")", "')'")
        if len(args) != constraint.arity:
            raise ParseError(
                f"{constraint.name} takes {constraint.arity} arguments, "
                f"got {len(args)}",
                name_tok.line,
                name_tok.col,
            )
        return ConstraintApplication(constraint, tuple(args))

    # formula sub-language -------------------------------------------------

    def formula(self, arity: int, depth: int):
        return self._iff(arity, depth)

    def _iff(self, arity: int, depth: int):
        node = self._imp(arity, depth)
        while self.tok.kind == "<->":
            self.advance()
            node = ("iff", node, self._imp(arity, depth))
        return node

    def _imp(self, arity: int, depth: int):
        if depth > _MAX_FORMULA_DEPTH:
            self.fail("formula nesting too deep")
        node = self._xor(arity, depth)
        if self.tok.kind == "->":
            self.advance()
            return ("imp", node, self._imp(arity, depth + 1))  # right-assoc
        return node

    def _xor(self, arity: int, depth: int):
        node = self._or(arity, depth)
        while self.tok.kind == "^":
            self.advance()
            node = ("xor", node, self._or(arity, depth))
        return node

    def _or(self, arity: int, depth: int):
        node = self._and(arity, depth)
        while self.tok.kind == "|":
            self.advance()
            node = ("or", node, self._and(arity, depth))
        return node

    def _and(self, arity: int, depth: int):
        node = self._unary(arity, depth)
        while self.tok.kind == "&":
            self.advance()
            node = ("and", node, self._unary(arity, depth))
        return node

    def _unary(self, arity: int, depth: int):
        if depth > _MAX_FORMULA_DEPTH:
            self.fail("formula nesting too deep")
        t = self.tok
        if t.kind == "!":
            self.advance()
            return ("not", self._unary(arity, depth + 1))
        if t.kind == "(":
            self.advance()
            node = self._iff(arity, depth + 1)
            self.expect(")", "')'")
            return node
        if t.kind == "ident":
            self.advance()
            if t.text.startswith("v") and t.text[1:].isdecimal():
                idx = _to_int(t.text[1:])
                if idx is not None and 1 <= idx <= arity:
                    return ("var", idx)
            self.fail(f"expected formula variable v1..v{arity}", t)
        self.fail("expected formula term")


def _eval_formula(node, row: int, k: int) -> int:
    op = node[0]
    if op == "var":
        return (row >> (k - node[1])) & 1
    if op == "not":
        return 1 - _eval_formula(node[1], row, k)
    a = _eval_formula(node[1], row, k)
    b = _eval_formula(node[2], row, k)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "imp":
        return (1 - a) | b
    return 1 - (a ^ b)  # iff


def parse_document(text: str) -> SourceDocument:
    """Parse a full DSL document; raises :class:`ParseError` on any defect."""
    return _Parser(_lex(text), SourceDocument()).document()


def parse_expression(
    text: str, constraints: Mapping[str, Constraint] | None = None
) -> QuantifiedExpression:
    """Parse a bare expression body like ``A x : EQ2(x, 0);``."""
    env = SourceDocument(constraints=dict(constraints or {}))
    parser = _Parser(_lex(text), env)
    expr = parser.expression_body()
    if parser.tok.kind != "eof":
        parser.fail("trailing input after expression")
    return expr


def render_expression(expr: QuantifiedExpression) -> str:
    """Expression body text; parsing it back reproduces the expression."""
    blocks = " ; ".join(
        f"{b.quantifier.value} {' '.join(b.vars)}" for b in expr.prefix
    )
    apps = ", ".join(
        f"{a.constraint.name}({', '.join(_render_arg(x) for x in a.args)})"
        for a in expr.matrix
    )
    head = f"{blocks} : " if blocks else ": "
    return f"{head}{apps};" if apps else f"{head};"


def _render_arg(a: Argument) -> str:
    return str(a.const) if a.is_const else a.var  # type: ignore[return-value]


def render_constraint_def(c: Constraint) -> str:
    return f"constraint {c.name} arity {c.arity} := table {c.table()};"


def render_document(
    constraints, expressions: Mapping[str, QuantifiedExpression]
) -> str:
    """A full document: constraint definitions first, then expressions."""
    lines = [render_constraint_def(c) for c in constraints]
    for name, expr in expressions.items():
        lines.append(f"expr {name} := {render_expression(expr)}")
    return "\n".join(lines) + "\n"
