r"""Textual DSL for constraint definitions and quantified expressions.

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
the right) plus parentheses.  Each subformula is read straight into its
table, one word of 2**k bits (see :mod:`qcsp.words`).  One method reads the
binary operators from one table, loosest first, each with the word it makes
of two words, so an operator chain is a loop of word operations and no row
is evaluated on its own.

Constraint names resolve to earlier definitions in the document, then to the
built-in preset library.  Every failure is reported as a :class:`ParseError`
carrying a 1-based line/column position; parsing never raises anything else.

Two readers share this grammar.  :func:`parse_document` first runs the
fast reader, ``_read_plain``, on the whole document.  It uses only C-level
string methods: ``find`` for the ``:=`` that begins each definition, the
``:`` that ends a prefix and the ``;`` that ends a definition; ``split(";")``
and ``split()`` for the prefix's blocks and names; ``split(")")``,
``partition("(")`` and ``split(",")`` for the matrix's applications.  Each
word is checked as the token the grammar puts there; a name by
``str.isidentifier``, which on ASCII is the lexer's ident rule below.  The
fast reader declines, without raising, a document holding ``formula``,
``#``, non-ASCII text or whitespace other than space, tab, CR and LF
(``str.split`` splits on more) before it reads a definition; then a prefix
block not ended by ``;``, a name bound or defined twice, an unknown or free
name, an arity mismatch, and anything else it does not read exactly.  A
declined document is parsed whole by the token parser, the complete reader
of the grammar: every diagnostic comes from it, and ``qcsp verify --suite
parser`` checks that both readers give equal documents.  On the 120 seed-1
decide-tractable documents of ``perfbench`` (1.35 MB) the token parser alone
takes about 120 ms a round and the fast reader about 50 ms.

The token parser lexes with one compiled regex run by ``findall`` past any
leading blanks: each match is a token, captured as the regex's one group,
then the blanks after it, whitespace (space, tab, CR, LF) and ``#``
comments to end of line::

    punct  := ":=" | "<->" | "->" | one of ":;,()!&|^"
    num    := \d+       -- str.isdecimal characters
    ident  := \w+       -- str.isalnum characters or "_", not starting with
                           a decimal digit; the first must be isalpha or "_"
    bad    := any other single character ("unexpected character")

The lexer keeps one list, the token texts; a bad token is "" there, and the
first one is reported before parsing starts.  A token's kind is read off its
text where the grammar asks for it.  No offsets are kept: only a diagnostic
has a position, found by one fresh ``finditer`` over the same regex to its
token.  The line counts "\n"s before the token and a tab counts as one
column.  The end of input that follows a comment on the last line sits
where that comment's ``#`` began.  Both readers are linear in the size of
the document.

An expression is read straight into the integer form of
:func:`~qcsp.model.compile_expression`: the prefix maps each bound name to
its slot, and each application becomes ``(arity, bits, codes)`` beside its
constraint.  No ``Argument`` or ``ConstraintApplication`` is made; the
expression builds its matrix only if something reads it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Mapping

from .model import (
    Argument,
    Constraint,
    QuantifierBlock,
    Quantifier,
    QuantifiedExpression,
    make_constraint,
)
from .presets import PRESETS
from .words import patterns

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

    def lookup(self, name: str) -> Constraint | None:
        return self.constraints.get(name) or PRESETS.get(name)


_SKIP = r"(?:[ \t\r\n]+|#[^\n]*)*"
# The group is the token's text; a character that begins no token matches
# outside it, so findall gives "" for it.
_TOKEN = re.compile(r"(?:(:=|<->|->|[:;,()!&|^]|\d+|\w+)|.)" + _SKIP, re.DOTALL)
_LEADING_SKIP = re.compile(_SKIP)
_QUANTIFIERS = {"E": Quantifier.EXISTS, "A": Quantifier.FORALL}
_CONSTANTS = {"0": ~0, "1": ~1}  # the form's codes for the constants
# the formula's binary operators, loosest first, each with the word it makes
# of its operands' words; full is the word of every row
_BINARY = (
    ("<->", lambda full, a, b: full ^ a ^ b),
    ("->", lambda full, a, b: (full ^ a) | b),
    ("^", lambda full, a, b: a ^ b),
    ("|", lambda full, a, b: a | b),
    ("&", lambda full, a, b: a & b),
)


def _to_int(digits: str) -> int | None:
    """Value of a decimal string, or None past the digits ``int`` converts."""
    try:
        return int(digits)
    except ValueError:
        return None


def _lex(text: str) -> list[str | None]:
    """Token texts, "" for a character that begins no token, then None."""
    texts = _TOKEN.findall(text, _LEADING_SKIP.match(text).end())
    if not text.isascii():  # \w also admits non-decimal digits such as '²'
        for at, word in enumerate(texts):
            head = word[:1]
            if head.isalnum() and not (head.isalpha() or head.isdecimal()):
                texts[at] = ""
    texts.append(None)
    return texts


def _kind(word: str | None) -> str:
    """Kind of a token text: "num", "ident", "punct" or "eof"."""
    if word is None:
        return "eof"
    if word[0].isdecimal():
        return "num"
    if word[0].isalpha() or word[0] == "_":
        return "ident"
    return "punct"


class _Parser:
    def __init__(self, text: str, env: SourceDocument):
        self.text = text
        self.texts = _lex(text)
        self.pos = 0
        self.env = env
        if "" in self.texts:
            offset, line, col = self.where(self.texts.index(""))
            raise ParseError(f"unexpected character {text[offset]!r}", line, col)

    def where(self, at: int) -> tuple[int, int, int]:
        """Offset, 1-based line and column of token ``at``, found by a fresh
        scan to it; the line counts "\n"s before it and a tab is one column."""
        text = self.text
        if self.texts[at] is None:
            # every '#' begins a comment, so one on the last line runs to the end
            comment = text.find("#", text.rfind("\n") + 1)
            offset = len(text) if comment < 0 else comment
        else:
            matches = _TOKEN.finditer(text, _LEADING_SKIP.match(text).end())
            offset = next(islice(matches, at, None)).start()
        return offset, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def error(self, message: str, at: int | None = None) -> ParseError:
        _, line, col = self.where(self.pos if at is None else at)
        return ParseError(message, line, col)

    def unexpected(self, what: str) -> ParseError:
        got = self.texts[self.pos] or "end of input"
        return self.error(f"expected {what}, got {got!r}")

    def expect(self, punct: str, what: str) -> None:
        if self.texts[self.pos] != punct:
            raise self.unexpected(what)
        self.pos += 1

    def take(self, kind: str, what: str) -> int:
        """Index of the current token, which must be of ``kind``; steps past it."""
        at = self.pos
        if _kind(self.texts[at]) != kind:
            raise self.unexpected(what)
        self.pos += 1
        return at

    # document level -----------------------------------------------------

    def document(self) -> SourceDocument:
        while self.texts[self.pos] is not None:
            word = self.texts[self.pos]
            if word == "constraint":
                self.constraint_def()
            elif word == "expr":
                self.expr_def()
            else:
                raise self.error("expected 'constraint' or 'expr' definition")
        return self.env

    def constraint_def(self) -> None:
        self.pos += 1  # 'constraint'
        name_at = self.take("ident", "constraint name")
        name = self.texts[name_at]
        if name in self.env.constraints:
            raise self.error(f"constraint {name!r} already defined", name_at)
        kw = self.take("ident", "'arity'")
        if self.texts[kw] != "arity":
            raise self.error("expected 'arity'", kw)
        arity_at = self.take("num", "arity integer")
        arity = _to_int(self.texts[arity_at])
        if arity is None:
            raise self.error("arity out of range 1..16", arity_at)
        if not 1 <= arity <= 16:
            raise self.error(f"arity {arity} out of range 1..16", arity_at)
        self.expect(":=", "':='")
        body = self.take("ident", "'table' or 'formula'")
        if self.texts[body] == "table":
            bits_at = self.take("num", "bit string")
            try:
                constraint = make_constraint(name, arity, self.texts[bits_at])
            except ValueError as e:
                raise self.error(str(e), bits_at) from None
        elif self.texts[body] == "formula":
            self.full = (1 << (1 << arity)) - 1
            constraint = Constraint(name, arity, self._binary(arity, 0))
        else:
            raise self.error("expected 'table' or 'formula'", body)
        self.expect(";", "';'")
        self.env.constraints[name] = constraint

    def expr_def(self) -> None:
        self.pos += 1  # 'expr'
        name_at = self.take("ident", "expression name")
        name = self.texts[name_at]
        if name in self.env.expressions:
            raise self.error(f"expression {name!r} already defined", name_at)
        self.expect(":=", "':='")
        self.env.expressions[name] = self.expression_body()

    # expressions ---------------------------------------------------------

    def expression_body(self) -> QuantifiedExpression:
        texts = self.texts
        at = self.pos
        blocks: list[QuantifierBlock] = []
        # the integer form of model.compile_expression, built as it is read:
        # a bound name maps to its slot, and the same lookup is the
        # free-variable check
        slots: dict[str, int] = dict(_CONSTANTS)
        quantifiers: list[Quantifier] = []
        while texts[at] in _QUANTIFIERS:
            quant = _QUANTIFIERS[texts[at]]
            if blocks and blocks[-1].quantifier is quant:
                raise self.error("adjacent quantifier blocks must alternate", at)
            first = at = at + 1
            while _kind(texts[at]) == "ident" and texts[at] not in _QUANTIFIERS:
                if texts[at] in slots:
                    raise self.error(f"duplicate variable {texts[at]!r}", at)
                slots[texts[at]] = len(slots) - len(_CONSTANTS)
                at += 1
            if at == first:
                raise self.error("quantifier block binds no variables", first - 1)
            quantifiers += [quant] * (at - first)
            blocks.append(QuantifierBlock(quant, tuple(texts[first:at])))
            if texts[at] == ";":
                if texts[at + 1] not in _QUANTIFIERS:
                    break  # the ';' ends the definition (empty matrix case)
                at += 1
        self.pos = at
        self.expect(":", "':' between prefix and matrix")
        apps: list[tuple[int, int, list[int]]] = []
        uses: list[Constraint] = []
        if self.texts[self.pos] != ";":
            self.application(slots, apps, uses)
            while self.texts[self.pos] == ",":
                self.pos += 1
                self.application(slots, apps, uses)
        self.expect(";", "';'")
        return QuantifiedExpression._of_form(tuple(blocks), (quantifiers, apps), uses)

    def application(self, slots: dict[str, int], apps: list, uses: list) -> None:
        """One application, appended to ``apps`` as ``(arity, bits, codes)``
        and its constraint to ``uses``."""
        texts = self.texts
        name_at = self.take("ident", "constraint name")
        constraint = self.env.lookup(texts[name_at])
        if constraint is None:
            raise self.error(f"unknown constraint {texts[name_at]!r}", name_at)
        self.expect("(", "'('")
        codes: list[int] = []
        at = self.pos
        while True:
            code = slots.get(texts[at])
            if code is None:
                if _kind(texts[at]) == "ident":
                    raise self.error(f"free variable {texts[at]!r} in matrix", at)
                raise self.error("expected variable or constant 0/1", at)
            codes.append(code)
            if texts[at + 1] != ",":
                break
            at += 2
        self.pos = at + 1
        self.expect(")", "')'")
        if len(codes) != constraint.arity:
            raise self.error(f"{constraint.name} takes {constraint.arity} arguments, "
                             f"got {len(codes)}", name_at)
        apps.append((constraint.arity, constraint.bits, codes))
        uses.append(constraint)

    # formula sub-language -------------------------------------------------
    # each method returns its subformula's table as a word of 2**arity bits
    # (see qcsp.words), bit r the value on row r; self.full is every row

    def _binary(self, arity: int, depth: int, level: int = 0) -> int:
        """A chain of _BINARY[level]'s operator over tighter terms, folded
        in a loop; '->' groups to the right, so its operands wait for the
        chain's end."""
        if level == len(_BINARY):
            return self._unary(arity, depth)
        op, combine = _BINARY[level]
        word = self._binary(arity, depth, level + 1)
        waiting: list[int] = []
        while self.texts[self.pos] == op:
            self.pos += 1
            right = self._binary(arity, depth, level + 1)
            if op == "->":
                waiting.append(word)
                word = right
            else:
                word = combine(self.full, word, right)
        while waiting:
            word = combine(self.full, waiting.pop(), word)
        return word

    def _unary(self, arity: int, depth: int) -> int:
        if depth > _MAX_FORMULA_DEPTH:
            raise self.error("formula nesting too deep")
        at = self.pos
        token = self.texts[at]
        if token == "!":
            self.pos += 1
            return self.full ^ self._unary(arity, depth + 1)
        if token == "(":
            self.pos += 1
            word = self._binary(arity, depth + 1)
            self.expect(")", "')'")
            return word
        if _kind(token) == "ident":
            self.pos += 1
            if token.startswith("v") and token[1:].isdecimal():
                idx = _to_int(token[1:])
                if idx is not None and 1 <= idx <= arity:
                    return patterns(arity)[arity - idx]  # v1 is the top row bit
            raise self.error(f"expected formula variable v1..v{arity}", at)
        raise self.error("expected formula term")


# left to the token parser before any definition is read: a formula body's
# keyword, the comment sign, and the ASCII characters str.split() and
# str.strip() take for whitespace that the grammar does not
_NOT_PLAIN = ("formula", "#", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_plain(text: str) -> SourceDocument | None:
    """The document ``text`` read by C-level string methods, or None when
    this reader does not accept it exactly; it never raises.

    Whatever it accepts, the token parser reads to an equal document with
    equal forms (``verify`` checks this): every word is checked as the token
    it must be, and any doubt declines.
    """
    if not text.isascii() or any(c in text for c in _NOT_PLAIN):
        return None
    env = SourceDocument()
    pos = 0
    while (assign := text.find(":=", pos)) >= 0:
        head = text[pos:assign].split()
        if len(head) == 4 and head[0] == "constraint" and head[2] == "arity":
            end = text.find(";", assign)
            body = text[assign + 2 : end].split()  # the last 2 of 7 words
            name, digits = head[1], head[3]
            if (end < 0 or len(body) != 2 or body[0] != "table"
                    or not name.isidentifier() or name in env.constraints
                    or not digits.isdecimal() or (arity := _to_int(digits)) is None):
                return None
            try:
                env.constraints[name] = make_constraint(name, arity, body[1])
            except ValueError:
                return None
        elif len(head) == 2 and head[0] == "expr":
            name = head[1]
            colon = text.find(":", assign + 2)
            end = text.find(";", colon) if colon >= 0 else -1
            if end < 0 or not name.isidentifier() or name in env.expressions:
                return None
            expr = _read_expression(text[assign + 2 : colon], text[colon + 1 : end], env)
            if expr is None:
                return None
            env.expressions[name] = expr
        else:
            return None
        pos = end + 1
    return None if text[pos:].strip() else env


def _read_expression(prefix: str, matrix: str, env: SourceDocument):
    """The expression of ``prefix : matrix``, or None; see :func:`_read_plain`."""
    blocks: list[QuantifierBlock] = []
    slots: dict[str, int] = dict(_CONSTANTS)
    quantifiers: list[Quantifier] = []
    for block in prefix.split(";") if prefix.strip() else ():
        names = block.split()
        quant = _QUANTIFIERS.get(names.pop(0)) if names else None
        if (quant is None or not names or (blocks and blocks[-1].quantifier is quant)
                or "E" in names or "A" in names  # a block the ';' does not end
                or not all(map(str.isidentifier, names))):
            return None
        size = len(slots)
        slots.update(zip(names, count(size - len(_CONSTANTS))))
        if len(slots) != size + len(names):
            return None  # a name bound twice
        quantifiers += [quant] * len(names)
        blocks.append(QuantifierBlock(quant, tuple(names)))
    apps: list[tuple[int, int, list[int]]] = []
    uses: list[Constraint] = []
    pieces = matrix.split(")")
    if pieces.pop().strip():
        return None
    # each raw head after the first, its comma included, resolved once; the
    # first has no comma and is kept out, so a repeat of it fails the check
    heads: dict[str, tuple[Constraint, int, int]] = {}
    for piece in pieces:
        head, paren, args = piece.partition("(")
        resolved = heads.get(head)
        if resolved is None:
            name = head
            if apps:  # a ',' comes before every application but the first
                blank, comma, name = head.partition(",")
                if not comma or blank.strip():
                    return None
            constraint = env.lookup(name.strip())
            if constraint is None:
                return None
            resolved = constraint, constraint.arity, constraint.bits
            if apps:
                heads[head] = resolved
        constraint, arity, bits = resolved
        codes = list(map(slots.get, map(str.strip, args.split(","))))
        if not paren or None in codes or len(codes) != arity:
            return None
        apps.append((arity, bits, codes))
        uses.append(constraint)
    return QuantifiedExpression._of_form(tuple(blocks), (quantifiers, apps), uses)


def parse_document(text: str) -> SourceDocument:
    """Parse a full DSL document; raises :class:`ParseError` on any defect.

    The fast reader runs first; the token parser reads what it declines."""
    return _read_plain(text) or _Parser(text, SourceDocument()).document()


def parse_expression(
    text: str, constraints: Mapping[str, Constraint] | None = None
) -> QuantifiedExpression:
    """Parse a bare expression body like ``A x : EQ2(x, 0);``."""
    env = SourceDocument(constraints=dict(constraints or {}))
    parser = _Parser(text, env)
    expr = parser.expression_body()
    if parser.texts[parser.pos] is not None:
        raise parser.error("trailing input after expression")
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
