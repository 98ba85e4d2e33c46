"""Core data model: constraints, applications, and quantified expressions.

A constraint is a Boolean function of fixed arity given extensionally by its
truth table.  Tables are packed into a Python int, one bit per row; row ``r``
holds the value of the function on the assignment whose bits spell ``r`` with
the *first* argument as the most significant bit.  So for a binary constraint
the rows are 00, 01, 10, 11 in that order, and the table string "0111" is
inclusive-or.

Everything here is immutable after construction and safe to share between
threads; all operations are pure.  A quantified expression builds its matrix
or its integer form at the first read and keeps it; two threads that race
there build equal values.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Mapping, Sequence

MAX_ARITY = 16


class Quantifier(enum.Enum):
    EXISTS = "E"
    FORALL = "A"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


class Polarity(enum.Enum):
    SIGMA = "Sigma"
    PI = "Pi"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


@dataclass(frozen=True)
class Constraint:
    """A named Boolean function of fixed arity, stored as a packed truth table.

    ``bits`` has bit ``r`` set iff the function is 1 on row ``r``.
    """

    name: str
    arity: int
    bits: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"constraint {self.name!r}: arity must be >= 1")
        if self.arity > MAX_ARITY:
            raise ValueError(
                f"constraint {self.name!r}: arity {self.arity} exceeds the "
                f"supported maximum of {MAX_ARITY}"
            )
        if not 0 <= self.bits < (1 << (1 << self.arity)):
            raise ValueError(f"constraint {self.name!r}: table does not fit arity")

    @property
    def rows(self) -> int:
        return 1 << self.arity

    def value_on(self, row: int) -> int:
        """Truth value on the assignment encoded by ``row``."""
        return (self.bits >> row) & 1

    def satisfying_rows(self) -> list[int]:
        return [r for r in range(self.rows) if (self.bits >> r) & 1]

    def table(self) -> str:
        """The table as a 0/1 string, row 0 first."""
        return "".join(str((self.bits >> r) & 1) for r in range(self.rows))

    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == (1 << self.rows) - 1

    def __repr__(self) -> str:
        return f"Constraint({self.name!r}, {self.arity}, {self.table()!r})"


def make_constraint(name: str, arity: int, table: str | Sequence[int]) -> Constraint:
    """Build a constraint from a bit sequence of length 2**arity.

    ``table`` may be a string of '0'/'1' or any sequence of 0/1 ints; entry 0
    is the value on the all-zeros row, and the first argument is the most
    significant bit of the row index.
    """
    if arity < 1:
        raise ValueError(f"constraint {name!r}: arity must be >= 1")
    if arity > MAX_ARITY:
        raise ValueError(f"constraint {name!r}: arity {arity} exceeds {MAX_ARITY}")
    cells = table if isinstance(table, str) else list(table)
    if len(cells) != (1 << arity):
        raise ValueError(
            f"constraint {name!r}: table has {len(cells)} entries, "
            f"expected {1 << arity} for arity {arity}"
        )
    if isinstance(cells, str):
        bad = cells.lstrip("01")[:1]  # the first character that is neither
        if bad:
            raise ValueError(f"constraint {name!r}: bad table character {bad!r}")
        return Constraint(name, arity, int(cells[::-1], 2))  # row 0 is the low bit
    bits = 0
    for row, cell in enumerate(cells):
        if isinstance(cell, str):
            if cell not in ("0", "1"):
                raise ValueError(f"constraint {name!r}: bad table character {cell!r}")
            bit = int(cell)
        else:
            if cell not in (0, 1):
                raise ValueError(f"constraint {name!r}: bad table entry {cell!r}")
            bit = cell
        bits |= bit << row
    return Constraint(name, arity, bits)


def complement_constraint(c: Constraint) -> Constraint:
    """The table read under negated arguments: value on s becomes value on ~s.

    An involution.  Complementive constraints come back unchanged (same
    name); otherwise a ``_c`` suffix is toggled on the name.
    """
    # row r moves to row ~r = rows - 1 - r: the table read backwards
    bits = int(format(c.bits, f"0{c.rows}b")[::-1], 2)
    if bits == c.bits:
        return c
    name = c.name[:-2] if c.name.endswith("_c") else c.name + "_c"
    return Constraint(name, c.arity, bits)


@dataclass(frozen=True)
class Argument:
    """One argument slot of an application: a variable name or the constant 0/1."""

    var: str | None = None
    const: int | None = None

    def __post_init__(self) -> None:
        if (self.var is None) == (self.const is None):
            raise ValueError("argument must be exactly one of variable / constant")
        if self.const is not None and self.const not in (0, 1):
            raise ValueError(f"constant argument must be 0 or 1, got {self.const!r}")

    @property
    def is_const(self) -> bool:
        return self.const is not None

    @classmethod
    def of(cls, value: str | int | Argument) -> Argument:
        if isinstance(value, Argument):
            return value
        if isinstance(value, str):
            return cls(var=value)
        return cls(const=value)

    def __repr__(self) -> str:
        return repr(self.const) if self.is_const else self.var  # type: ignore[return-value]


@dataclass(frozen=True)
class ConstraintApplication:
    """A constraint applied to variables and/or constants (repeats allowed)."""

    constraint: Constraint
    args: tuple[Argument, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.constraint.arity:
            raise ValueError(
                f"{self.constraint.name}: got {len(self.args)} arguments, "
                f"expected {self.constraint.arity}"
            )

    def variables(self) -> tuple[str, ...]:
        """Distinct variables in argument order of first occurrence."""
        seen: dict[str, None] = {}
        for a in self.args:
            if a.var is not None:
                seen.setdefault(a.var)
        return tuple(seen)

    def has_constants(self) -> bool:
        return any(a.is_const for a in self.args)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Table lookup under ``assignment``; constants resolve to themselves."""
        k = self.constraint.arity
        row = 0
        for i, a in enumerate(self.args):
            if a.is_const:
                bit = a.const
            else:
                try:
                    bit = assignment[a.var]  # type: ignore[index]
                except KeyError:
                    raise ValueError(f"unbound variable {a.var!r}") from None
            row |= bit << (k - 1 - i)  # type: ignore[operator]
        return self.constraint.value_on(row)

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.constraint.name}({inner})"


def app(constraint: Constraint, *args: str | int | Argument) -> ConstraintApplication:
    """Convenience constructor; strings are variables, ints are constants."""
    return ConstraintApplication(constraint, tuple(Argument.of(a) for a in args))


@dataclass(frozen=True)
class QuantifierBlock:
    quantifier: Quantifier
    vars: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.vars:
            raise ValueError("quantifier block must bind at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"duplicate variable in block: {self.vars}")


def exists(*names: str) -> QuantifierBlock:
    return QuantifierBlock(Quantifier.EXISTS, tuple(names))


def forall(*names: str) -> QuantifierBlock:
    return QuantifierBlock(Quantifier.FORALL, tuple(names))


# the argument of the constant c sits at index ~c of a list of arguments
# indexed by form code, after one argument per slot
_CONSTANT_ARGUMENTS = (Argument(const=1), Argument(const=0))


class QuantifiedExpression:
    """A closed, fully quantified conjunction of constraint applications.

    The prefix is a sequence of maximal blocks (adjacent blocks must have
    distinct quantifiers); every variable of the matrix must be bound by
    exactly one block, so free variables are impossible by construction.

    An expression holds its matrix, its integer form (see
    :func:`compile_expression`) together with the constraint of each
    application, or both.  ``QuantifiedExpression(prefix, matrix)`` holds
    the matrix; the parser holds the form.  The missing half is built the
    first time it is read and kept, so a parsed expression that is only
    solved never builds a matrix.  A built matrix shares one ``Argument``
    per name.  Equality, hashing and repr read the matrix.
    """

    __slots__ = ("prefix", "_matrix", "_form", "_uses")  # None: not held yet

    def __init__(
        self,
        prefix: tuple[QuantifierBlock, ...],
        matrix: tuple[ConstraintApplication, ...],
    ) -> None:
        bound: set[str] = set()
        for idx, block in enumerate(prefix):
            if idx and block.quantifier is prefix[idx - 1].quantifier:
                raise ValueError("adjacent quantifier blocks must alternate")
            dup = bound.intersection(block.vars)
            if dup:
                raise ValueError(f"variable bound twice: {sorted(dup)}")
            bound.update(block.vars)
        for application in matrix:
            for a in application.args:
                if a.var is not None and a.var not in bound:
                    raise ValueError(f"free variable {a.var!r} in matrix")
        self._set(prefix=prefix, _matrix=matrix, _form=None, _uses=None)

    @classmethod
    def _of_form(cls, prefix, form, uses) -> QuantifiedExpression:
        """An expression holding ``form`` and the constraint of each of its
        applications, unchecked: the caller has validated both."""
        expr = object.__new__(cls)
        expr._set(prefix=prefix, _matrix=None, _form=form, _uses=uses)
        return expr

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def matrix(self) -> tuple[ConstraintApplication, ...]:
        matrix = self._matrix
        if matrix is None:
            arguments = [Argument(var=v) for v in self.variables()]
            arguments += _CONSTANT_ARGUMENTS
            matrix = tuple(
                ConstraintApplication(c, tuple([arguments[a] for a in codes]))
                for c, (_, _, codes) in zip(self._uses, self._form[1])
            )
            self._set(_matrix=matrix)
        return matrix

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: __setattr__ refuses the
        # default restore of slots
        return QuantifiedExpression, (self.prefix, self.matrix)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.prefix, self.matrix) == (other.prefix, other.matrix)

    def __hash__(self) -> int:
        return hash((self.prefix, self.matrix))

    def variables(self) -> tuple[str, ...]:
        """All bound variables in prefix order."""
        out: list[str] = []
        for block in self.prefix:
            out.extend(block.vars)
        return tuple(out)

    def constraints(self) -> tuple[Constraint, ...]:
        """Distinct constraints in order of first use."""
        seen: dict[Constraint, None] = {}
        for application in self.matrix:
            seen.setdefault(application.constraint)
        return tuple(seen)

    def has_constants(self) -> bool:
        return any(a.has_constants() for a in self.matrix)

    def __repr__(self) -> str:
        blocks = " ".join(
            f"{b.quantifier.value}{{{','.join(b.vars)}}}" for b in self.prefix
        )
        apps = ", ".join(repr(a) for a in self.matrix)
        return f"<{blocks} : {apps}>"


def compile_expression(expr: QuantifiedExpression):
    """The integer form of ``expr`` that the oracle and the class solvers read.

    Each variable is numbered by its *slot*, its position in the prefix.
    Returns ``(quantifiers, apps)``: the quantifier of each slot, and each
    application as ``(arity, bits, args)``,
    where ``args[i]`` is the slot of argument ``i`` or ``~c`` (a negative
    number) for the constant ``c``.  Equal tables under different names give
    equal ``(arity, bits)``, so per-table work is keyed by that pair.

    The form is the one the expression holds: the parser's, or for an
    expression built from a matrix, one walk of the matrix made at the first
    call and kept.  Callers must not change it.
    """
    if expr._form is None:
        slot = {v: s for s, v in enumerate(expr.variables())}
        quantifiers: list[Quantifier] = []
        for block in expr.prefix:
            quantifiers += [block.quantifier] * len(block.vars)
        apps = []
        uses = []
        for application in expr.matrix:
            c = application.constraint
            args = [~a.const if a.var is None else slot[a.var] for a in application.args]
            apps.append((c.arity, c.bits, args))
            uses.append(c)
        expr._set(_uses=uses, _form=(quantifiers, apps))
    return expr._form


def table_constraints(expr: QuantifiedExpression) -> dict[tuple[int, int], Constraint]:
    """Each distinct table ``(arity, bits)`` of the matrix, in order of first
    use, with the constraint of its first use; read off the held form, so no
    matrix is built and no constraint is hashed."""
    compile_expression(expr)
    uses = expr._uses
    tables: dict[tuple[int, int], Constraint] = {}
    # distinct constraint objects first, by identity, then their tables
    for c in dict(zip(map(id, uses), uses)).values():
        tables.setdefault((c.arity, c.bits), c)
    return tables


@dataclass(frozen=True)
class PrefixShape:
    polarity: Polarity
    level: int

    def __repr__(self) -> str:
        return f"({self.polarity.value}, {self.level})"


def prefix_shape(expr: QuantifiedExpression) -> PrefixShape:
    """Block count plus the polarity fixed by the first block.

    An empty prefix degenerates to (Sigma, 0).
    """
    if not expr.prefix:
        return PrefixShape(Polarity.SIGMA, 0)
    first = expr.prefix[0].quantifier
    polarity = Polarity.SIGMA if first is Quantifier.EXISTS else Polarity.PI
    return PrefixShape(polarity, len(expr.prefix))


def block_quantifier(polarity: Polarity, position: int) -> Quantifier:
    """Quantifier of block ``position`` (1-based) in a prefix of given polarity."""
    first_is_exists = polarity is Polarity.SIGMA
    if position % 2 == 1:
        return Quantifier.EXISTS if first_is_exists else Quantifier.FORALL
    return Quantifier.FORALL if first_is_exists else Quantifier.EXISTS


def normalized_prefix(
    blocks: Iterable[tuple[Quantifier, Sequence[str]]],
) -> tuple[QuantifierBlock, ...]:
    """Drop empty blocks and merge adjacent blocks with equal quantifiers."""
    out: list[tuple[Quantifier, list[str]]] = []
    for quant, names in blocks:
        names = list(names)
        if not names:
            continue
        if out and out[-1][0] is quant:
            out[-1][1].extend(names)
        else:
            out.append((quant, names))
    return tuple(QuantifierBlock(q, tuple(vs)) for q, vs in out)
