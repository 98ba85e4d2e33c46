"""Dichotomy classification of constraint sets.

Each property is decided on the truth table as a word (:mod:`qcsp.words`):
0-valid and 1-valid read one row, complementive compares the table with its
mirror.  Horn, anti-Horn, bijunctive and affine are closure under AND, OR,
ternary majority and x^y^z, and each builds the closure of the table's
models under its operation with O(k^2) operations on words of 2^k bits:

* AND: a point is an AND of models iff some model lies above it and, for
  each 0 of the point, some model above it has a 0 there (k+1 downward
  closures); OR is the same on the mirrored table;
* majority: the points whose every pair of values some model shows, the
  join of the 2-projections (Schaefer, STOC 1978);
* x^y^z: the affine hull, grown from one model by translations.

A witness is a tuple of rows: the row read for 0-valid or 1-valid, the
first row whose value differs from its complement's and that complement,
and for a class the least row the closure adds, a non-model the operation
builds from models.  Answers are cached per table ``(arity, bits)`` and
property behind :func:`has_property`, which ``classify_set`` reads too.

A set has a property iff every member does; the verdicts then follow the
dichotomy table: plain satisfiability is tractable iff the set is 0-valid,
1-valid or Schaefer (Horn/anti-Horn/affine/bijunctive), and every quantified
variant -- with or without constants, at any alternation level >= 2 -- is
tractable iff the set is Schaefer, complete for the matching level otherwise.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

from .model import Constraint
from .words import mirror, patterns

Failure = tuple[int, ...]  # the rows showing that a constraint lacks a property


def _least(word: int) -> int:
    return (word & -word).bit_length() - 1


def _complementive(c: Constraint) -> Failure | None:
    differ = c.bits ^ mirror(c.arity, c.bits)
    return (_least(differ), (c.rows - 1) ^ _least(differ)) if differ else None


def _below(n: int, word: int) -> int:
    """The points at or below a point of ``word``."""
    for p, pattern in enumerate(patterns(n)):
        word |= (word & pattern) >> (1 << p)
    return word


def _and_closure(n: int, models: int) -> int:
    out = _below(n, models)
    for pattern in patterns(n):
        out &= pattern | _below(n, models & ~pattern)
    return out


def _majority_closure(n: int, models: int) -> int:
    full = (1 << (1 << n)) - 1
    literals = [x for pattern in patterns(n) for x in (pattern, full ^ pattern)]
    out = full
    for i, a in enumerate(literals):
        for b in literals[i:]:
            if not models & a & b:  # no model shows this pair of values
                out &= ~(a & b)
    return out


def _affine_closure(n: int, models: int) -> int:
    hull = models & -models  # the least model, or nothing
    while outside := models & ~hull:
        step = _least(outside) ^ _least(models)
        moved = hull
        for p, pattern in enumerate(patterns(n)):
            if step >> p & 1:  # translate along variable p
                moved = ((moved & pattern) >> (1 << p)) | ((moved & ~pattern) << (1 << p))
        hull |= moved
    return hull


def _closed(closure: Callable[[int, int], int]) -> Callable[[Constraint], Failure | None]:
    """Being closed as a property: its Failure is the least row added."""

    def failure(c: Constraint) -> Failure | None:
        added = closure(c.arity, c.bits) & ~c.bits
        return (_least(added),) if added else None

    return failure


# The one definition of each property, keyed by its PropertyFlags field: a
# function returning None when the constraint has the property and its
# Failure otherwise.  The order is the order in which witnesses are reported.
PROPERTIES: dict[str, Callable[[Constraint], Failure | None]] = {
    "zero_valid": lambda c: None if c.value_on(0) else (0,),
    "one_valid": lambda c: None if c.value_on(c.rows - 1) else (c.rows - 1,),
    "complementive": _complementive,
    "horn": _closed(_and_closure),
    "anti_horn": _closed(lambda n, models: mirror(n, _and_closure(n, mirror(n, models)))),
    "bijunctive": _closed(_majority_closure),
    "affine": _closed(_affine_closure),
}


# Entries in each per-table cache (memberships here, normal forms in solvers),
# bounded so that a long run over fresh tables stays in fixed memory.  A table
# takes at most seven entries here and four there, so 64 tables stay cached.
TABLE_CACHE_SIZE = 512


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _failure(arity: int, bits: int, name: str) -> Failure | None:
    """The Failure of the table ``(arity, bits)`` for property ``name``."""
    return PROPERTIES[name](Constraint("table", arity, bits))


def has_property(c: Constraint, name: str) -> bool:
    """Whether ``c`` has the property named by a PropertyFlags field."""
    return _failure(c.arity, c.bits, name) is None


@dataclass(frozen=True)
class PropertyFlags:
    zero_valid: bool
    one_valid: bool
    horn: bool
    anti_horn: bool
    bijunctive: bool
    affine: bool
    complementive: bool

    @property
    def schaefer(self) -> bool:
        return self.horn or self.anti_horn or self.bijunctive or self.affine

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def classify_constraint(c: Constraint) -> PropertyFlags:
    return PropertyFlags(**{name: has_property(c, name) for name in PROPERTIES})


@dataclass(frozen=True)
class Witness:
    """A constraint plus the rows showing why a set-level property fails."""

    property: str
    constraint: str
    rows: tuple[int, ...]

    def render(self) -> str:
        return f"{self.constraint} rows={','.join(str(r) for r in self.rows)}"


# Each verdict's hard case, and whether a 0-valid or 1-valid set is tractable
# there too; a Schaefer set is tractable everywhere.  Level 1 is a single
# existential block, exactly a satisfiability instance, so it inherits the
# plain-SAT verdicts; qsat_i stands for every alternation level i >= 2.
_VERDICTS = {
    "sat": ("NP-complete", True),
    "sat_c": ("NP-complete", False),
    "qsat": ("PSPACE-complete", False),
    "qsat_c": ("PSPACE-complete", False),
    "qsat_1": ("NP-complete", True),
    "qsat_1c": ("NP-complete", False),
    "qsat_i": ("Sigma_i-complete", False),
    "qsat_ic": ("Sigma_i-complete", False),
}


@dataclass(frozen=True)
class ClassificationReport:
    flags: PropertyFlags
    witnesses: tuple[Witness, ...]
    constant_constraints: tuple[str, ...]

    def verdicts(self) -> dict[str, str]:
        valid = self.flags.zero_valid or self.flags.one_valid
        return {
            name: "P" if self.flags.schaefer or (valid and valid_helps) else hard
            for name, (hard, valid_helps) in _VERDICTS.items()
        }

    def to_dict(self) -> dict:
        return {
            "flags": self.flags.as_dict(),
            "verdicts": self.verdicts(),
            "witnesses": {w.property: w.render() for w in self.witnesses},
            "constant_constraints": list(self.constant_constraints),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"flags.{k}={str(v).lower()}" for k, v in self.flags.as_dict().items()]
        lines += [f"verdicts.{k}={v}" for k, v in self.verdicts().items()]
        lines += [f"witnesses.{w.property}={w.render()}" for w in self.witnesses]
        if self.constant_constraints:
            lines.append("constants=" + ",".join(self.constant_constraints))
        return "\n".join(lines)


def classify_set(constraints: Sequence[Constraint] | Iterable[Constraint]) -> ClassificationReport:
    """Conjunctive flags, dichotomy verdicts, and failure witnesses for a set."""
    cs = list(constraints)
    if not cs:
        raise ValueError("cannot classify an empty constraint set")
    flags: dict[str, bool] = {}
    witnesses: list[Witness] = []
    for name in PROPERTIES:
        for c in cs:
            failure = _failure(c.arity, c.bits, name)
            if failure is not None:
                witnesses.append(Witness(name, c.name, failure))
                break
        flags[name] = failure is None  # None only if no table failed
    constants = tuple(c.name for c in cs if c.is_constant())
    return ClassificationReport(PropertyFlags(**flags), tuple(witnesses), constants)
