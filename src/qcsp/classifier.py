"""Dichotomy classification of constraint sets.

The seven per-constraint properties are decided directly on the truth table:
0-valid, 1-valid and complementive by reading rows, and the four tractable
classes by the classical closure characterizations of their satisfying sets
(Horn = closed under coordinatewise AND, anti-Horn under OR, bijunctive under
ternary majority, affine under ternary XOR).  The closure choice is validated
exhaustively against normal-form synthesis in the test suite.  Each answer
is cached per table ``(arity, bits)`` and property, never per name, behind
:func:`has_property`; ``classify_set`` reads its witnesses from the same
bounded cache, so no caller decides a cached membership again.

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

# The rows showing that a constraint lacks a property, and the row they
# produce under the closure operation (None for the direct reads).
Failure = tuple[tuple[int, ...], int | None]


def _zero_valid(c: Constraint) -> Failure | None:
    return None if c.value_on(0) else ((0,), None)


def _one_valid(c: Constraint) -> Failure | None:
    full = c.rows - 1
    return None if c.value_on(full) else ((full,), None)


def _complementive(c: Constraint) -> Failure | None:
    full = c.rows - 1
    for r in range(c.rows):
        if c.value_on(r) != c.value_on(full ^ r):
            return (r, full ^ r), None
    return None


def _closed_under(op):
    """Witness for closure under ``op``: the first satisfying pair whose
    combination escapes the satisfying set."""

    def witness(c: Constraint) -> Failure | None:
        sat = c.satisfying_rows()
        member = set(sat)
        for a in sat:
            for b in sat:
                out = op(a, b)
                if out not in member:
                    return (a, b), out
        return None

    return witness


def _majority(c: Constraint) -> Failure | None:
    # maj is symmetric and maj(a, a, d) = a, so a failing triple has three
    # distinct rows, and the first one in (a, b, d) order has a < b < d
    sat = c.satisfying_rows()
    member = set(sat)
    for i, a in enumerate(sat):
        for j in range(i + 1, len(sat)):
            b = sat[j]
            ab = a & b
            a_xor_b = a ^ b
            for d in sat[j + 1:]:
                out = ab | (d & a_xor_b)
                if out not in member:
                    return (a, b, d), out
    return None


def _xor3(c: Constraint) -> Failure | None:
    # sat is xor3-closed iff it is an affine subspace: fix a base point and
    # check the difference set is closed under pairwise xor.
    sat = c.satisfying_rows()
    if not sat:
        return None
    base = sat[0]
    member = set(sat)
    for a in sat:
        for b in sat:
            out = a ^ b ^ base
            if out not in member:
                return (a, b, base), out
    return None


# The one definition of each property, keyed by its PropertyFlags field: a
# function returning None when the constraint has the property and its
# Failure otherwise.  The order is the order in which witnesses are reported.
PROPERTIES: dict[str, Callable[[Constraint], Failure | None]] = {
    "zero_valid": _zero_valid,
    "one_valid": _one_valid,
    "complementive": _complementive,
    "horn": _closed_under(int.__and__),
    "anti_horn": _closed_under(int.__or__),
    "bijunctive": _majority,
    "affine": _xor3,
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
    produced: int | None = None

    def render(self) -> str:
        rows = ",".join(str(r) for r in self.rows)
        if self.produced is None:
            return f"{self.constraint} rows={rows}"
        return f"{self.constraint} rows={rows} -> {self.produced}"


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
                witnesses.append(Witness(name, c.name, *failure))
                break
        flags[name] = failure is None  # None only if no table failed
    constants = tuple(c.name for c in cs if c.is_constant())
    return ClassificationReport(PropertyFlags(**flags), tuple(witnesses), constants)
