"""Exact brute-force truth evaluation of quantified expressions.

This is the trusted oracle every other module is tested against, so it stays
deliberately simple: recursive branching over the prefix in order, with two
cheap prunes that keep 20+ variable differential tests practical:

* an application whose variables are all assigned is evaluated immediately,
  and a violated application kills the branch;
* once every application is satisfied the matrix value is 1 for all
  extensions, so the remaining quantifiers are irrelevant.

Both prunes are value-preserving, never value-defaulting; running out of
budget raises, it never answers.  The recursion depth is part of the budget:
an instance with more variables than the interpreter's recursion limit leaves
room for is rejected up front.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .model import (
    Polarity,
    PrefixShape,
    Quantifier,
    QuantifiedExpression,
    prefix_shape,
)


class BudgetExceededError(Exception):
    """Raised when an instance is too large for the configured budget."""


class ShapeMismatchError(Exception):
    """Raised when a prefix does not fit the requested alternation class."""


@dataclass(frozen=True)
class EvalBudget:
    max_variables: int = 24
    node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.max_variables < 1:
            raise ValueError("max_variables must be >= 1")


DEFAULT_BUDGET = EvalBudget()


def evaluate(expr: QuantifiedExpression, budget: EvalBudget | None = None) -> int:
    """Truth value of ``expr`` under standard quantifier semantics.

    Existential blocks branch disjunctively, universal blocks conjunctively,
    in prefix order; the matrix is the conjunction of its applications (an
    empty matrix is true).  Raises :class:`BudgetExceededError` when the
    instance exceeds the budget; that is an error, never an answer.
    """
    budget = budget or DEFAULT_BUDGET
    order: list[str] = []
    quants: list[Quantifier] = []
    for block in expr.prefix:
        for v in block.vars:
            order.append(v)
            quants.append(block.quantifier)
    if len(order) > budget.max_variables:
        raise BudgetExceededError(
            f"{len(order)} variables exceeds budget of {budget.max_variables}"
        )
    # rec() below takes one stack frame per variable, on top of the frames
    # already on the stack
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    if depth + len(order) + 1 > sys.getrecursionlimit():
        raise BudgetExceededError(
            f"{len(order)} variables exceeds the recursion depth left under "
            f"the interpreter's limit of {sys.getrecursionlimit()}"
        )
    slot = {v: i for i, v in enumerate(order)}

    tables: list[int] = []
    rows: list[int] = []
    remaining: list[int] = []
    occurrences: list[list[tuple[int, int]]] = [[] for _ in order]
    live = 0
    for application in expr.matrix:
        k = application.constraint.arity
        base = 0
        weights: dict[str, int] = {}
        for pos, arg in enumerate(application.args):
            w = 1 << (k - 1 - pos)
            if arg.is_const:
                base |= arg.const * w  # type: ignore[operator]
            else:
                weights[arg.var] = weights.get(arg.var, 0) + w  # type: ignore[index]
        if not weights:
            if not application.constraint.value_on(base):
                return 0
            continue  # constant application, already true
        idx = live
        live += 1
        tables.append(application.constraint.bits)
        rows.append(base)
        remaining.append(len(weights))
        for v, w in weights.items():
            occurrences[slot[v]].append((idx, w))

    n_vars = len(order)
    node_limit = budget.node_limit
    nodes = 0

    def rec(pos: int, satisfied: int) -> int:
        nonlocal nodes
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise BudgetExceededError(f"node limit {node_limit} exceeded")
        if satisfied == live or pos == n_vars:
            return 1
        exists = quants[pos] is Quantifier.EXISTS
        for bit in (0, 1):
            value = 1
            sat_here = satisfied
            touched = 0
            for idx, w in occurrences[pos]:
                touched += 1
                if bit:
                    rows[idx] += w
                remaining[idx] -= 1
                if remaining[idx] == 0:
                    if (tables[idx] >> rows[idx]) & 1:
                        sat_here += 1
                    else:
                        value = 0
                        break
            if value:
                value = rec(pos + 1, sat_here)
            for idx, w in occurrences[pos][:touched]:
                remaining[idx] += 1
                if bit:
                    rows[idx] -= w
            if exists:
                if value:
                    return 1
            else:
                if not value:
                    return 0
        return 1 if not exists else 0

    return rec(0, 0)


def qsat_level_polarity(i: int) -> Polarity:
    if i < 1:
        raise ValueError("alternation level must be >= 1")
    return Polarity.SIGMA if i % 2 == 1 else Polarity.PI


def check_level_shape(shape: PrefixShape, i: int) -> None:
    """Accept prefixes of at most ``i`` blocks with the level-``i`` polarity.

    Missing trailing blocks are treated as empty, so e.g. a single universal
    block is a valid level-2 prefix.  Level-0 (constant) expressions fit any
    level.
    """
    required = qsat_level_polarity(i)
    if shape.level > i:
        raise ShapeMismatchError(
            f"prefix has {shape.level} blocks, more than level {i} allows"
        )
    if shape.level >= 1 and shape.polarity is not required:
        raise ShapeMismatchError(
            f"level {i} requires a {required.value}-shaped prefix, "
            f"got {shape.polarity.value}"
        )


def qsat_i_member(
    expr: QuantifiedExpression, i: int, budget: EvalBudget | None = None
) -> int:
    """Membership bit for the level-``i`` alternation-bounded problem.

    For odd ``i`` the question is truth of a Sigma_i expression; for even
    ``i`` it is *falsity* of a Pi_i expression, so the evaluated value is
    negated.
    """
    check_level_shape(prefix_shape(expr), i)
    value = evaluate(expr, budget)
    return value if i % 2 == 1 else 1 - value
