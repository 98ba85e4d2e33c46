"""Exact brute-force truth evaluation of quantified expressions.

This is the trusted oracle every other module is tested against, and the
decision procedure for every instance outside the Schaefer classes.  It
works in two steps.

**Components.**  The oracle reads only the integer form built by
:func:`~qcsp.model.compile_expression`.  Applications that share a slot
are joined by union-find, and each resulting part of the matrix is decided
alone, under the prefix cut to its own variables, smallest part first; the
first false part makes the expression false.  This is the distribution law: a
quantifier passes over a conjunct that does not mention its variable,
``Qx (A and B) = (Qx A) and B`` for ``Q`` either quantifier, so the
expression is the conjunction of its parts each under its own quantifiers.
A variable that no application mentions drops out the same way, and
constant-only applications are evaluated up front.  The cost of the parts
is a sum rather than a product.

**Leaf fold.**  Within a part, the outer variables are branched in prefix
order with one value-preserving prune: an application with no leaf
argument is evaluated at its last variable, where its row is complete, and
a violated one kills the branch.  No exit is needed for "every application
satisfied": a part holds only variables its applications mention, so that
can only hold past the part's last variable, at a leaf with no
applications, which answers 1.
The innermost ``b`` variables are not branched.  Each application with an
argument among them has its table, with its outer arguments and constants
fixed, expanded into a word of ``2^b`` bits, one per assignment of the leaf
variables (the outermost leaf variable is bit 0 of the point index).  The
words are cached per application by the fixed part of the row, so an
application builds at most ``2^arity`` of them.  Their AND is the matrix
over the leaf, and it is folded innermost variable first: the high half of
the word onto the low half, with OR for an existential and AND for a
universal.  Bit 0 is then the value.

**Sizing.**  ``b`` is chosen per part, not set: the largest
``b <= MAX_LEAF_BITS`` (16, an 8 KB word) with
``16 * sum(2^j) <= 2^b``, where ``j`` ranges over the number of leaf
arguments of each application that has one, else ``b = 0`` and the part
is plain recursion.  Building one word takes about ``2^j`` operations on
``2^b``-bit integers, so the rule keeps the words cheap against the
``2^b`` points they replace.  It matters for wide applications: one random
arity-16 application under ``A^8 E^8`` takes a few ms by recursion and
0.2-0.3 s through a 16-bit leaf (CPU time on a shared 2-vCPU VM); the rule
gives it ``b = 0``.

**Budget.**  Running out of budget raises, it never answers.
``max_variables`` counts every variable of the prefix.  Every node of the
recursion counts one against ``node_limit``, and a leaf counts the
``2^(b+1) - 1`` nodes of the full subtree it replaces, as many as plain
recursion could visit there.  The recursion depth is part of the budget:
an instance with more variables than the interpreter's recursion limit
leaves room for is rejected up front.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .model import (
    Polarity,
    PrefixShape,
    Quantifier,
    QuantifiedExpression,
    compile_expression,
    prefix_shape,
)
from .words import patterns, table_word

MAX_LEAF_BITS = 16


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
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be >= 0")


DEFAULT_BUDGET = EvalBudget()


def evaluate(expr: QuantifiedExpression, budget: EvalBudget | None = None) -> int:
    """Truth value of ``expr`` under standard quantifier semantics.

    Existential blocks branch disjunctively, universal blocks conjunctively,
    in prefix order; the matrix is the conjunction of its applications (an
    empty matrix is true).  Raises :class:`BudgetExceededError` when the
    instance exceeds the budget; that is an error, never an answer.
    """
    return _evaluate(expr, budget)


def _evaluate(
    expr: QuantifiedExpression,
    budget: EvalBudget | None = None,
    leaf_bits: int | None = None,
) -> int:
    """:func:`evaluate`, with the leaf width forced to ``min(leaf_bits, n)``
    in each part of ``n`` variables instead of chosen by the sizing rule;
    the verification suite uses this to exercise the fold at every width."""
    budget = budget or DEFAULT_BUDGET
    quantifiers, matrix = compile_expression(expr)
    n = len(quantifiers)
    if n > budget.max_variables:
        raise BudgetExceededError(
            f"{n} variables exceeds budget of {budget.max_variables}"
        )
    # on top of the frames already on the stack, a part takes one frame per
    # variable (branching above the cut, expanding a leaf word below it)
    # plus at most five: _decide, the last rec, leaf, words.table_word and
    # the last expand
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    if depth + n + 5 > sys.getrecursionlimit():
        raise BudgetExceededError(
            f"{n} variables exceeds the recursion depth left under "
            f"the interpreter's limit of {sys.getrecursionlimit()}"
        )

    # union-find over the slots: applications sharing a variable share a root
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # each application as (table, row of its constants, [(slot, weight)]);
    # a repeated variable's weights are summed
    compiled = []
    for k, bits, codes in matrix:
        base = 0
        weights: dict[int, int] = {}
        w = 1 << k
        for a in codes:
            w >>= 1
            if a < 0:
                base |= ~a * w
            else:
                weights[a] = weights.get(a, 0) + w
        if not weights:
            if not (bits >> base) & 1:
                return 0
            continue  # constant application, already true
        args = list(weights.items())
        root = find(args[0][0])
        for s, _ in args[1:]:
            r = find(s)
            if r != root:
                parent[r] = root
        compiled.append((bits, base, args))

    parts: dict[int, list] = {}
    for c in compiled:
        parts.setdefault(find(c[2][0][0]), []).append(c)
    # each part with its quantifiers and its variables renumbered, in prefix
    # order
    components = []
    for apps in parts.values():
        slots = sorted({s for _, _, args in apps for s, _ in args})
        local = {s: i for i, s in enumerate(slots)}
        components.append((
            [quantifiers[s] is Quantifier.EXISTS for s in slots],
            [(bits, base, [(local[s], w) for s, w in args]) for bits, base, args in apps],
        ))
    components.sort(key=lambda c: (len(c[0]), len(c[1])))

    nodes = 0
    for part_exists, apps in components:
        value, nodes = _decide(part_exists, apps, leaf_bits, nodes, budget.node_limit)
        if not value:
            return 0
    return 1


def _leaf_width(n: int, apps: list) -> int:
    """The sizing rule: the largest ``b`` whose leaf words are cheap.

    Some application has a leaf argument, so the cost is at least 2 and no
    ``b`` below 5 fits.
    """
    for b in range(min(MAX_LEAF_BITS, n), 4, -1):
        cut = n - b
        allowed = (1 << b) // 16
        cost = 0
        for _, _, args in apps:
            j = 0
            for i, _ in args:
                if i >= cut:
                    j += 1
            if j:
                cost += 1 << j
                if cost > allowed:
                    break
        else:
            return b
    return 0


def _decide(
    exists: list[bool],
    apps: list,
    leaf_bits: int | None,
    nodes: int,
    node_limit: int | None,
) -> tuple[int, int]:
    """Value of one part, and the node count after ``nodes`` it started at.

    ``exists[i]`` is the quantifier of variable ``i`` in prefix order, and
    each application is ``(table, constant row, [(variable, weight)])``.
    """
    n = len(exists)
    b = _leaf_width(n, apps) if leaf_bits is None else min(leaf_bits, n)
    cut = n - b

    tables: list[int] = []
    rows: list[int] = []
    # the weights each variable above the leaf adds to its applications'
    # rows, and the applications whose last variable it is
    weights: list[list[tuple[int, int]]] = [[] for _ in range(cut)]
    checks: list[list[int]] = [[] for _ in range(cut)]
    # (application, its leaf arguments, its words by the fixed part of the row)
    leaf_apps: list[tuple[int, list[tuple[int, int]], dict[int, int]]] = []
    for bits, base, args in apps:
        idx = len(tables)
        tables.append(bits)
        rows.append(base)
        inner = []
        for i, w in args:
            if i < cut:
                weights[i].append((idx, w))
            else:
                inner.append((i - cut, w))
        if inner:
            leaf_apps.append((idx, inner, {}))
        else:
            checks[max(i for i, _ in args)].append(idx)

    leaf_patterns = patterns(b)
    full = (1 << (1 << b)) - 1
    leaf_exists = exists[cut:]
    leaf_nodes = (1 << (b + 1)) - 1

    def leaf() -> int:
        word = full
        for idx, inner, words in leaf_apps:
            row = rows[idx]
            t = words.get(row)
            if t is None:
                t = words[row] = table_word(tables[idx], row, inner, leaf_patterns, full)
            word &= t
            if not word:
                return 0
        size = 1 << b
        for ex in reversed(leaf_exists):
            size >>= 1
            lo = word & ((1 << size) - 1)
            hi = word >> size
            word = (lo | hi) if ex else (lo & hi)
        return word

    def rec(pos: int) -> int:
        nonlocal nodes
        nodes += leaf_nodes if pos == cut else 1
        if node_limit is not None and nodes > node_limit:
            raise BudgetExceededError(f"node limit {node_limit} exceeded")
        if pos == cut:
            return leaf()
        ex = exists[pos]
        for bit in (0, 1):
            if bit:
                for idx, w in weights[pos]:
                    rows[idx] += w
            for idx in checks[pos]:
                if not (tables[idx] >> rows[idx]) & 1:
                    value = 0
                    break
            else:
                value = rec(pos + 1)
            if value == ex:  # a true existential or a false universal branch
                break
        if bit:
            for idx, w in weights[pos]:
                rows[idx] -= w
        return value

    value = rec(0)
    return value, nodes


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
