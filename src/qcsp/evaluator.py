"""Exact brute-force truth evaluation of quantified expressions.

This is the trusted oracle every other module is tested against, and the
decision procedure for every instance outside the Schaefer classes.  It
works in two steps.

**Components.**  The oracle reads only the integer form built by
:func:`~qcsp.model.compile_expression`, each application once.
Applications that share a slot are joined by union-find, and each
resulting part of the matrix is decided alone, under the prefix cut to its
own variables, smallest first by (variables, applications), equal parts in
order of first application; the first false part makes the expression
false.  This is the distribution law: a quantifier passes over a conjunct
that does not mention its variable, ``Qx (A and B) = (Qx A) and B`` for
``Q`` either quantifier, so the expression is the conjunction of its parts
each under its own quantifiers.  A variable that no application mentions
drops out the same way, and constant-only applications are evaluated up
front.  The cost of the parts is a sum rather than a product.  One walk of
the slots in prefix order gives each part its variables and their
(application, weight) pairs; its leaf width, checks and leaf applications
are laid out once, before its search.

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
an instance whose largest part has more variables than the interpreter's
recursion limit leaves room for is rejected before any part is decided.
"""

from __future__ import annotations

import sys
from collections import defaultdict
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

    split = _split(quantifiers, matrix)
    if split is None:
        return 0
    tables, rows, components = split

    # on top of the frames already on the stack, a part takes one frame per
    # variable (branching above the cut, expanding a leaf word below it) plus
    # at most five: _decide, the last rec, leaf, table_word and its last expand
    largest = len(components[-1][0]) if components else 0
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    if depth + largest + 5 > sys.getrecursionlimit():
        raise BudgetExceededError(
            f"a part of {largest} variables exceeds the recursion depth left "
            f"under the interpreter's limit of {sys.getrecursionlimit()}"
        )

    nodes = 0
    for part in components:
        value, nodes = _decide(*part, tables, rows, leaf_bits, nodes, budget.node_limit)
        if not value:
            return 0
    return 1


def _split(quantifiers: list, matrix: list) -> tuple[list, list, list] | None:
    """The parts of a compiled matrix, or None if a constant-only
    application is false: ``(tables, rows, parts)``, the table and the
    constants' row of each application, indexed as in the matrix, and each
    part as ``(exists, pairs, apps)``, each variable's quantifier and
    ``(application, weight)`` pairs in prefix order (a repeated variable's
    weights summed) and its applications in matrix order.  Parts come
    smallest first by (variables, applications), ties by first application.
    """
    parent = list(range(len(quantifiers)))  # union-find over the slots

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    tables: list[int] = []
    rows: list[int] = []
    roots: list[int] = []  # each application's root as read, -1 if constant-only
    uses: list[list[tuple[int, int]]] = [[] for _ in quantifiers]
    for idx, (k, bits, codes) in enumerate(matrix):
        base = 0
        root = -1
        w = 1 << k
        for a in codes:
            w >>= 1
            if a < 0:
                base |= ~a * w
                continue
            pairs = uses[a]
            if pairs and pairs[-1][0] == idx:  # a repeated variable
                pairs[-1] = (idx, pairs[-1][1] + w)
                continue
            pairs.append((idx, w))
            r = find(a)
            if root < 0:
                root = r
            elif r != root:
                parent[r] = root
        if root < 0 and not (bits >> base) & 1:
            return None  # a false constant-only application
        tables.append(bits)
        rows.append(base)
        roots.append(root)

    parts = defaultdict(lambda: ([], [], []))  # by root, in order of first application
    for idx, r in enumerate(roots):
        if r >= 0:
            parts[find(r)][2].append(idx)
    for s, pairs in enumerate(uses):  # one walk of the slots in prefix order
        if pairs:
            part = parts[find(s)]
            part[0].append(quantifiers[s] is Quantifier.EXISTS)
            part[1].append(pairs)
    return tables, rows, sorted(parts.values(), key=lambda p: (len(p[0]), len(p[2])))


def _leaf_width(pairs: list) -> int:
    """The sizing rule: the largest ``b`` whose leaf words are cheap.

    One walk up from the innermost variable sums the cost at every width.
    Some application has a leaf argument, so no ``b`` below 5 fits.
    """
    top = min(MAX_LEAF_BITS, len(pairs))
    cost = [0]  # cost[b]: 2^j summed over the applications with j > 0 leaf arguments
    leaf_args: dict[int, int] = {}
    for p in reversed(pairs[len(pairs) - top:]):
        c = cost[-1]
        for idx, _ in p:
            j = leaf_args.get(idx, 0)
            leaf_args[idx] = j + 1
            c += (1 << j) if j else 2
        cost.append(c)
    return next((b for b in range(top, 4, -1) if cost[b] <= (1 << b) // 16), 0)


def _decide(
    exists: list[bool], pairs: list, apps: list[int], tables: list[int],
    rows: list[int], leaf_bits: int | None, nodes: int, node_limit: int | None,
) -> tuple[int, int]:
    """Value of one part of :func:`_split`, and the node count after the
    ``nodes`` it started at; ``apps`` index ``tables`` and ``rows``, and
    ``rows`` is left as it was."""
    n = len(exists)
    b = _leaf_width(pairs) if leaf_bits is None else min(leaf_bits, n)
    cut = n - b

    # each application's last variable and its leaf arguments
    last: dict[int, int] = {}
    leaf_args: dict[int, list[tuple[int, int]]] = {idx: [] for idx in apps}
    for i, p in enumerate(pairs):
        for idx, w in p:
            last[idx] = i
            if i >= cut:
                leaf_args[idx].append((i - cut, w))
    # the applications each variable above the leaf is last in, and
    # (application, its leaf arguments, its words by the fixed part of the row)
    checks: list[list[int]] = [[] for _ in range(cut)]
    for idx in apps:
        if last[idx] < cut:
            checks[last[idx]].append(idx)
    leaf_apps = [(idx, leaf_args[idx], {}) for idx in apps if last[idx] >= cut]

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
                for idx, w in pairs[pos]:
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
            for idx, w in pairs[pos]:
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
