"""Polynomial-time decision procedures for tractable quantified expressions.

Each tractable class gets a clause-level solver fed by normal-form synthesis:
every constraint is compiled (once, cached) into an equivalent clause set of
the class's kind over template variables, then each application instantiates
the template with its arguments, folding constants away.

The class solvers:

* affine: quantifier elimination on linear equations over GF(2), innermost
  block first -- an existential variable is eliminated by pivoting, a
  universal variable occurring in any equation is an immediate contradiction;
* bijunctive: the implication-graph / strongly-connected-component decision
  procedure for quantified 2-CNF, with the universal-literal side conditions
  (a universal literal reaching its own negation or any literal of another
  universal variable, or sharing a component with an existential variable
  quantified outside it, falsifies the expression);
* Horn: saturation of unit resolution over the prefix, where a "unit" clause
  has exactly one existential literal and universal literals quantified after
  every existential literal of a clause are dropped (universal reduction);
* anti-Horn: by duality, the Horn procedure on the complemented expression.

Every solver is validated against the brute-force evaluator in the test
suite; none of them is trusted a priori.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

from . import gadgets
from .classifier import has_property
from .evaluator import EvalBudget, evaluate
from .model import Constraint, Quantifier, QuantifiedExpression


class NormalFormKind(enum.Enum):
    HORN_CNF = "horn-cnf"
    TWO_CNF = "2cnf"
    XOR_CNF = "xor-cnf"


@dataclass(frozen=True)
class ClauseForm:
    """Clause set over template variables 1..k equivalent to a constraint.

    CNF kinds store tuples of nonzero literals (sign = polarity); the XOR
    kind stores (variables, parity) pairs meaning the xor of the variables
    equals the parity bit.
    """

    kind: NormalFormKind
    arity: int
    clauses: tuple[tuple, ...]


def _row_value(row: int, k: int, var: int) -> int:
    """Value of template variable ``var`` (1-based) in table row ``row``."""
    return (row >> (k - var)) & 1


def _cnf_candidates(k: int, kind: NormalFormKind):
    """All candidate clauses of the kind, in a fixed deterministic order."""
    out = []
    if kind is NormalFormKind.TWO_CNF:
        for v in range(1, k + 1):
            out.append((v,))
            out.append((-v,))
        for v, w in combinations(range(1, k + 1), 2):
            for sv in (v, -v):
                for sw in (w, -w):
                    out.append((sv, sw))
        return out
    # Horn: at most one positive literal.
    for mask in range(1, 1 << k):
        negs = tuple(-v for v in range(1, k + 1) if (mask >> (v - 1)) & 1)
        out.append(negs)
    for p in range(1, k + 1):
        rest = [v for v in range(1, k + 1) if v != p]
        for mask in range(1 << len(rest)):
            negs = tuple(-v for j, v in enumerate(rest) if (mask >> j) & 1)
            out.append((p,) + negs)
    return out


def _xor_candidates(k: int):
    out = []
    for mask in range(1, 1 << k):
        vs = tuple(v for v in range(1, k + 1) if (mask >> (v - 1)) & 1)
        out.append((vs, 0))
        out.append((vs, 1))
    return out


def _clause_holds(clause, row: int, k: int, kind: NormalFormKind) -> bool:
    if kind is NormalFormKind.XOR_CNF:
        vs, parity = clause
        acc = 0
        for v in vs:
            acc ^= _row_value(row, k, v)
        return acc == parity
    return any(
        _row_value(row, k, abs(lit)) == (1 if lit > 0 else 0) for lit in clause
    )


_SYNTH_CACHE: dict[tuple[int, int, NormalFormKind], ClauseForm | None] = {}


def synthesize_normal_form(c: Constraint, kind: NormalFormKind) -> ClauseForm | None:
    """Equivalent clause set of the given kind, or None if none exists.

    Keeps exactly the candidate clauses satisfied by every satisfying row,
    checks the conjunction rejects every other row, then greedily prunes
    redundant clauses.  Exhaustive in the table, so practical only for small
    arities.
    """
    key = (c.arity, c.bits, kind)
    if key in _SYNTH_CACHE:
        return _SYNTH_CACHE[key]
    k = c.arity
    sat = c.satisfying_rows()
    unsat = [r for r in range(c.rows) if not c.value_on(r)]
    candidates = (
        _xor_candidates(k) if kind is NormalFormKind.XOR_CNF else _cnf_candidates(k, kind)
    )
    kept = [
        cl for cl in candidates if all(_clause_holds(cl, r, k, kind) for r in sat)
    ]

    def tight(active) -> bool:
        return all(
            any(not _clause_holds(cl, r, k, kind) for cl in active) for r in unsat
        )

    result: ClauseForm | None
    if not tight(kept):
        result = None
    else:
        pruned = list(kept)
        for cl in kept:
            trial = [x for x in pruned if x != cl]
            if tight(trial):
                pruned = trial
        result = ClauseForm(kind, k, tuple(pruned))
    _SYNTH_CACHE[key] = result
    return result


class TractableClass(enum.Enum):
    """A Schaefer class: its ``PropertyFlags`` field and the normal form its
    solver compiles.

    The anti-Horn solver runs the Horn one on the complemented expression, so
    its form is the Horn form of the complemented constraint.
    """

    HORN = ("horn", "horn", NormalFormKind.HORN_CNF)
    ANTI_HORN = ("anti-horn", "anti_horn", NormalFormKind.HORN_CNF)
    BIJUNCTIVE = ("bijunctive", "bijunctive", NormalFormKind.TWO_CNF)
    AFFINE = ("affine", "affine", NormalFormKind.XOR_CNF)

    flag: str
    kind: NormalFormKind

    def __new__(cls, value: str, flag: str, kind: NormalFormKind):
        member = object.__new__(cls)
        member._value_ = value
        member.flag = flag
        member.kind = kind
        return member


def _slots(expr: QuantifiedExpression):
    """Variable slot order, block index and quantifier per slot."""
    order: dict[str, int] = {}
    block_of: list[int] = []
    quant: list[Quantifier] = []
    for b_idx, block in enumerate(expr.prefix):
        for v in block.vars:
            order[v] = len(block_of)
            block_of.append(b_idx)
            quant.append(block.quantifier)
    return order, block_of, quant


def _compile_cnf(expr: QuantifiedExpression, forms, slot):
    """Instantiated clause set; None means the matrix is identically false."""
    clauses: set[frozenset[int]] = set()
    for application in expr.matrix:
        for template in forms[application.constraint].clauses:
            lits: set[int] = set()
            satisfied = False
            for lit in template:
                arg = application.args[abs(lit) - 1]
                if arg.is_const:
                    if (arg.const == 1) == (lit > 0):
                        satisfied = True
                        break
                    continue
                s = slot[arg.var] + 1
                lits.add(s if lit > 0 else -s)
            if satisfied:
                continue
            if any(-l in lits for l in lits):
                continue  # tautology via a repeated variable
            if not lits:
                return None
            clauses.add(frozenset(lits))
    return clauses


def _compile_xor(expr: QuantifiedExpression, forms, slot):
    """Instantiated GF(2) equations as (variable mask, rhs); None = false."""
    eqs: set[tuple[int, int]] = set()
    for application in expr.matrix:
        for vs, parity in forms[application.constraint].clauses:
            mask = 0
            rhs = parity
            for v in vs:
                arg = application.args[v - 1]
                if arg.is_const:
                    rhs ^= arg.const
                else:
                    mask ^= 1 << slot[arg.var]
            if mask == 0:
                if rhs == 1:
                    return None
                continue
            eqs.add((mask, rhs))
    return eqs


def _solve_affine(expr: QuantifiedExpression, forms) -> int:
    slot, _, _ = _slots(expr)
    eqs = _compile_xor(expr, forms, slot)
    if eqs is None:
        return 0
    rows = list(eqs)
    for block in reversed(expr.prefix):
        for v in block.vars:
            bit = 1 << slot[v]
            touching = [r for r in rows if r[0] & bit]
            if not touching:
                continue
            if block.quantifier is Quantifier.FORALL:
                # must hold for both values of v: forces rest = b and rest = ~b
                return 0
            pivot = touching[0]
            rest = []
            for r in rows:
                if r is pivot:
                    continue
                if r[0] & bit:
                    r = (r[0] ^ pivot[0], r[1] ^ pivot[1])
                if r[0] == 0:
                    if r[1]:
                        return 0
                    continue
                rest.append(r)
            rows = rest
    return 0 if any(mask == 0 and rhs for mask, rhs in rows) else 1


def _scc(n_lits: int, adj) -> list[int]:
    """Tarjan's algorithm, iterative; returns component id per node."""
    index = [-1] * n_lits
    low = [0] * n_lits
    on_stack = [False] * n_lits
    comp = [-1] * n_lits
    stack: list[int] = []
    counter = 0
    n_comps = 0
    for root in range(n_lits):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = adj[node]
            while child_i < len(children):
                nxt = children[child_i]
                child_i += 1
                if index[nxt] == -1:
                    work[-1] = (node, child_i)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comps
                    if w == node:
                        break
                n_comps += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def _solve_bijunctive(expr: QuantifiedExpression, forms) -> int:
    slot, block_of, quant = _slots(expr)
    clauses = _compile_cnf(expr, forms, slot)
    if clauses is None:
        return 0
    n = len(block_of)
    n_lits = 2 * n
    adj: list[list[int]] = [[] for _ in range(n_lits)]

    def lit_id(lit: int) -> int:
        s = abs(lit) - 1
        return 2 * s + (0 if lit > 0 else 1)

    def neg(lid: int) -> int:
        return lid ^ 1

    for clause in clauses:
        lits = list(clause)
        if len(lits) == 1:
            (a,) = lits
            adj[neg(lit_id(a))].append(lit_id(a))
        else:
            a, b = lits
            adj[neg(lit_id(a))].append(lit_id(b))
            adj[neg(lit_id(b))].append(lit_id(a))

    comp = _scc(n_lits, adj)
    for s in range(n):
        if comp[2 * s] == comp[2 * s + 1]:
            return 0

    n_comps = max(comp) + 1 if n_lits else 0
    cadj: list[set[int]] = [set() for _ in range(n_comps)]
    for u in range(n_lits):
        for v in adj[u]:
            if comp[u] != comp[v]:
                cadj[comp[u]].add(comp[v])

    universal_slots = [s for s in range(n) if quant[s] is Quantifier.FORALL]

    def reachable(start: int) -> set[int]:
        seen = {start}
        work = [start]
        while work:
            c = work.pop()
            for nxt in cadj[c]:
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        return seen

    univ_lit_comps: dict[int, list[int]] = {}
    for s in universal_slots:
        univ_lit_comps.setdefault(comp[2 * s], []).append(s)
        univ_lit_comps.setdefault(comp[2 * s + 1], []).append(s)

    for s in universal_slots:
        for lid in (2 * s, 2 * s + 1):
            reach = reachable(comp[lid])
            if comp[neg(lid)] in reach:
                return 0  # a universal value forces its own negation
            for c in reach:
                for other in univ_lit_comps.get(c, ()):
                    if other != s:
                        return 0  # one universal variable forces another

    # An existential variable locked to a universal one quantified after it
    # cannot be chosen first.
    min_exist_block = [None] * n_comps
    max_univ_block = [None] * n_comps
    for s in range(n):
        for lid in (2 * s, 2 * s + 1):
            c = comp[lid]
            if quant[s] is Quantifier.EXISTS:
                if min_exist_block[c] is None or block_of[s] < min_exist_block[c]:
                    min_exist_block[c] = block_of[s]
            else:
                if max_univ_block[c] is None or block_of[s] > max_univ_block[c]:
                    max_univ_block[c] = block_of[s]
    for c in range(n_comps):
        if (
            min_exist_block[c] is not None
            and max_univ_block[c] is not None
            and min_exist_block[c] < max_univ_block[c]
        ):
            return 0
    return 1


def _universal_reduce(clause: frozenset[int], block_of, quant) -> frozenset[int]:
    exist_blocks = [
        block_of[abs(l) - 1]
        for l in clause
        if quant[abs(l) - 1] is Quantifier.EXISTS
    ]
    if not exist_blocks:
        return frozenset()
    last = max(exist_blocks)
    return frozenset(
        l
        for l in clause
        if quant[abs(l) - 1] is Quantifier.EXISTS or block_of[abs(l) - 1] <= last
    )


def _solve_horn(expr: QuantifiedExpression, forms) -> int:
    slot, block_of, quant = _slots(expr)
    raw = _compile_cnf(expr, forms, slot)
    if raw is None:
        return 0

    def is_exist(l: int) -> bool:
        return quant[abs(l) - 1] is Quantifier.EXISTS

    clauses: set[frozenset[int]] = set()

    def add(clause: frozenset[int]) -> bool:
        """Insert after universal reduction; True means empty clause reached."""
        clause = _universal_reduce(clause, block_of, quant)
        if not clause:
            return True
        if clause in clauses:
            return False
        if any(other <= clause for other in clauses):
            return False
        for other in [c for c in clauses if clause < c]:
            clauses.discard(other)
        clauses.add(clause)
        return False

    for c in raw:
        if add(c):
            return 0

    # Saturate unit resolution: one parent has exactly one existential
    # literal.  Subsumption keeps the clause set an antichain, so this
    # terminates; completeness for Horn-shaped matrices is exercised by the
    # differential tests.
    while True:
        units = [c for c in clauses if sum(1 for l in c if is_exist(l)) == 1]
        new: list[frozenset[int]] = []
        snapshot = list(clauses)
        for u in units:
            e = next(l for l in u if is_exist(l))
            for c in snapshot:
                if c is u or -e not in c:
                    continue
                resolvent = (u - {e}) | (c - {-e})
                if any(-l in resolvent for l in resolvent):
                    continue
                reduced = _universal_reduce(resolvent, block_of, quant)
                if not reduced:
                    return 0
                if reduced not in clauses and not any(
                    o <= reduced for o in clauses
                ):
                    new.append(reduced)
        if not new:
            return 1
        for c in new:
            if add(c):
                return 0


def solve_tractable(expr: QuantifiedExpression, cls: TractableClass) -> int:
    """Exact truth value via the polynomial procedure for ``cls``.

    Every constraint used in the expression must be in the class, which is
    decided by synthesizing its normal form.  All forms are synthesized before
    any clause is compiled, because compilation stops at the first application
    that constants falsify.  Constants are folded away during compilation.
    """
    # anti-Horn by duality: complementation maps it onto the Horn case and
    # preserves the truth value.  Complementing constraints is an involution,
    # so the distinct constraints of both expressions pair up in order.
    target = expr
    if cls is TractableClass.ANTI_HORN:
        target = gadgets.complement_expression(expr)
    forms: dict[Constraint, ClauseForm] = {}
    for original, c in zip(expr.constraints(), target.constraints()):
        form = synthesize_normal_form(c, cls.kind)
        if form is None:
            raise ValueError(f"constraint {original.name!r} is not {cls.value}")
        forms[c] = form
    if cls is TractableClass.AFFINE:
        return _solve_affine(target, forms)
    if cls is TractableClass.BIJUNCTIVE:
        return _solve_bijunctive(target, forms)
    return _solve_horn(target, forms)


_DISPATCH_ORDER = (
    TractableClass.AFFINE,
    TractableClass.BIJUNCTIVE,
    TractableClass.HORN,
    TractableClass.ANTI_HORN,
)


def dispatch_class(constraints) -> TractableClass | None:
    """First tractable class (affine, bijunctive, Horn, anti-Horn) covering all."""
    cs = list(constraints)
    for cls in _DISPATCH_ORDER:
        if all(has_property(c, cls.flag) for c in cs):
            return cls
    return None


def solve_auto(
    expr: QuantifiedExpression, budget: EvalBudget | None = None
) -> int:
    """Dispatch to a polynomial solver when possible, else brute force."""
    cls = dispatch_class(expr.constraints())
    if cls is not None:
        return solve_tractable(expr, cls)
    return evaluate(expr, budget)
