"""Polynomial-time decision procedures for tractable quantified expressions.

Each tractable class gets a clause-level solver fed by normal-form synthesis.
The solvers read only the integer form the expression holds
(:func:`~qcsp.model.compile_expression`) and its distinct tables with their
constraints (:func:`~qcsp.model.table_constraints`), so solving a parsed
expression builds no matrix and hashes no constraint.  Every table
``(arity, bits)`` used is compiled (once, cached) into an equivalent clause
set of the class's kind over template variables, keyed by the table and not
the name.  Once per call, each solver splits the form of each distinct table
into its own template: head and body positions for Horn, literal codes for
2-CNF, argument positions and parity for affine.  Each application then
instantiates its table's template with its arguments straight into the
solver, folding constants away.  The bijunctive and Horn solvers keep state
only for the variables that occur in a clause, so their cost is counted in
clause literals, not in the length of the prefix.  ``dispatch_class`` reads
class membership from the classifier's per-table cache
(:func:`~qcsp.classifier.has_property`), its one record.

The class solvers, with the argument each one's answer rests on:

* affine -- elimination into an echelon basis over GF(2).  Each equation,
  constants folded into its right-hand side, is reduced by the basis and
  inserted under its leading slot, its innermost variable.  The expression
  is false iff ``0 = 1`` is derived or some leading slot is universal.  Row
  operations keep the solution set.  A row led by an existential fixes that
  variable from the slots before it, and distinct leads make these choices
  independent.  A row led by a universal lets it be chosen against the slots
  before it.  Cost: one reduction per equation, each at most one XOR per
  basis row.
* bijunctive -- the implication-graph procedure for quantified 2-CNF of
  Aspvall, Plass & Tarjan (IPL 1979), whose theorem says the expression is
  true iff no strongly connected component holds a literal and its negation,
  or an existential literal and a universal one quantified after it, and no
  universal literal reaches its own negation or a literal of another
  universal.  Tarjan's algorithm numbers the components in reverse
  topological order, so one pass in that order gives every component the
  set of universal literals it reaches, as a bitmask.  The graph holds only
  the variables that occur in a clause: a literal in no clause is a
  component of its own that reaches only itself.  Cost: for ``L`` clause
  literals and ``u`` universals that occur in a clause, ``O(L)`` operations
  on masks of at most ``2u`` bits, plus one sort of at most ``2L`` literals.
* Horn -- forward chaining with universal masks, the counter-based
  propagation of Dowling & Gallier (JLP 1984) lifted to the prefix.  A
  clause with no existential literal makes the expression false: universal
  reduction empties it.  A clause with a positive existential ``x`` is a
  rule ``body -> x``; one without is a goal.  A derived ``x`` carries
  ``N(x)``, the universals that every derivation of ``x`` found so far
  needs, restricted to those quantified before ``x``: the intersection,
  over the rules that fired, of the rule's negative universals and the
  ``N`` of its body.  ``N`` only shrinks, and each shrink re-fires the
  clauses that use ``x``.  A goal whose body is derived falsifies the
  expression, unless it has a positive universal ``y`` that lies in the
  union of ``N`` over its body.  Universals after a clause's last
  existential are not reduced away: ``N(x)`` drops those after ``x``, and
  a goal's positive one lies in no body's ``N``, so no answer changes.

  Soundness: each derivation of ``x`` is a Q-unit resolution derivation of
  a clause ``x | ~M`` with ``M`` a set of universals, and ``N(x)`` is the
  intersection of these ``M``.  For one universal ``y`` the intersection
  composes: some choice of derivations of the body variables avoids ``y``
  iff ``y`` is in no body variable's ``N``.  So a fired goal resolves with
  such derivations to a clause of universals alone, which universal
  reduction empties: a Q-unit resolution refutation, and Q-resolution is
  sound (Kleine Büning, Karpinski & Flögel, I&C 1995, where Q-unit
  resolution is also shown complete for quantified Horn formulas).  Completeness: if no goal
  fires, setting each derived ``x`` to the conjunction of ``N(x)`` and every
  other existential to 0 satisfies every clause, and each such function reads
  only universals quantified before its variable.  Cost: a mask shrinks at
  most once per (existential, universal) pair, and a clause fires again
  only when the mask of a body variable shrinks.  Only the existentials that
  occur in a body carry a mask and a list of the clauses using them, and only
  the universals that occur in a clause get a bit.  For ``L`` clause
  literals, clause width ``w`` and ``u`` such universals that is
  ``O(L * (1 + w * u))`` operations on masks of at most ``u`` bits, plus one
  sort of the ``u`` universals; with no universal it is Dowling & Gallier's
  linear bound.
* anti-Horn -- by duality, the Horn procedure on the complemented
  expression, which is never built: the Horn form of each complemented table
  is instantiated with the original applications' arguments, their constants
  flipped.

Every solver is also checked against the brute-force evaluator in the test
suite, and on planted 10^4-variable instances by ``verify``.
"""

from __future__ import annotations

import enum
import functools
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .classifier import TABLE_CACHE_SIZE, has_property
from .evaluator import EvalBudget, evaluate
from .model import (
    Constraint,
    Quantifier,
    QuantifiedExpression,
    compile_expression,
    complement_constraint,
    table_constraints,
)


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


def synthesize_normal_form(c: Constraint, kind: NormalFormKind) -> ClauseForm | None:
    """Equivalent clause set of the given kind, or None if none exists.

    Keeps exactly the candidate clauses satisfied by every satisfying row,
    checks the conjunction rejects every other row, then greedily prunes
    redundant clauses.  Exhaustive in the table, so practical only for small
    arities; the result is remembered per table ``(arity, bits)`` and kind.
    """
    return _synthesize(c.arity, c.bits, kind)


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _synthesize(k: int, bits: int, kind: NormalFormKind) -> ClauseForm | None:
    sat = [r for r in range(1 << k) if (bits >> r) & 1]
    unsat = [r for r in range(1 << k) if not (bits >> r) & 1]
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

    if not tight(kept):
        return None
    pruned = list(kept)
    for cl in kept:
        trial = [x for x in pruned if x != cl]
        if tight(trial):
            pruned = trial
    return ClauseForm(kind, k, tuple(pruned))


class TractableClass(enum.Enum):
    """A Schaefer class: its ``PropertyFlags`` field and the normal form its
    solver compiles.

    The anti-Horn solver runs the Horn one by duality, so its form is the
    Horn form of the complemented constraint.
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


def _horn_clauses(apps, forms, flip: bool = False):
    """Each application's Horn clauses, as (head slot or -1, body slots).

    Each clause of a form is split once per call into its head position (-1
    for none) and its body positions.  A constant that satisfies a literal
    skips the clause and one that falsifies it drops the literal, so a clause
    that constants falsify comes out as the empty goal ``(-1, [])``.  A clause
    whose head is in its body, through a repeated variable, is a tautology and
    skipped.  Under ``flip`` each constant reads as its complement.
    """
    templates = {}
    for table, form in forms.items():
        templates[table] = split = []
        for clause in form.clauses:
            top = max(clause)  # a Horn clause has at most one positive literal
            split.append((top - 1 if top > 0 else -1, [-l - 1 for l in clause if l < 0]))
    one = -1 if flip else -2  # the code of the constant that reads as 1
    for k, bits, args in apps:
        for h, positions in templates[k, bits]:
            x = -1
            if h >= 0:
                x = args[h]
                if x == one:
                    continue
                if x < 0:
                    x = -1
            body = []
            for p in positions:
                s = args[p]
                if s >= 0:
                    body.append(s)
                elif s != one:
                    break  # a 0 in the body satisfies the clause
            else:
                if x < 0 or x not in body:
                    yield x, body


def _two_cnf_clauses(apps, forms):
    """Each application's 2-CNF clauses, as pairs of literal codes.

    The code of a literal is ``2 * slot``, plus 1 if it is negated.  Each
    clause of a form is split once per call into such codes over argument
    positions.  A unit clause comes out as a pair of equal codes.  Constants
    fold as in :func:`_horn_clauses`, and a clause that they falsify comes out
    as ``()``.  A clause ``x | ~x``, through a repeated variable, is skipped.
    """
    templates = {
        table: [[2 * abs(l) - 2 + (l < 0) for l in clause] for clause in form.clauses]
        for table, form in forms.items()
    }
    for k, bits, args in apps:
        for clause in templates[k, bits]:
            lits = []
            for code in clause:
                a = args[code >> 1]
                if a >= 0:
                    lits.append(2 * a + (code & 1))
                elif ~a != code & 1:
                    break  # the constant satisfies the literal
            else:
                if not lits:
                    yield ()
                elif lits[0] != lits[-1] ^ 1:
                    yield lits[0], lits[-1]


def _xor_equations(apps, forms):
    """Each application's GF(2) equations, as (slot mask, rhs).

    Each equation of a form is split once per call into argument positions
    and parity.  Constants fold into the rhs, so one they decide has mask 0.
    """
    templates = {
        table: [([v - 1 for v in vs], parity) for vs, parity in form.clauses]
        for table, form in forms.items()
    }
    for k, bits, args in apps:
        for positions, rhs in templates[k, bits]:
            mask = 0
            for p in positions:
                a = args[p]
                if a < 0:
                    rhs ^= ~a
                else:
                    mask ^= 1 << a
            yield mask, rhs


def _solve_affine(quant, eqs) -> int:
    """Insert every equation into a GF(2) basis keyed by its leading slot.

    The leading slot of an equation is its innermost variable.  An equation
    is reduced by the basis rows whose leads it contains until its lead is
    new; it then joins the basis, which stays in echelon form.
    """
    basis: dict[int, tuple[int, int]] = {}
    for mask, rhs in eqs:
        while mask:
            lead = mask.bit_length() - 1
            row = basis.get(lead)
            if row is None:
                break
            mask ^= row[0]
            rhs ^= row[1]
        if not mask:
            if rhs:
                return 0  # 0 = 1
            continue
        if quant[lead] is Quantifier.FORALL:
            return 0  # the universal can be chosen against the slots before it
        basis[lead] = (mask, rhs)
    return 1


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


def _solve_bijunctive(quant, clauses) -> int:
    """The implication-graph procedure (see the module docstring).

    The graph holds only the variables that occur in a clause, numbered in
    order of first occurrence.  A literal in no clause is a component of its
    own that reaches only itself, so it meets every condition.
    """
    var: dict[int, int] = {}  # slot -> graph variable
    slots: list[int] = []  # graph variable -> slot
    edges = []
    for clause in clauses:
        if not clause:
            return 0
        # node ids: 2 * variable for a literal, 2 * variable + 1 for a negation
        ends = []
        for code in clause:
            v = var.get(code >> 1)
            if v is None:
                v = var[code >> 1] = len(slots)
                slots.append(code >> 1)
            ends.append(2 * v + (code & 1))
        edges.append(ends)
    n = len(slots)
    n_lits = 2 * n
    adj: list[list[int]] = [[] for _ in range(n_lits)]
    for a, b in edges:  # a unit clause a is a | a
        adj[a ^ 1].append(b)
        if a != b:
            adj[b ^ 1].append(a)

    comp = _scc(n_lits, adj)
    for v in range(n):
        if comp[2 * v] == comp[2 * v + 1]:
            return 0

    # Tarjan numbers the components in reverse topological order, so every
    # edge between two components goes to the smaller number, and one pass in
    # that order gives each component the set of universal literals it reaches.
    n_comps = max(comp) + 1 if n_lits else 0
    lit_bit = [0] * n_lits
    universal_lits = []
    for v, s in enumerate(slots):
        if quant[s] is Quantifier.FORALL:
            for lid in (2 * v, 2 * v + 1):
                lit_bit[lid] = 1 << len(universal_lits)
                universal_lits.append(lid)
    reach = [0] * n_comps
    for u in sorted(range(n_lits), key=comp.__getitem__):
        acc = lit_bit[u]
        for w in adj[u]:
            acc |= reach[comp[w]]
        reach[comp[u]] |= acc
    for lid in universal_lits:
        if reach[comp[lid]] != lit_bit[lid]:
            # a universal value forces its own negation or another universal
            return 0

    # An existential variable locked to a universal one quantified after it
    # cannot be chosen first.  Past the check above, a component holds at
    # most one universal literal; it must come before every existential.
    # Slots follow the prefix and no block mixes quantifiers, so an
    # existential's block is earlier than a universal's iff its slot is.
    first_exist = [len(quant)] * n_comps
    for v, s in enumerate(slots):
        if quant[s] is Quantifier.EXISTS:
            for c in (comp[2 * v], comp[2 * v + 1]):
                first_exist[c] = min(first_exist[c], s)
    for lid in universal_lits:
        if first_exist[comp[lid]] < slots[lid >> 1]:
            return 0
    return 1


def _solve_horn(quant, clauses) -> int:
    """Forward chaining with universal masks (see the module docstring).

    Only the existentials that occur in a body get an id, with the clauses
    that use them and their mask ``N``.  The universals in clauses are
    numbered in prefix order, so the universals quantified before a slot are
    the lowest bits of a mask; those in no clause get no bit.
    """
    forall = Quantifier.FORALL
    head: list[int] = []  # derived slot, or -1 for a goal clause; then an id
    body: list[list[int]] = []  # ids of the negative existentials
    left: list[int] = []  # body literals not derived yet
    uses: list[list[int]] = []  # per id, the clauses whose body holds it
    ids: dict[int, int] = {}  # slot -> id
    kept = []  # (clause, positive universal or -1, negative universals)
    for x, slots in clauses:
        c = len(head)
        pos = -1
        if x >= 0 and quant[x] is forall:
            pos, x = x, -1
        b: list[int] = []
        neg: list[int] = []
        for s in slots:
            if quant[s] is forall:
                neg.append(s)
                continue
            i = ids.get(s)
            if i is None:
                i = ids[s] = len(uses)
                uses.append([])
            uses[i].append(c)
            b.append(i)
        if x < 0 and not b:
            return 0  # universal reduction empties the clause
        if pos >= 0 or neg:
            # universal reduction would drop the universals after the last
            # existential; no answer needs that: ``earlier`` strips them from
            # a rule's head, and a goal's positive one lies in no body mask
            kept.append((c, pos, neg))
        head.append(x)
        body.append(b)
        left.append(len(b))

    m = len(uses)
    neg_u = [0] * len(head)  # negative universals, as a mask
    pos_u = [0] * len(head)  # the positive universal of a goal, as a mask
    earlier = [0] * m  # per id, the mask of the universals quantified before it
    order = sorted({s for _, p, neg in kept for s in neg + [p] if s >= 0})
    if order:
        bit = {s: 1 << j for j, s in enumerate(order)}
        for c, p, neg in kept:
            if p >= 0:
                pos_u[c] = bit[p]
            for s in neg:
                neg_u[c] |= bit[s]
        for s, i in ids.items():
            earlier[i] = (1 << bisect_left(order, s)) - 1
    # a rule whose head is in no body derives nothing that is read: -2
    head = [x if x < 0 else ids.get(x, -2) for x in head]

    need: list[int | None] = [None] * m  # N(x); None while x is not derived
    queued = [False] * m
    counted = [False] * m
    work: list[int] = []

    def fire(c: int) -> bool:
        """Apply clause c, whose body is derived; True means the goal fired."""
        x = head[c]
        if x == -2:
            return False
        acc = neg_u[c]
        for i in body[c]:
            acc |= need[i]
        if x < 0:
            return not pos_u[c] & acc
        acc &= earlier[x]
        old = need[x]
        if old is None or old & acc != old:
            need[x] = acc if old is None else old & acc
            if not queued[x]:
                queued[x] = True
                work.append(x)
        return False

    for c in range(len(head)):
        if not left[c] and fire(c):
            return 0
    while work:
        x = work.pop()
        queued[x] = False
        first = not counted[x]
        counted[x] = True
        for c in uses[x]:
            if first:
                left[c] -= 1
            if not left[c] and fire(c):
                return 0
    return 1


def solve_tractable(expr: QuantifiedExpression, cls: TractableClass) -> int:
    """Exact truth value via the polynomial procedure for ``cls``.

    Every constraint used in the expression must be in the class, which is
    decided by synthesizing its normal form.  All forms are synthesized before
    any clause is instantiated, because solving stops at the first clause
    that constants falsify.  Constants are folded away during instantiation.
    """
    # anti-Horn: complementing every table and flipping every constant keeps
    # the truth value and maps the class onto Horn (see the module docstring)
    complement = cls is TractableClass.ANTI_HORN
    quant, apps = compile_expression(expr)
    forms: dict[tuple[int, int], ClauseForm] = {}
    for table, c in table_constraints(expr).items():
        form = synthesize_normal_form(
            complement_constraint(c) if complement else c, cls.kind
        )
        if form is None:
            raise ValueError(f"constraint {c.name!r} is not {cls.value}")
        forms[table] = form
    if cls is TractableClass.AFFINE:
        return _solve_affine(quant, _xor_equations(apps, forms))
    if cls is TractableClass.BIJUNCTIVE:
        return _solve_bijunctive(quant, _two_cnf_clauses(apps, forms))
    return _solve_horn(quant, _horn_clauses(apps, forms, flip=complement))


_DISPATCH_ORDER = (
    TractableClass.AFFINE,
    TractableClass.BIJUNCTIVE,
    TractableClass.HORN,
    TractableClass.ANTI_HORN,
)


def dispatch_class(constraints) -> TractableClass | None:
    """First tractable class (affine, bijunctive, Horn, anti-Horn) covering all.

    A set is in a class iff each of its tables is, read through the
    classifier's per-table cache (:func:`~qcsp.classifier.has_property`), so
    names play no part and a set just classified costs no closure check.
    """
    cs = list(constraints)
    for cls in _DISPATCH_ORDER:
        if all(has_property(c, cls.flag) for c in cs):
            return cls
    return None


def solve_with_method(
    expr: QuantifiedExpression, budget: EvalBudget | None = None
) -> tuple[int, str]:
    """Truth value and what decided it: the class's value, or "oracle".

    The class is dispatched on the distinct tables of the expression's form.
    """
    cls = dispatch_class(table_constraints(expr).values())
    if cls is not None:
        return solve_tractable(expr, cls), cls.value
    return evaluate(expr, budget), "oracle"


def solve_auto(
    expr: QuantifiedExpression, budget: EvalBudget | None = None
) -> int:
    """Dispatch to a polynomial solver when possible, else brute force."""
    return solve_with_method(expr, budget)[0]
