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
solver, folding constants away.  The bijunctive and Horn solvers index a
clause only where propagation reads it, so their cost is counted in clause
literals, plus one pass over the prefix for flat per-slot state.
``dispatch_class`` reads class membership from the classifier's per-table
cache (:func:`~qcsp.classifier.has_property`), its one record.

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
  universal.  One pass of Tarjan's algorithm decides all of it: a component
  closes only after every component it reaches, so each component is
  checked as it closes.  Past the first two conditions a component holds at
  most one universal literal, and a universal literal in another component
  is its negation or another universal's.  So each component carries one
  bit, whether it or a component it reaches holds a universal literal, and
  one with a universal literal fails iff a component it reaches has the
  bit; which literal set the bit is never read.  The graph holds only the
  literals of a clause: a literal in no clause is a component of its own
  that reaches only itself.  Cost: ``O(L)`` for
  ``L`` clause literals, plus three flat arrays over the ``2n`` literals of
  an ``n``-variable prefix.
* Horn -- forward chaining with universal masks, the propagation of
  Dowling & Gallier (JLP 1984) lifted to the prefix, with a watched body
  literal in place of their counter.  A
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

  A clause is indexed under one body literal, its watch: the first
  existential of its body not derived yet.  When that one is derived the
  watch moves on to the next, and with none left the clause fires.  A
  derived existential stays derived, so the ones a watch has passed stay
  derived, and a clause fires at the derivation that completes its body:
  exactly when Dowling & Gallier's count of underived body literals would
  reach 0.  A clause that fired is listed under each existential of its
  body, and a shrink of ``N(x)`` fires again exactly the clauses listed
  under ``x``.

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
  only when the mask of a body variable shrinks.  Each move of a watch reads
  the body once.  For ``L`` clause literals, clause width ``w`` and ``u``
  universals in the prefix that is ``O(L * (w + w * u))`` operations on
  masks of at most ``u`` bits, plus one pass over the ``n``-variable prefix
  that numbers the universals; with no universal and bounded width it is
  Dowling & Gallier's linear bound.
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
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, combinations, repeat
from operator import is_

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


def _solve_bijunctive(quant, clauses) -> int:
    """The implication-graph procedure in one pass of Tarjan's algorithm (see
    the module docstring).

    The nodes are literal codes, and only the literals of a clause are
    visited.  Tarjan's algorithm closes a component only after every
    component it reaches, so each component's conditions are checked as it
    closes.  ``reach`` says whether a node's component, or one it reaches,
    holds a universal literal: while a component is open it collects what
    the edges leaving it reach, and once it closes it covers the component.
    """
    forall = Quantifier.FORALL
    succ = defaultdict(list)  # literal -> the literals it implies
    for clause in clauses:
        if not clause:
            return 0
        a, b = clause  # a unit clause a is a | a
        succ[a ^ 1].append(b)
        if a != b:
            succ[b ^ 1].append(a)
    closed = 2 * len(quant) + 1  # above every visit number and every slot
    num = [0] * closed  # visit number, 0 before the visit
    # Tarjan's low link; once the component closes, ``closed`` plus the
    # number of its root, which no low link falls below
    low = [0] * closed
    reach = [False] * closed
    stack: list[int] = []  # the visited literals whose component is open
    count = 0
    for root in succ:
        if num[root]:
            continue
        count += 1
        num[root] = low[root] = count
        work = [(root, 0, iter(succ[root]))]  # (node, its place on stack, edges left)
        stack.append(root)
        while work:
            w, base, edges = work[-1]
            for t in edges:
                if not num[t]:
                    count += 1
                    num[t] = low[t] = count
                    work.append((t, len(stack), iter(succ.get(t, ()))))
                    stack.append(t)
                    break
                if low[t] < low[w]:
                    low[w] = low[t]
                if reach[t]:
                    reach[w] = True
            else:
                work.pop()
                if low[w] == num[w]:
                    # w closes its component: every component it reaches is closed
                    members = stack[base:]
                    del stack[base:]
                    mark = closed + num[w]
                    universal = -1  # the slot of its universal literal
                    first = closed  # the first slot of its existential literals
                    for v in members:
                        low[v] = mark
                        if low[v ^ 1] == mark:
                            return 0  # a literal and its negation
                        s = v >> 1
                        if quant[s] is forall:
                            if universal >= 0:
                                return 0  # two universal literals
                            universal = s
                        elif s < first:
                            first = s
                    if universal >= 0 and (reach[w] or first < universal):
                        # the universal literal reaches another universal
                        # literal, or an existential chosen before it is
                        # locked to it
                        return 0
                    if universal >= 0 or reach[w]:
                        for v in members:
                            reach[v] = True
                if work:
                    p = work[-1][0]
                    if low[w] < low[p]:
                        low[p] = low[w]
                    if reach[w]:
                        reach[p] = True
    return 1


def _solve_horn(quant, clauses) -> int:
    """Forward chaining with universal masks and watched literals (see the
    module docstring).

    A clause waits on the first existential of its body that is not derived
    yet, and moves on when that one is derived; with none left it fires, and
    is listed under each existential of its body, to fire again when that
    one's mask shrinks.  The universals are numbered in prefix order, so the
    universals quantified before a slot are the bits below its rank.
    """
    universal = list(map(is_, quant, repeat(Quantifier.FORALL)))
    rank = list(accumulate(universal, initial=0))  # universals before each slot
    # N(x) of a derived existential x, None before; a universal's own bit, so
    # that a body reads its universals and its derived existentials alike
    need = [1 << r if u else None for u, r in zip(universal, rank)]
    watch = defaultdict(list)  # slot -> the clauses waiting on it
    fired = defaultdict(list)  # slot -> the fired clauses with it in their body
    work = []  # slots whose mask changed

    def fire(clause, first: bool) -> bool:
        """Apply a clause whose body is derived; True means a goal fired."""
        x, body = clause
        acc = 0
        for s in body:
            acc |= need[s]
            if first and not universal[s]:
                fired[s].append(clause)
        if x < 0 or universal[x]:
            # a goal, false unless its positive universal is in the body's N
            return x < 0 or not need[x] & acc
        acc &= (1 << rank[x]) - 1
        old = need[x]
        if old is None or old & acc != old:
            need[x] = acc if old is None else old & acc
            work.append(x)
        return False

    for clause in clauses:
        for s in clause[1]:
            if need[s] is None:
                watch[s].append(clause)
                break
        else:
            if fire(clause, True):
                return 0
    while work:
        x = work.pop()
        for clause in fired.get(x, ()):
            if fire(clause, False):
                return 0
        for clause in watch.pop(x, ()):
            body = clause[1]
            for s in body[body.index(x) + 1 :]:
                if need[s] is None:
                    watch[s].append(clause)
                    break
            else:
                if fire(clause, True):
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
