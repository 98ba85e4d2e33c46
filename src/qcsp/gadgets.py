"""Constructive transformations on quantified constraint expressions.

Four transformations live here:

* the complement transform (flip every constraint's table under argument
  negation and swap the constants 0/1), a truth-preserving involution;
* substitution of a perfect implementation for every application of its
  target constraint, with fresh disjoint auxiliary variables appended to the
  innermost existential block;
* elimination of forced unary applications (identity / negation), replacing
  forced variables by constants or reporting the expression trivially false;
* constant removal: rewriting an expression *with* constants over a
  non-Schaefer constraint set into an equivalent constant-free expression
  with the same alternation shape, by a case split on whether the set is
  0-valid / 1-valid / complementive.

The constant-removal gadgets introduce helper constraints (binary
implication, SYMOR1, binary xor) that are then compiled away through a
bounded perfect-implementation search over the given set; search exhaustion
is a distinct error, never a wrong answer.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .classifier import classify_set, has_property
from .evaluator import ShapeMismatchError, check_level_shape, qsat_level_polarity
from .implsearch import Implementation, check_implementation, find_implementation
from .model import (
    Argument,
    Constraint,
    ConstraintApplication,
    QuantifiedExpression,
    Quantifier,
    block_quantifier,
    normalized_prefix,
    prefix_shape,
)
from .presets import IMP2, SYMOR1, XOR2


class GadgetError(Exception):
    pass


class NotApplicableError(GadgetError):
    """The requested reduction does not exist for this constraint set/level."""


class ImplementationNotFoundError(GadgetError):
    """Bounded implementation search exhausted; the bound may be too small."""


class ReductionCase(enum.Enum):
    ZERO_VALID_NOT_COMP = "zero-valid, not complementive"
    ONE_VALID_NOT_COMP = "one-valid, not complementive"
    ZERO_VALID_COMP = "zero-valid, complementive"
    NEITHER_VALID_COMP = "neither-valid, complementive"
    NEITHER_VALID_NOT_COMP = "neither-valid, not complementive"


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of a reduction: an expression, or the trivially-false marker."""

    expression: QuantifiedExpression | None
    case_used: ReductionCase | None = None
    implementations_used: tuple[Implementation, ...] = ()

    @property
    def trivially_false(self) -> bool:
        return self.expression is None


TRIVIALLY_FALSE = ReductionResult(None)


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


def complement_expression(expr: QuantifiedExpression) -> QuantifiedExpression:
    """Complement every constraint and flip every constant; truth-preserving.

    Each distinct constraint is complemented once.
    """
    complements = {c: complement_constraint(c) for c in expr.constraints()}
    matrix = []
    for application in expr.matrix:
        args = tuple(
            Argument(const=1 - a.const) if a.is_const else a
            for a in application.args
        )
        matrix.append(ConstraintApplication(complements[application.constraint], args))
    return QuantifiedExpression(expr.prefix, tuple(matrix))


def _fresh_namer(taken: set[str]):
    counter = itertools.count(1)

    def fresh(base: str | None = None) -> str:
        if base is not None and base not in taken:
            taken.add(base)
            return base
        while True:
            name = f"{base or 'w'}{next(counter)}"
            if name not in taken:
                taken.add(name)
                return name

    return fresh


def _expand_target(
    matrix, impl: Implementation, fresh
) -> tuple[list[ConstraintApplication], list[str]]:
    """Replace every application of impl.target; fresh aux per occurrence."""
    out: list[ConstraintApplication] = []
    new_aux: list[str] = []
    for application in matrix:
        if application.constraint != impl.target:
            out.append(application)
            continue
        mapping = dict(zip(impl.primary_vars, application.args))
        renames = {av: fresh("w") for av in impl.aux_vars}
        new_aux.extend(renames.values())
        for sub in impl.apps:
            args = []
            for a in sub.args:
                if a.is_const:
                    args.append(a)
                elif a.var in mapping:
                    args.append(mapping[a.var])
                else:
                    args.append(Argument(var=renames[a.var]))
            out.append(ConstraintApplication(sub.constraint, tuple(args)))
    return out, new_aux


def substitute_implementation(
    expr: QuantifiedExpression, impl: Implementation
) -> QuantifiedExpression:
    """Replace every application of ``impl.target`` by the implementing set.

    Each occurrence gets a disjoint fresh copy of the auxiliary variables,
    all appended to the innermost block, which must therefore be existential
    whenever auxiliaries are needed.  Truth value and prefix shape are
    preserved.
    """
    if not check_implementation(impl):
        raise ValueError("implementation fails its defining equivalence")
    occurrences = sum(1 for a in expr.matrix if a.constraint == impl.target)
    needs_aux = bool(impl.aux_vars) and occurrences > 0
    if needs_aux and (
        not expr.prefix or expr.prefix[-1].quantifier is not Quantifier.EXISTS
    ):
        raise ShapeMismatchError(
            "cannot append auxiliary variables: innermost block is not existential"
        )
    taken = set(expr.variables())
    fresh = _fresh_namer(taken)
    matrix, new_aux = _expand_target(expr.matrix, impl, fresh)
    prefix = expr.prefix
    if new_aux:
        last = prefix[-1]
        prefix = prefix[:-1] + (
            type(last)(last.quantifier, last.vars + tuple(new_aux)),
        )
    return QuantifiedExpression(prefix, tuple(matrix))


def _force_value(bits: int) -> int | None:
    """Forced value of a unary application's argument, by table."""
    if bits == 0b10:  # identity: only row 1 satisfies
        return 1
    if bits == 0b01:  # negation: only row 0 satisfies
        return 0
    return None


def eliminate_unary(expr: QuantifiedExpression) -> ReductionResult:
    """Substitute away identity/negation applications.

    A variable carrying both an identity and a negation application, or a
    *universally* quantified variable carrying either, makes the expression
    trivially false; otherwise each forced variable is replaced by its
    constant, the unary applications are dropped, and the variable leaves
    the prefix.
    """
    forced: dict[str, int] = {}
    rest: list[ConstraintApplication] = []
    for application in expr.matrix:
        c = application.constraint
        if c.arity != 1:
            rest.append(application)
            continue
        want = _force_value(c.bits)
        if want is None:
            raise ValueError(f"foreign unary constraint {c.name!r} in matrix")
        arg = application.args[0]
        if arg.is_const:
            if arg.const != want:
                return TRIVIALLY_FALSE
            continue
        if forced.setdefault(arg.var, want) != want:  # type: ignore[arg-type]
            return TRIVIALLY_FALSE

    universal = {
        v
        for block in expr.prefix
        if block.quantifier is Quantifier.FORALL
        for v in block.vars
    }
    if any(v in universal for v in forced):
        # one branch of the universal falsifies the unary application
        return TRIVIALLY_FALSE

    matrix = []
    for application in rest:
        args = tuple(
            Argument(const=forced[a.var]) if a.var in forced else a
            for a in application.args
        )
        matrix.append(ConstraintApplication(application.constraint, args))
    prefix = normalized_prefix(
        (b.quantifier, [v for v in b.vars if v not in forced]) for b in expr.prefix
    )
    return ReductionResult(QuantifiedExpression(prefix, tuple(matrix)))


@dataclass(frozen=True)
class HatTemplate:
    """A constraint collapsed to two argument roles via a satisfying row.

    Positions where the chosen satisfying row is 0 take the first argument,
    the rest take the second; so hat(0, 1) always evaluates to 1.
    """

    constraint: Constraint
    pattern: tuple[int, ...]

    def apply(self, first, second) -> ConstraintApplication:
        lo, hi = Argument.of(first), Argument.of(second)
        return ConstraintApplication(
            self.constraint, tuple(hi if p else lo for p in self.pattern)
        )

    def value(self, first: int, second: int) -> int:
        k = self.constraint.arity
        row = 0
        for pos, p in enumerate(self.pattern):
            row |= (second if p else first) << (k - 1 - pos)
        return self.constraint.value_on(row)


def build_hat(c: Constraint, satisfying_row: int) -> HatTemplate:
    """Two-variable application template from a satisfying row of ``c``."""
    if not 0 <= satisfying_row < c.rows:
        raise ValueError(f"row {satisfying_row} out of range for arity {c.arity}")
    if not c.value_on(satisfying_row):
        raise ValueError(f"row {satisfying_row} does not satisfy {c.name}")
    k = c.arity
    pattern = tuple((satisfying_row >> (k - 1 - i)) & 1 for i in range(k))
    return HatTemplate(c, pattern)


def _first(constraints, predicate) -> Constraint:
    for c in constraints:
        if predicate(c):
            return c
    raise AssertionError("case dispatch guaranteed a witness constraint")


def _neither_valid_not_comp_apps(core, f: str, t: str):
    """The three hat applications pinning (f, t) to (0, 1)."""
    a = _first(core, lambda c: not has_property(c, "zero_valid"))
    b = _first(core, lambda c: not has_property(c, "one_valid"))
    c = _first(core, lambda c: not has_property(c, "complementive"))
    full = c.rows - 1
    s_c = next(
        r
        for r in range(c.rows)
        if c.value_on(r) and not c.value_on(full ^ r)
    )
    hat_a = build_hat(a, a.satisfying_rows()[0])
    hat_b = build_hat(b, b.satisfying_rows()[0])
    hat_c = build_hat(c, s_c)
    return [h.apply(f, t) for h in (hat_a, hat_b, hat_c)]


def _substitute_constants(matrix, zero_var: str, one_var: str):
    out = []
    for application in matrix:
        args = tuple(
            Argument(var=one_var if a.const else zero_var) if a.is_const else a
            for a in application.args
        )
        out.append(ConstraintApplication(application.constraint, args))
    return out


def remove_constants(
    expr: QuantifiedExpression,
    constraints,
    i: int,
    *,
    max_aux: int = 6,
    max_apps: int = 8,
) -> ReductionResult:
    """Rewrite an expression with constants into a constant-free equivalent.

    The input must fit the level-``i`` alternation shape (Sigma for odd i,
    Pi for even; missing trailing blocks count as empty) and its constraints
    must come from ``constraints``, which must be non-Schaefer.  The output
    preserves the truth value and polarity, never exceeds ``i`` blocks, and
    keeps the exact block count of full-level inputs.
    """
    cs = list(constraints)
    for c in expr.constraints():
        if c not in cs:
            raise ValueError(f"constraint {c.name!r} is not in the given set")
    report = classify_set(cs)
    if report.flags.schaefer:
        raise NotApplicableError("constraint set is Schaefer; nothing is gained")
    if i < 1:
        raise ValueError("alternation level must be >= 1")
    check_level_shape(prefix_shape(expr), i)

    # Constant functions contribute nothing: a constant-false application
    # sinks the whole expression, constant-true ones are dropped, and the
    # case split below runs on the constant-free core.
    matrix: list[ConstraintApplication] = []
    for application in expr.matrix:
        c = application.constraint
        if c.is_constant():
            if c.bits == 0:
                return TRIVIALLY_FALSE
            continue
        matrix.append(application)
    core = [c for c in cs if not c.is_constant()]

    zv = all(has_property(c, "zero_valid") for c in core)
    ov = all(has_property(c, "one_valid") for c in core)
    comp = all(has_property(c, "complementive") for c in core)

    if not zv and not ov:
        case = (
            ReductionCase.NEITHER_VALID_COMP
            if comp
            else ReductionCase.NEITHER_VALID_NOT_COMP
        )
    elif zv and comp:
        case = ReductionCase.ZERO_VALID_COMP
    elif zv:
        case = ReductionCase.ZERO_VALID_NOT_COMP
    else:
        case = ReductionCase.ONE_VALID_NOT_COMP

    if case is ReductionCase.ONE_VALID_NOT_COMP:
        # Dualize, run the zero-valid construction, dualize back; both
        # complement steps preserve the truth value.
        inner = remove_constants(
            complement_expression(expr),
            [complement_constraint(c) for c in cs],
            i,
            max_aux=max_aux,
            max_apps=max_apps,
        )
        if inner.trivially_false:
            return ReductionResult(None, case, inner.implementations_used)
        return ReductionResult(
            complement_expression(inner.expression),
            case,
            inner.implementations_used,
        )

    if i < 2 and case in (
        ReductionCase.ZERO_VALID_NOT_COMP,
        ReductionCase.ZERO_VALID_COMP,
    ):
        raise NotApplicableError(
            f"case '{case.value}' has no level-1 constant removal"
        )

    polarity = qsat_level_polarity(i)
    blocks: list[list[str]] = [[] for _ in range(i)]
    for idx, blk in enumerate(expr.prefix):
        blocks[idx] = list(blk.vars)
    taken = set(expr.variables())
    fresh = _fresh_namer(taken)

    helper: Constraint | None = None
    if case is ReductionCase.NEITHER_VALID_NOT_COMP:
        f, t = fresh("f"), fresh("t")
        matrix = _substitute_constants(matrix, f, t)
        matrix += _neither_valid_not_comp_apps(core, f, t)
        blocks[i - 1] += [f, t]
    elif case is ReductionCase.NEITHER_VALID_COMP:
        helper = XOR2
        if i % 2 == 1:
            f, t = fresh("f"), fresh("t")
            matrix = _substitute_constants(matrix, f, t)
            matrix.append(ConstraintApplication(helper, (Argument(var=f), Argument(var=t))))
            blocks[0] = [f, t] + blocks[0]
        else:
            b, b2 = fresh("b"), fresh("b2")
            matrix = _substitute_constants(matrix, b, b2)
            matrix.append(ConstraintApplication(helper, (Argument(var=b), Argument(var=b2))))
            blocks[0] = [b] + blocks[0]
            blocks[i - 1] += [b2]
    elif case is ReductionCase.ZERO_VALID_NOT_COMP:
        helper = IMP2
        y, z, f, t = fresh("y"), fresh("z"), fresh("f"), fresh("t")
        matrix = _substitute_constants(matrix, f, t)
        matrix.append(ConstraintApplication(helper, (Argument(var=f), Argument(var=y))))
        matrix.append(ConstraintApplication(helper, (Argument(var=z), Argument(var=t))))
        blocks[i - 2] += [y, z]
        blocks[i - 1] = [f, t] + blocks[i - 1]
    else:  # ZERO_VALID_COMP
        # The switch variable x must sit in the *first* block: its two values
        # select between the constant pair (0, 1) and its mirror (1, 0), and
        # only at the front does complementivity make the mirrored branch
        # redundant.  Placing x under an earlier existential block computes
        # the conjunction of a branch value with its complement-twin, which
        # is strictly stronger and breaks truth preservation at level >= 3.
        helper = SYMOR1
        x, y, z, f, t = fresh("x"), fresh("y"), fresh("z"), fresh("f"), fresh("t")
        matrix = _substitute_constants(matrix, f, t)
        matrix.append(
            ConstraintApplication(
                helper, (Argument(var=x), Argument(var=f), Argument(var=y))
            )
        )
        matrix.append(
            ConstraintApplication(
                helper, (Argument(var=x), Argument(var=z), Argument(var=t))
            )
        )
        blocks[0] = [x] + blocks[0]
        blocks[i - 2] += [y, z]
        blocks[i - 1] = [f, t] + blocks[i - 1]

    impls: tuple[Implementation, ...] = ()
    if helper is not None:
        impl = find_implementation(core, helper, max_aux, max_apps)
        if impl is None:
            raise ImplementationNotFoundError(
                f"no implementation of {helper.name} over "
                f"{{{', '.join(c.name for c in core)}}} within "
                f"max_aux={max_aux}, max_apps={max_apps}"
            )
        matrix, new_aux = _expand_target(matrix, impl, fresh)
        blocks[i - 1] += new_aux
        impls = (impl,)

    prefix = normalized_prefix(
        (block_quantifier(polarity, j + 1), names) for j, names in enumerate(blocks)
    )
    out = QuantifiedExpression(prefix, tuple(matrix))
    assert not out.has_constants()
    return ReductionResult(out, case, impls)
