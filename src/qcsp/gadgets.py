"""Constructive transformations on quantified constraint expressions.

Four transformations live here:

* the complement transform (flip every constraint's table under argument
  negation and swap the constants 0/1), a truth-preserving involution up to
  the names it gives tables that would otherwise share one;
* substitution of a perfect implementation for every application of its
  target constraint, with fresh disjoint auxiliary variables appended to the
  innermost existential block;
* elimination of forced unary applications (identity / negation), replacing
  forced variables by constants or reporting the expression trivially false;
* constant removal: rewriting an expression *with* constants over a
  non-Schaefer constraint set into an equivalent constant-free expression
  with the same alternation shape, by a case split on whether the set is
  0-valid / 1-valid / complementive.

Every matrix rewrite goes through one walk, :func:`_rewrite`, which maps
each argument and, optionally, each constraint.  Each case of constant
removal is one recipe over the caller's own set: the fresh stand-ins for 0
and 1, the applications that pin them, and the block each fresh name goes
to the front or the back of; one shared step substitutes the stand-ins,
appends the pins and places the names.  The one-valid recipe is the
zero-valid one under complement, with the roles of the stand-ins swapped.

The pins of all but the hat case use a helper constraint (binary
implication or its complement, SYMOR1, binary xor) that is then compiled
away through a bounded perfect-implementation search over the given set;
search exhaustion is a distinct error, never a wrong answer.

Three steps of constant removal read the set alone: its classification,
the hat templates, and the helper's implementation search.  Each is kept
per set in a bounded least-recently-used cache of 64 entries, keyed by
value: the constant-free core as a tuple of constraints (whose equality
includes the name), and for the search also the helper and both bounds.  A
caller that repeats a set pays for them once; the checks, the refusals and
the rewrite still run on every call, in the same order.  Raised errors are
never cached: an exhausted search caches its None, which raises
ImplementationNotFoundError on every call.  ``find_implementation`` itself
is not cached.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

from .classifier import PropertyFlags, classify_set, has_property
from .evaluator import ShapeMismatchError, check_level_shape, qsat_level_polarity
from .implsearch import (
    Implementation,
    _check_bounds,
    check_implementation,
    find_implementation,
)
from .model import (
    Argument,
    Constraint,
    ConstraintApplication,
    QuantifiedExpression,
    Quantifier,
    app,
    block_quantifier,
    complement_constraint,
    exists,
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
    """Outcome of a reduction: an expression, or the trivially-false marker,
    and the implementations it used, each over the caller's own set."""

    expression: QuantifiedExpression | None
    case_used: ReductionCase | None = None
    implementations_used: tuple[Implementation, ...] = ()

    @property
    def trivially_false(self) -> bool:
        return self.expression is None


TRIVIALLY_FALSE = ReductionResult(None)


def _rewrite(matrix, arg, constraints=None) -> list[ConstraintApplication]:
    """Each application with every argument mapped by ``arg`` and, when
    ``constraints`` is given, its constraint looked up there."""
    return [
        ConstraintApplication(
            application.constraint if constraints is None
            else constraints[application.constraint],
            tuple(map(arg, application.args)),
        )
        for application in matrix
    ]


def complement_expression(expr: QuantifiedExpression) -> QuantifiedExpression:
    """Complement every constraint and flip every constant; truth-preserving.

    Each distinct constraint is complemented once (see
    :func:`~qcsp.model.complement_constraint`).  Complementive constraints
    keep their names, and where a toggled name lands on one another table
    already holds, ``_c`` is added to the original name instead, until the
    name is free: distinct tables get distinct names.
    """
    complements = {c: complement_constraint(c) for c in expr.constraints()}
    held = {c.name: (c.arity, c.bits) for c, d in complements.items() if c is d}
    for c, d in complements.items():
        name, table, base = d.name, (d.arity, d.bits), c.name
        while held.setdefault(name, table) != table:
            base = name = base + "_c"
        if name != d.name:
            complements[c] = Constraint(name, d.arity, d.bits)
    matrix = _rewrite(
        expr.matrix,
        lambda a: Argument(const=1 - a.const) if a.is_const else a,
        complements,
    )
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
        for av in impl.aux_vars:
            new_aux.append(fresh("w"))
            mapping[av] = Argument(var=new_aux[-1])
        out += _rewrite(impl.apps, lambda a: a if a.is_const else mapping[a.var])
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
    fresh = _fresh_namer(set(expr.variables()))
    matrix, new_aux = _expand_target(expr.matrix, impl, fresh)
    prefix = expr.prefix
    if new_aux:
        if not prefix or prefix[-1].quantifier is not Quantifier.EXISTS:
            raise ShapeMismatchError(
                "cannot append auxiliary variables: innermost block is not existential"
            )
        prefix = prefix[:-1] + (exists(*prefix[-1].vars, *new_aux),)
    return QuantifiedExpression(prefix, tuple(matrix))


# the value a unary table forces on its argument: identity satisfies only
# row 1, negation only row 0
_FORCED = {0b10: 1, 0b01: 0}


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
        want = _FORCED.get(c.bits)
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

    matrix = _rewrite(
        rest, lambda a: Argument(const=forced[a.var]) if a.var in forced else a
    )
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
        return self.apply(first, second).evaluate({})


def build_hat(c: Constraint, satisfying_row: int) -> HatTemplate:
    """Two-variable application template from a satisfying row of ``c``."""
    if not 0 <= satisfying_row < c.rows:
        raise ValueError(f"row {satisfying_row} out of range for arity {c.arity}")
    if not c.value_on(satisfying_row):
        raise ValueError(f"row {satisfying_row} does not satisfy {c.name}")
    k = c.arity
    pattern = tuple((satisfying_row >> (k - 1 - i)) & 1 for i in range(k))
    return HatTemplate(c, pattern)


# Entries in each per-set cache below, bounded so that a long run over fresh
# sets stays in fixed memory.
_SET_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_SET_CACHE_SIZE)
def _set_flags(tables: tuple[Constraint, ...]) -> PropertyFlags:
    """The PropertyFlags of ``tables``, classified once per set."""
    return classify_set(tables).flags


@functools.lru_cache(maxsize=_SET_CACHE_SIZE)
def _hat_templates(core: tuple[Constraint, ...]) -> tuple[HatTemplate, ...]:
    """The distinct hat templates, of at most three, that pin (f, t) to
    (0, 1): the first tables of ``core`` that are not 0-valid, not 1-valid
    and not complementive, at their first satisfying row, for the last the
    first one whose mirror fails.  The case dispatch guarantees all three."""
    a, b, c = (
        next(c for c in core if not has_property(c, p))
        for p in ("zero_valid", "one_valid", "complementive")
    )
    row = next(r for r in c.satisfying_rows() if not c.value_on(c.rows - 1 - r))
    hats = (
        build_hat(a, a.satisfying_rows()[0]),
        build_hat(b, b.satisfying_rows()[0]),
        build_hat(c, row),
    )
    return tuple(dict.fromkeys(hats))


@functools.lru_cache(maxsize=_SET_CACHE_SIZE)
def _helper_implementation(
    core: tuple[Constraint, ...], helper: Constraint, max_aux: int, max_apps: int
) -> Implementation | None:
    """find_implementation of ``helper`` over ``core``, searched once per
    set and bounds; a raised error is not cached, a None is."""
    return find_implementation(core, helper, max_aux, max_apps)


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
    keeps the exact block count of full-level inputs.  Every case is a recipe
    over ``constraints``, so the output and each reported implementation
    apply only its tables.  A negative search bound raises ValueError.
    """
    _check_bounds(max_aux, max_apps)
    cs = list(constraints)
    for c in expr.constraints():
        if c not in cs:
            raise ValueError(f"constraint {c.name!r} is not in the given set")
    # constant tables lie in every Schaefer class: the core refuses as cs does
    core = tuple(c for c in cs if not c.is_constant())
    flags = _set_flags(core or tuple(cs))
    if flags.schaefer:
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

    zv, ov, comp = flags.zero_valid, flags.one_valid, flags.complementive
    if not zv and not ov:
        case = (ReductionCase.NEITHER_VALID_COMP if comp
                else ReductionCase.NEITHER_VALID_NOT_COMP)
    elif zv and comp:
        case = ReductionCase.ZERO_VALID_COMP
    elif zv:
        case = ReductionCase.ZERO_VALID_NOT_COMP
    else:
        case = ReductionCase.ONE_VALID_NOT_COMP

    if i < 2 and (zv or ov):  # the valid recipes use the block before the last
        raise NotApplicableError(f"case '{case.value}' has no level-1 constant removal")

    polarity = qsat_level_polarity(i)
    # missing trailing blocks count as empty
    blocks = [list(b.vars) for b in expr.prefix]
    blocks += [[] for _ in range(i - len(blocks))]
    fresh = _fresh_namer(set(expr.variables()))

    # Each case's recipe: the stand-ins (zero, one) for the constants, the
    # applications pinning them, and the fresh names that go to the front or
    # the back of a block.  The order of the fresh() calls fixes the names in
    # the output.
    front: dict[int, list[str]] = {}
    back: dict[int, list[str]] = {}
    if case is ReductionCase.NEITHER_VALID_NOT_COMP:
        zero, one = fresh("f"), fresh("t")
        pins = [h.apply(zero, one) for h in _hat_templates(core)]
        back[i - 1] = [zero, one]
    elif case is ReductionCase.NEITHER_VALID_COMP and i % 2 == 1:
        zero, one = fresh("f"), fresh("t")
        pins = [app(XOR2, zero, one)]
        front[0] = [zero, one]
    elif case is ReductionCase.NEITHER_VALID_COMP:
        zero, one = fresh("b"), fresh("b2")
        pins = [app(XOR2, zero, one)]
        front[0], back[i - 1] = [zero], [one]
    elif case is ReductionCase.ZERO_VALID_NOT_COMP:
        y, z, zero, one = fresh("y"), fresh("z"), fresh("f"), fresh("t")
        pins = [app(IMP2, zero, y), app(IMP2, z, one)]
        back[i - 2], front[i - 1] = [y, z], [zero, one]
    elif case is ReductionCase.ONE_VALID_NOT_COMP:
        # the zero-valid recipe under complement: the stand-ins swap roles
        y, z, one, zero = fresh("y"), fresh("z"), fresh("f"), fresh("t")
        imp = complement_constraint(IMP2)
        pins = [app(imp, one, y), app(imp, z, zero)]
        back[i - 2], front[i - 1] = [y, z], [one, zero]
    else:  # ZERO_VALID_COMP
        # The switch variable x must sit in the *first* block: its two values
        # select between the constant pair (0, 1) and its mirror (1, 0), and
        # only at the front does complementivity make the mirrored branch
        # redundant.  Placing x under an earlier existential block computes
        # the conjunction of a branch value with its complement-twin, which
        # is strictly stronger and breaks truth preservation at level >= 3.
        x, y, z = fresh("x"), fresh("y"), fresh("z")
        zero, one = fresh("f"), fresh("t")
        pins = [app(SYMOR1, x, zero, y), app(SYMOR1, x, z, one)]
        front[0], back[i - 2], front[i - 1] = [x], [y, z], [zero, one]

    stand_ins = (Argument(var=zero), Argument(var=one))
    matrix = _rewrite(matrix, lambda a: stand_ins[a.const] if a.is_const else a)
    matrix += pins
    for j, names in front.items():
        blocks[j] = names + blocks[j]
    for j, names in back.items():
        blocks[j] += names

    impls: tuple[Implementation, ...] = ()
    if case is not ReductionCase.NEITHER_VALID_NOT_COMP:
        helper = pins[0].constraint
        impl = _helper_implementation(core, helper, max_aux, max_apps)
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
