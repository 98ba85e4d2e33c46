"""Differential verification suites.

Each check pits one subsystem against an independent reference: the
oracle against a definitional truth-table evaluator, the parser's integer
form against the walk of the matrix it stands for, its formula tables
against a row-by-row evaluation and its fast reader against its token
parser, the classifier against
normal-form synthesis, the polynomial solvers and every
gadget transformation against the brute-force evaluator, the implementation
engine against exhaustive re-verification.  The scaling check solves a
true and a false instance of 10^4 variables per class, and for Horn also a
chain whose masks shrink again and again, far past the oracle budget, each
of a truth value known by construction.  The CLI ``verify``
command runs these; the acceptance test module runs the same checks at
their contracted sizes.  All randomness is reproducible from the seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from itertools import product

from .classifier import classify_set, has_property
from .evaluator import (
    BudgetExceededError,
    EvalBudget,
    _evaluate,
    evaluate,
    qsat_i_member,
    qsat_level_polarity,
)
from .gadgets import (
    ImplementationNotFoundError,
    ReductionCase,
    build_hat,
    complement_expression,
    remove_constants,
    substitute_implementation,
)
from .implsearch import check_implementation, find_implementation
from .model import (
    Constraint,
    ConstraintApplication,
    Polarity,
    Quantifier,
    QuantifiedExpression,
    app,
    compile_expression,
    complement_constraint,
    exists,
    forall,
    make_constraint,
    normalized_prefix,
    prefix_shape,
)
from .parser import (
    ParseError,
    SourceDocument,
    _Parser,
    _read_plain,
    parse_document,
    render_document,
)
from .presets import (
    CNF3_FAMILY,
    EQ2,
    IMP2,
    NAND2,
    OIT,
    OR2,
    OR3_2N,
    OR3_3N,
    SYMOR1,
    XOR2,
)
from .randgen import (
    _random_apps,
    random_constraint,
    random_constraint_with,
    random_expression,
    random_expression_with_constants,
    random_shaped_expression,
)
from .solvers import (
    TractableClass,
    solve_tractable,
    solve_with_method,
    synthesize_normal_form,
)

# Case-matching non-Schaefer seed constraints for the constant-removal
# harness.  Satisfying rows: ZV3 {000,011,101}, OV3 its mirror {111,100,010},
# ZVC3 everything but {001,110}, NAE3 everything but {000,111}.
ZV3 = make_constraint("ZV3", 3, "10010100")
OV3 = make_constraint("OV3", 3, "00101001")
ZVC3 = make_constraint("ZVC3", 3, "10111101")
NAE3 = make_constraint("NAE3", 3, "01111110")

CASE_FAMILIES: dict[ReductionCase, tuple[Constraint, ...]] = {
    ReductionCase.ZERO_VALID_NOT_COMP: (ZV3,),
    ReductionCase.ONE_VALID_NOT_COMP: (OV3,),
    ReductionCase.ZERO_VALID_COMP: (ZVC3,),
    ReductionCase.NEITHER_VALID_COMP: (NAE3,),
    ReductionCase.NEITHER_VALID_NOT_COMP: (OIT,),
}

# Ternary tables (as packed bitmasks) that One-in-Three cannot implement
# within 6 auxiliary variables and 8 applications; all of them succeed at 8
# auxiliaries.  The exhaustive sweep in the test suite revalidates this list.
TERNARY_NEEDING_WIDE_SEARCH = frozenset(
    {106, 108, 120, 126, 172, 184, 188, 202, 216, 218, 226, 228, 230, 232,
     233, 234, 236, 248, 254}
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def closure_disagreements(c: Constraint) -> list[TractableClass]:
    """Classes whose closure construction and normal-form synthesis disagree.

    The classifier's flag for ``c`` is checked against the form the class
    solver compiles, found by candidate-clause synthesis; for anti-Horn that
    is the Horn form of the complemented constraint."""
    out = []
    for cls in TractableClass:
        table = complement_constraint(c) if cls is TractableClass.ANTI_HORN else c
        synthesized = synthesize_normal_form(table, cls.kind) is not None
        if has_property(c, cls.flag) != synthesized:
            out.append(cls)
    return out


def _classifier_mismatches(samples) -> int:
    """How often the classifier is wrong on ``(table, class it was built in
    or None)`` pairs: each closure flag against normal-form synthesis, the
    zero-valid, one-valid and complementive flags against the table itself,
    and the flag of the class the table was built in."""
    mismatches = 0
    for c, cls in samples:
        mismatches += len(closure_disagreements(c))
        table = c.table()
        full = c.rows - 1
        want = {
            "zero_valid": table[0] == "1",
            "one_valid": table[-1] == "1",
            "complementive": all(table[r] == table[full ^ r] for r in range(c.rows)),
        }
        if cls is not None:
            want[cls.flag] = True
        mismatches += sum(has_property(c, name) != w for name, w in want.items())
    return mismatches


def check_classifier_exhaustive() -> CheckResult:
    """Closure-construction flags equal synthesis, all arity <= 3 tables."""
    samples = [
        (Constraint(f"F{arity}_{bits}", arity, bits), None)
        for arity in (1, 2, 3)
        for bits in range(1 << (1 << arity))
    ]
    mismatches = _classifier_mismatches(samples)
    return CheckResult(
        "classifier-vs-synthesis",
        mismatches == 0,
        f"{len(samples)} functions x 4 normal forms + direct reads, "
        f"{mismatches} mismatches",
    )


# Each class's closure operation, in ternary form so that one loop closes a
# row set under any of them: AND (or OR) of three rows closes exactly the
# sets the binary AND (or OR) closes.
_CLOSURE_OPS = (
    (TractableClass.HORN, lambda a, b, d: a & b & d),
    (TractableClass.ANTI_HORN, lambda a, b, d: a | b | d),
    (TractableClass.BIJUNCTIVE, lambda a, b, d: (a & b) | (d & (a ^ b))),
    (TractableClass.AFFINE, lambda a, b, d: a ^ b ^ d),
)


def _classifier_samples(
    seed: int, per_arity: int
) -> list[tuple[Constraint, TractableClass | None]]:
    """Seeded arity-4 and arity-5 tables, each with the class it was built in.

    At each arity, ``per_arity`` uniform draws (class None; nearly all lie
    outside every class) and ``per_arity`` members, spread over the classes:
    a few random rows closed under the class's operation.
    """
    rng = random.Random(seed)
    out = []
    for arity in (4, 5):
        out += [(random_constraint(rng, arity), None) for _ in range(per_arity)]
        for i in range(per_arity):
            cls, op = _CLOSURE_OPS[i % len(_CLOSURE_OPS)]
            out.append((_closed_member(rng, arity, op), cls))
    return out


def _closed_member(rng: random.Random, arity: int, op) -> Constraint:
    """A table of ``arity``: a few random rows closed under ``op``."""
    rows = set(rng.sample(range(1 << arity), rng.randint(2, 5)))
    while new := {op(a, b, d) for a in rows for b in rows for d in rows} - rows:
        rows |= new
    return Constraint(f"C{arity}", arity, sum(1 << r for r in rows))


def check_classifier_sampled(seed: int, per_arity: int = 60) -> CheckResult:
    """Closure-construction flags equal normal-form synthesis on seeded
    arity-4 and arity-5 tables, members of every class among them."""
    samples = _classifier_samples(seed, per_arity)
    mismatches = _classifier_mismatches(samples)
    return CheckResult(
        "classifier-sampled",
        mismatches == 0,
        f"{len(samples)} functions of arity 4-5 (half built in a class) x 4 "
        f"normal forms, {mismatches} mismatches",
    )


def check_verdict_table() -> CheckResult:
    """The headline families classify to their dichotomy verdicts."""
    cases = [
        ((OIT,), "NP-complete", "Sigma_i-complete"),
        (CNF3_FAMILY, "NP-complete", "Sigma_i-complete"),
        ((XOR2,), "P", "P"),
        ((NAND2,), "P", "P"),
        ((OR2,), "P", "P"),
    ]
    bad = []
    for family, want_sat_c, want_qsat_i in cases:
        rep = classify_set(family)
        names = ",".join(c.name for c in family)
        verdicts = rep.verdicts()
        if verdicts["sat_c"] != want_sat_c or verdicts["qsat_i"] != want_qsat_i:
            bad.append(names)
        if family == (OIT,) and any(rep.flags.as_dict().values()):
            bad.append("OIT flags not all false")
        if family == (XOR2,) and not (rep.flags.affine and rep.flags.complementive):
            bad.append("XOR2 flags")
    return CheckResult(
        "dichotomy-verdicts",
        not bad,
        "5 families land on their dichotomy verdicts" if not bad else f"bad: {bad}",
    )


def check_complement_differential(seed: int, instances: int = 1000) -> CheckResult:
    """Complementing an expression never changes its truth value."""
    rng = random.Random(seed)
    agree = 0
    for _ in range(instances):
        cs = [
            random_constraint(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
        ]
        e = random_expression(
            rng, cs, rng.randint(1, 12), rng.randint(1, 15), const_prob=0.2
        )
        if evaluate(e) == evaluate(complement_expression(e)):
            agree += 1
    return CheckResult(
        "complement-differential",
        agree == instances,
        f"{agree}/{instances} truth-preserving",
    )


_SHAPES = ((Polarity.SIGMA, 2, 3), (Polarity.PI, 2, 2), (Polarity.SIGMA, 3, 3))


def check_constant_removal(seed: int, per_case: int = 300) -> CheckResult:
    """Constant removal preserves truth and shape for every dispatch case,
    and each implementation it reports applies only tables of the family."""
    rng = random.Random(seed)
    lines = []
    ok = True
    budget = EvalBudget(max_variables=32)
    for case, family in CASE_FAMILIES.items():
        good = skipped = bad = 0
        for _ in range(per_case):
            polarity, level, i = _SHAPES[rng.randrange(len(_SHAPES))]
            e = random_expression_with_constants(
                rng,
                family,
                polarity,
                level,
                rng.randint(level, 6),
                rng.randint(1, 6),
            )
            before = evaluate(e)
            try:
                res = remove_constants(e, family, i)
            except (ImplementationNotFoundError, BudgetExceededError):
                skipped += 1
                continue
            foreign = any(
                a.constraint not in family
                for impl in res.implementations_used
                for a in impl.apps
            )
            if res.case_used is not case or foreign:
                bad += 1
                continue
            if res.trivially_false:
                if before == 0:
                    good += 1
                else:
                    bad += 1
                continue
            out = res.expression
            shape = prefix_shape(out)
            shape_ok = shape.polarity is polarity and shape.level <= i
            if level == i:
                shape_ok = shape_ok and shape.level == level
            try:
                after = evaluate(out, budget)
            except BudgetExceededError:
                skipped += 1
                continue
            if after == before and not out.has_constants() and shape_ok:
                good += 1
            else:
                bad += 1
        lines.append(f"{case.name}: {good} ok, {skipped} skipped, {bad} bad")
        if bad or good == 0:
            ok = False
    return CheckResult("constant-removal", ok, "; ".join(lines))


def check_gadget_identities() -> CheckResult:
    """Exhaustive micro-identities behind the constant-removal gadgets."""
    problems = []
    # forall y {~f|y, ~y|t} is exactly ~f & t, for each constant pair
    for f in (0, 1):
        for t in (0, 1):
            e = QuantifiedExpression(
                (forall("y"),), (app(IMP2, f, "y"), app(IMP2, "y", t))
            )
            if evaluate(e) != ((1 - f) & t):
                problems.append(f"imp-pair at f={f} t={t}")
    # SymOR1 cofactors: fixing the switch argument leaves binary implications
    for row in range(8):
        x, y, z = (row >> 2) & 1, (row >> 1) & 1, row & 1
        want = ((1 - y) | z) if x == 0 else ((1 - z) | y)
        if SYMOR1.value_on(row) != want:
            problems.append(f"symor1 row {row}")
    # hat value tables for every neither-valid non-complementive ternary-or-less
    checked = 0
    for arity in (1, 2, 3):
        for bits in range(1 << (1 << arity)):
            c = Constraint(f"H{arity}_{bits}", arity, bits)
            if any(
                has_property(c, name)
                for name in ("zero_valid", "one_valid", "complementive")
            ):
                continue
            if not c.satisfying_rows():
                continue
            checked += 1
            hat = build_hat(c, c.satisfying_rows()[0])
            if (hat.value(0, 0), hat.value(0, 1), hat.value(1, 1)) != (0, 1, 0):
                problems.append(f"hat {arity}/{bits}")
            full = c.rows - 1
            s_c = next(
                r for r in range(c.rows) if c.value_on(r) and not c.value_on(full ^ r)
            )
            hat_c = build_hat(c, s_c)
            if not (hat_c.value(0, 1) == 1 and hat_c.value(1, 0) == 0):
                problems.append(f"hatC {arity}/{bits}")
    return CheckResult(
        "gadget-identities",
        not problems,
        f"imp-pair, symor1 cofactors, hat tables on {checked} constraints"
        + ("" if not problems else f"; bad: {problems[:5]}"),
    )


def check_implementation_engine(seed: int, ternary_samples: int = 32) -> CheckResult:
    """One-in-Three implements the binary targets and sampled ternary ones."""
    rng = random.Random(seed)
    failures = []
    for bits in range(16):
        target = Constraint(f"B{bits}", 2, bits)
        impl = find_implementation([OIT], target, 6, 8)
        if impl is None or not check_implementation(impl):
            failures.append(f"binary {bits}")
    frame = [b for b in range(256) if b not in TERNARY_NEEDING_WIDE_SEARCH]
    for bits in rng.sample(frame, ternary_samples):
        target = Constraint(f"T{bits}", 3, bits)
        impl = find_implementation([OIT], target, 6, 8)
        if impl is None or not check_implementation(impl):
            failures.append(f"ternary {bits}")
    for bits in sorted(TERNARY_NEEDING_WIDE_SEARCH):
        target = Constraint(f"W{bits}", 3, bits)
        impl = find_implementation([OIT], target, 8, 8)
        if impl is None or not check_implementation(impl):
            failures.append(f"wide ternary {bits}")
    return CheckResult(
        "implementation-engine",
        not failures,
        f"16 binary + {ternary_samples} sampled ternary within (6,8), "
        f"{len(TERNARY_NEEDING_WIDE_SEARCH)} wide at (8,8)"
        + ("" if not failures else f"; failed: {failures[:5]}"),
    )


def _fewest_applications(
    constraints, m: int, a: int, max_apps: int, allow_constants: bool
) -> dict[int, int]:
    """Fewest applications of ``constraints`` implementing each target of
    arity ``m`` over ``a`` auxiliaries, for the targets that at most
    ``max_apps`` implement.

    Breadth first over every state (the points on which all chosen
    applications hold) that c applications reach, with no prune.  A state
    implements exactly one target: the rows whose block it meets.  Each
    application's points are found by looking up its row at every point.
    """
    pool = m + a
    values = list(range(pool)) + ([pool, pool + 1] if allow_constants else [])
    masks = set()
    for c in constraints:
        for args in product(values, repeat=c.arity):
            mask = 0
            for point in range(1 << pool):
                row = 0
                for p in args:  # variable p is bit pool - 1 - p; pool + v is v
                    bit = (point >> (pool - 1 - p)) & 1 if p < pool else p - pool
                    row = row << 1 | bit
                mask |= ((c.bits >> row) & 1) << point
            masks.add(mask)
    block = (1 << (1 << a)) - 1
    fewest: dict[int, int] = {}
    states = {(1 << (1 << pool)) - 1}
    for count in range(max_apps + 1):
        for s in states:
            bits = sum(1 << x for x in range(1 << m) if s >> (x << a) & block)
            fewest.setdefault(bits, count)
        if count < max_apps:
            states = {s & mask for s in states for mask in masks}
    return fewest


def check_implementation_brute_force(seed: int, instances: int = 300) -> CheckResult:
    """The pruned search and an unpruned one agree on found/NotFound and on
    the witness's application count, for every target of arity 1 or 2 over
    small random constraint sets.

    Sets of one or two tables of arity 1-3 with a uniform number of
    satisfying rows, at most 2 auxiliaries and 4 applications, with and
    without constants; a set with an arity-3 table keeps the pool to three
    variables, so that the brute force stays small.  Witnesses of more than
    two applications are rare at these sizes, so the One-in-Three digests in
    the tests remain what covers the narrowing step.
    """
    rng = random.Random(seed)
    problems = []
    agreed: dict[int | None, int] = {}  # witness size (None: NotFound) -> count
    for i in range(instances):
        constraints = []
        for k in rng.choices((1, 2, 3), k=rng.randint(1, 2)):
            rows = rng.sample(range(1 << k), rng.randint(1, (1 << k) - 1))
            bits = sum(1 << r for r in rows)
            constraints.append(Constraint(f"R{len(constraints)}", k, bits))
        m = rng.randint(1, 2)
        wide = max(c.arity for c in constraints) == 3
        max_aux = rng.randint(0, 3 - m if wide else 2)
        max_apps = rng.randint(1, 4)
        allow_constants = rng.random() < 0.5
        canonical = rng.random() < 0.7
        fewest = _fewest_applications(constraints, m, max_aux, max_apps, allow_constants)
        for bits in range(1 << (1 << m)):
            target = Constraint(f"T{bits}", m, bits)
            try:
                impl = find_implementation(
                    constraints,
                    target,
                    max_aux,
                    max_apps,
                    canonical=canonical,
                    allow_constants=allow_constants,
                )
                got = None if impl is None else len(impl.apps)
            except RuntimeError as err:  # a witness failed its re-check
                got = str(err)
            if got == fewest.get(bits):
                agreed[got] = agreed.get(got, 0) + 1
            else:
                problems.append(
                    f"#{i} {constraints} -> {target} at ({max_aux}, {max_apps}): "
                    f"{got} applications, brute force {fewest.get(bits)}"
                )
    spread = ", ".join(
        f"{n} NotFound" if c is None else f"{n} of {c}"
        for c, n in sorted(agreed.items(), key=lambda kv: (kv[0] is None, kv[0] or 0))
    )
    return CheckResult(
        "implementation-brute-force",
        not problems,
        f"{sum(agreed.values())} searches over {instances} sets agree with the "
        f"unpruned search ({spread})"
        + ("" if not problems else f"; {len(problems)} disagree, first: {problems[0]}"),
    )


def check_substitution_preservation(seed: int, instances: int = 200) -> CheckResult:
    """Replacing a constraint by an implementation never changes the value."""
    rng = random.Random(seed)
    targets = []
    for bits in (0b0001, 0b0110, 0b0111, 0b1110):  # and, xor, or, nand
        t = Constraint(f"S{bits}", 2, bits)
        targets.append((t, find_implementation([OIT], t, 6, 8)))
    good = 0
    budget = EvalBudget(max_variables=32)
    for _ in range(instances):
        target, impl = targets[rng.randrange(len(targets))]
        level = rng.choice((1, 3))  # existential innermost block
        n_vars = rng.randint(level, 6)
        e = random_shaped_expression(
            rng, [target, OIT], Polarity.SIGMA, level, n_vars, rng.randint(1, 4)
        )
        out = substitute_implementation(e, impl)
        if (
            evaluate(e) == evaluate(out, budget)
            and prefix_shape(out) == prefix_shape(e)
        ):
            good += 1
    return CheckResult(
        "substitution-preservation",
        good == instances,
        f"{good}/{instances} truth- and shape-preserving",
    )


def check_solver_class(
    cls: TractableClass, seed: int, instances: int = 1000
) -> CheckResult:
    """solve_tractable agrees with the evaluator on random class instances.

    Each draw takes class members of arity 1-3; one draw in ten also takes
    one of arity 4-5, built like the members in ``_classifier_samples``, so
    that clauses of four and five literals meet the oracle too.
    """
    rng = random.Random(seed)
    op = dict(_CLOSURE_OPS)[cls]
    agree = 0
    started = time.monotonic()
    for i in range(instances):
        cs = [
            random_constraint_with(
                rng, rng.randint(1, 3), lambda c: has_property(c, cls.flag)
            )
            for _ in range(rng.randint(1, 3))
        ]
        if i % 10 == 0:
            cs.append(_closed_member(rng, rng.randint(4, 5), op))
        e = random_expression(
            rng, cs, rng.randint(1, 14), rng.randint(1, 20), const_prob=0.15
        )
        if solve_tractable(e, cls) == evaluate(e):
            agree += 1
    elapsed = time.monotonic() - started
    return CheckResult(
        f"solver-{cls.value}",
        agree == instances,
        f"{agree}/{instances} agree with the oracle, a tenth with a table of "
        f"arity 4-5, in {elapsed:.1f}s",
    )


def _reached_rows(args, strategy: dict) -> int:
    """The rows an application over ``args`` reaches under ``strategy``, as a
    mask with bit ``row`` set for each, over every value of the universals.

    ``args`` are variable names and constants.  The strategy maps each
    variable to ``(universal, flip)``: the variable is that universal's
    value XOR ``flip``, or the constant ``flip`` when the universal is None.
    A universal maps to ``(itself, 0)``.
    """
    univ = sorted({strategy[a][0] for a in args if isinstance(a, str)} - {None})
    rows = 0
    for values in range(1 << len(univ)):
        value = {u: (values >> i) & 1 for i, u in enumerate(univ)}
        row = 0
        for a in args:
            if isinstance(a, str):
                u, flip = strategy[a]
                a = flip if u is None else value[u] ^ flip
            row = (row << 1) | a
        rows |= 1 << row
    return rows


_SCALING_VARS = 10_000
_HORN_LIBRARY = (IMP2, NAND2, EQ2, OR3_2N, OR3_3N)
_BIJUNCTIVE_LIBRARY = (IMP2, NAND2, EQ2, OR2, XOR2)


def _planted(
    rng: random.Random, value: int, n_apps: int, library
) -> QuantifiedExpression:
    """An instance of 10^4 variables with blocks E A E A E, ``n_apps``
    applications of tables in ``library`` and a known truth value.

    A tenth of the variables are universal.  Every existential copies a
    constant or a universal quantified before it, and an application over
    distinct variables is kept only if its table holds on every row that
    strategy reaches, so the instance is true.  A false one
    adds a chain ``y -> e1 -> ... -> ek -> y`` of ``IMP2`` whose existentials
    are quantified before the universal ``y``: they cannot wait for ``y``, so
    ``e1`` and then every ``ei`` must be 1, and ``y = 0`` falsifies the last
    link.
    """
    n_vars = _SCALING_VARS
    names = [f"v{i}" for i in range(n_vars)]
    cuts = [0] + [n_vars * k // 20 for k in (6, 7, 13, 14)] + [n_vars]
    blocks = []
    strategy: dict[str, tuple[str | None, int]] = {}
    universals: list[list[str]] = []
    for j in range(5):
        block = names[cuts[j] : cuts[j + 1]]
        if j % 2:
            blocks.append(forall(*block))
            universals.append(block)
            strategy.update((u, (u, 0)) for u in block)
            continue
        blocks.append(exists(*block))
        earlier = [u for us in universals for u in us]
        for v in block:
            if earlier and rng.random() < 0.5:
                strategy[v] = (rng.choice(earlier), 0)
            else:
                strategy[v] = (None, rng.randint(0, 1))
    apps = []
    while len(apps) < n_apps:
        c = rng.choice(library)
        args = rng.sample(names, c.arity)
        reached = _reached_rows(args, strategy)
        if c.bits & reached == reached:
            apps.append(app(c, *args))
    if not value:
        y = rng.choice(universals[1])
        chain = rng.sample(names[: cuts[1]] + names[cuts[2] : cuts[3]], 8)
        links = [y] + chain + [y]
        apps += [app(IMP2, a, b) for a, b in zip(links, links[1:])]
        rng.shuffle(apps)
    return QuantifiedExpression(tuple(blocks), tuple(apps))


def _planted_anti_horn(
    rng: random.Random, value: int, n_apps: int
) -> QuantifiedExpression:
    """The complement of the planted Horn draw: anti-Horn, of equal truth value."""
    return complement_expression(_planted(rng, value, n_apps, _HORN_LIBRARY))


def _xor_chain(rng: random.Random, value: int, n_apps: int) -> QuantifiedExpression:
    """``A v0 E v1 A v2 E v3 ...`` with ``XOR2(v2k, v2k+1)`` for each of the
    ``n_apps`` pairs; the draw takes nothing from ``rng``.

    Every universal is answered by the existential right after it, so the
    chain is true.  A false one adds ``EQ2(v1, vlast)``: ``v1`` is fixed
    before the last universal, which ``vlast`` must differ from.
    """
    names = [f"v{i}" for i in range(2 * n_apps)]
    blocks = [forall(u) if i % 2 == 0 else exists(u) for i, u in enumerate(names)]
    apps = [app(XOR2, names[i], names[i + 1]) for i in range(0, len(names), 2)]
    if not value:
        apps.append(app(EQ2, names[1], names[-1]))
    return QuantifiedExpression(tuple(blocks), tuple(apps))


def _horn_shrinking_chain(value: int) -> QuantifiedExpression:
    """A Horn instance of 10^4 variables in which every clause fires and a
    mask shrinks ``m = 16`` times along a chain of almost every variable: the
    worst case for the Horn solver's watches and re-firing.

    The prefix is ``A y0 E p0 ... A y(m-1) E p(m-1) q1..qm x0..x(k-1) A z``.
    ``y0 -> q1`` and ``q(j) & y(j) -> q(j+1)`` give ``qm`` every ``y``.
    ``qm -> p(m-1)`` and ``p(j) -> p(j-1)`` give ``p(j)`` the universals
    ``y0..yj``, one fewer at each step, and every ``p(j) -> x0`` shrinks the
    mask of ``x0``.  Each shrink runs down ``x0 -> x1`` and
    ``x(i-2) & x(i-1) -> x(i)``, rules that wait on one body variable and
    then the other.  Every clause is a rule, so setting every existential to
    1 makes the instance true.  A false one adds ``x(k-1) -> z``: with every
    ``y`` at 1 every existential is forced to 1, and ``z = 0`` falsifies it.
    """
    m = 16
    k = _SCALING_VARS - 3 * m - 1
    y = [f"y{j}" for j in range(m)]
    p = [f"p{j}" for j in range(m)]
    q = [f"q{j + 1}" for j in range(m)]
    x = [f"x{i}" for i in range(k)]
    blocks = []
    for j in range(m):
        blocks += [forall(y[j]), exists(p[j])]
    blocks[-1] = exists(p[-1], *q, *x)
    blocks.append(forall("z"))
    # the solver reads the clauses in this order: each before its body is
    # derived, so nothing fires until the last one is read, and
    # ``p(j) -> p(j-1)`` before ``p(j) -> x0``, so that x0 runs down the
    # chain before the next, smaller mask reaches it
    apps = [app(IMP2, x[0], x[1])]
    apps += [app(OR3_2N, x[i], x[i - 2], x[i - 1]) for i in range(2, k)]
    for j in range(m - 1, -1, -1):
        if j:
            apps.append(app(IMP2, p[j], p[j - 1]))
        apps.append(app(IMP2, p[j], x[0]))
    apps.append(app(IMP2, q[-1], p[-1]))
    apps += [app(OR3_2N, q[j + 1], q[j], y[j + 1]) for j in range(m - 1)]
    apps.append(app(IMP2, y[0], q[0]))
    if not value:
        apps.append(app(IMP2, x[-1], "z"))
    return QuantifiedExpression(tuple(blocks), tuple(apps))


# Per class: the instance builder ``(rng, value, n_apps)``, the applications
# it draws and the seconds the solver may take on each instance.
_SCALING = {
    TractableClass.HORN: (
        partial(_planted, library=_HORN_LIBRARY), _SCALING_VARS // 2, 2.0
    ),
    TractableClass.ANTI_HORN: (_planted_anti_horn, _SCALING_VARS // 2, 2.0),
    TractableClass.BIJUNCTIVE: (
        partial(_planted, library=_BIJUNCTIVE_LIBRARY), _SCALING_VARS // 20, 1.0
    ),
    TractableClass.AFFINE: (_xor_chain, _SCALING_VARS // 2, 1.0),
}


def check_scaling(cls: TractableClass, seed: int = 0) -> CheckResult:
    """A true and a false 10^4-variable instance of ``cls``, whose truth value
    is known by construction, solved fast, far past the oracle budget.

    The oracle must refuse each instance, and the solver must answer each
    within the class's bound.  The bijunctive draws have ``n/20``
    applications (and the false one a chain of 9 more), so about a tenth of
    the variables occur in a clause.  Horn also solves a true and a false
    :func:`_horn_shrinking_chain`.
    """
    build, n_apps, seconds = _SCALING[cls]
    rng = random.Random(seed)
    draws = [(value, partial(build, rng, value, n_apps)) for value in (1, 0)]
    if cls is TractableClass.HORN:
        draws += [(value, partial(_horn_shrinking_chain, value)) for value in (1, 0)]
    problems = []
    slowest = 0.0
    for value, draw in draws:
        e = draw()
        try:
            evaluate(e)
            problems.append(f"oracle answered a {('false', 'true')[value]} instance")
        except BudgetExceededError:
            pass
        started = time.monotonic()
        got = solve_tractable(e, cls)
        elapsed = time.monotonic() - started
        slowest = max(slowest, elapsed)
        if got != value or elapsed >= seconds:
            problems.append(f"want {value} got {got} in {elapsed:.2f}s")
    return CheckResult(
        f"{cls.value}-scaling",
        not problems,
        f"{len(draws)} {len(e.variables())}-variable {cls.value} instances, true "
        f"and false, slowest {slowest * 1000:.0f}ms (bound {seconds:.0f}s), "
        f"oracle refuses each"
        + ("" if not problems else f"; bad: {problems}"),
    )


def check_qsat_polarity(seed: int, instances: int = 100) -> CheckResult:
    """The level-i membership bit is the definitional oracle's truth value for
    odd i and its negation for even i, at levels 1-4, each drawn with 1..i
    blocks of the level's polarity (missing trailing blocks count as empty)."""
    rng = random.Random(seed)
    good = 0
    for _ in range(instances):
        level = rng.randint(1, 4)
        blocks = rng.randint(1, level)
        cs = [
            random_constraint(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))
        ]
        e = random_shaped_expression(
            rng, cs, qsat_level_polarity(level), blocks, rng.randint(blocks, 10),
            rng.randint(1, 10), const_prob=0.1,
        )
        value = evaluate_definitional(e)
        if qsat_i_member(e, level) == (value if level % 2 else 1 - value):
            good += 1
    return CheckResult(
        "qsat-level-polarity", good == instances,
        f"{good}/{instances} instances at levels 1-4",
    )


def evaluate_definitional(expr: QuantifiedExpression) -> int:
    """Truth value from the whole truth table of the matrix: the second oracle.

    Variable ``i`` of the prefix is bit ``i`` of the point index.  Every
    application ANDs out the points of each of its falsifying rows, then
    each quantifier, innermost first, folds the upper half of the table onto
    the lower half with OR (exists) or AND (forall).  No prunes, no
    components, no early exit; the table has 2^n bits, so keep n small.
    """
    order = expr.variables()
    n = len(order)
    if n > 24:
        raise BudgetExceededError(f"{n} variables is too many for a truth table")
    points = 1 << n
    full = (1 << points) - 1
    patterns = []
    for i in range(n):
        width = 2 << i
        pattern = ((1 << (1 << i)) - 1) << (1 << i)
        while width < points:
            pattern |= pattern << width
            width *= 2
        patterns.append(pattern)
    slot = {v: i for i, v in enumerate(order)}
    table = full
    for application in expr.matrix:
        distinct = application.variables()
        for local in range(1 << len(distinct)):
            env = {
                v: (local >> (len(distinct) - 1 - i)) & 1 for i, v in enumerate(distinct)
            }
            if application.evaluate(env):
                continue
            cell = full
            for v in distinct:
                p = patterns[slot[v]]
                cell &= p if env[v] else full ^ p
            table &= full ^ cell
    size = points
    for block in reversed(expr.prefix):
        for _ in block.vars:
            size >>= 1
            lo = table & ((1 << size) - 1)
            hi = table >> size
            table = (lo | hi) if block.quantifier is Quantifier.EXISTS else (lo & hi)
    return table & 1


def _dense_app(
    rng: random.Random, args: list, strategy: dict | None = None
) -> ConstraintApplication:
    """A random application whose table rows are true with probability 7/8.

    Under a ``strategy`` (see :func:`_reached_rows`), the table is also true
    on every row the strategy reaches.
    """
    arity = len(args)
    bits = 0
    for r in range(1 << arity):
        if rng.random() < 0.875:
            bits |= 1 << r
    if strategy is not None:
        bits |= _reached_rows(args, strategy)
    return app(Constraint(f"D{arity}_{bits}", arity, bits), *args)


def _components_instance(
    rng: random.Random, n_vars: int, n_parts: int, true: bool
) -> QuantifiedExpression:
    """An instance whose matrix falls into ``n_parts`` variable-disjoint parts.

    The prefix alternates blocks of 1-6 variables, and the parts' variables
    interleave in it.  Each part is connected by a chain of applications,
    and has an application over its outermost and innermost variable (so
    every leaf cut inside the part has an application on both sides of it),
    one with a repeated variable and one with a constant.  A planted part
    is true: each existential copies, or negates, a universal before it or
    is a constant, and every table holds on what that strategy reaches.
    Every part is planted when ``true``, all but one otherwise.
    """
    names = [f"x{i}" for i in range(n_vars)]
    blocks = []
    quant = rng.choice((Quantifier.EXISTS, Quantifier.FORALL))
    is_universal = {}
    idx = 0
    while idx < n_vars:
        size = rng.randint(1, 6)
        blocks.append((quant, names[idx : idx + size]))
        for v in names[idx : idx + size]:
            is_universal[v] = quant is Quantifier.FORALL
        idx += size
        quant = Quantifier.FORALL if quant is Quantifier.EXISTS else Quantifier.EXISTS
    shuffled = names[:]
    rng.shuffle(shuffled)
    parts: list[list[str]] = [shuffled[2 * j : 2 * j + 2] for j in range(n_parts)]
    for v in shuffled[2 * n_parts :]:
        rng.choice(parts).append(v)
    unplanted = -1 if true else rng.randrange(n_parts)
    apps = []
    for j, part in enumerate(parts):
        part.sort(key=names.index)
        strategy = None
        if j != unplanted:
            strategy = {}
            seen = []
            for v in part:
                if is_universal[v]:
                    strategy[v] = (v, 0)
                    seen.append(v)
                elif seen and rng.random() < 0.7:
                    strategy[v] = (rng.choice(seen), rng.randint(0, 1))
                else:
                    strategy[v] = (None, rng.randint(0, 1))
        apps.append(_dense_app(rng, [part[0], part[-1]], strategy))
        apps.append(_dense_app(rng, [part[-1], rng.choice(part), part[-1]], strategy))
        apps.append(_dense_app(rng, [rng.choice(part), rng.randint(0, 1)], strategy))
        for a, b in zip(part, part[1:]):
            extra = rng.choices(part, k=rng.randint(0, 2))
            apps.append(_dense_app(rng, [a, b, *extra], strategy))
        for _ in range(rng.randint(0, len(part) // 2)):
            args = [
                rng.randint(0, 1) if rng.random() < 0.1 else rng.choice(part)
                for _ in range(rng.randint(1, 4))
            ]
            apps.append(_dense_app(rng, args, strategy))
    rng.shuffle(apps)
    return QuantifiedExpression(normalized_prefix(blocks), tuple(apps))


def check_oracle_definitional(seed: int, instances: int = 40) -> CheckResult:
    """The oracle agrees with the definitional evaluator.

    Exhaustive over prefixes: every quantifier string over 1-4 variables,
    each with 25 seeded random matrices (arity 1-3, repeated variables,
    constants), at the sizing rule's leaf width and at every forced width.
    Then ``instances`` seeded instances of 16-20 variables in 1-4 disjoint
    parts, at the rule's width and at forced widths 4 and 16.
    """
    rng = random.Random(seed)
    mismatches = []
    small = 0
    for n_vars in range(1, 5):
        names = [f"v{i}" for i in range(n_vars)]
        for mask in range(1 << n_vars):
            prefix = normalized_prefix(
                ((Quantifier.EXISTS if (mask >> i) & 1 else Quantifier.FORALL, [v])
                 for i, v in enumerate(names))
            )
            for _ in range(25):
                cs = [random_constraint(rng, rng.randint(1, 3)) for _ in range(3)]
                matrix = _random_apps(rng, cs, names, rng.randint(0, 5), 0.15)
                e = QuantifiedExpression(prefix, matrix)
                want = evaluate_definitional(e)
                small += 1
                for width in (None, *range(1, n_vars + 1)):
                    if _evaluate(e, None, width) != want:
                        mismatches.append(f"{e!r} at leaf width {width}")
    true = 0
    for i in range(instances):
        e = _components_instance(rng, rng.randint(16, 20), 1 + i % 4, i % 3 != 2)
        want = evaluate_definitional(e)
        true += want
        for width in (None, 4, 16):
            if _evaluate(e, None, width) != want:
                mismatches.append(f"{e!r} at leaf width {width}")
    return CheckResult(
        "oracle-vs-definitional",
        not mismatches,
        f"{small} instances over every prefix of 1-4 variables and "
        f"{instances} of 16-20 variables in 1-4 parts ({true} true), "
        f"{len(mismatches)} mismatches"
        + ("" if not mismatches else f"; first: {mismatches[0]}"),
    )


def check_parser_form(seed: int, instances: int = 200) -> CheckResult:
    """The parser's integer form is the walk of the matrix it stands for.

    Seeded expressions with 1-4 blocks, constants and repeated variables,
    over random tables or over tables of one Schaefer class (so that both
    the oracle and the class solvers answer), some tables under a second
    name, are rendered as documents and parsed back.  The parsed form must
    equal :func:`compile_expression` of the expression built by hand, the
    parsed expression must equal that expression, and the value
    ``solve_with_method`` (which ``solve_auto`` runs) gives the parsed one
    must equal ``evaluate`` of the built one.
    """
    rng = random.Random(seed)
    problems = []
    by_class = 0
    for i in range(instances):
        if i % 2:
            cls = rng.choice(list(TractableClass))
            cs = [
                random_constraint_with(
                    rng, rng.randint(1, 3), lambda c: has_property(c, cls.flag)
                )
                for _ in range(rng.randint(1, 3))
            ]
        else:
            cs = [random_constraint(rng, 3) for _ in range(rng.randint(1, 3))]
        cs.append(Constraint(cs[0].name + "_b", cs[0].arity, cs[0].bits))
        level = rng.randint(1, 4)
        e = random_shaped_expression(
            rng, cs, rng.choice(list(Polarity)), level,
            rng.randint(level, 8), rng.randint(0, 10), const_prob=0.2,
        )
        text = render_document(e.constraints(), {"main": e})
        parsed = parse_document(text).expressions["main"]
        if compile_expression(parsed) != compile_expression(e):
            problems.append(f"form of {text!r}")
        value, method = solve_with_method(parsed)
        by_class += method != "oracle"
        if value != evaluate(e):
            problems.append(f"value of {text!r}")
        if parsed != e:
            problems.append(f"matrix of {text!r}")
    return CheckResult(
        "parser-form",
        not problems,
        f"{instances} parsed documents ({by_class} decided by a class solver), "
        f"{len(problems)} problems"
        + ("" if not problems else f"; first: {problems[0]}"),
    )


# formula operators, loosest first, as the parser's precedence levels; "not"
# and "var" bind tightest
_FORMULA_OPS = ("iff", "imp", "xor", "or", "and")
_FORMULA_TEXT = {"iff": "<->", "imp": "->", "xor": "^", "or": "|", "and": "&"}


def _random_formula(rng: random.Random, k: int, size: int):
    """A formula tree over ``v1..vk`` with ``size`` leaves: ``("var", i)``,
    ``("not", x)`` or ``(op, x, y)``."""
    if size == 1:
        node = ("var", rng.randint(1, k))
    else:
        left = rng.randint(1, size - 1)
        node = (
            rng.choice(_FORMULA_OPS),
            _random_formula(rng, k, left),
            _random_formula(rng, k, size - left),
        )
    return ("not", node) if rng.random() < 0.2 else node


def _render_formula(node, rng: random.Random) -> str:
    """Formula text, with the parentheses its precedence needs and, at
    random, some it does not."""
    op = node[0]
    if op == "var":
        return f"v{node[1]}"
    if op == "not":
        inner = _render_formula(node[1], rng)
        return f"!{inner}" if node[1][0] in ("var", "not") else f"!({inner})"
    level = _FORMULA_OPS.index(op)
    parts = []
    for side, child in enumerate(node[1:]):
        text = _render_formula(child, rng)
        tighter = len(_FORMULA_OPS)  # "not" and "var"
        child_level = _FORMULA_OPS.index(child[0]) if child[0] in _FORMULA_OPS else tighter
        # a child of the same level needs them on the side its operator does
        # not group to: -> groups to the right, the others to the left
        against = side == 0 if op == "imp" else side == 1
        if child_level < level or (child_level == level and against) or rng.random() < 0.1:
            text = f"({text})"
        parts.append(text)
    return f"{parts[0]} {_FORMULA_TEXT[op]} {parts[1]}"


def _eval_formula(node, row: int, k: int) -> int:
    """Value of a formula tree on one row, ``v1`` its most significant bit."""
    op = node[0]
    if op == "var":
        return (row >> (k - node[1])) & 1
    if op == "not":
        return 1 - _eval_formula(node[1], row, k)
    a = _eval_formula(node[1], row, k)
    b = _eval_formula(node[2], row, k)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "imp":
        return (1 - a) | b
    return 1 - (a ^ b)  # iff


def check_parser_formulas(seed: int, instances: int = 200) -> CheckResult:
    """Formula constraints parse to the table their text evaluates to.

    Seeded formula trees of arity 1-8 and 1-24 leaves are rendered as text,
    with the parentheses precedence and associativity need and some spare
    ones, and parsed.  Each parsed table must equal the tree evaluated row
    by row by ``_eval_formula``, which shares no code with the parser.
    """
    rng = random.Random(seed)
    problems = []
    rows = 0
    for _ in range(instances):
        k = rng.randint(1, 8)
        tree = _random_formula(rng, k, rng.randint(1, 24))
        text = f"constraint F arity {k} := formula {_render_formula(tree, rng)};"
        want = sum(_eval_formula(tree, r, k) << r for r in range(1 << k))
        rows += 1 << k
        if parse_document(text).constraints["F"].bits != want:
            problems.append(text)
    return CheckResult(
        "parser-formulas",
        not problems,
        f"{instances} formulas of arity 1-8 ({rows} rows), "
        f"{len(problems)} mismatches"
        + ("" if not problems else f"; first: {problems[0]!r}"),
    )


def document_mismatch(got: SourceDocument, want: SourceDocument) -> str | None:
    """The first part in which ``got`` differs from ``want``, or None: the
    constraints, and each expression's prefix, integer form, constraint per
    application and matrix."""
    if got.constraints != want.constraints:
        return "constraints"
    if got.expressions.keys() != want.expressions.keys():
        return "expression names"
    for name, expr in want.expressions.items():
        other = got.expressions[name]
        if (other.prefix != expr.prefix
                or compile_expression(other) != compile_expression(expr)
                or other._uses != expr._uses or other != expr):
            return f"expression {name!r}"
    return None


def _reader_variants(rng: random.Random, text: str):
    """``(label, text, fast)``: variants of a rendered document, each with
    whether the fast reader must read it (True), decline it (False), or
    either (None)."""
    lines = text.splitlines()
    commented = [
        f"{line} # ; : := {rng.choice(lines)[:20]}" if rng.random() < 0.5 else line
        for line in lines
    ]
    at = rng.randrange(len(text))
    stray = rng.choice(("",) + tuple(" \t\n;:,()=#xAE01\x0b"))
    shadow = rng.getrandbits(4)
    split = text.find(" ; ") + 3  # the second block's quantifier, if any
    flipped = text[:split] + "AE"[text[split] == "A"] + text[split + 1 :]
    first = text.find("expr e0 := ") + len("expr e0 := E v0")
    matrix = text.find(": ", text.find("expr e0 := ")) + 2  # e0's first application
    close = text.find(")", matrix) + 1
    repeated = text[:close] + " " + text[matrix:close] + text[close:]
    yield "plain", text, True
    yield "crlf-tabs", text.replace("\n", "\r\n").replace(", ", ",\t"), True
    yield "comments", "# head ; :\n" + "\n".join(commented) + "\n", False
    yield "no-semicolons", text.replace(" ; ", " "), None if split < 3 else False
    yield "same-quantifier", flipped, None if split < 3 else False
    yield "rebound", text[:first] + " v0" + text[first:], False
    yield "no-comma", repeated, None if text[matrix] == ";" else False
    yield "redefined", text + rng.choice((lines[0], lines[-1])) + "\n", False
    yield "formula", "constraint F2 arity 2 := formula v1 -> !v2;\n" + text, False
    yield "shadowed", (
        "expr early := E a ; A b : XOR2(a, b), EQ2(b, 1);\n"
        f"constraint XOR2 arity 2 := table {shadow:04b};\n{text}"
        "expr late := A a ; E b : XOR2(a, b), EQ2(b, a);\n"
    ), True
    yield "mangled", text[:at] + stray + text[at + 1:], None


def check_parser_readers(seed: int, instances: int = 200) -> CheckResult:
    """The fast reader reads what the token parser reads, or declines.

    Seeded documents of 1-3 constraints and 1-2 expressions, and variants
    of each (CRLF line endings and tabs, comments holding ';' and ':', a
    prefix without ';', two adjacent blocks of one quantifier, a variable
    bound twice, the first application repeated with no comma, a definition
    repeated, a formula constraint, presets shadowed between expressions,
    one character deleted or changed), are read by ``_read_plain`` and by
    the token parser alone.  Each document the fast reader accepts must equal the token parser's, and ``parse_document``
    must give the token parser's document or its exact diagnostic.  The
    fast reader must read the plain, CRLF and shadowed variants and decline
    the others but the changed character, so that neither path is dead.
    """
    rng = random.Random(seed)
    problems = []
    documents = fast_reads = 0
    for _ in range(instances):
        drawn = [random_constraint(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        # random_constraint names a table by its bits: one definition per name
        cs = list({c.name: c for c in drawn}.values())
        exprs = {
            f"e{j}": random_expression(rng, cs, rng.randint(1, 12), rng.randint(0, 12),
                                       const_prob=0.2)
            for j in range(rng.randint(1, 2))
        }
        for label, text, fast_must in _reader_variants(rng, render_document(cs, exprs)):
            fast = _read_plain(text)
            documents += 1
            fast_reads += fast is not None
            try:
                want, want_error = _Parser(text, SourceDocument()).document(), None
            except ParseError as e:
                want, want_error = None, str(e)
            try:
                got, got_error = parse_document(text), None
            except ParseError as e:
                got, got_error = None, str(e)
            if fast_must is not None and (fast is not None) != fast_must:
                problems.append(f"{label}: the fast reader {'declined' if fast_must else 'read'} {text!r}")
            if fast is not None and (want is None or document_mismatch(fast, want)):
                problems.append(f"{label}: the fast reader's document differs on {text!r}")
            if got_error != want_error or (want is not None and document_mismatch(got, want)):
                problems.append(f"{label}: parse_document differs on {text!r}")
    return CheckResult(
        "parser-readers",
        not problems,
        f"{documents} documents ({fast_reads} read by the fast reader, "
        f"{documents - fast_reads} by the token parser), {len(problems)} problems"
        + ("" if not problems else f"; first: {problems[0]}"),
    )


# Each suite's checks at a seed, given ``n(default)``: the instance count
# asked for, else the check's default.  "all" runs them in this order.
_SUITES = {
    "oracle": lambda seed, n: [check_oracle_definitional(seed, n(40))],
    "parser": lambda seed, n: [
        check_parser_form(seed, n(200)),
        check_parser_formulas(seed, n(200)),
        check_parser_readers(seed, n(200)),
    ],
    "classifier": lambda seed, n: [
        check_classifier_exhaustive(),
        check_classifier_sampled(seed, n(60)),
        check_verdict_table(),
    ],
    "solvers": lambda seed, n: [
        check_solver_class(cls, seed, n(1000)) for cls in TractableClass
    ] + [check_scaling(cls, seed) for cls in TractableClass],
    "reductions": lambda seed, n: [
        check_complement_differential(seed, n(1000)),
        check_constant_removal(seed, max(1, n(1500) // 5)),
        check_gadget_identities(),
        check_implementation_engine(seed),
        check_implementation_brute_force(seed, n(300)),
        check_substitution_preservation(seed, n(200)),
        check_qsat_polarity(seed, n(100)),
    ],
}


def run_suite(suite: str, seed: int = 0, instances: int | None = None):
    """Run a named suite, or every suite for "all"; returns the list of
    check results."""
    if instances is not None and instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")

    def n(default: int) -> int:
        return instances if instances is not None else default

    names = list(_SUITES) if suite == "all" else [suite]
    return [result for name in names for result in _SUITES[name](seed, n)]
