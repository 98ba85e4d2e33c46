"""Normal-form synthesis and the tractable-class solvers vs the oracle."""

import itertools
import random
from collections import Counter

import pytest

import qcsp.solvers
from qcsp.classifier import PROPERTIES, TABLE_CACHE_SIZE, _failure, classify_set, has_property
from qcsp.evaluator import evaluate
from qcsp.gadgets import complement_expression
from qcsp.model import (
    Argument,
    Constraint,
    ConstraintApplication,
    Polarity,
    QuantifierBlock,
    Quantifier,
    QuantifiedExpression,
    app,
    compile_expression,
    exists,
    forall,
)
from qcsp.presets import EQ2, ID1, IMP2, NAND2, OIT, OR2, OR3_2N, XOR2
from qcsp.parser import parse_document, render_document
from qcsp.randgen import (
    random_constraint_with,
    random_expression,
    random_shaped_expression,
)
from qcsp.solvers import (
    NormalFormKind,
    TractableClass,
    dispatch_class,
    solve_auto,
    solve_tractable,
    synthesize_normal_form,
)
from qcsp.verify import closure_disagreements


def class_flag(cls):
    return lambda c: has_property(c, cls.flag)


def test_synthesis_examples():
    form = synthesize_normal_form(OR2, NormalFormKind.TWO_CNF)
    assert form.clauses == ((1, 2),)
    form = synthesize_normal_form(XOR2, NormalFormKind.XOR_CNF)
    assert form.clauses == (((1, 2), 1),)
    assert synthesize_normal_form(OIT, NormalFormKind.HORN_CNF) is None


def test_synthesis_matches_flags_exhaustively_small():
    for arity in (1, 2):
        for bits in range(1 << (1 << arity)):
            assert not closure_disagreements(Constraint("f", arity, bits))


def test_synthesized_forms_are_equivalent():
    # the clause set must have exactly the constraint's satisfying rows
    rng = random.Random(4)
    kinds = list(NormalFormKind)
    for _ in range(300):
        arity = rng.randint(1, 3)
        c = Constraint("f", arity, rng.getrandbits(1 << arity))
        kind = kinds[rng.randrange(len(kinds))]
        form = synthesize_normal_form(c, kind)
        if form is None:
            continue
        for row in range(c.rows):
            vals = {v: (row >> (arity - v)) & 1 for v in range(1, arity + 1)}
            if kind is NormalFormKind.XOR_CNF:
                holds = all(
                    sum(vals[v] for v in vs) % 2 == parity
                    for vs, parity in form.clauses
                )
            else:
                holds = all(
                    any(vals[abs(l)] == (1 if l > 0 else 0) for l in clause)
                    for clause in form.clauses
                )
            assert holds == bool(c.value_on(row))


def test_synthesis_arity_limit():
    with pytest.raises(ValueError):
        Constraint("big", 17, 0)


def test_closure_flags_match_synthesis_sampled_arity4():
    # the closure characterizations are validated beyond the exhaustive
    # arity-3 sweep on sampled arity-4 tables
    rng = random.Random(41)
    for _ in range(40):
        assert not closure_disagreements(Constraint("f4", 4, rng.getrandbits(16)))


def test_compile_expression(monkeypatch):
    # slots in prefix order with their quantifiers; constants as ~0 and ~1;
    # a repeated variable keeps its slot at each position
    xor_b = Constraint("XOR2_B", 2, XOR2.bits)  # XOR2's table, another name
    e = QuantifiedExpression(
        (forall("x", "y"), exists("z"), forall("w")),
        (app(XOR2, "z", 1), app(xor_b, "x", 0), app(OIT, "y", "y", "w")),
    )
    quantifiers, apps = compile_expression(e)
    A, E = Quantifier.FORALL, Quantifier.EXISTS
    assert quantifiers == [A, A, E, A]
    assert apps == [
        (2, XOR2.bits, [2, ~1]),
        (2, XOR2.bits, [0, ~0]),
        (3, OIT.bits, [1, 1, 3]),
    ]
    assert compile_expression(QuantifiedExpression((exists("x"),), ())) == ([E], [])

    # the two names of one table share one form
    seen = []
    synthesize = qcsp.solvers.synthesize_normal_form
    monkeypatch.setattr(
        qcsp.solvers,
        "synthesize_normal_form",
        lambda c, kind: seen.append(c.name) or synthesize(c, kind),
    )
    e = QuantifiedExpression(
        (exists("a", "b"),), (app(XOR2, "a", "b"), app(xor_b, "b", 1))
    )
    assert solve_tractable(e, TractableClass.AFFINE) == evaluate(e) == 1
    assert seen == ["XOR2"]


def test_parse_and_solve_build_no_matrix(monkeypatch):
    # parse_document -> solve_auto reads the parser's integer form alone: no
    # Argument, no ConstraintApplication and no Constraint hash, with the
    # per-table caches cold or warm; the matrix read afterwards is the one
    # built by hand
    rng = random.Random(13)
    docs = []
    for cls in TractableClass:
        cs = [
            random_constraint_with(rng, 3, lambda c: dispatch_class([c]) is cls)
            for _ in range(2)
        ]
        e = random_shaped_expression(rng, cs, Polarity.PI, 3, 8, 10, const_prob=0.2)
        v = e.variables()
        e = QuantifiedExpression(e.prefix, e.matrix + (app(cs[1], v[0], 1, v[0]),))
        assert dispatch_class(e.constraints()) is cls
        docs.append((e, render_document(e.constraints(), {"main": e}), evaluate(e)))
    _failure.cache_clear()
    qcsp.solvers._synthesize.cache_clear()
    counts = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for owner, attr in (
        (Constraint, "__hash__"),
        (Argument, "__init__"),
        (ConstraintApplication, "__init__"),
    ):
        name = f"{owner.__name__}.{attr}"
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    for e, text, value in docs * 2:
        assert solve_auto(parse_document(text).expressions["main"]) == value
    assert counts == Counter()
    for e, text, value in docs:
        doc = parse_document(text)
        matrix = doc.expressions["main"].matrix
        assert doc.expressions["main"] == e
        # the document's own constraints, and one Argument per name
        assert all(a.constraint is doc.constraints[a.constraint.name] for a in matrix)
        args = {id(x) for a in matrix for x in a.args if not x.is_const}
        assert len(args) == len({x.var for a in matrix for x in a.args if not x.is_const})
    assert counts["Argument.__init__"] and counts["ConstraintApplication.__init__"]


def test_substituted_clauses_preserve_models():
    # after argument substitution (repeats and constants included), the
    # clauses each solver instantiates hold under exactly the assignments
    # satisfying the application, and with the assignment substituted as
    # constants the solver answers the application's value
    from qcsp.solvers import _horn_clauses, _two_cnf_clauses, _xor_equations

    def instantiated(cls, e, form, flip=False):
        apps = compile_expression(e)[1]
        forms = {(k, bits): form for k, bits, _ in apps}
        if cls is TractableClass.AFFINE:
            return list(_xor_equations(apps, forms))
        if cls is TractableClass.BIJUNCTIVE:
            return list(_two_cnf_clauses(apps, forms))
        return list(_horn_clauses(apps, forms, flip))

    def holds(cls, clauses, vals):
        if cls is TractableClass.AFFINE:
            return all(
                sum(vals[s] for s in range(2) if mask >> s & 1) % 2 == rhs
                for mask, rhs in clauses
            )
        if cls is TractableClass.BIJUNCTIVE:
            # a literal code is 2 * slot, plus 1 if negated
            return all(
                any(vals[code >> 1] != code & 1 for code in clause)
                for clause in clauses
            )
        return all(
            (x >= 0 and vals[x] == 1) or any(vals[s] == 0 for s in body)
            for x, body in clauses
        )

    rng = random.Random(43)
    covered = set()  # classes drawn with a repeated variable and a constant
    for _ in range(200):
        cls = rng.choice(list(TractableClass))
        c = random_constraint_with(rng, rng.randint(1, 3), class_flag(cls))
        names = ["a", "b"]
        args = [
            rng.randint(0, 1) if rng.random() < 0.3 else rng.choice(names)
            for _ in range(c.arity)
        ]
        variables = [x for x in args if isinstance(x, str)]
        if len(variables) < c.arity and len(set(variables)) < len(variables):
            covered.add(cls)
        e = QuantifiedExpression((exists("a", "b"),), (app(c, *args),))
        original = e
        if cls is TractableClass.ANTI_HORN:
            # the complemented expression, which the anti-Horn solver never
            # builds: it instantiates the original with its constants flipped
            e = complement_expression(e)
        (application,) = e.matrix
        table = application.constraint
        form = synthesize_normal_form(table, cls.kind)
        clauses = instantiated(cls, e, form)
        if cls is TractableClass.ANTI_HORN:
            assert instantiated(cls, original, form, flip=True) == clauses
        for a_val in (0, 1):
            for b_val in (0, 1):
                value = {"a": a_val, "b": b_val}
                want = application.evaluate(value)
                assert holds(cls, clauses, (a_val, b_val)) == bool(want)
                # the solver reads the original application, anti-Horn too
                fixed = [value.get(x, x) for x in args]
                ground = QuantifiedExpression((exists("a", "b"),), (app(c, *fixed),))
                want = original.matrix[0].evaluate(value)
                assert solve_tractable(ground, cls) == want
    assert covered == set(TractableClass)


def test_solve_affine_examples():
    e = QuantifiedExpression((forall("x"), exists("y")), (app(XOR2, "x", "y"),))
    assert solve_tractable(e, TractableClass.AFFINE) == 1
    e = QuantifiedExpression((forall("x", "y"),), (app(XOR2, "x", "y"),))
    assert solve_tractable(e, TractableClass.AFFINE) == 0


def test_affine_constants_and_repeats():
    from qcsp.solvers import _xor_equations

    # XOR2(1, 1) reads 0 = 1 once its constants are folded, wherever it stands
    for matrix in ((app(XOR2, "x", 0), app(XOR2, 1, 1)), (app(XOR2, 1, 1), app(XOR2, "x", 0))):
        e = QuantifiedExpression((exists("x"),), matrix)
        forms = {(2, XOR2.bits): synthesize_normal_form(XOR2, NormalFormKind.XOR_CNF)}
        assert (0, 1) in list(_xor_equations(compile_expression(e)[1], forms))
        assert solve_tractable(e, TractableClass.AFFINE) == evaluate(e) == 0
    # an application repeated, or repeated with its arguments swapped (both
    # tables are symmetric), answers as the application alone
    for prefix in (
        (forall("x"), exists("y")),
        (exists("y"), forall("x")),
        (exists("x", "y"),),
        (forall("x", "y"),),
    ):
        for table in (XOR2, EQ2):
            once = QuantifiedExpression(prefix, (app(table, "x", "y"),))
            want = evaluate(once)
            for matrix in (
                (app(table, "x", "y"),) * 3,
                (app(table, "x", "y"), app(table, "y", "x")),
            ):
                e = QuantifiedExpression(prefix, matrix)
                assert solve_tractable(e, TractableClass.AFFINE) == evaluate(e) == want


def test_class_flag_enforced():
    e = QuantifiedExpression((exists("x", "y", "z"),), (app(OIT, "x", "y", "z"),))
    with pytest.raises(ValueError, match="not affine"):
        solve_tractable(e, TractableClass.AFFINE)
    # EQ2(0, 1) makes the matrix false during compilation; the non-Horn OR2
    # after it must still be rejected, not answered with 0
    e = QuantifiedExpression(
        (exists("x", "y"),), (app(EQ2, 0, 1), app(OR2, "x", "y"))
    )
    with pytest.raises(ValueError, match="'OR2' is not horn"):
        solve_tractable(e, TractableClass.HORN)


def test_constants_are_substituted():
    e = QuantifiedExpression((forall("x"),), (app(XOR2, "x", 1), app(EQ2, "x", 1)))
    assert solve_tractable(e, TractableClass.AFFINE) == 0
    e2 = QuantifiedExpression((forall("x"),), (app(OR2, "x", 1),))
    assert solve_tractable(e2, TractableClass.BIJUNCTIVE) == 1
    assert solve_tractable(e2, TractableClass.ANTI_HORN) == 1


def _random_class_expr(rng, cls, n_vars, n_apps):
    cs = [
        random_constraint_with(rng, rng.randint(1, 3), class_flag(cls))
        for _ in range(rng.randint(1, 3))
    ]
    return random_expression(rng, cs, n_vars, n_apps, const_prob=0.15)


@pytest.mark.parametrize("cls", list(TractableClass))
def test_solver_matches_oracle(cls):
    rng = random.Random(hash(cls.value) & 0xFFFF)
    for _ in range(300):
        e = _random_class_expr(rng, cls, rng.randint(1, 12), rng.randint(1, 15))
        assert solve_tractable(e, cls) == evaluate(e), repr(e)


@pytest.mark.parametrize("cls", list(TractableClass))
def test_solver_maximal_alternation(cls):
    # alternating blocks of one to three variables stress the prefix-order
    # side conditions
    rng = random.Random(17)
    flag = class_flag(cls)
    pool = []
    for arity in (1, 2, 3):
        for bits in range(1 << (1 << arity)):
            c = Constraint(f"p{arity}_{bits}", arity, bits)
            if flag(c):
                pool.append(c)
    for _ in range(3000):
        n = rng.randint(1, 8)
        names = [f"v{i}" for i in range(n)]
        quant = rng.choice((Quantifier.EXISTS, Quantifier.FORALL))
        blocks = []
        start = 0
        while start < n:
            size = rng.randint(1, min(3, n - start))
            blocks.append(QuantifierBlock(quant, tuple(names[start : start + size])))
            start += size
            quant = (
                Quantifier.FORALL if quant is Quantifier.EXISTS else Quantifier.EXISTS
            )
        apps = []
        for _ in range(rng.randint(1, 8)):
            c = rng.choice(pool)
            args = [
                rng.randint(0, 1) if rng.random() < 0.1 else rng.choice(names)
                for _ in range(c.arity)
            ]
            apps.append(app(c, *args))
        e = QuantifiedExpression(tuple(blocks), tuple(apps))
        assert solve_tractable(e, cls) == evaluate(e), repr(e)


# Horn instances whose answer depends on a derived variable's universal mask:
# the mask must drop a universal quantified after the variable, or shrink
# when a second derivation needs fewer universals, and the shrink must reach
# the goal and the rules downstream.  The last two have a universal quantified
# after a clause's last existential, which universal reduction would drop.
HORN_MASK_CASES = [
    # E x A y: x = y is impossible, x is chosen first
    ((exists("x"), forall("y")), [(IMP2, "x", "y"), (IMP2, "y", "x")], 0),
    # A y E x: x = y
    ((forall("y"), exists("x")), [(IMP2, "x", "y"), (IMP2, "y", "x")], 1),
    # x follows from y and is also a fact, so y = 0 breaks x -> y
    ((forall("y"), exists("x")), [(IMP2, "y", "x"), (ID1, "x"), (IMP2, "x", "y")], 0),
    # the same through chains, with the goal two steps downstream
    (
        (forall("y"), exists("a", "b", "x", "w")),
        [
            (IMP2, "y", "a"),
            (IMP2, "a", "x"),
            (ID1, "b"),
            (IMP2, "b", "x"),
            (IMP2, "x", "w"),
            (IMP2, "w", "y"),
        ],
        0,
    ),
    # every derivation of x needs y: true
    (
        (forall("y"), exists("a", "x", "w")),
        [
            (IMP2, "y", "a"),
            (IMP2, "a", "x"),
            (IMP2, "y", "x"),
            (IMP2, "x", "w"),
            (IMP2, "w", "y"),
        ],
        1,
    ),
    # x follows from y or from z, so its mask shrinks to nothing, and
    # y = 0, z = 1 breaks x -> y
    (
        (forall("y", "z"), exists("x")),
        [(IMP2, "y", "x"), (IMP2, "z", "x"), (IMP2, "x", "y")],
        0,
    ),
    # a goal whose positive universal follows its last existential: x, then
    # every y must satisfy ~x | y
    ((exists("x"), forall("y")), [(ID1, "x"), (IMP2, "x", "y")], 0),
    # a rule whose negative universal follows its head: x = 1
    ((exists("x"), forall("y")), [(IMP2, "y", "x")], 1),
]


# Horn instances for the watched literals.  ``OR3_2N(x, a, b)`` is the rule
# ``a & b -> x``, whose body is read in argument order, so it waits on ``a``
# first.
HORN_WATCH_CASES = [
    # a is derived first; the rule then waits on b, derived later through c
    (
        (exists("a", "b", "c", "x"), forall("y")),
        [(ID1, "a"), (IMP2, "y", "c"), (IMP2, "c", "b"), (OR3_2N, "x", "a", "b"),
         (IMP2, "x", "y")],
        0,
    ),
    # the same with y first: x = a & b = y, so b's mask must reach x
    (
        (forall("y"), exists("a", "b", "c", "x")),
        [(ID1, "a"), (IMP2, "y", "c"), (IMP2, "c", "b"), (OR3_2N, "x", "a", "b"),
         (IMP2, "x", "y")],
        1,
    ),
    # b is derived from y before a, so the rule fires without waiting on b;
    # a -> b then shrinks b's mask, and the rule must fire again for the goal
    # on x to see it
    (
        (forall("y"), exists("a", "b", "c", "x")),
        [(IMP2, "y", "b"), (ID1, "c"), (IMP2, "c", "a"), (OR3_2N, "x", "a", "b"),
         (IMP2, "a", "b"), (IMP2, "x", "y")],
        0,
    ),
    # b is derived while nothing waits on it; the rule waits on a, then finds
    # b derived and fires
    (
        (exists("b"), forall("y"), exists("a", "c", "x"), forall("z")),
        [(IMP2, "y", "b"), (ID1, "c"), (IMP2, "c", "a"), (OR3_2N, "x", "a", "b"),
         (IMP2, "x", "z")],
        0,
    ),
    # the same with b after y: b = y, and its mask must reach x through the
    # rule
    (
        (forall("y"), exists("b", "a", "c", "x")),
        [(IMP2, "y", "b"), (ID1, "c"), (IMP2, "c", "a"), (OR3_2N, "x", "a", "b"),
         (IMP2, "x", "y")],
        1,
    ),
]


@pytest.mark.parametrize("case", range(len(HORN_MASK_CASES + HORN_WATCH_CASES)))
def test_horn_mask_cases(case):
    prefix, apps, want = (HORN_MASK_CASES + HORN_WATCH_CASES)[case]
    for order in itertools.permutations(apps):
        e = QuantifiedExpression(prefix, tuple(app(c, *args) for c, *args in order))
        assert evaluate(e) == want
        assert solve_tractable(e, TractableClass.HORN) == want, repr(e)
        dual = complement_expression(e)
        assert solve_tractable(dual, TractableClass.ANTI_HORN) == want


# Bijunctive instances for the conditions checked as each component of the
# implication graph closes.
BIJUNCTIVE_REACH_CASES = [
    # u reaches y through a and z through b
    (
        (forall("u"), exists("a", "b"), forall("y", "z")),
        [(IMP2, "u", "a"), (IMP2, "u", "b"), (IMP2, "a", "y"), (IMP2, "b", "z")],
        0,
    ),
    # y and z share a component through a
    (
        (forall("y", "z"), exists("a")),
        [(IMP2, "y", "a"), (IMP2, "a", "z"), (IMP2, "z", "y")],
        0,
    ),
    # x reaches y along two paths, which is one universal literal: x = 0
    (
        (forall("y"), exists("x", "a", "b")),
        [(IMP2, "x", "a"), (IMP2, "x", "b"), (IMP2, "a", "y"), (IMP2, "b", "y")],
        1,
    ),
    # y reaches itself along two cycles, in its own component: a = b = y
    (
        (forall("y"), exists("a", "b")),
        [(IMP2, "y", "a"), (IMP2, "a", "y"), (IMP2, "y", "b"), (IMP2, "b", "y")],
        1,
    ),
    # y reaches its own negation through a chain
    (
        (forall("y"), exists("a", "b", "c")),
        [(IMP2, "y", "a"), (IMP2, "a", "b"), (IMP2, "b", "c"), (NAND2, "c", "y")],
        0,
    ),
    # x is in y's component and quantified before it
    (
        (exists("x"), forall("y"), exists("a")),
        [(IMP2, "x", "a"), (IMP2, "a", "y"), (IMP2, "y", "x")],
        0,
    ),
    # the same with x after y: x = a = y
    (
        (forall("y"), exists("x", "a")),
        [(IMP2, "x", "a"), (IMP2, "a", "y"), (IMP2, "y", "x")],
        1,
    ),
]


@pytest.mark.parametrize("case", range(len(BIJUNCTIVE_REACH_CASES)))
def test_bijunctive_reach_cases(case):
    prefix, apps, want = BIJUNCTIVE_REACH_CASES[case]
    for order in itertools.permutations(apps):
        e = QuantifiedExpression(prefix, tuple(app(c, *args) for c, *args in order))
        assert evaluate(e) == want
        assert solve_tractable(e, TractableClass.BIJUNCTIVE) == want, repr(e)
        dual = complement_expression(e)
        assert solve_tractable(dual, TractableClass.BIJUNCTIVE) == want


def _variant(rng, e):
    """``e`` with its variables renamed, each block's variables reordered and
    the applications shuffled; the truth value is the same."""
    names = [v for block in e.prefix for v in block.vars]
    fresh = [f"w{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    rename = dict(zip(names, fresh))
    blocks = []
    for block in e.prefix:
        vs = [rename[v] for v in block.vars]
        rng.shuffle(vs)
        blocks.append(QuantifierBlock(block.quantifier, tuple(vs)))
    apps = [
        app(a.constraint, *(x.const if x.is_const else rename[x.var] for x in a.args))
        for a in e.matrix
    ]
    rng.shuffle(apps)
    return QuantifiedExpression(tuple(blocks), tuple(apps))


@pytest.mark.parametrize("cls", list(TractableClass))
def test_solver_invariant_under_renaming_and_order(cls):
    # instances up to 60 variables, past the oracle budget
    rng = random.Random(29)
    for _ in range(150):
        e = _random_class_expr(rng, cls, rng.randint(1, 60), rng.randint(1, 40))
        want = solve_tractable(e, cls)
        for _ in range(3):
            assert solve_tractable(_variant(rng, e), cls) == want, repr(e)


def test_anti_horn_duality():
    rng = random.Random(23)
    for _ in range(200):
        e = _random_class_expr(rng, TractableClass.ANTI_HORN, rng.randint(1, 10),
                               rng.randint(1, 10))
        dual = complement_expression(e)
        assert solve_tractable(e, TractableClass.ANTI_HORN) == solve_tractable(
            dual, TractableClass.HORN
        )


def test_dispatch_and_auto():
    assert dispatch_class([XOR2]) is TractableClass.AFFINE
    assert dispatch_class([NAND2]) is TractableClass.BIJUNCTIVE
    assert dispatch_class([OIT]) is None
    e = QuantifiedExpression(
        (exists("x"), forall("y")), (app(NAND2, "x", "y"),)
    )
    assert solve_auto(e) == evaluate(e)
    e = QuantifiedExpression(
        (exists("a", "b", "c"),), (app(OIT, "a", "b", "c"),)
    )
    assert solve_auto(e) == 1  # falls back to the oracle


def test_anti_horn_with_both_constants_matches_oracle():
    # the anti-Horn solver flips each constant while it compiles; every
    # instance here has a 0 and a 1 argument
    rng = random.Random(31)
    checked = 0
    while checked < 300:
        cs = [
            random_constraint_with(rng, rng.randint(1, 3), class_flag(TractableClass.ANTI_HORN))
            for _ in range(rng.randint(1, 3))
        ]
        e = random_expression(rng, cs, rng.randint(1, 10), rng.randint(2, 12), const_prob=0.3)
        if {a.const for x in e.matrix for a in x.args if a.is_const} != {0, 1}:
            continue
        assert solve_tractable(e, TractableClass.ANTI_HORN) == evaluate(e), repr(e)
        checked += 1


def _dispatch_uncached(constraints):
    """dispatch_class's answer straight from the closure checks."""
    for cls in (TractableClass.AFFINE, TractableClass.BIJUNCTIVE,
                TractableClass.HORN, TractableClass.ANTI_HORN):
        if all(PROPERTIES[cls.flag](c) is None for c in constraints):
            return cls
    return None


def test_dispatch_memo_matches_closure_checks_arity_le_2():
    tables = [
        Constraint(f"t{k}_{bits}", k, bits) for k in (1, 2) for bits in range(1 << (1 << k))
    ]
    for a in tables:
        for b in tables:
            assert dispatch_class([a, b]) is _dispatch_uncached([a, b]), (a, b)


def _closed_table(rng, arity, op, width):
    """A random table whose rows are closed under ``op`` of ``width`` rows."""
    rows = {rng.randrange(1 << arity) for _ in range(rng.randint(1, 3))}
    while True:
        new = {op(*t) for t in itertools.product(rows, repeat=width)} - rows
        if not new:
            return sum(1 << r for r in rows)
        rows |= new


CLOSURE_OPS = (
    (lambda a, b: a & b, 2),  # Horn
    (lambda a, b: a | b, 2),  # anti-Horn
    (lambda a, b, c: (a & b) | (a & c) | (b & c), 3),  # bijunctive
    (lambda a, b, c: a ^ b ^ c, 3),  # affine
)


def test_dispatch_memo_matches_closure_checks_seeded_arity_3_to_6():
    rng = random.Random(37)
    for trial in range(150):
        op = rng.choice(CLOSURE_OPS) if rng.random() < 0.8 else None
        cs = []
        for j in range(rng.randint(1, 4)):
            k = rng.randint(3, 6)
            bits = _closed_table(rng, k, *op) if op else rng.getrandbits(1 << k)
            cs.append(Constraint(f"s{trial}_{j}", k, bits))
        assert dispatch_class(cs) is _dispatch_uncached(cs), cs


def test_dispatch_memo_is_keyed_by_table_not_name():
    bits = _closed_table(random.Random(41), 6, *CLOSURE_OPS[0])
    first = dispatch_class([Constraint("first", 6, bits)])
    before = _failure.cache_info()
    assert dispatch_class([Constraint("second", 6, bits)]) is first
    after = _failure.cache_info()
    assert after.misses == before.misses  # answered from the memo
    assert after.hits > before.hits
    # a reused name with another table gets that table's answer
    assert dispatch_class([Constraint("R", 2, XOR2.bits)]) is TractableClass.AFFINE
    assert dispatch_class([Constraint("R", 2, OR2.bits)]) is TractableClass.BIJUNCTIVE
    assert dispatch_class([Constraint("R", 2, IMP2.bits)]) is TractableClass.BIJUNCTIVE
    assert dispatch_class([Constraint("R", 3, OIT.bits)]) is None


def test_dispatch_after_classify_decides_no_membership_again():
    # classify_set and dispatch_class read the same per-table cache and both
    # stop at a property's first failing table, so dispatching a set right
    # after classifying it adds no miss, over fresh tables of arity 5-8
    rng = random.Random(53)
    _failure.cache_clear()
    dispatched = set()
    for trial in range(40):
        op = rng.choice(CLOSURE_OPS) if rng.random() < 0.8 else None
        cs = []
        for j in range(rng.randint(1, 3)):
            k = rng.randint(5, 8)
            bits = _closed_table(rng, k, *op) if op else rng.getrandbits(1 << k)
            cs.append(Constraint(f"d{trial}_{j}", k, bits))
        classify_set(cs)
        before = _failure.cache_info()
        cls = dispatch_class(cs)
        after = _failure.cache_info()
        assert after.misses == before.misses and after.hits > before.hits, cs
        assert cls is _dispatch_uncached(cs), cs
        dispatched.add(cls)
    assert dispatched == set(TractableClass) | {None}


def test_table_caches_are_bounded_and_recompute_equal_answers():
    # more fresh tables than either cache holds: the oldest entries are
    # evicted, and asking again recomputes the same forms and classes
    from qcsp.solvers import _synthesize

    kinds = list(NormalFormKind)
    first = [Constraint(f"f{bits}", 3, bits) for bits in range(0, 256, 17)]
    forms = {(c.bits, kind): synthesize_normal_form(c, kind) for c in first for kind in kinds}
    classes = {c.bits: dispatch_class([c]) for c in first}
    for bits in range(TABLE_CACHE_SIZE + 1):
        c = Constraint("fresh", 4, bits)
        synthesize_normal_form(c, kinds[bits % len(kinds)])
        dispatch_class([c])
    assert _synthesize.cache_info().currsize == TABLE_CACHE_SIZE
    assert _failure.cache_info().currsize == TABLE_CACHE_SIZE
    misses = _synthesize.cache_info().misses
    for c in first:
        again = Constraint("again", 3, c.bits)
        assert dispatch_class([again]) is classes[c.bits] is _dispatch_uncached([c])
        for kind in kinds:
            assert synthesize_normal_form(again, kind) == forms[(c.bits, kind)]
    assert _synthesize.cache_info().misses == misses + len(first) * len(kinds)


def test_auto_scales_past_oracle_budget():
    # each universal is answered by the following existential; true instance
    names = [f"v{i}" for i in range(40)]
    blocks = tuple(
        forall(n) if i % 2 == 0 else exists(n) for i, n in enumerate(names)
    )
    apps = tuple(app(XOR2, names[i], names[i + 1]) for i in range(0, 40, 2))
    e = QuantifiedExpression(blocks, apps)
    assert solve_auto(e) == 1


def test_identically_false_matrix():
    e = QuantifiedExpression((forall("x"),), (app(EQ2, 0, 1), app(EQ2, "x", "x")))
    for cls in (TractableClass.AFFINE, TractableClass.BIJUNCTIVE,
                TractableClass.HORN, TractableClass.ANTI_HORN):
        assert solve_tractable(e, cls) == 0
