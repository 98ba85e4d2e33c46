"""Gadget transformations vs the brute-force oracle."""

import hashlib
import random
from collections import Counter

import pytest

from qcsp import gadgets
from qcsp.evaluator import BudgetExceededError, EvalBudget, ShapeMismatchError, evaluate
from qcsp.gadgets import (
    TRIVIALLY_FALSE,
    ImplementationNotFoundError,
    NotApplicableError,
    ReductionCase,
    build_hat,
    complement_constraint,
    complement_expression,
    eliminate_unary,
    remove_constants,
    substitute_implementation,
)
from qcsp.implsearch import find_implementation, identity_implementation
from qcsp.model import (
    Argument,
    Constraint,
    Polarity,
    QuantifiedExpression,
    app,
    exists,
    forall,
    make_constraint,
    prefix_shape,
)
from qcsp.parser import render_document
from qcsp.presets import EQ2, ID1, IMP2, NAND2, NOT1, OIT, OR2, OR3, XOR2
from qcsp.randgen import (
    random_constraint,
    random_constraint_with,
    random_expression,
    random_expression_with_constants,
    random_shaped_expression,
)
from qcsp.verify import _SHAPES, CASE_FAMILIES, NAE3, OV3, ZV3, ZVC3
from qcsp.classifier import has_property


def test_complement_constraint_examples():
    assert complement_constraint(OR2).table() == "1110"
    assert complement_constraint(XOR2) is XOR2  # complementive: unchanged
    assert complement_constraint(ID1).bits == NOT1.bits


def test_complement_is_involution_on_all_ternary():
    for bits in range(256):
        c = Constraint("f", 3, bits)
        assert complement_constraint(complement_constraint(c)) == c


def test_complement_name_toggles_suffix():
    c = complement_constraint(OR2)
    assert c.name == "OR2_c"
    assert complement_constraint(c).name == "OR2"


def test_complement_expression_examples():
    e = QuantifiedExpression((forall("x"),), (app(EQ2, "x", 0),))
    ce = complement_expression(e)
    assert ce.matrix[0].constraint == EQ2  # EQ2 is complementive
    assert ce.matrix[0].args[1].const == 1
    assert evaluate(e) == evaluate(ce) == 0
    e = QuantifiedExpression((exists("x"),), (app(OR2, "x", 0),))
    ce = complement_expression(e)
    assert evaluate(e) == evaluate(ce) == 1
    assert complement_expression(ce) == e


def test_complement_differential_random():
    rng = random.Random(8)
    for _ in range(300):
        cs = [random_constraint(rng, rng.randint(1, 3)) for _ in range(2)]
        e = random_expression(rng, cs, rng.randint(1, 10), rng.randint(1, 10),
                              const_prob=0.25)
        assert evaluate(e) == evaluate(complement_expression(e))


def test_constant_swap_on_complementive_sets():
    # with every constraint complementive, swapping the constants 0 <-> 1
    # (without touching the constraints) preserves the truth value
    rng = random.Random(9)
    for _ in range(200):
        cs = [
            random_constraint_with(
                rng, rng.randint(1, 3), lambda c: has_property(c, "complementive")
            )
            for _ in range(2)
        ]
        e = random_expression(rng, cs, rng.randint(1, 10), rng.randint(1, 8),
                              const_prob=0.3)
        swapped = QuantifiedExpression(
            e.prefix,
            tuple(
                type(a)(
                    a.constraint,
                    tuple(
                        Argument(const=1 - x.const) if x.is_const else x
                        for x in a.args
                    ),
                )
                for a in e.matrix
            ),
        )
        assert evaluate(e) == evaluate(swapped)


def test_substitute_identity_is_noop():
    e = QuantifiedExpression((exists("x", "y"),), (app(OR2, "x", "y"),))
    assert substitute_implementation(e, identity_implementation(OR2)) == e


def test_substitute_or3_by_oit_implementation():
    impl = find_implementation([OIT], OR3, 8, 8)
    e = QuantifiedExpression(
        (forall("p", "q"), exists("r")), (app(OR3, "p", "q", "r"),)
    )
    out = substitute_implementation(e, impl)
    assert prefix_shape(out) == prefix_shape(e)
    assert all(a.constraint == OIT for a in out.matrix)
    assert evaluate(out, EvalBudget(32)) == evaluate(e)


def test_substitute_preserves_truth_randomly():
    rng = random.Random(10)
    and2 = make_constraint("AND2", 2, "0001")
    impl = find_implementation([OIT], and2, 6, 8)
    for _ in range(100):
        n = rng.randint(2, 6)
        names = [f"v{i}" for i in range(n)]
        apps = []
        for _ in range(rng.randint(1, 4)):
            c = rng.choice([and2, OIT])
            apps.append(app(c, *(rng.choice(names) for _ in range(c.arity))))
        e = QuantifiedExpression((exists(*names),), tuple(apps))
        out = substitute_implementation(e, impl)
        assert evaluate(out, EvalBudget(30)) == evaluate(e)


def test_substitute_requires_existential_innermost():
    impl = find_implementation([OIT], make_constraint("AND2", 2, "0001"), 6, 8)
    e = QuantifiedExpression(
        (exists("x"), forall("y")),
        (app(make_constraint("AND2", 2, "0001"), "x", "y"),),
    )
    with pytest.raises(ShapeMismatchError):
        substitute_implementation(e, impl)
    # with no prefix at all, auxiliaries have no block to go to either
    e = QuantifiedExpression((), (app(impl.target, 1, 1),))
    with pytest.raises(ShapeMismatchError):
        substitute_implementation(e, impl)


def test_substitute_rejects_invalid_implementation():
    from qcsp.implsearch import Implementation

    bogus = Implementation(
        make_constraint("AND2", 2, "0001"), ("x", "y"), (), (app(OR2, "x", "y"),)
    )
    e = QuantifiedExpression((exists("x", "y"),), ())
    with pytest.raises(ValueError):
        substitute_implementation(e, bogus)


def test_eliminate_unary_examples():
    e = QuantifiedExpression(
        (exists("x", "y"),), (app(ID1, "x"), app(OR2, "x", "y"))
    )
    r = eliminate_unary(e)
    assert not r.trivially_false
    assert r.expression.prefix[0].vars == ("y",)
    assert r.expression.matrix[0].args[0].const == 1

    r = eliminate_unary(
        QuantifiedExpression((exists("x"),), (app(ID1, "x"), app(NOT1, "x")))
    )
    assert r.trivially_false

    r = eliminate_unary(
        QuantifiedExpression(
            (forall("x"), exists("y")), (app(ID1, "x"), app(OR2, "x", "y"))
        )
    )
    assert r.trivially_false  # confirmed false at x=0


def test_eliminate_unary_constant_arguments():
    r = eliminate_unary(QuantifiedExpression((), (app(ID1, 1),)))
    assert not r.trivially_false and r.expression.matrix == ()
    r = eliminate_unary(QuantifiedExpression((), (app(ID1, 0),)))
    assert r.trivially_false


def test_eliminate_unary_foreign_constraint():
    true1 = make_constraint("TRUE1", 1, "11")
    with pytest.raises(ValueError, match="foreign unary"):
        eliminate_unary(QuantifiedExpression((exists("x"),), (app(true1, "x"),)))


def test_eliminate_unary_merges_blocks():
    e = QuantifiedExpression(
        (forall("a"), exists("x"), forall("b")),
        (app(ID1, "x"), app(OR3, "a", "x", "b")),
    )
    r = eliminate_unary(e)
    assert not r.trivially_false
    assert len(r.expression.prefix) == 1
    assert r.expression.prefix[0].vars == ("a", "b")


def test_eliminate_unary_truth_preserved_randomly():
    rng = random.Random(12)
    for _ in range(200):
        cs = [random_constraint(rng, rng.randint(2, 3)), ID1, NOT1]
        e = random_expression(rng, cs, rng.randint(1, 8), rng.randint(1, 8),
                              const_prob=0.1)
        want = evaluate(e)
        r = eliminate_unary(e)
        if r.trivially_false:
            assert want == 0
        else:
            assert evaluate(r.expression) == want


def test_build_hat_examples():
    hat = build_hat(OR2, 0b11)  # satisfying row (1,1)
    a = hat.apply("x", "y")
    assert a.args == (Argument(var="y"), Argument(var="y"))
    assert hat.value(0, 0) == 0 and hat.value(0, 1) == 1

    with pytest.raises(ValueError, match="does not satisfy"):
        build_hat(OR2, 0)
    with pytest.raises(ValueError, match="out of range"):
        build_hat(OR2, 9)


def _eval_preserved(expr, family, i):
    before = evaluate(expr)
    res = remove_constants(expr, family, i)
    if res.trivially_false:
        return before == 0, res
    out = res.expression
    ok = (
        evaluate(out, EvalBudget(32)) == before
        and not out.has_constants()
        and prefix_shape(out).polarity is prefix_shape(expr).polarity
    )
    return ok, res


def test_remove_constants_case_dispatch():
    shapes = {(Polarity.PI, 2): 2, (Polarity.SIGMA, 3): 3}
    rng = random.Random(13)
    for case, family in CASE_FAMILIES.items():
        for (pol, lvl), i in shapes.items():
            e = random_expression_with_constants(rng, family, pol, lvl, 5, 4)
            ok, res = _eval_preserved(e, family, i)
            assert ok, (case, repr(e))
            assert res.case_used is case


def test_remove_constants_level_matches_full_inputs():
    rng = random.Random(14)
    for case, family in CASE_FAMILIES.items():
        e = random_expression_with_constants(rng, family, Polarity.PI, 2, 5, 4)
        res = remove_constants(e, family, 2)
        if not res.trivially_false:
            assert prefix_shape(res.expression).level == 2


def test_remove_constants_spec_placement_example():
    # a padded level-1 input over a complementive neither-valid set gains the
    # switch pair: forall b, x exists b2 with the xor link, still false
    e = QuantifiedExpression((forall("x"),), (app(EQ2, "x", 0),))
    res = remove_constants(e, [EQ2, NAE3], 2)
    assert res.case_used is ReductionCase.NEITHER_VALID_COMP
    out = res.expression
    assert evaluate(e) == evaluate(out) == 0
    assert [b.quantifier.value for b in out.prefix] == ["A", "E"]
    assert out.prefix[0].vars == ("b", "x")
    assert out.prefix[1].vars == ("b2",)
    assert repr(out.matrix[0]) == "EQ2(x, b)"
    assert repr(out.matrix[1]) == "NAE3(b, b, b2)"


def test_remove_constants_sigma3_complementive_regression():
    # an existential block outside the gadget switch must not leak the
    # complement branch: this instance is true and must stay true
    e = QuantifiedExpression(
        (exists("a"), forall("u"), exists("v")),
        (app(ZVC3, "a", "v", 0), app(ZVC3, "u", "v", 1)),
    )
    ok, res = _eval_preserved(e, [ZVC3], 3)
    assert ok and res.case_used is ReductionCase.ZERO_VALID_COMP


def test_remove_constants_not_applicable_for_schaefer():
    e = QuantifiedExpression((exists("x"),), (app(NAND2, "x", "x"),))
    with pytest.raises(NotApplicableError):
        remove_constants(e, [NAND2], 2)


def test_remove_constants_level_one_limits():
    e = QuantifiedExpression((exists("x"),), (app(ZV3, "x", "x", 1),))
    with pytest.raises(NotApplicableError, match="level-1"):
        remove_constants(e, [ZV3], 1)
    # neither-valid cases do support level 1
    e = QuantifiedExpression((exists("x"),), (app(OIT, "x", "x", 1),))
    ok, res = _eval_preserved(e, [OIT], 1)
    assert ok and res.case_used is ReductionCase.NEITHER_VALID_NOT_COMP
    e = QuantifiedExpression((exists("x"),), (app(NAE3, "x", "x", 1),))
    ok, res = _eval_preserved(e, [NAE3], 1)
    assert ok and res.case_used is ReductionCase.NEITHER_VALID_COMP


def test_remove_constants_shape_mismatch():
    e = QuantifiedExpression(
        (exists("a"), forall("u"), exists("v")), (app(OIT, "a", "u", "v"),)
    )
    with pytest.raises(ShapeMismatchError):
        remove_constants(e, [OIT], 2)  # level 3 prefix at level 2


def test_remove_constants_implementation_bound_error(set_work):
    # the constant-false sink comes before the search
    bot = make_constraint("BOT", 2, "0000")
    e = QuantifiedExpression(
        (forall("x"), exists("y")), (app(ZV3, "x", "y", 0), app(bot, "x", "y"))
    )
    assert remove_constants(e, [ZV3, bot], 2, max_aux=0, max_apps=1) is TRIVIALLY_FALSE
    assert set_work == {"classify_set": 1}
    # an exhausted search is searched once, and raises on every call
    e = QuantifiedExpression((forall("x"), exists("y")), (app(ZV3, "x", "y", 0),))
    for _ in range(2):
        with pytest.raises(
            ImplementationNotFoundError,
            match=r"^no implementation of IMP2 over \{ZV3\} within "
            r"max_aux=0, max_apps=1$",
        ):
            remove_constants(e, [ZV3], 2, max_aux=0, max_apps=1)
    assert set_work == {"classify_set": 1, "find_implementation": 1}


def test_remove_constants_helper_table_over_budget(set_work):
    # the XOR2 helper search over an arity-6 NAE would enumerate 8**6
    # argument tuples of 256-bit masks; it is refused before any is built,
    # and the refusal is not cached: each call searches and raises again
    nae6 = make_constraint("NAE6", 6, "0" + "1" * 62 + "0")
    e = QuantifiedExpression(
        (forall("x"), exists("y")), (app(nae6, "x", "y", 0, "x", "y", 1),)
    )
    for _ in range(2):
        with pytest.raises(
            BudgetExceededError,
            match=r"^candidate table of 67108864 bits exceeds the limit of 33554432 "
            r"\(target arity 2, max_aux=6\)$",
        ):
            remove_constants(e, [nae6], 2)
    assert set_work == {"classify_set": 1, "find_implementation": 2}


def test_remove_constants_constant_function_handling():
    top = make_constraint("TOP", 2, "1111")
    bot = make_constraint("BOT", 2, "0000")
    e = QuantifiedExpression(
        (forall("x"), exists("y")), (app(OIT, "x", "y", 0), app(top, "x", 1))
    )
    res = remove_constants(e, [OIT, top], 2)
    assert not res.trivially_false
    assert all(a.constraint == OIT for a in res.expression.matrix[:1])
    e = QuantifiedExpression(
        (forall("x"), exists("y")), (app(OIT, "x", "y", 0), app(bot, "x", 1))
    )
    res = remove_constants(e, [OIT, bot], 2)
    assert res.trivially_false


def test_remove_constants_reports_implementations():
    e = QuantifiedExpression((forall("x"), exists("y")), (app(NAE3, "x", "y", 0),))
    res = remove_constants(e, [NAE3], 2)
    assert len(res.implementations_used) == 1
    assert res.implementations_used[0].target.name == "XOR2"


def _count_calls(monkeypatch, *names):
    """A Counter of the calls made through each of ``names`` in gadgets."""
    calls = Counter()

    def counted(name):
        f = getattr(gadgets, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(gadgets, name, counted(name))
    return calls


def _clear_set_caches():
    for cached in (
        gadgets._set_flags, gadgets._hat_templates, gadgets._helper_implementation
    ):
        cached.cache_clear()


@pytest.fixture
def set_work(monkeypatch):
    """The classifications and helper searches remove_constants makes,
    counted from cold per-set caches."""
    _clear_set_caches()
    return _count_calls(monkeypatch, "classify_set", "find_implementation")


def test_remove_constants_one_valid_is_a_recipe_over_the_set(monkeypatch):
    calls = _count_calls(monkeypatch, "remove_constants", "complement_expression")
    e = QuantifiedExpression((forall("x"), exists("y")), (app(OV3, "x", "y", 0),))
    res = gadgets.remove_constants(e, [OV3], 2)
    assert calls == {"remove_constants": 1}
    assert res.case_used is ReductionCase.ONE_VALID_NOT_COMP
    names = {a.constraint.name for a in res.expression.matrix}
    assert names == {"OV3"}
    assert res.implementations_used
    for impl in res.implementations_used:
        assert impl.target == complement_constraint(IMP2)
        assert {a.constraint for a in impl.apps} <= {OV3}
    e = QuantifiedExpression((exists("x"),), (app(OV3, "x", 0, 1),))
    with pytest.raises(
        NotApplicableError,
        match="^case 'one-valid, not complementive' has no level-1 constant removal$",
    ):
        remove_constants(e, (OV3,), 1)


def test_remove_constants_per_case_random():
    rng = random.Random(15)
    shapes = [(Polarity.SIGMA, 2, 3), (Polarity.PI, 2, 2), (Polarity.SIGMA, 3, 3)]
    for case, family in CASE_FAMILIES.items():
        for _ in range(40):
            pol, lvl, i = shapes[rng.randrange(3)]
            e = random_expression_with_constants(
                rng, family, pol, lvl, rng.randint(lvl, 6), rng.randint(1, 6)
            )
            ok, res = _eval_preserved(e, family, i)
            assert ok, (case.name, repr(e))


def test_remove_constants_multi_constraint_sets():
    even3 = make_constraint("EVEN3", 3, "10010110")  # parity-0: 0-valid, affine
    mixed = {
        ReductionCase.ZERO_VALID_NOT_COMP: [ZV3, even3],
        ReductionCase.ONE_VALID_NOT_COMP: [OV3, OR3],
        ReductionCase.ZERO_VALID_COMP: [ZVC3, EQ2],
        ReductionCase.NEITHER_VALID_COMP: [NAE3, XOR2],
        ReductionCase.NEITHER_VALID_NOT_COMP: [OIT, OR3],
    }
    rng = random.Random(16)
    shapes = [(Polarity.SIGMA, 2, 3), (Polarity.PI, 2, 2), (Polarity.SIGMA, 3, 3)]
    for case, family in mixed.items():
        for _ in range(25):
            pol, lvl, i = shapes[rng.randrange(3)]
            e = random_expression_with_constants(
                rng, family, pol, lvl, rng.randint(lvl, 6), rng.randint(1, 5)
            )
            ok, res = _eval_preserved(e, family, i)
            assert ok, (case.name, repr(e))
            assert res.case_used is case


def test_remove_constants_rejects_foreign_constraints():
    e = QuantifiedExpression((forall("x"), exists("y")), (app(OIT, "x", "y", 0),))
    with pytest.raises(ValueError, match="not in the given set"):
        remove_constants(e, [NAE3], 2)


def test_remove_constants_levels_four_and_five():
    rng = random.Random(77)
    # Pi4 inputs at level 4, then Sigma5 inputs at level 5: at most 6
    # variables and, at level 5, at most 4 applications
    shapes = ((Polarity.PI, (2, 4), 4, 5), (Polarity.SIGMA, (3, 5), 5, 4))
    for polarity, levels, i, max_apps in shapes:
        for case, family in CASE_FAMILIES.items():
            for _ in range(10):
                e = random_expression_with_constants(
                    rng, family, polarity, rng.choice(levels),
                    rng.randint(i, 6), rng.randint(1, max_apps),
                )
                before = evaluate(e)
                res = remove_constants(e, family, i)
                if res.trivially_false:
                    assert before == 0
                    continue
                out = res.expression
                assert evaluate(out, EvalBudget(34)) == before, (case, repr(e))
                shape = prefix_shape(out)
                assert shape.polarity is polarity and shape.level <= i


def test_remove_constants_works_out_each_set_once(set_work):
    rng = random.Random(79)
    inputs = [
        (family, level, random_expression_with_constants(
            rng, family, polarity, level, rng.randint(level, 6), rng.randint(1, 5)
        ))
        for family in CASE_FAMILIES.values()
        for polarity, level in ((Polarity.PI, 2), (Polarity.SIGMA, 3))
        for _ in range(6)
    ]
    warm = [remove_constants(e, family, level) for family, level, e in inputs]
    # one classification per family, one helper search per family that
    # pins with a helper: all but the hat case
    assert set_work == {"classify_set": 5, "find_implementation": 4}
    # the bounds and the tables' names are part of the key
    e = QuantifiedExpression((forall("x"), exists("y")), (app(ZV3, "x", "y", 0),))
    remove_constants(e, [ZV3], 2, max_aux=5)
    assert set_work == {"classify_set": 5, "find_implementation": 5}
    zv3 = Constraint("ZV3b", ZV3.arity, ZV3.bits)
    e = QuantifiedExpression((forall("x"), exists("y")), (app(zv3, "x", "y", 0),))
    res = remove_constants(e, [zv3], 2)
    assert set_work == {"classify_set": 6, "find_implementation": 6}
    assert {a.constraint for a in res.expression.matrix} == {zv3}
    _clear_set_caches()
    assert [remove_constants(e, family, level) for family, level, e in inputs] == warm


def test_remove_constants_accepts_constant_free_input():
    rng = random.Random(78)
    for case, family in CASE_FAMILIES.items():
        e = random_shaped_expression(rng, family, Polarity.PI, 2, 4, 3)
        res = remove_constants(e, family, 2)
        assert not res.trivially_false
        assert evaluate(res.expression, EvalBudget(32)) == evaluate(e), case


# SHA-256 over the rendered outputs of every reduction in this module:
# remove_constants on seeded draws of each case family (and of mixed sets,
# levels 1-4, and sets with constant functions) at every verify shape, with
# the case and implementations used; complement_expression and
# eliminate_unary on seeded expressions; substitute_implementation with the
# One-in-Three implementations of the substitution check; and the value and
# application of every hat of arity <= 3.  A refactor of the gadgets may
# change how an output is built, never the output.
REDUCE_DIGEST = "cfc7f2f8b3f2d12a67b7f7188f515a9f1ddb26cdde60653f97f2163581a00e68"


def _reduction_outputs():
    def rendered(expr):
        return render_document(expr.constraints(), {"e": expr})

    def reduced(res):
        text = "false\n" if res.trivially_false else rendered(res.expression)
        return f"{text}{res.case_used}\n{res.implementations_used!r}\n"

    rng = random.Random(2027)
    even3 = make_constraint("EVEN3", 3, "10010110")
    top = make_constraint("TOP", 2, "1111")
    families = list(CASE_FAMILIES.values()) + [
        (ZV3, even3), (OV3, OR3), (ZVC3, EQ2), (NAE3, XOR2), (OIT, OR3),
        (OR3, OIT, NAE3), (OIT, top),
    ]
    for family in families:
        for polarity, level, i in _SHAPES + ((Polarity.PI, 4, 4),):
            for _ in range(20):
                e = random_expression_with_constants(
                    rng, family, polarity, level, rng.randint(level, 6),
                    rng.randint(1, 6),
                )
                yield reduced(remove_constants(e, family, i))
        for _ in range(4):
            e = random_expression_with_constants(
                rng, family, Polarity.SIGMA, 1, rng.randint(1, 4), rng.randint(1, 4)
            )
            try:
                yield reduced(remove_constants(e, family, 1))
            except NotApplicableError as exc:
                yield f"{exc}\n"
    for _ in range(300):
        cs = [random_constraint(rng, rng.randint(1, 3)) for _ in range(2)]
        cs.append(rng.choice((ID1, NOT1)))
        e = random_expression(rng, cs, rng.randint(1, 8), rng.randint(1, 8),
                              const_prob=0.2)
        yield rendered(complement_expression(e))
        try:
            yield reduced(eliminate_unary(e))
        except ValueError as exc:  # a foreign unary table
            yield f"{exc}\n"
    impls = [
        find_implementation([OIT], Constraint(f"S{bits}", 2, bits), 6, 8)
        for bits in (0b0001, 0b0110, 0b0111, 0b1110)
    ]
    for _ in range(300):
        impl = impls[rng.randrange(len(impls))]
        level = rng.choice((1, 3))
        e = random_shaped_expression(
            rng, [impl.target, OIT], Polarity.SIGMA, level, rng.randint(level, 6),
            rng.randint(1, 4),
        )
        yield rendered(substitute_implementation(e, impl))
    for k in (1, 2, 3):
        for bits in range(1 << (1 << k)):
            c = Constraint(f"h{bits}", k, bits)
            for row in c.satisfying_rows():
                hat = build_hat(c, row)
                for first in (0, 1):
                    for second in (0, 1):
                        yield f"{hat.value(first, second)}{hat.apply(first, second)!r}"
                yield repr(hat.apply("x", "y"))


def test_reduce_digest():
    digest = hashlib.sha256()
    for text in _reduction_outputs():
        digest.update(text.encode())
    assert digest.hexdigest() == REDUCE_DIGEST
