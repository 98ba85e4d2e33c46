"""Core model: construction, validation, evaluation, shapes."""

import random

import pytest

from qcsp.model import (
    Argument,
    Constraint,
    Polarity,
    QuantifierBlock,
    Quantifier,
    QuantifiedExpression,
    app,
    exists,
    forall,
    make_constraint,
    prefix_shape,
)
from qcsp.presets import EQ2, OIT, OR3, PRESETS, XOR2


def test_make_constraint_examples():
    assert make_constraint("OR3", 3, "01111111").table() == "01111111"
    oit = make_constraint("OIT", 3, "01101000")
    assert oit.satisfying_rows() == [1, 2, 4]  # rows 001, 010, 100
    assert make_constraint("XOR2", 2, "0110").value_on(0b10) == 1


def test_make_constraint_accepts_int_sequences():
    c = make_constraint("X", 2, [0, 1, 1, 0])
    assert c == Constraint("X", 2, XOR2.bits)
    # a string is converted as one binary literal, a sequence cell by cell
    rng = random.Random(3)
    for arity in (1, 2, 5, 9, 16):
        table = "".join(rng.choice("01") for _ in range(1 << arity))
        want = make_constraint("T", arity, [int(c) for c in table])
        assert make_constraint("T", arity, table) == want
        assert want.table() == table


def test_make_constraint_errors():
    with pytest.raises(ValueError):
        make_constraint("bad", 2, "011")  # length mismatch
    with pytest.raises(ValueError):
        make_constraint("bad", 0, "1")
    with pytest.raises(ValueError):
        make_constraint("bad", 1, "0x")
    with pytest.raises(ValueError):
        make_constraint("bad", 17, "0" * (1 << 17))
    with pytest.raises(ValueError):
        make_constraint("bad", 1, [0, 2])
    # the first bad character is reported, and int()'s own syntax ('_',
    # signs, blanks) is never admitted
    for table, bad in (("0x1y", "x"), ("01_1", "_"), ("+011", "+"), ("011 ", " ")):
        with pytest.raises(ValueError) as info:
            make_constraint("bad", 2, table)
        assert str(info.value) == f"constraint 'bad': bad table character {bad!r}"
    with pytest.raises(ValueError, match="table has 3 entries, expected 4 for arity 2"):
        make_constraint("bad", 2, "0x1")


def test_argument_validation():
    with pytest.raises(ValueError):
        Argument()
    with pytest.raises(ValueError):
        Argument(var="x", const=1)
    with pytest.raises(ValueError):
        Argument(const=2)
    assert Argument.of("x").var == "x"
    assert Argument.of(1).const == 1


def test_application_arity_check():
    with pytest.raises(ValueError):
        app(XOR2, "x")
    with pytest.raises(ValueError):
        app(XOR2, "x", "y", "z")


def test_evaluate_application_examples():
    assert app(OR3, "x", "y", 0).evaluate({"x": 0, "y": 1}) == 1
    assert app(OIT, "x", "x", "y").evaluate({"x": 1, "y": 0}) == 0  # two ones
    assert app(XOR2, "x", 1).evaluate({"x": 1}) == 0
    assert app(EQ2, 0, 0).evaluate({}) == 1


def test_evaluate_application_unbound():
    with pytest.raises(ValueError, match="unbound"):
        app(XOR2, "x", "y").evaluate({"x": 1})


def test_row_order_roundtrip_exhaustive():
    # ConstraintApplication.evaluate must agree with a direct table lookup on
    # every assignment, for presets and random tables up to arity 4
    rng = random.Random(7)
    constraints = list(PRESETS.values())
    for arity in (1, 2, 3, 4):
        for _ in range(12):
            constraints.append(
                Constraint(f"r{arity}", arity, rng.getrandbits(1 << arity))
            )
    for c in constraints:
        names = [f"x{i}" for i in range(c.arity)]
        a = app(c, *names)
        for row in range(c.rows):
            assignment = {
                names[i]: (row >> (c.arity - 1 - i)) & 1 for i in range(c.arity)
            }
            assert a.evaluate(assignment) == c.value_on(row)


def test_block_validation():
    with pytest.raises(ValueError):
        QuantifierBlock(Quantifier.EXISTS, ())
    with pytest.raises(ValueError):
        QuantifierBlock(Quantifier.EXISTS, ("x", "x"))


def test_expression_wellformedness():
    with pytest.raises(ValueError, match="alternate"):
        QuantifiedExpression((exists("x"), exists("y")), ())
    with pytest.raises(ValueError, match="twice"):
        QuantifiedExpression((exists("x"), forall("x")), ())
    with pytest.raises(ValueError, match="free variable"):
        QuantifiedExpression((exists("x"),), (app(XOR2, "x", "y"),))
    # closed expressions with constants are fine, as is an empty matrix
    QuantifiedExpression((exists("x"),), (app(XOR2, "x", 1),))
    QuantifiedExpression((), (app(EQ2, 0, 1),))
    QuantifiedExpression((forall("x"),), ())


def test_prefix_shape_examples():
    e = QuantifiedExpression(
        (exists("x"), forall("y"), exists("z")), (app(OR3, "x", "y", "z"),)
    )
    assert prefix_shape(e) == prefix_shape(e).__class__(Polarity.SIGMA, 3)
    e = QuantifiedExpression((forall("x1", "x2"), exists("y")), ())
    s = prefix_shape(e)
    assert (s.polarity, s.level) == (Polarity.PI, 2)
    e = QuantifiedExpression((), (app(EQ2, 0, 0),))
    s = prefix_shape(e)
    assert (s.polarity, s.level) == (Polarity.SIGMA, 0)


def test_expression_accessors():
    e = QuantifiedExpression(
        (exists("x"), forall("y")), (app(XOR2, "x", "y"), app(XOR2, "x", 1))
    )
    assert e.variables() == ("x", "y")
    assert e.constraints() == (XOR2,)
    assert e.has_constants()


def test_public_names():
    import qcsp

    expected = {
        "Argument", "BudgetExceededError", "ClassificationReport", "ClauseForm",
        "Constraint", "ConstraintApplication", "EvalBudget", "HatTemplate",
        "Implementation", "ImplementationNotFoundError", "NormalFormKind",
        "NotApplicableError", "ParseError", "Polarity", "PrefixShape",
        "PropertyFlags", "QuantifiedExpression", "Quantifier", "QuantifierBlock",
        "ReductionCase", "ReductionResult", "ShapeMismatchError", "SourceDocument",
        "TractableClass", "app", "build_hat", "check_implementation",
        "classify_constraint", "classify_set", "complement_constraint",
        "complement_expression", "dispatch_class", "eliminate_unary", "evaluate",
        "exists", "find_implementation", "forall", "has_property",
        "identity_implementation", "make_constraint",
        "parse_document", "parse_expression", "prefix_shape", "qsat_i_member",
        "remove_constants", "render_expression", "solve_auto", "solve_tractable",
        "substitute_implementation", "synthesize_normal_form",
        "classifier", "evaluator", "gadgets", "implsearch", "model", "parser",
        "presets", "solvers",
    }
    assert len(qcsp.__all__) == len(expected) and set(qcsp.__all__) == expected
    assert all(hasattr(qcsp, name) for name in qcsp.__all__)
