"""Hypothesis properties tying the pieces together."""

from hypothesis import given, settings, strategies as st

from qcsp.evaluator import evaluate
from qcsp.gadgets import complement_constraint, complement_expression
from qcsp.model import (
    Constraint,
    QuantifierBlock,
    Quantifier,
    QuantifiedExpression,
    app,
    compile_expression,
    make_constraint,
)
from qcsp.parser import parse_expression, render_expression
from qcsp.solvers import solve_auto
from qcsp.verify import closure_disagreements

tables3 = st.integers(min_value=0, max_value=255)


@given(tables3)
def test_table_string_roundtrip(bits):
    c = Constraint("f", 3, bits)
    assert make_constraint("f", 3, c.table()) == c


@given(tables3)
def test_complement_involution(bits):
    c = Constraint("f", 3, bits)
    assert complement_constraint(complement_constraint(c)) == c


@given(tables3)
def test_closure_flags_match_synthesis(bits):
    assert not closure_disagreements(Constraint("f", 3, bits))


@st.composite
def small_expressions(draw):
    n_vars = draw(st.integers(min_value=1, max_value=6))
    names = [f"v{i}" for i in range(n_vars)]
    first = draw(st.sampled_from([Quantifier.EXISTS, Quantifier.FORALL]))
    split = draw(st.integers(min_value=1, max_value=n_vars))
    blocks = [QuantifierBlock(first, tuple(names[:split]))]
    if split < n_vars:
        other = (
            Quantifier.FORALL if first is Quantifier.EXISTS else Quantifier.EXISTS
        )
        blocks.append(QuantifierBlock(other, tuple(names[split:])))
    n_apps = draw(st.integers(min_value=0, max_value=5))
    apps = []
    for _ in range(n_apps):
        bits = draw(st.integers(min_value=0, max_value=255))
        c = Constraint(f"c{bits}", 3, bits)
        args = [
            draw(
                st.one_of(
                    st.sampled_from(names), st.integers(min_value=0, max_value=1)
                )
            )
            for _ in range(3)
        ]
        apps.append(app(c, *args))
    return QuantifiedExpression(tuple(blocks), tuple(apps))


@settings(max_examples=150, deadline=None)
@given(small_expressions())
def test_complement_preserves_truth(expr):
    assert evaluate(expr) == evaluate(complement_expression(expr))


@settings(max_examples=150, deadline=None)
@given(small_expressions())
def test_double_complement_is_identity(expr):
    assert complement_expression(complement_expression(expr)) == expr


@settings(max_examples=150, deadline=None)
@given(small_expressions(), st.data())
def test_parse_round_trip_and_renaming(expr, data):
    # the parser's expression equals the original, and the form it holds
    # equals the walk of the same prefix and matrix
    lib = {c.name: c for c in expr.constraints()}
    back = parse_expression(render_expression(expr), lib)
    assert back == expr
    assert hash(back) == hash(expr) and repr(back) == repr(expr)
    walked = compile_expression(QuantifiedExpression(expr.prefix, expr.matrix))
    assert compile_expression(back) == walked
    # renaming the variables keeps the value
    names = expr.variables()
    order = data.draw(st.permutations(range(len(names))))
    new = {v: f"u{j}" for v, j in zip(names, order)}
    renamed = QuantifiedExpression(
        tuple(QuantifierBlock(b.quantifier, tuple(new[v] for v in b.vars)) for b in expr.prefix),
        tuple(
            app(a.constraint, *(x.const if x.is_const else new[x.var] for x in a.args))
            for a in expr.matrix
        ),
    )
    assert solve_auto(renamed) == solve_auto(back) == solve_auto(expr)
