"""Brute-force evaluator: semantics, budgets, level-membership polarity."""

import hashlib
import random

import pytest

from qcsp import evaluator
from qcsp.evaluator import (
    BudgetExceededError,
    EvalBudget,
    ShapeMismatchError,
    _evaluate,
    evaluate,
    qsat_i_member,
)
from qcsp.model import (
    Constraint,
    QuantifierBlock,
    QuantifiedExpression,
    app,
    exists,
    forall,
)
from qcsp.presets import EQ2, ID1, NOT1, OIT, OR2, XOR2
from qcsp.randgen import random_constraint, random_expression
from qcsp.verify import _components_instance, check_oracle_definitional


def test_eval_examples():
    e = QuantifiedExpression((exists("x"), forall("y")), (app(OR2, "x", "y"),))
    assert evaluate(e) == 1  # x=1 works
    e = QuantifiedExpression((forall("x"),), (app(EQ2, "x", 0),))
    assert evaluate(e) == 0
    e = QuantifiedExpression(
        (forall("x"), exists("f", "t")), (app(EQ2, "x", "f"), app(XOR2, "f", "t"))
    )
    assert evaluate(e) == 1


def test_eval_degenerate():
    assert evaluate(QuantifiedExpression((), ())) == 1
    assert evaluate(QuantifiedExpression((), (app(EQ2, 0, 1),))) == 0
    assert evaluate(QuantifiedExpression((forall("x"),), ())) == 1


def test_budget_is_an_error_not_an_answer():
    e = QuantifiedExpression(
        (exists(*[f"v{i}" for i in range(30)]),), (app(OR2, "v0", "v1"),)
    )
    with pytest.raises(BudgetExceededError):
        evaluate(e)
    assert evaluate(e, EvalBudget(max_variables=30)) == 1


def test_recursion_depth_is_part_of_the_budget():
    # 749 overlapping One-in-Three applications chain 1499 variables, more
    # than the default recursion limit of 1000 leaves room for
    names = [f"x{i}" for i in range(1499)]
    chain = tuple(
        app(OIT, names[2 * i], names[2 * i + 1], names[2 * i + 2]) for i in range(749)
    )
    budget = EvalBudget(max_variables=5000)
    with pytest.raises(BudgetExceededError, match="a part of 1499 variables"):
        evaluate(QuantifiedExpression((exists(*names),), chain), budget)
    short = QuantifiedExpression((exists(*names[:301]),), chain[:150])
    assert evaluate(short, budget) == 1
    # the depth counts the largest part, not the prefix: 1200 two-variable
    # parts over 2400 variables take two frames each, so only max_variables,
    # checked first, refuses them
    names = [f"x{i}" for i in range(2400)]
    matrix = tuple(app(OR2, names[2 * i], names[2 * i + 1]) for i in range(1200))
    assert evaluate(QuantifiedExpression((exists(*names),), matrix), budget) == 1
    assert evaluate(QuantifiedExpression((forall(*names),), matrix), budget) == 0
    with pytest.raises(BudgetExceededError, match="exceeds budget of 2399"):
        evaluate(QuantifiedExpression((exists(*names),), matrix), EvalBudget(2399))


def test_parts_go_smallest_first_ties_by_first_application(monkeypatch):
    decided = []
    real = evaluator._decide

    def spy(exists, pairs, apps, *rest):
        decided.append(apps)
        return real(exists, pairs, apps, *rest)

    def order(prefix, matrix):
        # the value, and the applications of each part decided, in turn
        decided.clear()
        value = evaluate(QuantifiedExpression(prefix, matrix))
        return value, [[matrix[i] for i in apps] for apps in decided]

    monkeypatch.setattr(evaluator, "_decide", spy)
    # the a and b parts have two variables and one application each, the c
    # part three variables and two applications
    a, b = app(OR2, "a1", "a2"), app(OR2, "b1", "b2")
    c = (app(OR2, "c1", "c2"), app(OR2, "c2", "c3"))
    prefix = (exists("a1", "a2", "b1", "b2", "c1", "c2", "c3"),)
    # a's variables come first in the prefix, but b's application in the matrix
    assert order(prefix, c + (b, a)) == (1, [[b], [a], list(c)])
    assert order(prefix, (a,) + c + (b,)) == (1, [[a], [b], list(c)])
    # a false part stops the walk: the parts after it are never decided
    prefix = (exists("a1", "a2", "c1", "c2", "c3"), forall("b1", "b2"))
    assert order(prefix, c + (b, a)) == (0, [[b]])


def test_node_limit():
    # true on every row except all-ones, so the forall walks the whole tree
    from qcsp.model import Constraint

    nearly_true = Constraint("NT", 10, ((1 << (1 << 10)) - 1) ^ (1 << ((1 << 10) - 1)))
    names = [f"v{i}" for i in range(10)]
    e = QuantifiedExpression(
        (forall(*names),), (app(nearly_true, *names),)
    )
    with pytest.raises(BudgetExceededError):
        evaluate(e, EvalBudget(max_variables=20, node_limit=50))
    assert evaluate(e, EvalBudget(max_variables=20)) == 0


def test_node_limit_must_not_be_negative():
    with pytest.raises(ValueError, match="node_limit"):
        EvalBudget(node_limit=-1)
    assert EvalBudget(node_limit=0).node_limit == 0


def _exact_nodes(e, width):
    """(value, nodes) of ``e`` at leaf width ``width``: the nodes are the
    smallest ``node_limit`` that still gives an answer."""

    def run(limit):
        try:
            return _evaluate(e, EvalBudget(node_limit=limit), width)
        except BudgetExceededError:
            return None

    lo, hi = -1, 0
    while run(hi) is None:
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if run(mid) is None:
            lo = mid
        else:
            hi = mid
    return run(hi), hi


def test_node_counts_are_pinned():
    # the exact node count of 80 seeded instances at the rule's leaf width
    # and at forced widths 0, 4 and 16; a change to the branch loop, its
    # prune or the leaf's charge that moves any count changes the digest
    rng = random.Random(2021)
    exprs = []
    for _ in range(60):
        cs = [random_constraint(rng, rng.randint(1, 4)) for _ in range(4)]
        n = rng.randint(4, 14)
        exprs.append(random_expression(rng, cs, n, rng.randint(1, n), 0.1))
    for i in range(20):
        exprs.append(
            _components_instance(rng, rng.randint(12, 16), 1 + i % 3, i % 2 == 0)
        )
    pairs = [_exact_nodes(e, width) for e in exprs for width in (None, 0, 4, 16)]
    assert sum(v for v, _ in pairs) == 108
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
        "f24528cd3d19c1e162b88b76c778f0480cc4ec0adbe61cd86b0e9b3343d1988d"
    )


def test_budget_monotone():
    rng = random.Random(3)
    for _ in range(100):
        cs = [random_constraint(rng, rng.randint(1, 3)) for _ in range(2)]
        e = random_expression(rng, cs, rng.randint(1, 8), rng.randint(1, 8))
        small = evaluate(e, EvalBudget(max_variables=8))
        assert small == evaluate(e, EvalBudget(max_variables=24))


def test_block_permutation_soundness():
    # permuting variables inside one block never changes the value
    rng = random.Random(11)
    for _ in range(500):
        cs = [random_constraint(rng, rng.randint(1, 3)) for _ in range(2)]
        e = random_expression(rng, cs, rng.randint(2, 12), rng.randint(1, 10),
                              const_prob=0.1)
        want = evaluate(e)
        blocks = []
        for b in e.prefix:
            vs = list(b.vars)
            rng.shuffle(vs)
            blocks.append(QuantifierBlock(b.quantifier, tuple(vs)))
        assert evaluate(QuantifiedExpression(tuple(blocks), e.matrix)) == want


def test_qsat_member_examples():
    e = QuantifiedExpression((exists("x"),), (app(ID1, "x"),))
    assert qsat_i_member(e, 1) == 1
    e = QuantifiedExpression((forall("x"), exists("y")), (app(XOR2, "x", "y"),))
    assert qsat_i_member(e, 2) == 0  # the expression is true, so not a member
    e = QuantifiedExpression((forall("x"),), (app(NOT1, "x"),))
    assert qsat_i_member(e, 2) == 1  # treated as level 2 with an empty block


def test_qsat_member_shape_errors():
    sigma2 = QuantifiedExpression(
        (exists("x"), forall("y")), (app(OR2, "x", "y"),)
    )
    with pytest.raises(ShapeMismatchError):
        qsat_i_member(sigma2, 1)  # too many blocks
    pi1 = QuantifiedExpression((forall("x"),), (app(ID1, "x"),))
    with pytest.raises(ShapeMismatchError):
        qsat_i_member(pi1, 1)  # universal prefix passed with odd level
    with pytest.raises(ValueError):
        qsat_i_member(pi1, 0)


def test_qsat_member_level_zero_prefix():
    e = QuantifiedExpression((), (app(EQ2, 1, 1),))
    assert qsat_i_member(e, 1) == 1
    assert qsat_i_member(e, 2) == 0


def test_oit_needs_exactly_one():
    e = QuantifiedExpression(
        (exists("a", "b", "c"),),
        (app(OIT, "a", "b", "c"), app(ID1, "a"), app(ID1, "b")),
    )
    assert evaluate(e) == 0


def test_leaf_charges_its_full_subtree():
    # a chain of 15 OR2 over 16 variables is one part whose leaf is all 16
    # variables, so the root is the leaf and charges 2^17 - 1 nodes
    names = [f"x{i}" for i in range(16)]
    chain = tuple(app(OR2, a, b) for a, b in zip(names, names[1:]))
    e = QuantifiedExpression((forall(*names),), chain)
    with pytest.raises(BudgetExceededError):
        evaluate(e, EvalBudget(node_limit=(1 << 17) - 2))
    assert evaluate(e, EvalBudget(node_limit=(1 << 17) - 1)) == 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_disjoint_parts_cost_a_sum(k):
    # k copies of "forall u0..u5 exists e: OR2(ui, e)" with the copies'
    # variables interleaved in one prefix.  One copy takes 191 nodes; a
    # recursion over the whole prefix takes 16383 for k = 2, 2^6 times more
    # per further copy.
    us = [f"u{c}_{i}" for i in range(6) for c in range(k)]
    es = [f"e{c}" for c in range(k)]
    matrix = tuple(app(OR2, f"u{c}_{i}", f"e{c}") for c in range(k) for i in range(6))
    e = QuantifiedExpression((forall(*us), exists(*es)), matrix)
    assert evaluate(e, EvalBudget(max_variables=7 * k, node_limit=200 * k)) == 1
    # breaking one copy makes the whole expression false, as cheaply
    broken = matrix + (app(EQ2, "u0_0", 0),)
    e = QuantifiedExpression((forall(*us), exists(*es)), broken)
    assert evaluate(e, EvalBudget(max_variables=7 * k, node_limit=200 * k)) == 0


@pytest.mark.parametrize("n_univ", [8, 12])
def test_wide_application_is_not_folded(n_univ):
    # one random arity-16 application: a 16-bit leaf would expand the whole
    # table into a word and charge 2^17 - 1 nodes; the sizing rule leaves
    # it to the recursion, which needs fewer than 30000
    rng = random.Random(n_univ)
    wide = Constraint("R16", 16, rng.getrandbits(1 << 16))
    names = [f"v{i}" for i in range(16)]
    e = QuantifiedExpression(
        (forall(*names[:n_univ]), exists(*names[n_univ:])), (app(wide, *names),)
    )
    budget = EvalBudget(node_limit=30000)
    assert evaluate(e, budget) == _evaluate(e, None, 0)
    with pytest.raises(BudgetExceededError):
        _evaluate(e, budget, 16)


def test_parts_are_joined_through_any_argument():
    # EQ2(a, x) and EQ2(b, x) share only their second argument; together
    # with XOR2(a, b) they are unsatisfiable
    e = QuantifiedExpression(
        (exists("a", "b", "x"),),
        (app(EQ2, "a", "x"), app(EQ2, "b", "x"), app(XOR2, "a", "b")),
    )
    assert evaluate(e) == 0


def test_unused_variables_cost_nothing():
    # twenty universals no application mentions drop out of the prefix
    ys = [f"y{i}" for i in range(20)]
    e = QuantifiedExpression((forall(*ys), exists("x")), (app(ID1, "x"),))
    assert evaluate(e, EvalBudget(node_limit=2)) == 1
    e = QuantifiedExpression((exists("x"), forall(*ys)), (app(ID1, "x"),))
    assert evaluate(e, EvalBudget(node_limit=2)) == 1
    e = QuantifiedExpression((forall("x", *ys),), (app(ID1, "x"),))
    assert evaluate(e, EvalBudget(node_limit=2)) == 0


def test_empty_and_constant_only_matrices():
    assert evaluate(QuantifiedExpression((forall("x"), exists("y")), ())) == 1
    # constant-only applications are decided without a node
    budget = EvalBudget(node_limit=0)
    e = QuantifiedExpression((forall("x"),), (app(EQ2, 1, 1), app(OR2, 0, 1)))
    assert evaluate(e, budget) == 1
    e = QuantifiedExpression((exists("x"),), (app(EQ2, 1, 1), app(OR2, 0, 0)))
    assert evaluate(e, budget) == 0
    # a false constant application wins over a true part
    e = QuantifiedExpression((exists("x"),), (app(ID1, "x"), app(OR2, 0, 0)))
    assert evaluate(e) == 0
    e = QuantifiedExpression((forall("x"),), (app(EQ2, "x", "x"), app(EQ2, 0, 0)))
    assert evaluate(e) == 1


def test_oracle_matches_definitional():
    result = check_oracle_definitional(seed=0)
    assert result.passed, result.line()


def test_leaf_widths_agree():
    # every forced leaf width gives the value of the plain recursion
    rng = random.Random(7)
    for _ in range(300):
        cs = [random_constraint(rng, rng.randint(1, 4)) for _ in range(2)]
        e = random_expression(rng, cs, rng.randint(1, 12), rng.randint(0, 10),
                              const_prob=0.1)
        want = _evaluate(e, None, 0)
        for width in (None, 1, 3, 6, 16):
            assert _evaluate(e, None, width) == want, (width, e)
