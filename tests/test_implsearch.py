"""Perfect-implementation checking and bounded search."""

import hashlib
import random
import sys
from collections import Counter
from itertools import product

import pytest

from qcsp.evaluator import BudgetExceededError
from qcsp.gadgets import build_hat
from qcsp.implsearch import (
    Implementation,
    _candidate_table,
    _coverage_masks,
    check_implementation,
    find_implementation,
    identity_implementation,
)
from qcsp.model import (
    Argument,
    Constraint,
    ConstraintApplication,
    app,
    make_constraint,
)
from qcsp.presets import OIT, OR2, OR3, XOR2
from qcsp.verify import (
    TERNARY_NEEDING_WIDE_SEARCH,
    check_implementation_brute_force,
)

ANDNOT = make_constraint("ANDNOT", 2, "0100")  # ~x & y
AND2 = make_constraint("AND2", 2, "0001")
TRUE1 = make_constraint("TRUE1", 1, "11")


def test_check_hat_triple_implements_andnot():
    # One-in-Three is neither-valid and not complementive; its hat
    # applications on (f, t) pin the pair to (0, 1)
    s = OIT.satisfying_rows()[0]
    hat = build_hat(OIT, s)
    impl = Implementation(
        ANDNOT, ("f", "t"), (), (hat.apply("f", "t"),) * 3
    )
    assert check_implementation(impl)


def test_check_empty_set_implements_constant_true():
    impl = Implementation(TRUE1, ("x",), (), ())
    assert check_implementation(impl)


def test_check_or_is_not_and():
    impl = Implementation(AND2, ("x", "y"), (), (app(OR2, "x", "y"),))
    assert not check_implementation(impl)  # row (1,0) disagrees


def test_auxiliary_named_like_a_primary_is_refused():
    # y as both a primary and an auxiliary: a check that reads y's aux bit
    # for both judges AND2 to implement FIRST2, and substituting it turns
    # A b E a : FIRST2(a, b) from true to false
    first2 = make_constraint("FIRST2", 2, "0011")
    with pytest.raises(ValueError, match="repeats across primaries and auxiliaries"):
        Implementation(first2, ("x", "y"), ("y",), (app(AND2, "x", "y"),))
    with pytest.raises(ValueError, match="repeats"):
        Implementation(first2, ("x", "x"), (), ())


def test_application_over_an_unknown_variable_is_refused():
    with pytest.raises(ValueError, match="'z', which is neither a primary nor an aux"):
        Implementation(AND2, ("x", "y"), ("w",), (app(OR2, "x", "z"),))


def test_coverage_word_test_matches_row_by_row_test():
    rng = random.Random(14)
    for m in (1, 2, 3):
        for a in (0, 1, 3, 6):
            width = 1 << a
            size = width << m
            y_all = (1 << width) - 1
            for bits in (0, (1 << (1 << m)) - 1, *(rng.getrandbits(1 << m) for _ in range(4))):
                target = Constraint("T", m, bits)
                low, top = _coverage_masks(target, a)
                pos_rows = [y_all << (x << a) for x in target.satisfying_rows()]
                states = [rng.getrandbits(size) for _ in range(40)]
                states += [rng.getrandbits(size) & rng.getrandbits(size) for _ in range(40)]
                # blocks that hold nothing, only bit 0, only the top bit or anything
                for _ in range(40):
                    s = 0
                    for x in range(1 << m):
                        block = rng.choice((0, 1, 1 << (width - 1), rng.getrandbits(width)))
                        s |= block << (x << a)
                    states.append(s)
                for s in states:
                    want = all(s & row for row in pos_rows)
                    assert ((((s & low) + low) | s) & top == top) == want, (m, a, bits, s)


def test_candidate_masks_match_a_lookup_per_point():
    # every mask of the full table (canonical=False) is its constraint looked
    # up at each point: pool position p is bit pool - 1 - p of the point, and
    # positions pool and pool + 1 are the constants 0 and 1
    rng = random.Random(16)
    for k in range(1, 7):
        few = sum(1 << r for r in rng.sample(range(1 << k), max(1, (1 << k) // 8)))
        for bits in (few, ((1 << (1 << k)) - 1) ^ few):  # sparse, then dense
            c = Constraint("T", k, bits)
            for pool in range(1, 7):
                for allow_constants in (False, True):
                    n = pool + 2 if allow_constants else pool
                    if n**k << pool > 1 << 14:
                        continue
                    m = rng.randint(1, pool)
                    args, _, masks, _ = _candidate_table(
                        (c,), m, pool - m, allow_constants, False
                    )
                    assert args == tuple(product(range(n), repeat=k))
                    for tup, mask in zip(args, masks):
                        want = 0
                        for point in range(1 << pool):
                            row = 0
                            for p in tup:
                                bit = p - pool if p >= pool else (point >> (pool - 1 - p)) & 1
                                row = (row << 1) | bit
                            want |= ((bits >> row) & 1) << point
                        assert mask == want, (bits, m, pool, tup)


def _check_by_dict(impl):
    """Reference check: a dict entry per variable per point and
    ``ConstraintApplication.evaluate`` for each application."""
    m = len(impl.primary_vars)
    a = len(impl.aux_vars)
    assignment = {}
    for x in range(1 << m):
        for i, v in enumerate(impl.primary_vars):
            assignment[v] = (x >> (m - 1 - i)) & 1
        got = 0
        for y in range(1 << a):
            for i, v in enumerate(impl.aux_vars):
                assignment[v] = (y >> (a - 1 - i)) & 1
            if all(ap.evaluate(assignment) for ap in impl.apps):
                got = 1
                break
        if got != impl.target.value_on(x):
            return False
    return True


def _mutations(impl, rng):
    """The witness with one application dropped, one argument moved to
    another variable of the pool, and one argument made a constant."""
    apps = impl.apps
    i = rng.randrange(len(apps))
    yield apps[:i] + apps[i + 1 :]
    names = impl.primary_vars + impl.aux_vars
    for make in (
        lambda old: Argument(var=rng.choice([v for v in names if v != old.var])),
        lambda old: Argument(const=rng.randint(0, 1)),
    ):
        i = rng.randrange(len(apps))
        args = list(apps[i].args)
        pos = rng.randrange(len(args))
        args[pos] = make(args[pos])
        changed = ConstraintApplication(apps[i].constraint, tuple(args))
        yield apps[:i] + (changed,) + apps[i + 1 :]


def test_check_agrees_with_the_dict_check():
    rng = random.Random(6)
    judged = Counter()
    for bits in range(16):
        impl = find_implementation([OIT], Constraint(f"B{bits}", 2, bits), 6, 8)
        assert check_implementation(impl) and _check_by_dict(impl)
        if not impl.apps:
            continue
        for apps in _mutations(impl, rng):
            cut = Implementation(impl.target, impl.primary_vars, impl.aux_vars, apps)
            verdict = check_implementation(cut)
            assert verdict == _check_by_dict(cut), (bits, apps)
            judged[verdict] += 1
    assert judged[False] > 0 and judged[True] > 0, judged


def test_search_agrees_with_brute_force():
    result = check_implementation_brute_force(1)
    assert result.passed, result.detail


def test_identity_implementation():
    impl = identity_implementation(OR2)
    assert check_implementation(impl)
    found = find_implementation([OR2], OR2, 0, 1)
    assert found == impl


def test_find_xor_not_and():
    assert find_implementation([XOR2], AND2, 2, 4) is None


def test_find_or3_from_oit():
    # needs more than six auxiliaries: definitive NotFound inside (6,8),
    # a verified witness at (8,8)
    assert find_implementation([OIT], OR3, 6, 8) is None
    impl = find_implementation([OIT], OR3, 8, 8)
    assert impl is not None and check_implementation(impl)


def test_find_is_deterministic():
    a = find_implementation([OIT], AND2, 6, 8)
    b = find_implementation([OIT], AND2, 6, 8)
    assert a == b and a is not b


def test_minimal_witness_order():
    # xor from One-in-Three: a single application with a repeated argument
    # exists, so the minimal witness has one application
    nae = make_constraint("NAE3", 3, "01111110")
    impl = find_implementation([nae], XOR2, 6, 8)
    assert len(impl.apps) == 1 and not impl.aux_vars


def test_canonical_pruning_preserves_answers():
    # found/NotFound agrees with the unpruned search on all binary targets
    for bits in range(16):
        target = Constraint(f"b{bits}", 2, bits)
        fast = find_implementation([OIT], target, 3, 3)
        slow = find_implementation([OIT], target, 3, 3, canonical=False)
        assert (fast is None) == (slow is None), bits
        if fast is not None:
            assert check_implementation(fast) and check_implementation(slow)


def test_constants_variant_flag():
    # with constants allowed, t=1 is expressible directly
    one = make_constraint("ONE1", 1, "01")
    impl = find_implementation([XOR2], one, 0, 2, allow_constants=True)
    assert impl is not None
    assert any(a.is_const for ap in impl.apps for a in ap.args)


def test_negative_bounds_raise_value_error():
    with pytest.raises(ValueError, match="^max_aux must be non-negative, got -1$"):
        find_implementation([OIT], AND2, -1, 8)
    with pytest.raises(ValueError, match="^max_apps must be non-negative, got -3$"):
        find_implementation([OIT], AND2, 6, -3)


def test_candidate_table_over_budget_raises():
    # 3 primaries and 11 auxiliaries: 14**3 argument tuples of 2**14-bit
    # masks, refused before any is built
    with pytest.raises(
        BudgetExceededError,
        match=r"^candidate table of 44957696 bits exceeds the limit of 33554432 "
        r"\(target arity 3, max_aux=11\)$",
    ):
        find_implementation([OIT], OR3, 11, 8)
    # one auxiliary fewer fits: 13**3 tuples of 2**13 bits
    assert find_implementation([OIT], OR3, 10, 0) is None


def test_candidate_table_build_over_budget_raises():
    # an arity-6 not-all-equal table over a pool of 7 is under the bit bound
    # (7**6 masks of 2**7 bits), but its 7**6 tuples each cost 6 steps to
    # read and 2**6 expansion leaves; One-in-Three at max_aux=10
    # (13**3 * (3 + 8) steps) is admitted in the test above
    nae6 = make_constraint("NAE6", 6, "0" + "1" * 62 + "0")
    with pytest.raises(
        BudgetExceededError,
        match=r"^candidate table of 8235430 build steps exceeds the limit of "
        r"1048576 \(target arity 2, max_aux=5\)$",
    ):
        find_implementation([nae6], XOR2, 5, 8)
    # one satisfying row does not make a table cheap: 5**8 argument tuples,
    # 8 + 2**5 steps each, are refused before any is built
    with pytest.raises(
        BudgetExceededError,
        match=r"^candidate table of 15625000 build steps exceeds the limit of "
        r"1048576 \(target arity 2, max_aux=3\)$",
    ):
        find_implementation([Constraint("SP8", 8, 1 << 77)], XOR2, 3, 8)
    # at max_aux=3 not-all-equal fits, 5**6 * (6 + 2**5) steps, and
    # implements XOR2 with one application
    impl = find_implementation([nae6], XOR2, 3, 1)
    assert impl is not None and impl.aux_vars == () and len(impl.apps) == 1


def _search_calls(*args):
    """find_implementation's answer and the calls made to each DFS step."""
    calls = Counter()

    def count(frame, event, arg):
        name = frame.f_code.co_name
        if event == "call" and name in ("dfs", "finish", "narrowed"):
            calls[name] += 1

    sys.setprofile(count)
    try:
        result = find_implementation(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def test_search_stops_where_the_live_tree_ends():
    # the live trees of these wide targets end at depth 5, so the search
    # stops at count 6 whatever max_apps is, instead of deepening towards
    # 10**6: the unbounded search does exactly the work of the (6, 8) one
    find_implementation([OIT], OR3, 6, 0)  # builds the shared candidate table
    for bits in (126, 216):
        target = Constraint(f"W{bits}", 3, bits)
        bounded = _search_calls([OIT], target, 6, 8)
        assert bounded[0] is None
        assert _search_calls([OIT], target, 6, 10**6) == bounded
        if bits == 126:
            # expanding every sibling, even one whose (state, aux count) an
            # earlier sibling had reached, took 39,039 dfs, 30,513 finish and
            # 1,029 narrowed calls
            assert bounded[1] == {"dfs": 17148, "finish": 11500, "narrowed": 875}


def test_found_witness_does_not_depend_on_a_larger_app_bound():
    targets = [Constraint(f"B{bits}", 2, bits) for bits in (1, 6, 11, 14)]
    targets += [Constraint(f"T{bits}", 3, bits) for bits in (24, 14, 43, 229)]
    for target in targets:
        want = find_implementation([OIT], target, 6, 8)
        assert want is not None
        assert find_implementation([OIT], target, 6, 64) == want, target


# SHA-256 of the first witness of every ternary and binary target over
# One-in-Three at (6, 8), spelled as test_wide_search_list_is_exact spells
# them, taken from the DFS that expanded every sibling: pruning may skip
# work, never change a witness.
WITNESS_DIGEST = "aef4c42b02eb8819efd5c455ae73a58311301485c70b7eabc806d20b89733840"


def test_wide_search_list_is_exact():
    # revalidate the frozen list: these ternary tables and no others fail
    # the (6, 8) bounds over One-in-Three (every binary target is found);
    # and every witness of those searches is the pinned one
    hard = set()
    digest = hashlib.sha256()
    for arity in (3, 2):
        for bits in range(1 << (1 << arity)):
            target = Constraint(f"t{bits}", arity, bits)
            impl = find_implementation([OIT], target, 6, 8)
            if impl is None:
                hard.add(bits)
                spelled = "NOT_FOUND"
            else:
                spelled = "; ".join(_spelled(impl))
            digest.update(f"{arity} {bits}: {spelled}\n".encode())
    assert hard == set(TERNARY_NEEDING_WIDE_SEARCH)
    assert digest.hexdigest() == WITNESS_DIGEST


def _spelled(impl):
    out = []
    for ap in impl.apps:
        args = ", ".join(str(x.const) if x.is_const else x.var for x in ap.args)
        out.append(f"{ap.constraint.name}({args})")
    return tuple(out)


# The first witness of each search, spelled application by application.  The
# enumeration order fixes which witness comes first, so a search that prunes
# or reorders its work differently must still return exactly these.  The
# ternary targets have three-, four- and five-application witnesses.
GOLDEN_BINARY = {
    0: ("OIT(x1, x1, x1)",),
    1: ("OIT(x1, x1, y1)", "OIT(x1, x2, y1)"),
    2: ("OIT(x1, x1, x2)",),
    3: ("OIT(x1, x1, y1)",),
    4: ("OIT(x1, x2, x2)",),
    5: ("OIT(x2, x2, y1)",),
    6: ("OIT(x1, x2, y1)", "OIT(y1, y1, y2)"),
    7: ("OIT(x1, x2, y1)",),
    8: ("OIT(x1, y1, y1)", "OIT(x2, y1, y1)"),
    9: ("OIT(x1, y1, y2)", "OIT(x2, y1, y2)"),
    10: ("OIT(x2, y1, y1)",),
    11: ("OIT(x1, y1, y2)", "OIT(x1, y3, y4)", "OIT(x2, y1, y3)"),
    12: ("OIT(x1, y1, y1)",),
    13: ("OIT(x1, y1, y2)", "OIT(x2, y1, y3)", "OIT(x2, y2, y4)"),
    14: ("OIT(x1, y1, y2)", "OIT(x2, y1, y3)", "OIT(y1, y1, y4)", "OIT(y2, y3, y5)"),
    15: (),
}
GOLDEN_TERNARY = {
    24: ("OIT(x1, x2, y1)", "OIT(x1, x3, y1)", "OIT(y1, y1, y2)"),
    86: ("OIT(x1, x3, y1)", "OIT(x2, x3, y2)", "OIT(y1, y2, y3)"),
    97: ("OIT(x1, y1, y2)", "OIT(x2, x3, y1)", "OIT(y2, y2, y3)"),
    196: ("OIT(x1, y1, y2)", "OIT(x2, y1, y1)", "OIT(x3, y2, y3)"),
    14: ("OIT(x1, x1, y1)", "OIT(x1, x2, y2)", "OIT(x1, x3, y3)", "OIT(y2, y3, y4)"),
    44: ("OIT(x1, x2, y1)", "OIT(x1, y2, y3)", "OIT(x3, y1, y2)", "OIT(y1, y1, y4)"),
    93: ("OIT(x1, x3, y1)", "OIT(x2, y2, y3)", "OIT(x3, y2, y4)", "OIT(x3, y3, y5)"),
    111: (
        "OIT(x1, y1, y2)",
        "OIT(x2, y3, y4)",
        "OIT(x3, y3, y5)",
        "OIT(y1, y4, y5)",
    ),
    43: (
        "OIT(x1, x2, y1)",
        "OIT(x1, y2, y3)",
        "OIT(x2, y2, y4)",
        "OIT(x3, y2, y5)",
        "OIT(y5, y5, y6)",
    ),
    114: (
        "OIT(x1, y1, y2)",
        "OIT(x2, x3, y3)",
        "OIT(x2, y1, y4)",
        "OIT(y1, y3, y5)",
        "OIT(y2, y2, y6)",
    ),
    201: (
        "OIT(x1, y1, y2)",
        "OIT(x2, y1, y3)",
        "OIT(x3, y1, y4)",
        "OIT(y2, y4, y5)",
        "OIT(y3, y3, y6)",
    ),
    229: (
        "OIT(x1, y1, y2)",
        "OIT(x2, y1, y3)",
        "OIT(x3, y1, y4)",
        "OIT(x3, y2, y5)",
        "OIT(y3, y4, y6)",
    ),
}


def test_golden_witnesses():
    for bits, want in GOLDEN_BINARY.items():
        impl = find_implementation([OIT], Constraint(f"B{bits}", 2, bits), 6, 8)
        assert _spelled(impl) == want, bits
    for bits, want in GOLDEN_TERNARY.items():
        impl = find_implementation([OIT], Constraint(f"T{bits}", 3, bits), 6, 8)
        assert _spelled(impl) == want, bits
    target = Constraint("T46", 3, 46)
    impl = find_implementation([XOR2, OR2], target, 2, 5, canonical=False)
    want = ("XOR2(x1, y1)", "XOR2(x2, y2)", "OR2(x2, x3)", "OR2(y1, y2)")
    assert _spelled(impl) == want
    target = Constraint("T43", 3, 43)
    impl = find_implementation([OIT], target, 6, 8, allow_constants=True)
    want = ("OIT(x1, x2, y1)", "OIT(x1, y2, y3)", "OIT(x2, y2, y4)", "OIT(x3, y2, 0)")
    assert _spelled(impl) == want
