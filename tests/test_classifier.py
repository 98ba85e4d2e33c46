"""Classifier: property flags, closure witnesses, dichotomy verdicts."""

import functools
import hashlib
import operator
import random

from qcsp.classifier import (
    PROPERTIES,
    classify_constraint,
    classify_set,
    has_property,
)
from qcsp.model import Constraint, make_constraint
from qcsp.presets import CNF3_FAMILY, EQ2, ID1, NAND2, NOT1, OIT, OR2, XOR2
from qcsp.randgen import random_constraint
from qcsp.solvers import TractableClass
from qcsp.verify import _CLOSURE_OPS, _classifier_samples
from qcsp.words import patterns

import pytest


def test_valid_flags():
    assert not has_property(OR2, "zero_valid") and has_property(OR2, "one_valid")
    assert has_property(NAND2, "zero_valid") and not has_property(NAND2, "one_valid")
    assert has_property(NOT1, "zero_valid") and has_property(ID1, "one_valid")
    assert not has_property(OIT, "one_valid") and not has_property(OIT, "zero_valid")


def test_complementive_examples():
    assert has_property(XOR2, "complementive") and has_property(EQ2, "complementive")
    assert not has_property(OR2, "complementive")
    assert not has_property(OIT, "complementive")  # rows 001 vs 110 differ


def test_closure_flag_examples():
    assert has_property(NAND2, "horn")
    assert not has_property(OR2, "horn")  # 01 AND 10 = 00 is not satisfying
    assert has_property(OR2, "anti_horn")
    flags = classify_constraint(OIT)
    assert not flags.bijunctive and not flags.affine
    assert not flags.horn and not flags.anti_horn
    assert classify_constraint(XOR2).affine
    assert classify_constraint(EQ2).bijunctive


def test_constant_functions_are_bijunctive_and_affine():
    for bits, arity in ((0, 2), (15, 2), (0, 1), (3, 1)):
        c = Constraint("k", arity, bits)
        f = classify_constraint(c)
        assert f.bijunctive and f.affine and f.horn and f.anti_horn


def test_arity_16_tables_classify():
    # the four arity-16 tables that once hung classify; the first argument
    # is the top bit of the row, so x_i is pattern 15 - i
    pattern = patterns(16)
    full = (1 << (1 << 16)) - 1
    x = [pattern[15 - i] for i in range(16)]
    parity = functools.reduce(operator.xor, pattern)
    cases = {
        "TRUE16": (full, set(PROPERTIES)),
        "PARITY16": (parity, {"affine", "complementive"}),
        "IMP16": ((full ^ x[0]) | x[1],
                  {"zero_valid", "one_valid", "horn", "anti_horn", "bijunctive"}),
        "HORN16": ((full ^ x[0]) | (full ^ x[1]) | x[2], {"zero_valid", "one_valid", "horn"}),
    }
    for name, (bits, flags) in cases.items():
        rep = classify_set([Constraint(name, 16, bits)])
        assert {k for k, v in rep.flags.as_dict().items() if v} == flags, name


def test_classify_set_examples():
    rep = classify_set([OIT])
    assert not any(rep.flags.as_dict().values())
    assert rep.verdicts()["sat"] == "NP-complete"
    assert rep.verdicts()["qsat_i"] == "Sigma_i-complete"
    assert rep.verdicts()["qsat_ic"] == "Sigma_i-complete"

    rep = classify_set([XOR2])
    assert rep.flags.affine and rep.flags.complementive
    assert rep.verdicts()["qsat"] == "P" and rep.verdicts()["qsat_i"] == "P"

    rep = classify_set(CNF3_FAMILY)
    assert not rep.flags.schaefer
    assert rep.verdicts()["qsat_i"] == "Sigma_i-complete"
    assert rep.verdicts()["sat"] == "NP-complete"


def test_level_one_verdicts_follow_plain_sat():
    # a 0-valid non-Schaefer set: tractable without constants, hard with them
    zv = make_constraint("ZV3", 3, "10010100")
    rep = classify_set([zv])
    assert rep.verdicts()["sat"] == "P" and rep.verdicts()["qsat_1"] == "P"
    assert rep.verdicts()["sat_c"] == "NP-complete"
    assert rep.verdicts()["qsat_1c"] == "NP-complete"
    assert rep.verdicts()["qsat_i"] == "Sigma_i-complete"


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        classify_set([])


def test_witnesses_demonstrate_failures():
    rep = classify_set([OIT, OR2])
    by_prop = {w.property: w for w in rep.witnesses}
    # every failed flag carries a witness; OIT fails each class, whose
    # operation turns OIT's models 001, 010, 100 into a non-model at once
    for prop, flag in rep.flags.as_dict().items():
        assert flag == (prop not in by_prop)
    sat = OIT.satisfying_rows()
    for cls, op in _CLOSURE_OPS:
        w = by_prop[cls.flag]
        (row,) = w.rows
        assert w.constraint == "OIT" and not OIT.value_on(row)
        assert row in {op(a, b, d) for a in sat for b in sat for d in sat}
    assert by_prop["horn"].render() == "OIT rows=0"  # 001 & 010
    assert by_prop["affine"].render() == "OIT rows=7"  # 001 ^ 010 ^ 100
    w = by_prop["complementive"]
    c = OIT if w.constraint == "OIT" else OR2
    r, rbar = w.rows
    assert rbar == (c.rows - 1) ^ r and c.value_on(r) != c.value_on(rbar)


def _fixpoint(rows, op):
    """``rows`` closed under the ternary ``op``, one round at a time."""
    rows = set(rows)
    while new := {op(a, b, d) for a in rows for b in rows for d in rows} - rows:
        rows |= new
    return rows


def test_class_witness_is_least_row_the_closure_adds():
    # each class's witness is the least non-model of the models' fixpoint
    # closure under its operation, and there is none when nothing is added
    tables = [Constraint("T", k, bits) for k in (1, 2, 3) for bits in range(1 << (1 << k))]
    rng = random.Random(12)
    for k in (4, 5):
        for _ in range(15):
            tables.append(random_constraint(rng, k))
            tables.append(Constraint("S", k, rng.getrandbits(1 << k) & rng.getrandbits(1 << k)))
            tables.append(Constraint("D", k, rng.getrandbits(1 << k) | rng.getrandbits(1 << k)))
    tables += [c for c, cls in _classifier_samples(12, 8) if cls is not None]
    for c in tables:
        sat = c.satisfying_rows()
        for cls, op in _CLOSURE_OPS:
            added = _fixpoint(sat, op) - set(sat)
            assert PROPERTIES[cls.flag](c) == ((min(added),) if added else None), (c, cls)


def _majority_all_triples(c):
    """Closure under majority over every (a, b, d), the reference loop."""
    sat = c.satisfying_rows()
    for a in sat:
        for b in sat:
            for d in sat:
                out = (a & b) | (d & (a | b))
                if not c.value_on(out):
                    return (a, b, d), out
    return None


def _two_cnf_table(rng, arity):
    """A random bijunctive table: the rows that pass a few random 2-clauses."""
    rows = range(1 << arity)
    for _ in range(rng.randint(0, 2 * arity)):
        i, j = rng.randrange(arity), rng.randrange(arity)
        si, sj = rng.randint(0, 1), rng.randint(0, 1)
        rows = [r for r in rows if (r >> i) & 1 == si or (r >> j) & 1 == sj]
    return Constraint("B", arity, sum(1 << r for r in rows))


def test_majority_witness_matches_all_triples():
    tables = [Constraint("T", k, bits) for k in (1, 2, 3) for bits in range(1 << (1 << k))]
    rng = random.Random(11)
    for k in (4, 5, 6):
        for _ in range(100):
            tables.append(random_constraint(rng, k))
            sparse = rng.getrandbits(1 << k) & rng.getrandbits(1 << k) & rng.getrandbits(1 << k)
            tables.append(Constraint("S", k, sparse))
            tables.append(_two_cnf_table(rng, k))
    assert sum(_majority_all_triples(c) is None for c in tables) > 500
    for c in tables:
        assert has_property(c, "bijunctive") == (_majority_all_triples(c) is None), c


def test_flags_monotone_under_union():
    rng = random.Random(5)
    for _ in range(300):
        a = [random_constraint(rng, rng.randint(1, 3)) for _ in range(2)]
        b = a + [random_constraint(rng, rng.randint(1, 3))]
        fa = classify_set(a).flags.as_dict()
        fb = classify_set(b).flags.as_dict()
        for key in fa:
            assert fa[key] or not fb[key]  # adding constraints never sets flags


def test_verdict_consistency_random_sets():
    rng = random.Random(6)
    for _ in range(1000):
        cs = [random_constraint(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        rep = classify_set(cs)
        tractable = (
            rep.flags.horn
            or rep.flags.anti_horn
            or rep.flags.affine
            or rep.flags.bijunctive
        )
        if tractable:
            assert rep.verdicts()["qsat"] == "P"
            assert rep.verdicts()["qsat_i"] == "P"
            assert rep.verdicts()["sat_c"] == "P"
        else:
            assert rep.verdicts()["qsat_i"] == "Sigma_i-complete"
            assert rep.verdicts()["qsat"] == "PSPACE-complete"


def test_report_serialization():
    rep = classify_set([OIT])
    text = rep.to_text()
    assert "flags.affine=false" in text
    assert "verdicts.qsat_i=Sigma_i-complete" in text
    d = rep.to_dict()
    assert d["verdicts"]["sat"] == "NP-complete"
    assert "horn" in d["witnesses"]
    rep.to_json()


def test_constant_constraints_reported():
    const_true = Constraint("TOP", 2, 0b1111)
    rep = classify_set([OIT, const_true])
    assert rep.constant_constraints == ("TOP",)


def test_classifier_samples_follow_the_seed():
    # the sampled classifier check reads a different set of tables at each
    # seed, with members of every class at arities 4 and 5 among them
    one, two = (_classifier_samples(seed, 60) for seed in (1, 2))
    assert {(c.arity, c.bits) for c, _ in one} != {(c.arity, c.bits) for c, _ in two}
    for samples in (one, two):
        built = {(c.arity, cls) for c, cls in samples if cls is not None}
        assert built == {(arity, cls) for arity in (4, 5) for cls in TractableClass}
        assert all(has_property(c, cls.flag) for c, cls in samples if cls is not None)


# SHA-256 of the text and JSON reports of every single table of arity <= 3
# and of 2,000 seeded sets of 1-4 tables of arity <= 5, uniform, sparse and
# dense.  It pins every flag, verdict and witness byte for byte, so a cache
# or a faster construction must leave it as it is.  A change to what a
# witness is changes it: re-take it then, and show that the same sets'
# flags and verdicts did not move.  It was last re-taken when each class's
# witness became the least row its closure adds.
CLASSIFY_DIGEST = "e9e80db4caf555b194dced71274758098a26e889b3fafac6fb8153d0c9f2e7b8"


def _digest_sets():
    for k in (1, 2, 3):
        for bits in range(1 << (1 << k)):
            yield [Constraint(f"t{bits}", k, bits)]
    rng = random.Random(2026)
    for i in range(2000):
        cs = []
        for j in range(rng.randint(1, 4)):
            k = rng.randint(1, 5)
            words = [rng.getrandbits(1 << k) for _ in range(rng.choice((1, 3, 5)))]
            bits = words[0]
            for w in words[1:]:
                bits = bits | w if i % 4 == 3 else bits & w
            cs.append(Constraint(f"s{i}_{j}", k, bits))
        yield cs


def test_classify_digest():
    digest = hashlib.sha256()
    for cs in _digest_sets():
        rep = classify_set(cs)
        digest.update(f"{rep.to_text()}\n{rep.to_json()}\n".encode())
    assert digest.hexdigest() == CLASSIFY_DIGEST
