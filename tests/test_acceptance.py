"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (run with -s to
see them on success) and asserts the criterion at its stated tolerance.
Everything randomized is seeded.
"""

import time

from qcsp.solvers import TractableClass
from qcsp.verify import (
    check_classifier_exhaustive,
    check_complement_differential,
    check_constant_removal,
    check_gadget_identities,
    check_implementation_engine,
    check_qsat_polarity,
    check_scaling,
    check_solver_class,
    check_substitution_preservation,
    check_verdict_table,
)

SEED = 20240917


def report(number: int, result, elapsed: float | None = None) -> None:
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {number} {'PASS' if result.passed else 'FAIL'} "
          f"{result.name}: {result.detail}{stamp}")
    assert result.passed, result.detail


def test_acceptance_1_classifier_vs_oracle_exhaustive():
    started = time.monotonic()
    result = check_classifier_exhaustive()
    elapsed = time.monotonic() - started
    report(1, result, elapsed)
    assert elapsed < 10.0


def test_acceptance_2_dichotomy_verdict_table():
    started = time.monotonic()
    result = check_verdict_table()
    elapsed = time.monotonic() - started
    report(2, result, elapsed)
    assert elapsed < 1.0


def test_acceptance_3_complement_differential():
    started = time.monotonic()
    result = check_complement_differential(SEED, instances=1000)
    elapsed = time.monotonic() - started
    report(3, result, elapsed)
    assert elapsed < 60.0


def test_acceptance_4_constant_removal_per_case():
    started = time.monotonic()
    result = check_constant_removal(SEED, per_case=300)
    elapsed = time.monotonic() - started
    report(4, result, elapsed)
    assert elapsed < 300.0


def test_acceptance_5_gadget_micro_identities():
    report(5, check_gadget_identities())


def test_acceptance_6_implementation_engine():
    result = check_implementation_engine(SEED, ternary_samples=32)
    report(6, result)
    result = check_substitution_preservation(SEED, instances=200)
    report(6, result)


def test_acceptance_7_tractable_solvers_vs_oracle():
    for cls in TractableClass:
        started = time.monotonic()
        result = check_solver_class(cls, SEED, instances=1000)
        elapsed = time.monotonic() - started
        report(7, result, elapsed)
        assert elapsed < 120.0
    for cls in TractableClass:
        report(7, check_scaling(cls, SEED))


def test_acceptance_8_qsat_level_polarity():
    report(8, check_qsat_polarity(SEED, instances=100))
