"""Seeded truth tables of each Schaefer class, built from their clause forms.

Every generator draws a random formula of the class and returns its models as
a packed table, so class membership holds by construction; the filters only
keep tables that are *not* also in the classes checked before it by qcsp's
dispatch order (affine, bijunctive, Horn, anti-Horn), so that an instance
built from them takes the intended solver.
"""

from __future__ import annotations

import random

from reference import complement_bits, is_affine_ref, is_bijunctive_ref, is_horn_ref


def _models(arity: int, clauses) -> int:
    """Packed table of the CNF ``clauses`` (literals +v / -v, v 1-based)."""
    bits = 0
    for r in range(1 << arity):
        if all(
            any(((r >> (arity - abs(l))) & 1) == (l > 0) for l in clause) for clause in clauses
        ):
            bits |= 1 << r
    return bits


def _interesting(arity: int, bits: int) -> bool:
    n_sat = bin(bits).count("1")
    return 2 <= n_sat < (1 << arity) - 1


def horn_table(rng: random.Random, arity: int) -> int:
    """Models of a random Horn CNF that is neither bijunctive nor affine."""
    while True:
        clauses = []
        for _ in range(rng.randint(2, arity + 1)):
            width = rng.randint(2, min(3, arity))
            vs = rng.sample(range(1, arity + 1), width)
            head = rng.random() < 0.7
            clauses.append(tuple(-v for v in vs[1:]) + ((vs[0],) if head else (-vs[0],)))
        bits = _models(arity, clauses)
        if (
            _interesting(arity, bits)
            and not is_bijunctive_ref(arity, bits)
            and not is_affine_ref(arity, bits)
        ):
            return bits


def anti_horn_table(rng: random.Random, arity: int) -> int:
    """Mirror of a Horn table that is not itself Horn."""
    while True:
        bits = complement_bits(arity, horn_table(rng, arity))
        if not is_horn_ref(arity, bits):
            return bits


def bijunctive_table(rng: random.Random, arity: int) -> int:
    """Models of a random 2-CNF that is not affine."""
    while True:
        clauses = []
        for _ in range(rng.randint(1, arity)):
            v, w = rng.sample(range(1, arity + 1), 2)
            clauses.append((rng.choice((v, -v)), rng.choice((w, -w))))
        bits = _models(arity, clauses)
        if _interesting(arity, bits) and not is_affine_ref(arity, bits):
            return bits


def affine_table(rng: random.Random, arity: int, rank: int | None = None) -> int:
    """A random point plus the span of ``rank`` random independent directions:
    the solutions of a consistent GF(2) system of ``arity - rank`` equations."""
    if rank is None:
        rank = rng.randint(max(1, arity // 2), arity - 1)
    base = rng.getrandbits(arity)
    basis: list[int] = []
    while len(basis) < rank:
        y = rng.getrandbits(arity)
        for b in basis:
            y = min(y, y ^ b)
        if y:
            basis.append(y)
    points = {base}
    for b in basis:
        points |= {p ^ b for p in points}
    return sum(1 << p for p in points)


TABLE_OF_CLASS = {
    "horn": horn_table,
    "anti-horn": anti_horn_table,
    "bijunctive": bijunctive_table,
    "affine": affine_table,
}
