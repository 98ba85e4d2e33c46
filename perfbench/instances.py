"""Seeded quantified instances with planted certificates.

A planted instance comes with a winning strategy for the existential player:
every existential variable is a constant or a copy (possibly negated) of a
universal variable quantified before it.  An application is kept only if it
holds under the strategy for every value of the universals it reaches, so
the instance is true by construction and :func:`reference.check_strategy`
re-proves it application by application.  A planted contradiction is a
handful of applications over a few variables whose own quantified instance
is false; adding it to any matrix makes the whole instance false.
"""

from __future__ import annotations

import functools
import itertools
import random

from reference import Instance, evaluate_recursive, holds_under_strategy, restrict


class NoPlantingError(Exception):
    """The drawn strategy satisfies too few applications; draw another."""


SHAPES = {"S1": "E", "S2": "EA", "P2": "AE", "S3": "EAE"}


def planted_prefix(rng: random.Random, shape: str, n: int, n_univ: int):
    """Prefix of the given shape over ``n`` variables, ``n_univ`` universal,
    and a strategy for its existentials."""
    names = [f"x{i}" for i in range(n)]
    quants = SHAPES[shape]
    sizes = [n_univ if q == "A" else (n - n_univ) // quants.count("E") for q in quants]
    if quants[-1] == "E":
        sizes[-1] = n - sum(sizes[:-1])
    prefix = []
    i = 0
    for q, size in zip(quants, sizes):
        prefix.append((q, tuple(names[i : i + size])))
        i += size
    return tuple(prefix), _strategy(rng, prefix)


def cut_prefix(rng: random.Random, quants: str, names) -> tuple:
    """``names`` cut at random into one non-empty block per quantifier."""
    cuts = sorted(rng.sample(range(1, len(names)), len(quants) - 1))
    bounds = [0] + cuts + [len(names)]
    return tuple((q, tuple(names[bounds[j] : bounds[j + 1]])) for j, q in enumerate(quants))


def _strategy(rng: random.Random, prefix) -> dict:
    """Each existential a constant or, half the time when there is one, a
    possibly negated copy of a universal quantified before it."""
    strategy = {}
    seen_univ: list[str] = []
    for q, block in prefix:
        if q == "A":
            seen_univ.extend(block)
            continue
        for v in block:
            if seen_univ and rng.random() < 0.5:
                strategy[v] = ("u", rng.choice(seen_univ), rng.randint(0, 1))
            else:
                strategy[v] = ("c", rng.randint(0, 1))
    return strategy


def random_args(rng: random.Random, arity: int, names, const_p: float, distinct: bool):
    if distinct and arity <= len(names):
        args = rng.sample(names, arity)
    else:
        args = [rng.choice(names) for _ in range(arity)]
    return tuple(rng.randint(0, 1) if rng.random() < const_p else a for a in args)


def _groups(prefix, strategy):
    """Variables grouped by the function of the universals they take."""
    groups: dict[tuple, list[str]] = {}
    for q, vs in prefix:
        for v in vs:
            key = ("u", v, 0) if q == "A" else strategy[v]
            groups.setdefault(key, []).append(v)
    return groups


def _signature(combo) -> tuple:
    """A group tuple with its universals renamed in order of appearance."""
    names: dict[str, int] = {}
    return tuple(
        key if key[0] == "c" else ("u", names.setdefault(key[1], len(names)), key[2]) for key in combo
    )


@functools.cache
def _combo_holds(arity: int, bits: int, signature) -> bool:
    """Whether the table holds for every value of the universals in ``signature``."""
    n_univ = 1 + max((key[1] for key in signature if key[0] == "u"), default=-1)
    for mask in range(1 << n_univ):
        row = 0
        for key in signature:
            value = key[1] if key[0] == "c" else ((mask >> key[1]) & 1) ^ key[2]
            row = (row << 1) | value
        if not (bits >> row) & 1:
            return False
    return True


def planted_apps(rng, tables, prefix, strategy, n_apps, const_p=0.0, distinct=True):
    """``n_apps`` applications of ``tables`` that the strategy satisfies.

    Small tables over few groups are drawn from the list of every group tuple
    the strategy satisfies; the rest by rejection.
    """
    names = [v for _, vs in prefix for v in vs]
    universal = {v for q, vs in prefix if q == "A" for v in vs}
    groups = _groups(prefix, strategy)
    keys = sorted(groups)
    valid: dict[tuple[int, int], list] = {}
    for arity, bits in set(tables):
        if len(keys) ** arity <= 8192:
            valid[arity, bits] = [
                combo
                for combo in itertools.product(keys, repeat=arity)
                if _combo_holds(arity, bits, _signature(combo))
            ]
    apps = []
    for _ in range(200 * n_apps):
        arity, bits = rng.choice(tables)
        if (arity, bits) in valid:
            if not valid[arity, bits]:
                continue
            combo = rng.choice(valid[arity, bits])
            args = []
            for key in combo:
                free = [v for v in groups[key] if v not in args] if distinct else groups[key]
                if not free:
                    break
                args.append(rng.choice(free))
            else:
                apps.append((arity, bits, tuple(args)))
        else:
            app = (arity, bits, random_args(rng, arity, names, const_p, distinct))
            if holds_under_strategy(app, strategy, universal):
                apps.append(app)
        if len(apps) == n_apps:
            return apps
    raise NoPlantingError("the strategy admits too few applications")


def planted_contradiction(rng, tables, prefix, names, const_p=0.2, max_tries=200):
    """A few applications over at most five variables of ``names`` whose
    quantified instance, under ``prefix`` cut to their variables, is false."""
    base = Instance(prefix, ())
    for _ in range(max_tries):
        pool = names if len(names) <= 3 else rng.sample(names, rng.randint(3, 5))
        apps = []
        for _ in range(10):
            arity, bits = rng.choice(tables)
            apps.append((arity, bits, random_args(rng, arity, pool, const_p, False)))
            if evaluate_recursive(restrict(base, apps)) == 0:
                return apps
    raise RuntimeError("no planted contradiction found")


def insert_randomly(rng: random.Random, apps: list, extra: list) -> list:
    out = list(apps)
    for a in extra:
        out.insert(rng.randint(0, len(out)), a)
    return out


def planted_components(rng, tables, shape, components, univ_per, exist_per, apps_per):
    """A planted instance made of independent components.

    Each component has its own variables (``univ_per`` universal and
    ``exist_per`` existential ones per existential block), its own strategy
    and its own planted applications.  Blocks list the components' variables
    in component order, so the oracle settles one component before the next
    and its cost is a sum over components rather than a product.
    """
    quants = SHAPES[shape]
    blocks = [[] for _ in quants]
    strategy = {}
    apps = []
    for c in range(components):
        comp_prefix = tuple(
            (q, tuple(f"c{c}b{j}v{i}" for i in range(univ_per if q == "A" else exist_per)))
            for j, q in enumerate(quants)
        )
        for _ in range(1000):
            comp_strategy = _strategy(rng, comp_prefix)
            try:
                apps.extend(planted_apps(rng, tables, comp_prefix, comp_strategy, apps_per))
                break
            except NoPlantingError:
                continue
        else:
            raise NoPlantingError(f"no planted {shape} component over {tables}")
        strategy.update(comp_strategy)
        for j, (_, vs) in enumerate(comp_prefix):
            blocks[j].extend(vs)
    prefix = tuple((q, tuple(vs)) for q, vs in zip(quants, blocks))
    return prefix, strategy, apps
