"""Bounded exhaustive search for perfect implementations.

A set of applications S over primary variables X and auxiliary variables Y
perfectly implements a target constraint C when C(X) holds iff some Y makes
every application of S true.  ``check_implementation`` verifies that
equivalence exhaustively; ``find_implementation`` enumerates application sets
of a given constraint set, smallest first, and returns the first one that
checks out.  NotFound (returned as None) is definitive only within the
``max_aux``/``max_apps`` bounds.

Enumeration order is fixed -- by application count, then lexicographically by
(constraint index, argument tuple) -- so identical inputs always produce the
identical witness.  Three prunes keep the search tractable without affecting
the found/NotFound answer:

* candidates with identical satisfaction masks over the whole variable pool
  collapse to the lexicographically first one;
* auxiliary variables must be introduced in index order (variable-role
  permutations are skipped);
* a candidate that adds nothing to the search state (the set of joint
  assignments on which every chosen application holds), or that leaves a
  satisfying target row with no auxiliary witness, is skipped for the whole
  subtree below the node where it first does so.

The first two are disabled by ``canonical=False``.  The third is exact and
always on, because both of its tests are monotone in the state and the state
only shrinks down the tree: if ``state & mask == state`` then the state lies
inside the mask, and so does every descendant state; and a row emptied by
``state & mask`` stays empty under every subset of ``state``.  So a DFS node
with more than two applications still to choose is handed only the
candidates still live under its own state (the root, whose state is
everything, takes the full table), and the visit order, hence the first
witness, is unchanged.  The aux-order test depends on how many auxiliaries
are already introduced, which grows down the tree; it is checked at every
node and never used to narrow.

Call a node *live* when it passes those prunes: its applications are in
enumeration order, each introduces auxiliaries in index order, each adds
something to the state, and none empties a satisfying row.  Live nodes are
closed under prefixes, since every test is made at each node on its way
down.  Counts are tried one by one (iterative deepening), and the count-c
DFS hands every live node of depth c to its last step, which checks the
false rows: narrowing drops only candidates that are no longer live, and the
loop bounds skip only nodes with too few candidates left to reach depth c.
So the count loop stops at the first count whose DFS meets no live node of
that depth: none exists at that depth, hence none deeper, and every later
count would fail too.  The stop never changes a witness or a NotFound; it
only skips counts that cannot succeed, so a NotFound reached by it holds for
every ``max_apps``.  To see live nodes that still keep a false row, the last
step also tests those for liveness until the count has met one live node;
after that, and in the last count allowed, which has no deeper count to
skip, a candidate that keeps a false row is dropped at once.  The last step
takes the false points still in its state, ``state & neg_rows``, once per
call; since the new state is ``state & mask``, a candidate keeps a false row
exactly when its mask meets them, so it is dropped before its state is built.

The emptied-row test is one word operation on the state ``s``.  Row x of the
target owns the block of ``w = 2**a`` points from ``x << a``; ``top`` holds
the top bit of each satisfying row's block and ``low`` its other ``w - 1``
bits.  Then ``(((s & low) + low) | s) & top == top`` holds iff every
satisfying block of ``s`` is nonzero: within a block, ``(s & low) + low``
is at most ``2 * (2**(w-1) - 1) = 2**w - 2``, so no carry crosses into the
next block, and it reaches the top bit iff a lower bit of ``s`` is set; the
``| s`` adds the top bit itself.  With ``a = 0`` the mask ``low`` is 0 and
the test reads each row's single point.

Siblings at one node often lead to the same child: the same state and the
same count of introduced auxiliaries.  Each DFS call keeps the (state, aux
count) pairs of the children it has expanded and skips a child whose pair it
has already seen.  This is exact.  Everything below a child is fixed by its
state, its aux count, the depth still to choose and the candidates after it:
narrowing is exact, and the loop bounds only skip nodes that cannot reach
the depth.  An earlier twin j0 < j has every candidate after j among its own,
in the same order, so every path below j is also a path below j0, through
the same states and aux counts.  The twin was expanded first and held no
witness, or the search would have stopped; and every live node of the
count's depth below j was already met below j0.  So skipping j changes no
witness, no None and no ``reached``.  The aux count must be in the pair: it
decides which candidates the aux-order test admits below the child, and a
later sibling with more auxiliaries introduced than its twin may have paths
that the twin's subtree lacks.

The candidate table (argument tuples, constraints, masks and aux-order steps)
depends only on the constraint set, the pool size and the two flags, so it is
built once and shared by every search over the same pool, whatever the
target.  Before anything is built, a table whose masks would hold more than
``MAX_TABLE_BITS`` bits is refused with ``BudgetExceededError``.  Its size is
counted before repeated masks are dropped: one mask of 2**pool bits for each
of the n**k argument tuples of each constraint of arity k, where n is the
pool size, plus 2 when constants are allowed.  So is a table whose build
would take more than ``MAX_TABLE_BUILD_STEPS`` steps: a wide constraint over
a small pool stays under the bit bound and still has many argument tuples.

Each mask is :func:`qcsp.words.table_word` of the constraint over the
pool's variable patterns, so a tuple of a constraint of arity k costs k steps
to read and one step per leaf of its Shannon expansion, at most
``2**min(k, pool)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .evaluator import BudgetExceededError
from .model import Argument, Constraint, ConstraintApplication
from .words import patterns, table_word

# The most mask bits a candidate table may hold before it is built: one mask
# of 2**pool bits per argument tuple of each constraint, before masks that
# repeat are dropped.  2**25 bits is 4 MiB of masks; the widest table that
# verify and the tests build, One-in-Three under a ternary target at
# max_aux=10, holds about 18 million.
MAX_TABLE_BITS = 1 << 25
# The most steps building a candidate table may take: each argument tuple of
# a constraint of arity k costs k, plus 2**min(k, pool) for the leaves of its
# expansion.  A step took 0.2-0.5 us of CPU on a 2-vCPU VM, so an admitted
# table builds in about half a second at most (0.26 s was the most measured
# near the bound); the widest table that verify, the tests and the benchmark
# build, One-in-Three under a ternary target at max_aux=10, takes 24,167.
MAX_TABLE_BUILD_STEPS = 1 << 20


@dataclass(frozen=True)
class Implementation:
    target: Constraint
    primary_vars: tuple[str, ...]
    aux_vars: tuple[str, ...]
    apps: tuple[ConstraintApplication, ...]

    def __post_init__(self) -> None:
        if len(self.primary_vars) != self.target.arity:
            raise ValueError("primary variable count must equal the target arity")
        names = set(self.primary_vars + self.aux_vars)
        if len(names) != len(self.primary_vars) + len(self.aux_vars):
            raise ValueError("a variable name repeats across primaries and auxiliaries")
        for ap in self.apps:
            for v in ap.variables():
                if v not in names:
                    raise ValueError(
                        f"{ap!r} uses {v!r}, which is neither a primary "
                        "nor an auxiliary"
                    )


def identity_implementation(target: Constraint) -> Implementation:
    xs = tuple(f"x{i + 1}" for i in range(target.arity))
    return Implementation(
        target,
        xs,
        (),
        (ConstraintApplication(target, tuple(Argument(var=v) for v in xs)),),
    )


def check_implementation(impl: Implementation) -> bool:
    """Exhaustively verify C(X) <=> exists Y with all applications true.

    Each variable is read from its bit of the point ``(x << a) | y``, first
    variable of each group most significant.  An application becomes its
    table, the row its constant arguments spell, and (point bit, row bit)
    pairs for its variable arguments; each point builds every row by shifts
    until one misses its table.  Nothing here reads the search's masks.
    """
    m = len(impl.primary_vars)
    a = len(impl.aux_vars)
    bit_of = {v: a + m - 1 - i for i, v in enumerate(impl.primary_vars)}
    bit_of.update((v, a - 1 - i) for i, v in enumerate(impl.aux_vars))
    apps = []
    for ap in impl.apps:
        k = ap.constraint.arity
        const_row = 0
        pairs = []
        for pos, arg in enumerate(ap.args):
            if arg.is_const:
                const_row |= arg.const << (k - 1 - pos)
            else:
                pairs.append((bit_of[arg.var], k - 1 - pos))
        apps.append((ap.constraint.bits, const_row, pairs))
    for x in range(1 << m):
        got = 0
        for point in range(x << a, (x + 1) << a):
            for bits, row, pairs in apps:
                for src, dst in pairs:
                    row |= ((point >> src) & 1) << dst
                if not (bits >> row) & 1:
                    break
            else:
                got = 1
                break
        if got != impl.target.value_on(x):
            return False
    return True


def _coverage_masks(target: Constraint, a: int) -> tuple[int, int]:
    """The masks of the test ``(((s & low) + low) | s) & top == top`` that
    state ``s`` keeps a point in every satisfying row of ``target`` (see the
    module docstring)."""
    width = 1 << a
    low_block = (1 << (width - 1)) - 1
    low = top = 0
    for x in target.satisfying_rows():
        low |= low_block << (x << a)
        top |= 1 << ((x << a) + width - 1)
    return low, top


def _canonical_step(args: tuple[int, ...], m: int, a: int, introduced: int) -> int:
    """Next introduced-aux count, or -1 if args skip an aux index."""
    nxt = introduced
    for p in args:
        if m <= p < m + a:
            rel = p - m
            if rel == nxt:
                nxt += 1
            elif rel > nxt:
                return -1
    return nxt


@lru_cache(maxsize=16)
def _candidate_table(
    constraints: tuple[Constraint, ...],
    m: int,
    a: int,
    allow_constants: bool,
    canonical: bool,
) -> tuple[tuple, tuple, tuple, tuple]:
    """Candidate applications over ``m`` primaries and ``a`` auxiliaries.

    Returns four parallel tuples in enumeration order: the argument tuple
    (pool positions ``m + a`` and ``m + a + 1`` stand for the constants 0
    and 1), the constraint, the satisfaction mask, and the step table
    (entry ``i`` is the introduced-aux count after the candidate when ``i``
    were introduced before it, -1 when it skips an index; all 0 when not
    ``canonical``).  With ``canonical`` each mask is kept only at its first
    candidate.  Nothing here depends on the target or the application bound,
    so every search over the same pool shares the table.
    """
    pool = m + a
    # point (x << a) | y holds pool position p in bit pool - 1 - p
    pool_patterns = patterns(pool)
    full_state = (1 << (1 << pool)) - 1
    arg_values = list(range(pool))
    if allow_constants:
        arg_values += [pool, pool + 1]
    no_steps = (0,) * (a + 1)

    cand_args: list[tuple[int, ...]] = []
    cand_constraint: list[Constraint] = []
    cand_mask: list[int] = []
    cand_step: list[tuple[int, ...]] = []
    seen_masks: set[int] = set()
    for c in constraints:
        for args in product(arg_values, repeat=c.arity):
            # the constants' row, and each variable's summed weight
            row = 0
            weights: dict[int, int] = {}
            w = 1 << c.arity
            for p in args:
                w >>= 1
                if p < pool:
                    weights[pool - 1 - p] = weights.get(pool - 1 - p, 0) + w
                elif p > pool:
                    row += w
            mask = table_word(
                c.bits, row, list(weights.items()), pool_patterns, full_state
            )
            if canonical:
                if mask in seen_masks:
                    continue
                seen_masks.add(mask)
            cand_args.append(args)
            cand_constraint.append(c)
            cand_mask.append(mask)
            cand_step.append(
                tuple(_canonical_step(args, m, a, i) for i in range(a + 1))
                if canonical
                else no_steps
            )
    return tuple(cand_args), tuple(cand_constraint), tuple(cand_mask), tuple(cand_step)


def _check_bounds(max_aux: int, max_apps: int) -> None:
    """Raise ValueError when either search bound is negative."""
    for name, bound in (("max_aux", max_aux), ("max_apps", max_apps)):
        if bound < 0:
            raise ValueError(f"{name} must be non-negative, got {bound}")


def find_implementation(
    constraints,
    target: Constraint,
    max_aux: int = 6,
    max_apps: int = 8,
    *,
    canonical: bool = True,
    allow_constants: bool = False,
) -> Implementation | None:
    """First application set of ``constraints`` implementing ``target``.

    Searches over ``target.arity`` primary variables plus up to ``max_aux``
    auxiliaries; returns None when the bounded space is exhausted, or as
    soon as no set of some count is still live (see the module docstring).
    Every returned witness is re-verified with :func:`check_implementation`.
    Raises ValueError when either bound is negative, and
    :class:`BudgetExceededError` when the candidate table would hold more
    than ``MAX_TABLE_BITS`` mask bits or take more than
    ``MAX_TABLE_BUILD_STEPS`` steps to build.
    """
    _check_bounds(max_aux, max_apps)
    constraints = tuple(constraints)
    m = target.arity
    a = max_aux
    pool = m + a
    n = pool + 2 if allow_constants else pool
    table_bits = sum(n**c.arity for c in constraints) << pool
    if table_bits > MAX_TABLE_BITS:
        raise BudgetExceededError(
            f"candidate table of {table_bits} bits exceeds the limit of "
            f"{MAX_TABLE_BITS} (target arity {m}, max_aux={a})"
        )
    steps = sum(
        n**c.arity * (c.arity + (1 << min(c.arity, pool))) for c in constraints
    )
    if steps > MAX_TABLE_BUILD_STEPS:
        raise BudgetExceededError(
            f"candidate table of {steps} build steps exceeds the limit of "
            f"{MAX_TABLE_BUILD_STEPS} (target arity {m}, max_aux={a})"
        )
    primary = tuple(f"x{i + 1}" for i in range(m))
    aux = tuple(f"y{i + 1}" for i in range(a))
    full_state = (1 << (1 << pool)) - 1
    cand_args, cand_constraint, cand_mask, cand_step = _candidate_table(
        constraints, m, a, allow_constants, canonical
    )

    # The state is the set of joint points (x << a) | y on which every chosen
    # application holds.  Row x of the target owns the block of 2**a points
    # starting at x << a; the chosen set implements the target once each
    # satisfying row keeps a point and each other row keeps none.  The test
    # for the first is written out at each use: a call costs more than it.
    y_all = (1 << (1 << a)) - 1
    low, top = _coverage_masks(target, a)
    neg_rows = sum(y_all << (x << a) for x in range(1 << m) if not target.value_on(x))

    chosen: list[int] = []

    def narrowed(state: int, cands) -> tuple[list[int], list[int]]:
        """The candidates that still add something under ``state`` without
        emptying a satisfying row, and the states they lead to."""
        live = []
        states = []
        for idx in cands:
            new_state = state & cand_mask[idx]
            if (
                new_state != state
                and (((new_state & low) + low) | new_state) & top == top
            ):
                live.append(idx)
                states.append(new_state)
        return live, states

    reached = False  # whether the current count has met a live node of its depth

    def finish(live, start: int, state: int, introduced: int) -> bool:
        """Choose the last application from ``live[start:]``.

        Until ``reached``, a candidate that keeps a false row is still tested
        for liveness, and the first live one sets ``reached``; after that it
        is dropped before its state is built.
        """
        nonlocal reached
        false = state & neg_rows  # a mask meets these iff it keeps a false row
        for idx in live[start:]:
            mask = cand_mask[idx]
            if reached and mask & false:
                continue
            new_state = state & mask
            if (
                new_state != state
                and cand_step[idx][introduced] >= 0
                and (((new_state & low) + low) | new_state) & top == top
            ):
                if not mask & false:
                    chosen.append(idx)
                    return True
                reached = True
        return False

    def dfs(live, states, start: int, depth: int, state: int, introduced: int) -> bool:
        """Choose ``depth`` more applications, in order, from ``live[start:]``.

        ``states`` is None, or holds the state each entry of ``live`` leads
        to from ``state`` when ``live`` was narrowed under ``state`` itself.
        """
        if depth == 1:
            return finish(live, start, state, introduced)
        seen = set()  # (state, aux count) of the children expanded so far
        for j in range(start, len(live) - depth + 1):
            idx = live[j]
            nxt = cand_step[idx][introduced]
            if nxt < 0:
                continue  # skips an aux index: a permutation of another set
            if states is not None:
                new_state = states[j]
            else:
                new_state = state & cand_mask[idx]
                if new_state == state:
                    continue  # adds nothing; a smaller witness would already exist
                if (((new_state & low) + low) | new_state) & top != top:
                    continue  # some satisfying target row lost all witnesses
            key = (new_state, nxt)
            if key in seen:
                continue  # its subtree lies inside an earlier sibling's
            seen.add(key)
            chosen.append(idx)
            if depth > 3:
                child, child_states = narrowed(new_state, live[j + 1 :])
                found = dfs(child, child_states, 0, depth - 1, new_state, nxt)
            else:
                found = dfs(live, None, j + 1, depth - 1, new_state, nxt)
            if found:
                return True
            chosen.pop()
        return False

    def build(indices: list[int]) -> Implementation:
        used_aux = sorted(
            {p - m for idx in indices for p in cand_args[idx] if m <= p < pool}
        )
        apps = []
        for idx in indices:
            args = []
            for p in cand_args[idx]:
                if p < m:
                    args.append(Argument(var=primary[p]))
                elif p < pool:
                    args.append(Argument(var=aux[p - m]))
                else:
                    args.append(Argument(const=p - pool))
            apps.append(ConstraintApplication(cand_constraint[idx], tuple(args)))
        return Implementation(
            target, primary, tuple(aux[i] for i in used_aux), tuple(apps)
        )

    for count in range(0, max_apps + 1):
        chosen.clear()
        reached = count == max_apps  # the last count has no deeper one to skip
        if count == 0:
            if full_state & neg_rows:
                continue
        elif not dfs(range(len(cand_mask)), None, 0, count, full_state, 0):
            if not reached:
                return None  # the live tree ends above this depth
            continue
        impl = build(chosen)
        if not check_implementation(impl):
            raise RuntimeError("search returned a witness that fails verification")
        return impl
    return None
