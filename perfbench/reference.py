"""Independent references the benchmark checks qcsp's outputs against.

Nothing here imports qcsp.  Instances use a neutral form:

* a prefix is a tuple of ``(quantifier, names)`` blocks, quantifier "E" or "A";
* an application is ``(arity, bits, args)``: ``bits`` is the packed truth
  table in qcsp's row order (row r is the assignment whose bits spell r with
  the first argument most significant), and each arg is a variable name or
  the constant 0 / 1.

The references use other algorithms than the program does: truth tables held
as big integers instead of branching with prunes, and the algebraic
characterisations of the Schaefer classes instead of closure under
polymorphisms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    prefix: tuple
    apps: tuple

    def variables(self) -> list[str]:
        return [v for _, names in self.prefix for v in names]


def row_bit(row: int, arity: int, pos: int) -> int:
    """Value of argument ``pos`` (0-based) in table row ``row``."""
    return (row >> (arity - 1 - pos)) & 1


def app_holds(arity: int, bits: int, args, assignment) -> int:
    row = 0
    for a in args:
        row = (row << 1) | (a if isinstance(a, int) else assignment[a])
    return (bits >> row) & 1


def sat_rows(arity: int, bits: int) -> list[int]:
    return [r for r in range(1 << arity) if (bits >> r) & 1]


def complement_bits(arity: int, bits: int) -> int:
    """Table read under negated arguments."""
    full = (1 << arity) - 1
    out = 0
    for r in range(1 << arity):
        out |= ((bits >> (full ^ r)) & 1) << r
    return out


# -- evaluators ------------------------------------------------------------


def evaluate_recursive(inst: Instance) -> int:
    """Plain recursion over the prefix: no pruning, the matrix at every leaf."""
    order = []
    for q, names in inst.prefix:
        order.extend((q, v) for v in names)
    assignment: dict[str, int] = {}

    def rec(i: int) -> int:
        if i == len(order):
            return int(all(app_holds(k, b, args, assignment) for k, b, args in inst.apps))
        q, v = order[i]
        values = []
        for bit in (0, 1):
            assignment[v] = bit
            values.append(rec(i + 1))
        return int(any(values)) if q == "E" else int(all(values))

    return rec(0)


def _pattern(n: int, p: int) -> int:
    """Bits of the 2^n-point space where index bit ``p`` is set."""
    points = 1 << n
    if p < 3:
        byte = (0xAA, 0xCC, 0xF0)[p]
        nbytes = max(1, points // 8)
        value = int.from_bytes(bytes([byte]) * nbytes, "little")
        return value & ((1 << points) - 1)
    half = 1 << p
    block = ((1 << half) - 1) << half
    block_bytes = block.to_bytes((2 * half) // 8, "little")
    return int.from_bytes(block_bytes * (points // (2 * half)), "little")


def matrix_table(n: int, apps, slot) -> int:
    """Satisfying set of the matrix over 2^n points, as a bitmask.

    Variable ``slot[v]`` is bit ``slot[v]`` of the point index.
    """
    full = (1 << (1 << n)) - 1
    patterns = [_pattern(n, p) for p in range(n)]
    table = full
    for arity, bits, args in apps:
        distinct = []
        for a in args:
            if not isinstance(a, int) and a not in distinct:
                distinct.append(a)
        d = len(distinct)
        # local table over the distinct variables, constants folded
        local = []
        for lr in range(1 << d):
            env = {v: (lr >> (d - 1 - i)) & 1 for i, v in enumerate(distinct)}
            local.append(app_holds(arity, bits, args, env))
        if all(local):
            continue
        # AND in the exclusion of every falsifying local row
        for lr, ok in enumerate(local):
            if ok:
                continue
            cell = full
            for i, v in enumerate(distinct):
                pat = patterns[slot[v]]
                cell &= pat if (lr >> (d - 1 - i)) & 1 else full ^ pat
            table &= full ^ cell
            if not table:
                return 0
    return table


def evaluate_table(inst: Instance) -> int:
    """Definitional evaluator over the whole truth table of the matrix.

    The outermost variable is bit 0 of the point index and the innermost the
    top bit, so each quantifier, innermost first, folds the upper half of the
    table onto the lower half with OR (exists) or AND (forall).  No prunes
    and no early exit: every point is computed.
    """
    order = inst.variables()
    quant = [q for q, names in inst.prefix for _ in names]
    n = len(order)
    slot = {v: i for i, v in enumerate(order)}
    table = matrix_table(n, inst.apps, slot)
    size = 1 << n
    for q in reversed(quant):
        size >>= 1
        lo = table & ((1 << size) - 1)
        hi = table >> size
        table = (lo | hi) if q == "E" else (lo & hi)
    return table & 1


def restrict(inst: Instance, apps) -> Instance:
    """The instance over ``apps`` alone, its prefix cut to their variables."""
    used = {a for _, _, args in apps for a in args if not isinstance(a, int)}
    prefix = []
    for q, names in inst.prefix:
        kept = tuple(v for v in names if v in used)
        if not kept:
            continue
        if prefix and prefix[-1][0] == q:
            prefix[-1] = (q, prefix[-1][1] + kept)
        else:
            prefix.append((q, kept))
    return Instance(tuple(prefix), tuple(apps))


# -- metamorphic variants ------------------------------------------------------


def complemented(inst: Instance) -> Instance:
    """Every table complemented and every constant flipped: same truth value."""
    apps = tuple(
        (k, complement_bits(k, b), tuple(1 - a if isinstance(a, int) else a for a in args))
        for k, b, args in inst.apps
    )
    return Instance(inst.prefix, apps)


def renamed(inst: Instance, rng: random.Random) -> Instance:
    names = inst.variables()
    fresh = [f"r{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    m = dict(zip(names, fresh))
    prefix = tuple((q, tuple(m[v] for v in vs)) for q, vs in inst.prefix)
    apps = tuple(
        (k, b, tuple(a if isinstance(a, int) else m[a] for a in args))
        for k, b, args in inst.apps
    )
    return Instance(prefix, apps)


def reordered(inst: Instance, rng: random.Random) -> Instance:
    apps = list(inst.apps)
    rng.shuffle(apps)
    return Instance(inst.prefix, tuple(apps))


# -- certificates ------------------------------------------------------------


def holds_under_strategy(app, strategy, universal) -> bool:
    """Whether ``app`` holds for every value of the universals it reaches,
    directly or through the strategy's copies.

    ``strategy`` maps every existential variable to ``("c", value)`` or
    ``("u", name, flip)``: a copy of a universal, negated if flip.
    """
    arity, bits, args = app
    reach = sorted(
        {a for a in args if a in universal}
        | {strategy[a][1] for a in args if a in strategy and strategy[a][0] == "u"}
    )
    for mask in range(1 << len(reach)):
        env = {u: (mask >> i) & 1 for i, u in enumerate(reach)}
        for a in args:
            if isinstance(a, int) or a in env:
                continue
            rule = strategy[a]
            env[a] = rule[1] if rule[0] == "c" else env[rule[1]] ^ rule[2]
        if not app_holds(arity, bits, args, env):
            return False
    return True


def check_strategy(inst: Instance, strategy) -> bool:
    """A planted winning strategy, checked application by application: every
    existential has a rule, every copied universal is quantified before the
    copy, and every application holds under the strategy."""
    position = {v: i for i, v in enumerate(inst.variables())}
    universal = {v for q, names in inst.prefix if q == "A" for v in names}
    for v, rule in strategy.items():
        if rule[0] == "u" and not (rule[1] in universal and position[rule[1]] < position[v]):
            return False
    if any(v not in universal and v not in strategy for v in position):
        return False
    return all(holds_under_strategy(app, strategy, universal) for app in inst.apps)


# -- Schaefer classes by their algebraic characterisations --------------------


def is_horn_ref(arity: int, bits: int) -> bool:
    """Horn iff every non-model m lies below no models or below models whose
    AND is not m (superset-AND transform over the table)."""
    n = 1 << arity
    full = n - 1
    meet = [r if (bits >> r) & 1 else full for r in range(n)]
    has = [(bits >> r) & 1 for r in range(n)]
    for i in range(arity):
        b = 1 << i
        for r in range(n):
            if not r & b:
                meet[r] &= meet[r | b]
                has[r] |= has[r | b]
    return all((bits >> r) & 1 or not has[r] or meet[r] != r for r in range(n))


def is_anti_horn_ref(arity: int, bits: int) -> bool:
    return is_horn_ref(arity, complement_bits(arity, bits))


def is_bijunctive_ref(arity: int, bits: int) -> bool:
    """Bijunctive iff the models are exactly the rows every 2-projection allows."""
    sat = sat_rows(arity, bits)
    proj = {}
    for i in range(arity):
        for j in range(i, arity):
            proj[i, j] = {(row_bit(r, arity, i), row_bit(r, arity, j)) for r in sat}
    for r in range(1 << arity):
        allowed = all(
            (row_bit(r, arity, i), row_bit(r, arity, j)) in seen
            for (i, j), seen in proj.items()
        )
        if allowed != bool((bits >> r) & 1):
            return False
    return True


def is_affine_ref(arity: int, bits: int) -> bool:
    """Affine iff the models number 2^rank of their differences over GF(2)."""
    sat = sat_rows(arity, bits)
    if not sat:
        return True
    basis: list[int] = []
    for r in sat:
        x = r ^ sat[0]
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(sat) == 1 << len(basis)


def flags_ref(arity: int, bits: int) -> dict[str, bool]:
    full = (1 << arity) - 1
    return {
        "zero_valid": bool(bits & 1),
        "one_valid": bool((bits >> full) & 1),
        "horn": is_horn_ref(arity, bits),
        "anti_horn": is_anti_horn_ref(arity, bits),
        "bijunctive": is_bijunctive_ref(arity, bits),
        "affine": is_affine_ref(arity, bits),
        "complementive": complement_bits(arity, bits) == bits,
    }


def set_flags_ref(tables) -> dict[str, bool]:
    per = [flags_ref(k, b) for k, b in tables]
    return {name: all(f[name] for f in per) for name in per[0]}


# -- clause forms and implementations ---------------------------------------------


def clause_form_ok(kind: str, arity: int, bits: int, clauses) -> bool:
    """A synthesized normal form: its clauses have the shape of ``kind`` and
    their conjunction, re-evaluated on all 2^k rows, is exactly the table."""
    for clause in clauses:
        if kind == "xor-cnf":
            vs, parity = clause
            if parity not in (0, 1) or not vs or not all(1 <= v <= arity for v in vs):
                return False
            continue
        if not clause or not all(1 <= abs(lit) <= arity for lit in clause):
            return False
        pos = sum(1 for lit in clause if lit > 0)
        neg = len(clause) - pos
        if kind == "horn-cnf" and pos > 1:
            return False
        if kind == "anti-horn-cnf" and neg > 1:
            return False
        if kind == "2cnf" and len(clause) > 2:
            return False
    for r in range(1 << arity):
        value = 1
        for clause in clauses:
            if kind == "xor-cnf":
                vs, parity = clause
                acc = 0
                for v in vs:
                    acc ^= row_bit(r, arity, v - 1)
                held = acc == parity
            else:
                held = any(row_bit(r, arity, abs(lit) - 1) == (lit > 0) for lit in clause)
            if not held:
                value = 0
                break
        if value != (bits >> r) & 1:
            return False
    return True


def projection_table(arity: int, primary, aux, apps) -> int:
    """Packed table of exists-aux of the conjunction of ``apps``, over ``primary``.

    Computed from the application tables: primary variable i is index bit i,
    auxiliaries sit above them and are folded away with OR.
    """
    order = list(primary) + list(aux)
    slot = {v: i for i, v in enumerate(order)}
    table = matrix_table(len(order), apps, slot)
    size = 1 << len(order)
    for _ in aux:
        size >>= 1
        table = (table & ((1 << size) - 1)) | (table >> size)
    # point index: primary i at bit i; qcsp rows: first argument most significant
    out = 0
    for point in range(1 << arity):
        if (table >> point) & 1:
            row = 0
            for i in range(arity):
                row |= ((point >> i) & 1) << (arity - 1 - i)
            out |= 1 << row
    return out
