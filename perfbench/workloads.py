"""The four workloads: seeded inputs, warm-up, timed operations and checks.

Inputs are generated in the neutral form of :mod:`reference` before qcsp is
imported, so generation is not part of set-up; :meth:`Workload.bind` turns
them into qcsp objects and computes every expected output from the
references, before the timed phase.  Every ``Op.run`` calls qcsp through
module attributes, so that a traced run sees the calls it wraps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import reference as ref
from instances import (
    SHAPES,
    cut_prefix,
    insert_randomly,
    planted_apps,
    planted_components,
    planted_contradiction,
    planted_prefix,
)
from reference import Instance
from tables import TABLE_OF_CLASS

OIT = (3, int("01101000"[::-1], 2))
CNF3 = tuple((3, int(t[::-1], 2)) for t in ("01111111", "10111111", "11101111", "11111110"))

KIND_OF_CLASS = {
    "horn": "horn-cnf",
    "anti-horn": "anti-horn-cnf",
    "bijunctive": "2cnf",
    "affine": "xor-cnf",
}
DISPATCH_ORDER = ("affine", "bijunctive", "horn", "anti-horn")
FLAG_OF_CLASS = {"horn": "horn", "anti-horn": "anti_horn", "bijunctive": "bijunctive", "affine": "affine"}


@dataclass(eq=False)  # hashed by identity: one entry per operation
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


def table_name(arity: int, bits: int) -> str:
    return f"C{arity}_{bits}"


class Binder:
    """Builds qcsp objects from neutral instances, one Constraint per table."""

    def __init__(self, q):
        self.q = q
        self.constraints: dict[tuple[int, int], object] = {}

    def constraint(self, arity: int, bits: int):
        key = (arity, bits)
        if key not in self.constraints:
            self.constraints[key] = self.q.model.Constraint(table_name(arity, bits), arity, bits)
        return self.constraints[key]

    def expr(self, inst: Instance):
        m = self.q.model
        prefix = tuple(
            m.QuantifierBlock(m.Quantifier.EXISTS if qn == "E" else m.Quantifier.FORALL, vs)
            for qn, vs in inst.prefix
        )
        apps = tuple(
            m.ConstraintApplication(
                self.constraint(k, b),
                tuple(m.Argument(const=a) if isinstance(a, int) else m.Argument(var=a) for a in args),
            )
            for k, b, args in inst.apps
        )
        return m.QuantifiedExpression(prefix, apps)


def neutral(expr) -> Instance:
    """A qcsp expression in the references' neutral form."""
    prefix = tuple(("E" if b.quantifier.value == "E" else "A", tuple(b.vars)) for b in expr.prefix)
    apps = tuple(
        (a.constraint.arity, a.constraint.bits, tuple(x.const if x.is_const else x.var for x in a.args))
        for a in expr.matrix
    )
    return Instance(prefix, apps)


def render_document(inst: Instance, tables) -> str:
    lines = []
    for k, bits in tables:
        row_string = "".join(str((bits >> r) & 1) for r in range(1 << k))
        lines.append(f"constraint {table_name(k, bits)} arity {k} := table {row_string};")
    prefix = " ; ".join(f"{q} {' '.join(vs)}" for q, vs in inst.prefix)
    apps = ",\n  ".join(f"{table_name(k, b)}({', '.join(str(a) for a in args)})" for k, b, args in inst.apps)
    lines.append(f"expr main := {prefix} :\n  {apps};")
    return "\n".join(lines) + "\n"


def expect_value(want: int) -> Callable[[object], str | None]:
    def check(value):
        return None if value == want else f"returned {value}, expected {want}"

    return check


def dispatched_class(tables) -> str | None:
    flags = ref.set_flags_ref(tables)
    for cls in DISPATCH_ORDER:
        if flags[FLAG_OF_CLASS[cls]]:
            return cls
    return None


def clause_form_problems(q, tables, cls: str) -> list[str]:
    """Re-evaluate the normal form the solver for ``cls`` uses, per table.

    The anti-Horn solver complements the expression and runs the Horn one, so
    its forms are the Horn forms of the complemented tables.
    """
    problems = []
    kinds = {k.value: k for k in q.solvers.NormalFormKind}
    for arity, bits in tables:
        if cls == "anti-horn":
            kind, bits = "horn-cnf", ref.complement_bits(arity, bits)
        else:
            kind = KIND_OF_CLASS[cls]
        c = q.model.Constraint(table_name(arity, bits), arity, bits)
        form = q.solvers.synthesize_normal_form(c, kinds[kind])
        if form is None or form.kind.value != kind or form.arity != arity:
            problems.append(f"{table_name(arity, bits)}: no {kind} form")
        elif not ref.clause_form_ok(kind, arity, bits, form.clauses):
            problems.append(f"{table_name(arity, bits)}: {kind} form does not match its table")
    return problems


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")

    def warm_up(self, q) -> None:
        raise NotImplementedError

    def bind(self, q) -> list[str]:
        """Build the operations; returns the problems the pre-run checks found."""
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        return self.ops


# -- decide-tractable -------------------------------------------------------------

TRACTABLE_SIZES = tuple(round(200 * 2 ** (j / 3)) for j in range(10))  # 200 .. 1600


class DecideTractable(Workload):
    """Large Schaefer-class documents, parsed and decided by solve_auto."""

    name = "decide-tractable"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        # The library is the same for every seed: its normal-form sizes swing
        # a class's solving cost by up to 2x and the synthesis in set-up by 4x
        # from one draw to the next, which would hide a change in the program.
        library_rng = random.Random(f"{self.name}/library")
        self.libraries = {
            cls: distinct_tables(library_rng, cls, (3, 3, 4, 4, 5, 5, 6, 6)) for cls in DISPATCH_ORDER
        }
        self.cases = []  # (label, instance, truth, certificate, text)
        for ci, cls in enumerate(DISPATCH_ORDER):
            lib = self.libraries[cls]
            for si, shape in enumerate(("S1", "P2", "S3")):
                for j, n in enumerate(TRACTABLE_SIZES):
                    truth = int((j + si + ci) % 3 != 0)
                    n_univ = 0 if shape == "S1" else n // 10
                    prefix, strategy = planted_prefix(rng, shape, n, n_univ)
                    apps = planted_apps(rng, lib, prefix, strategy, n // 4, const_p=0.03, distinct=False)
                    if truth:
                        cert = ("strategy", strategy)
                    else:
                        names = [v for _, vs in prefix for v in vs]
                        bad = planted_contradiction(rng, lib, prefix, names)
                        apps = insert_randomly(rng, apps, bad)
                        cert = ("contradiction", bad)
                    inst = Instance(prefix, tuple(apps))
                    label = f"{cls}/{shape}/n={n}/{'true' if truth else 'false'}"
                    self.cases.append((label, inst, truth, cert, render_document(inst, lib)))
        rng.shuffle(self.cases)

    def warm_up(self, q) -> None:
        # one small document per class that applies every library table, so
        # the normal-form cache holds every table the timed operations use
        for cls, lib in self.libraries.items():
            names = [f"w{i}" for i in range(12)]
            apps = [(k, b, tuple(names[:k])) for k, b in lib]
            inst = Instance((("E", tuple(names)),), tuple(apps))
            doc = q.parser.parse_document(render_document(inst, lib))
            q.solvers.solve_auto(doc.expressions["main"])

    def bind(self, q) -> list[str]:
        problems = []
        for cls, lib in self.libraries.items():
            if dispatched_class(lib) != cls:
                problems.append(f"library {cls} dispatches to {dispatched_class(lib)}")
            problems += clause_form_problems(q, lib, cls)
        binder = Binder(q)
        rng = random.Random(f"metamorphic/{self.seed}")
        self.ops = []
        for i, (label, inst, truth, (kind, cert), text) in enumerate(self.cases):
            if kind == "strategy":
                if not ref.check_strategy(inst, cert):
                    problems.append(f"{label}: planted strategy fails")
            elif not (
                all(a in inst.apps for a in cert)
                and ref.evaluate_recursive(ref.restrict(inst, cert)) == 0
            ):
                problems.append(f"{label}: planted contradiction is not one")
            if i % 2 == 0:
                variant = (
                    ref.complemented(inst),
                    ref.renamed(inst, rng),
                    ref.reordered(inst, rng),
                )[(i // 2) % 3]
                got = q.solvers.solve_auto(binder.expr(variant))
                if got != truth:
                    problems.append(f"{label}: metamorphic variant {(i // 2) % 3} gives {got}")
            self.ops.append(Op(label, _parse_and_solve(q, text), expect_value(truth)))
        return problems


def distinct_tables(rng: random.Random, cls: str, arities) -> list[tuple[int, int]]:
    tables: list[tuple[int, int]] = []
    for k in arities:
        while True:
            table = (k, TABLE_OF_CLASS[cls](rng, k))
            if table not in tables:
                tables.append(table)
                break
    return tables


def _parse_and_solve(q, text):
    def run():
        return q.solvers.solve_auto(q.parser.parse_document(text).expressions["main"])

    return run


# -- decide-hard -------------------------------------------------------------------


def non_schaefer_pair(rng: random.Random):
    """Two ternary tables that together are in no Schaefer class."""
    while True:
        pair = [(3, rng.getrandbits(8)) for _ in range(2)]
        if any(not 3 <= bin(b).count("1") <= 6 for _, b in pair):
            continue
        flags = ref.set_flags_ref(pair)
        if not any(flags[f] for f in ("horn", "anti_horn", "bijunctive", "affine")):
            return pair


# (components, universals per component, existentials per block, applications
# per component) for the component families; 16-22 variables each.  Three Pi2
# rungs have 12 universals: their true instances are the costliest seventh of
# the operations, so p90 falls inside that cluster rather than at its edge.
HARD_COMPONENT_LADDER = {
    "P2": ((4, 2, 2, 6), (6, 1, 2, 5), (5, 2, 2, 7), (4, 3, 2, 8), (3, 4, 3, 9), (2, 6, 2, 8)),
    "S3": ((3, 3, 2, 8), (3, 2, 2, 7), (2, 4, 3, 9), (2, 5, 3, 9), (4, 1, 2, 6), (2, 6, 2, 9)),
}
# truth values drawn at every rung: two of three instances are true
HARD_TRUTHS = (1, 1, 0, 1, 1, 0)
HARD_S2_LADDER = ((16, 10, 26), (16, 11, 27), (17, 11, 28), (17, 12, 29), (18, 12, 30), (18, 13, 31))


class DecideHard(Workload):
    """Alternation-bounded instances over non-Schaefer sets, sent to the oracle."""

    name = "decide-hard"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.families = {"oit": (OIT,), "cnf3": CNF3, "rnd": tuple(non_schaefer_pair(rng))}
        self.cases = []  # (label, instance)
        for fam, tables in self.families.items():
            for shape in ("P2", "S3"):
                for cfg in HARD_COMPONENT_LADDER[shape]:
                    for truth in HARD_TRUTHS:
                        self.cases.append(self._component_case(rng, fam, tables, shape, cfg, truth))
        for n, n_univ, m in HARD_S2_LADDER:
            for truth in HARD_TRUTHS:
                prefix, strategy = planted_prefix(rng, "S2", n, n_univ)
                apps = planted_apps(rng, CNF3, prefix, strategy, m)
                if not truth:
                    apps = insert_randomly(rng, apps, self._refutation(rng, CNF3, prefix))
                label = f"cnf3/S2/n={n}/{'true' if truth else 'false'}"
                self.cases.append((label, Instance(prefix, tuple(apps))))
        rng.shuffle(self.cases)

    @staticmethod
    def _refutation(rng, tables, prefix):
        """A contradiction over two universals and one existential quantified
        after them, so the oracle finds it only at some universal branch."""
        first_a = next(j for j, (q, _) in enumerate(prefix) if q == "A")
        univ = [v for q, vs in prefix if q == "A" for v in vs]
        later = [v for q, vs in prefix[first_a:] if q == "E" for v in vs]
        names = rng.sample(univ, min(2, len(univ))) + rng.sample(later or univ, 1)
        return planted_contradiction(rng, tables, prefix, names, const_p=0.0)

    def _component_case(self, rng, fam, tables, shape, cfg, truth):
        comps, univ_per, exist_per, apps_per = cfg
        prefix, _, apps = planted_components(rng, tables, shape, comps, univ_per, exist_per, apps_per)
        if not truth:
            apps = insert_randomly(rng, apps, self._refutation(rng, tables, prefix))
        n = sum(len(vs) for _, vs in prefix)
        label = f"{fam}/{shape}/n={n}/{'true' if truth else 'false'}"
        return label, Instance(prefix, tuple(apps))

    def warm_up(self, q) -> None:
        binder = Binder(q)
        for tables in self.families.values():
            names = [f"w{i}" for i in range(6)]
            apps = tuple((k, b, tuple(names[i : i + k])) for i, (k, b) in enumerate(tables))
            q.solvers.solve_auto(binder.expr(Instance((("A", tuple(names[:3])), ("E", tuple(names[3:]))), apps)))

    def bind(self, q) -> list[str]:
        problems = []
        for fam, tables in self.families.items():
            if dispatched_class(tables) is not None:
                problems.append(f"family {fam} is Schaefer")
        binder = Binder(q)
        self.ops = []
        for label, inst in self.cases:
            want = ref.evaluate_table(inst)
            if want != int(label.endswith("true")):
                problems.append(f"{label}: the definitional evaluator gives {want}")
            expr = binder.expr(inst)
            self.ops.append(Op(label, _solve(q, expr), expect_value(want)))
        return problems


def _solve(q, expr):
    def run():
        return q.solvers.solve_auto(expr)

    return run


# -- synth-fresh ------------------------------------------------------------------

# class -> rungs (arity, fewest and most satisfying rows, operations per round).
# The closure checks grow with the satisfying rows and Horn synthesis with the
# falsifying ones, so the rungs spread the costs over tens to hundreds of ms
# without gaps.  Affine tables have 2^rank rows: the rungs fix the rank.
SYNTH_RUNGS = {
    "horn": ((5, 10, 16, 4), (6, 40, 50, 5), (6, 30, 39, 5), (6, 24, 29, 5), (6, 18, 23, 5)),
    "anti-horn": ((5, 10, 16, 4), (6, 40, 50, 5), (6, 30, 39, 5), (6, 24, 29, 5), (6, 18, 23, 5)),
    "bijunctive": ((7, 40, 60, 7), (7, 61, 80, 7), (8, 40, 60, 7), (8, 61, 90, 7)),
    "affine": ((7, 4, 4, 7), (8, 4, 4, 7), (8, 8, 8, 7), (8, 16, 16, 7)),
}


def fresh_table(rng: random.Random, cls: str, arity: int, lo: int, hi: int) -> int:
    if cls == "affine":
        return TABLE_OF_CLASS[cls](rng, arity, lo.bit_length() - 1)
    while True:
        bits = TABLE_OF_CLASS[cls](rng, arity)
        if lo <= bin(bits).count("1") <= hi:
            return bits


class SynthFresh(Workload):
    """Fresh tractable sets: classify_set, then solve_auto on a small instance.

    Every round draws new tables, so normal-form synthesis always starts cold.
    """

    name = "synth-fresh"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.q = None

    def _cases(self, r: int):
        rng = random.Random(f"{self.name}/{self.seed}/round{r}")
        cases = []
        for cls, rungs in SYNTH_RUNGS.items():
            for arity, lo, hi, count in rungs:
                for _ in range(count):
                    tables = [(arity, fresh_table(rng, cls, arity, lo, hi)), (3, TABLE_OF_CLASS[cls](rng, 3))]
                    shape = rng.choice(("S1", "P2", "S3"))
                    names = [f"v{j}" for j in range(rng.randint(8, 12))]
                    prefix = cut_prefix(rng, SHAPES[shape], names)
                    # every table applied at least once, constants one argument in ten
                    apps = tuple(
                        (k, b, tuple(rng.randint(0, 1) if rng.random() < 0.1 else rng.choice(names) for _ in range(k)))
                        for k, b in tables + [rng.choice(tables) for _ in range(rng.randint(0, 2))]
                    )
                    cases.append((f"{cls}/arity={arity}/{shape}", cls, tables, Instance(prefix, apps)))
        rng.shuffle(cases)
        return cases

    def warm_up(self, q) -> None:
        binder = Binder(q)
        rng = random.Random(0)
        tables = [(3, TABLE_OF_CLASS["horn"](rng, 3))]
        q.classifier.classify_set([binder.constraint(*t) for t in tables])
        q.solvers.solve_auto(binder.expr(Instance((("E", ("a", "b", "c")),), ((3, tables[0][1], ("a", "b", "c")),))))

    def bind(self, q) -> list[str]:
        self.q = q
        return []

    def round_ops(self, r: int) -> list[Op]:
        q = self.q
        binder = Binder(q)
        ops = []
        for label, cls, tables, inst in self._cases(r):
            flags = ref.set_flags_ref(tables)
            cs = [binder.constraint(*t) for t in tables]
            want = ref.evaluate_recursive(inst)
            ops.append(Op(label, _classify_and_solve(q, cs, binder.expr(inst)), _synth_check(q, cls, tables, flags, want)))
        return ops


def _classify_and_solve(q, cs, expr):
    def run():
        report = q.classifier.classify_set(cs)
        return report, q.solvers.solve_auto(expr)

    return run


def _synth_check(q, cls, tables, flags, want):
    def check(result):
        report, value = result
        problems = []
        if report.flags.as_dict() != flags:
            problems.append(f"flags {report.flags.as_dict()} != {flags}")
        if value != want:
            problems.append(f"returned {value}, expected {want}")
        if dispatched_class(tables) != cls:
            problems.append(f"set dispatches to {dispatched_class(tables)}")
        problems += clause_form_problems(q, tables, cls)
        return "; ".join(problems) or None

    return check


# -- reduce-implement ---------------------------------------------------------------

REMOVE_PER_CASE_LEVEL = 6
# Ternary targets outside the frozen list by the size of their smallest
# One-in-Three implementation, which sets the cost of the search: up to three
# applications take 4-14 ms, four 16-55 ms, five 110-260 ms.  A fixed number
# is drawn from each size so that p50 and p90 do not move between clusters
# from one seed to the next.
FOUR_APPLICATION_TARGETS = (
    14, 44, 47, 50, 56, 59, 62, 74, 79, 84, 88, 93, 94, 98, 100, 104, 111, 115, 117, 118, 123,
    125, 127, 131, 133, 134, 137, 145, 146, 148, 155, 157, 159, 161, 167, 168, 171, 181, 183,
    189, 193, 199, 200, 205, 211, 215, 219, 224, 231, 238, 239, 241, 250, 251, 252, 253,
)
FIVE_APPLICATION_TARGETS = (
    43, 46, 58, 77, 78, 92, 105, 107, 109, 110, 113, 114, 116, 121, 122, 124, 135, 139, 141,
    142, 143, 147, 149, 151, 152, 154, 156, 158, 163, 164, 166, 169, 173, 174, 177, 178, 179,
    180, 182, 185, 186, 190, 194, 197, 198, 201, 203, 206, 209, 210, 212, 213, 214, 217, 220,
    222, 225, 227, 229, 235, 237, 242, 244, 246, 249,
)
TARGETS_PER_SIZE = 16
# Two fixed members of the frozen list, whose searches exhaust at (6, 8) in
# about 3 s each.  Fixed rather than drawn, because these two searches are
# most of a round's time and their costs differ by up to 1.7x across the list.
WIDE_TARGETS = (126, 216)


class ReduceImplement(Workload):
    """Constant removal for the five cases and perfect-implementation search."""

    name = "reduce-implement"

    def warm_up(self, q) -> None:
        q.implsearch.find_implementation([q.presets.OIT], q.model.Constraint("W", 2, 0b0110), 6, 8)

    def bind(self, q) -> list[str]:
        rng = self.rng
        binder = Binder(q)
        self.ops = []
        for case, family in q.verify.CASE_FAMILIES.items():
            for c in family:  # remove_constants matches the set's own objects
                binder.constraints[c.arity, c.bits] = c
            tables = [(c.arity, c.bits) for c in family]
            for level in (2, 3):
                for _ in range(REMOVE_PER_CASE_LEVEL):
                    inst = _with_constants(rng, tables, level)
                    self.ops.append(
                        Op(
                            f"remove_constants/{case.name}/level={level}",
                            _remove(q, binder.expr(inst), list(family), level),
                            _removal_check(case, level, inst, ref.evaluate_table(inst)),
                        )
                    )
        oit = q.presets.OIT
        larger = set(FOUR_APPLICATION_TARGETS + FIVE_APPLICATION_TARGETS)
        small = [b for b in range(256) if b not in larger | q.verify.TERNARY_NEEDING_WIDE_SEARCH]
        targets = [(2, b) for b in range(16)]
        for group in (small, FOUR_APPLICATION_TARGETS, FIVE_APPLICATION_TARGETS):
            targets += [(3, b) for b in rng.sample(group, TARGETS_PER_SIZE)]
        targets += [(3, b) for b in WIDE_TARGETS]
        for arity, bits in targets:
            target = q.model.Constraint(f"T{arity}_{bits}", arity, bits)
            exhausts = arity == 3 and bits in q.verify.TERNARY_NEEDING_WIDE_SEARCH
            self.ops.append(
                Op(
                    f"find_implementation/arity={arity}/{'exhaust' if exhausts else 'found'}",
                    _implement(q, oit, target),
                    _implementation_check(arity, bits, exhausts),
                )
            )
        rng.shuffle(self.ops)
        return []


def _with_constants(rng: random.Random, tables, level: int) -> Instance:
    """A level-shaped instance over ``tables`` with at least one constant."""
    quants = "EAE"[:level] if level % 2 else "AE"
    while True:
        names = [f"v{j}" for j in range(rng.randint(level, 5))]
        prefix = cut_prefix(rng, quants, names)
        apps = []
        for _ in range(rng.randint(2, 4)):
            k, b = rng.choice(tables)
            apps.append((k, b, tuple(rng.randint(0, 1) if rng.random() < 0.3 else rng.choice(names) for _ in range(k))))
        used = {a for _, _, args in apps for a in args}
        if used & {0, 1} and used - {0, 1} == set(names):
            return Instance(prefix, tuple(apps))


def _remove(q, expr, family, level):
    def run():
        return q.gadgets.remove_constants(expr, family, level)

    return run


def _implement(q, oit, target):
    def run():
        return q.implsearch.find_implementation([oit], target, 6, 8)

    return run


def _removal_check(case, level, inst, want):
    checked: dict[str, str | None] = {}

    def check(result):
        key = repr(result)
        if key not in checked:
            checked[key] = _removal_problems(case, level, inst, want, result)
        return checked[key]

    return check


def _removal_problems(case, level, inst, want, result):
    if result.case_used is not case:
        return f"case {result.case_used} != {case}"
    for impl in result.implementations_used:
        problem = _projection_problem(impl)
        if problem:
            return problem
    if result.expression is None:
        return None if want == 0 else "trivially false, but the input is true"
    out = neutral(result.expression)
    if any(isinstance(a, int) for _, _, args in out.apps for a in args):
        return "output has constants"
    quants = "".join(q for q, _ in out.prefix)
    expected_quants = "".join(q for q, _ in inst.prefix)
    if len(quants) > level or (quants and quants[0] != ("E" if level % 2 else "A")):
        return f"output prefix {quants} does not fit level {level}"
    if len(expected_quants) == level and len(quants) != level:
        return f"output has {len(quants)} blocks, input {len(expected_quants)}"
    got = ref.evaluate_table(out)
    return None if got == want else f"output value {got}, input value {want}"


def _projection_problem(impl):
    apps = [
        (a.constraint.arity, a.constraint.bits, tuple(x.const if x.is_const else x.var for x in a.args))
        for a in impl.apps
    ]
    table = ref.projection_table(impl.target.arity, impl.primary_vars, impl.aux_vars, apps)
    if table != impl.target.bits:
        return f"witness for {impl.target.name} projects to {table}, not {impl.target.bits}"
    return None


def _implementation_check(arity, bits, exhausts):
    def check(impl):
        if impl is None:
            return None if exhausts else f"no implementation found for {arity}/{bits}"
        if exhausts:
            return f"found an implementation for frozen wide target {bits}"
        if impl.target.bits != bits or len(impl.aux_vars) > 6 or len(impl.apps) > 8:
            return "witness outside the search bounds"
        return _projection_problem(impl)

    return check


WORKLOADS = {
    w.name: w for w in (DecideTractable, DecideHard, SynthFresh, ReduceImplement)
}
