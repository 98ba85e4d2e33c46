"""Self-test of the benchmark's references against qcsp on tiny inputs.

    python3 perfbench/selftest.py

Each reference must agree with the program where both apply, and must
reject a deliberately broken input, so that a check that always passes
would show here.  Exits 1 on the first disagreement.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qcsp  # noqa: E402
from qcsp import implsearch, solvers  # noqa: E402

import reference as ref  # noqa: E402
from instances import NoPlantingError, planted_apps, planted_contradiction, planted_prefix  # noqa: E402
from workloads import OIT, Binder, neutral  # noqa: E402


def random_instance(rng: random.Random) -> ref.Instance:
    n = rng.randint(1, 8)
    names = [f"v{i}" for i in range(n)]
    prefix, i, q = [], 0, rng.choice("EA")
    while i < n:
        size = rng.randint(1, n - i)
        prefix.append((q, tuple(names[i : i + size])))
        i += size
        q = "A" if q == "E" else "E"
    apps = []
    for _ in range(rng.randint(0, 6)):
        k = rng.randint(1, 3)
        args = tuple(rng.randint(0, 1) if rng.random() < 0.15 else rng.choice(names) for _ in range(k))
        apps.append((k, rng.getrandbits(1 << k), args))
    return ref.Instance(tuple(prefix), tuple(apps))


def check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if not ok:
        sys.exit(1)


def main() -> None:
    rng = random.Random(0)
    binder = Binder(qcsp)

    # evaluators: plain recursion, truth table, the program's oracle, and the
    # metamorphic variants of each instance
    n = 400
    agree = 0
    for _ in range(n):
        inst = random_instance(rng)
        values = {
            ref.evaluate_recursive(inst),
            ref.evaluate_table(inst),
            qcsp.evaluate(binder.expr(inst)),
            ref.evaluate_table(ref.complemented(inst)),
            ref.evaluate_table(ref.renamed(inst, rng)),
            ref.evaluate_table(ref.reordered(inst, rng)),
        }
        agree += len(values) == 1
    check("evaluators", agree == n, f"{agree}/{n} random instances, 6 ways each")

    # Schaefer classes by their algebraic characterisations vs the closure checks
    total = bad = 0
    tables = [(k, b) for k in (1, 2, 3) for b in range(1 << (1 << k))]
    tables += [(k, rng.getrandbits(1 << k)) for k in (4, 5) for _ in range(100)]
    for k, b in tables:
        total += 1
        flags = qcsp.classify_constraint(qcsp.Constraint("T", k, b)).as_dict()
        bad += flags != ref.flags_ref(k, b)
    check("class-flags", bad == 0, f"{total} tables, {bad} disagreements")

    # synthesized normal forms re-evaluated on every row; a dropped clause is caught
    kinds = {k.value: k for k in solvers.NormalFormKind}
    forms = caught = 0
    for k, b in [(k, b) for k in (2, 3) for b in range(1 << (1 << k))]:
        for kind in kinds.values():
            form = solvers.synthesize_normal_form(qcsp.Constraint("T", k, b), kind)
            if form is None:
                continue
            forms += 1
            if not ref.clause_form_ok(kind.value, k, b, form.clauses):
                check("clause-forms", False, f"{kind.value} form of {k}/{b} rejected")
            if form.clauses and not ref.clause_form_ok(kind.value, k, b, form.clauses[1:]):
                caught += 1
    check("clause-forms", forms > 0 and caught > 0, f"{forms} forms match their tables; {caught} with a clause dropped rejected")

    # projections of implementation witnesses vs check_implementation
    oit = qcsp.Constraint("OIT", *OIT)
    witnesses = cut_count = agreed = 0
    for bits in range(16):
        impl = implsearch.find_implementation([oit], qcsp.Constraint(f"B{bits}", 2, bits), 6, 8)
        apps = [(a.constraint.arity, a.constraint.bits, tuple(x.var for x in a.args)) for a in impl.apps]
        witnesses += ref.projection_table(2, impl.primary_vars, impl.aux_vars, apps) == bits
        if len(impl.apps) > 1:
            cut = qcsp.Implementation(impl.target, impl.primary_vars, impl.aux_vars, impl.apps[1:])
            projected = ref.projection_table(2, impl.primary_vars, impl.aux_vars, apps[1:])
            cut_count += 1
            agreed += (projected == bits) == implsearch.check_implementation(cut)
    check(
        "projections",
        witnesses == 16 and agreed == cut_count > 0,
        f"{witnesses}/16 witnesses project to their target; {agreed}/{cut_count} with an application cut judged as check_implementation judges them",
    )

    # planted certificates: the strategy proves truth, a flipped rule can fail,
    # and the planted contradiction refutes
    proved = refuted = rejected = 0
    for shape in ("S1", "P2", "S3", "S2"):
        for _ in range(10):
            prefix, strategy = planted_prefix(rng, shape, 8, 0 if shape == "S1" else 3)
            try:
                apps = planted_apps(rng, [(3, 0b01111111), (3, 0b11111110)], prefix, strategy, 6)
            except NoPlantingError:
                continue
            inst = ref.Instance(prefix, tuple(apps))
            proved += ref.check_strategy(inst, strategy) and ref.evaluate_recursive(inst) == 1
            v, rule = next(iter(strategy.items()))
            flipped = {**strategy, v: ("c", 1 - rule[1]) if rule[0] == "c" else ("u", rule[1], 1 - rule[2])}
            rejected += not ref.check_strategy(inst, flipped)
            bad = planted_contradiction(rng, [(3, 0b01111111), (3, 0b11111110)], prefix, inst.variables())
            false_inst = ref.Instance(prefix, tuple(apps) + tuple(bad))
            refuted += ref.evaluate_recursive(false_inst) == 0 == qcsp.evaluate(binder.expr(false_inst))
    check(
        "planted",
        proved > 0 and proved == refuted and rejected > 0,
        f"{proved} planted strategies hold and their instances are true; {rejected} with one rule flipped rejected; {refuted} planted contradictions refute",
    )

    # the neutral form round-trips through qcsp objects
    inst = random_instance(rng)
    check("neutral-form", neutral(binder.expr(inst)) == inst, "expression -> neutral -> expression")


if __name__ == "__main__":
    main()
