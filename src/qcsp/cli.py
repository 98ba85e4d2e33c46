"""Command-line front end.

Subcommands: ``classify`` (dichotomy report for a document's constraint
set), ``solve`` (truth of a named expression, polynomial path when possible),
``reduce`` (the gadget transformations), ``implement`` (bounded perfect-
implementation search), and ``verify`` (the differential suites).

Exit codes: 0 success, 2 usage or parse failure, 3 budget exhaustion
(including implementation-search bounds), 4 reduction not applicable.
"""

from __future__ import annotations

import argparse
import os
import sys

from .classifier import classify_set
from .evaluator import (
    BudgetExceededError,
    EvalBudget,
    ShapeMismatchError,
    check_level_shape,
    evaluate,
)
from .gadgets import (
    ImplementationNotFoundError,
    NotApplicableError,
    complement_expression,
    eliminate_unary,
    remove_constants,
    substitute_implementation,
)
from .implsearch import find_implementation
from .model import QuantifiedExpression, prefix_shape
from .parser import ParseError, parse_document, render_document
from .solvers import solve_with_method
from .verify import _SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NOT_APPLICABLE = 4


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(str(e)) from None
    return parse_document(text)


def _pick_expression(doc, name: str) -> QuantifiedExpression:
    if name not in doc.expressions:
        raise ValueError(f"no expression named {name!r} in document")
    return doc.expressions[name]


def _default_budget(args) -> EvalBudget:
    max_vars = getattr(args, "max_vars", None)
    if max_vars is None:
        env = os.environ.get("QCSP_MAX_VARS") or "24"
        try:
            max_vars = int(env)
        except ValueError:
            max_vars = 0
        if max_vars < 1:
            raise ValueError(f"QCSP_MAX_VARS must be an integer >= 1, got {env!r}")
    elif max_vars < 1:
        raise ValueError(f"--max-vars must be an integer >= 1, got {max_vars}")
    return EvalBudget(max_variables=max_vars)


def cmd_classify(args) -> int:
    doc = _load(args.input)
    constraints = list(doc.constraints.values())
    if not constraints:
        return _fail("document defines no constraints", EXIT_USAGE)
    report = classify_set(constraints)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return EXIT_OK


def cmd_solve(args) -> int:
    doc = _load(args.input)
    expr = _pick_expression(doc, args.expr)
    budget = _default_budget(args)
    if args.level is not None:
        check_level_shape(prefix_shape(expr), args.level)
    if args.oracle:
        value, method = evaluate(expr, budget), "oracle"
    else:
        value, method = solve_with_method(expr, budget)
    print("true" if value else "false")
    print(f"method={method}")
    if args.level is not None:
        member = value if args.level % 2 == 1 else 1 - value
        polarity = "truth" if args.level % 2 == 1 else "falsity"
        print(f"qsat_{args.level}_member={member} (membership is {polarity})")
    return EXIT_OK


def cmd_reduce(args) -> int:
    doc = _load(args.input)
    expr = _pick_expression(doc, args.expr)
    if args.mode == "remove-constants":
        if args.level is None:
            return _fail("--level is required for remove-constants", EXIT_USAGE)
        # the definitions, then each built-in the expression uses
        cs = list(doc.constraints.values())
        cs += [c for c in expr.constraints() if c not in cs]
        result = remove_constants(
            expr,
            cs,
            args.level,
            max_aux=args.max_aux,
            max_apps=args.max_apps,
        )
        if result.trivially_false:
            print("TRIVIALLY_FALSE")
            return EXIT_OK
        out = result.expression
    elif args.mode == "complement":
        out = complement_expression(expr)
    elif args.mode == "eliminate-unary":
        result = eliminate_unary(expr)
        if result.trivially_false:
            print("TRIVIALLY_FALSE")
            return EXIT_OK
        out = result.expression
    else:  # substitute
        if not args.target:
            return _fail("--target is required for substitute", EXIT_USAGE)
        target = doc.lookup(args.target)
        if target is None:
            return _fail(f"unknown constraint {args.target!r}", EXIT_USAGE)
        if args.using:
            using = []
            for name in args.using.split(","):
                c = doc.lookup(name.strip())
                if c is None:
                    return _fail(f"unknown constraint {name!r}", EXIT_USAGE)
                using.append(c)
        else:
            using = [c for c in doc.constraints.values() if c != target]
        impl = find_implementation(
            using, target, args.max_aux, args.max_apps
        )
        if impl is None:
            print("NOT_FOUND")
            return EXIT_BUDGET
        out = substitute_implementation(expr, impl)
    print(render_document(out.constraints(), {args.expr: out}), end="")
    return EXIT_OK


def cmd_implement(args) -> int:
    doc = _load(args.defs)
    base = list(doc.constraints.values())
    if not base:
        return _fail("document defines no constraints", EXIT_USAGE)
    for name in args.targets.split(","):
        name = name.strip()
        target = doc.lookup(name)
        if target is None:
            return _fail(f"unknown target constraint {name!r}", EXIT_USAGE)
        impl = find_implementation(base, target, args.max_aux, args.max_apps)
        if impl is None:
            print(f"{name}: NOT_FOUND")
            continue
        body = ", ".join(repr(a) for a in impl.apps)
        aux = " ".join(impl.aux_vars) or "-"
        print(f"{name}({', '.join(impl.primary_vars)}): aux [{aux}] apps [{body}]")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed, instances=args.instances)
    for r in results:
        print(r.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else 1


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qcsp",
        description="Classify, solve, and transform quantified Boolean "
        "constraint expressions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="dichotomy report for a document")
    p.add_argument("input")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="decide a named expression")
    p.add_argument("input")
    p.add_argument("expr")
    p.add_argument("--oracle", action="store_true", help="force brute force")
    p.add_argument("--max-vars", type=int, default=None, help="oracle variable "
                   "budget (default: QCSP_MAX_VARS, else 24)")
    p.add_argument("--level", type=int, default=None, help="report the "
                   "level-i membership bit with its polarity")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="apply a gadget transformation")
    p.add_argument("input")
    p.add_argument("expr")
    p.add_argument(
        "--mode",
        required=True,
        choices=("remove-constants", "complement", "eliminate-unary", "substitute"),
    )
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--max-aux", type=int, default=6)
    p.add_argument("--max-apps", type=int, default=8)
    p.add_argument("--target", default=None, help="constraint to replace "
                   "(substitute mode)")
    p.add_argument("--using", default=None, help="comma-separated "
                   "implementing constraints (substitute mode)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("implement", help="search perfect implementations")
    p.add_argument("defs")
    p.add_argument("--targets", required=True, help="comma-separated names")
    p.add_argument("--max-aux", type=int, default=6)
    p.add_argument("--max-apps", type=int, default=8)
    p.set_defaults(func=cmd_implement)

    p = sub.add_parser("verify", help="run a differential suite")
    p.add_argument(
        "--suite",
        default="all",
        choices=(*_SUITES, "all"),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        return _fail(str(e), EXIT_USAGE)
    except (BudgetExceededError, ImplementationNotFoundError) as e:
        return _fail(str(e), EXIT_BUDGET)
    except NotApplicableError as e:
        return _fail(f"NotApplicable: {e}", EXIT_NOT_APPLICABLE)
    except (ShapeMismatchError, ValueError) as e:
        return _fail(str(e), EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
