"""Quantified Boolean constraint toolkit.

Classifies finite Boolean constraint sets into their dichotomy classes,
reports complexity verdicts for satisfiability and alternation-bounded
quantified satisfiability, decides tractable instances in polynomial time,
and executes/verifies the constructive reductions (perfect implementation
substitution, complementation, unary elimination, constant removal) against
a brute-force oracle.
"""

from .classifier import (
    ClassificationReport,
    PropertyFlags,
    classify_constraint,
    classify_set,
    has_property,
)
from .evaluator import (
    BudgetExceededError,
    EvalBudget,
    ShapeMismatchError,
    evaluate,
    qsat_i_member,
)
from .gadgets import (
    HatTemplate,
    ImplementationNotFoundError,
    NotApplicableError,
    ReductionCase,
    ReductionResult,
    build_hat,
    complement_expression,
    eliminate_unary,
    remove_constants,
    substitute_implementation,
)
from .implsearch import (
    Implementation,
    check_implementation,
    find_implementation,
    identity_implementation,
)
from .model import (
    Argument,
    Constraint,
    ConstraintApplication,
    Polarity,
    PrefixShape,
    Quantifier,
    QuantifierBlock,
    QuantifiedExpression,
    app,
    complement_constraint,
    exists,
    forall,
    make_constraint,
    prefix_shape,
)
from .parser import (
    ParseError,
    SourceDocument,
    parse_document,
    parse_expression,
    render_expression,
)
from .solvers import (
    ClauseForm,
    NormalFormKind,
    TractableClass,
    dispatch_class,
    solve_auto,
    solve_tractable,
    synthesize_normal_form,
)

__version__ = "1.0.0"

# The public names: the classes and functions imported above, then the
# submodules those imports bind.
__all__ = (
    "Argument", "BudgetExceededError", "ClassificationReport", "ClauseForm",
    "Constraint", "ConstraintApplication", "EvalBudget", "HatTemplate",
    "Implementation", "ImplementationNotFoundError", "NormalFormKind",
    "NotApplicableError", "ParseError", "Polarity", "PrefixShape",
    "PropertyFlags", "QuantifiedExpression", "Quantifier",
    "QuantifierBlock", "ReductionCase", "ReductionResult",
    "ShapeMismatchError", "SourceDocument", "TractableClass", "app",
    "build_hat", "check_implementation", "classify_constraint",
    "classify_set", "complement_constraint", "complement_expression",
    "dispatch_class", "eliminate_unary", "evaluate", "exists",
    "find_implementation", "forall", "has_property",
    "identity_implementation", "make_constraint", "parse_document",
    "parse_expression", "prefix_shape", "qsat_i_member", "remove_constants",
    "render_expression", "solve_auto", "solve_tractable",
    "substitute_implementation", "synthesize_normal_form",
    "classifier", "evaluator", "gadgets", "implsearch", "model", "parser",
    "presets", "solvers",
)
