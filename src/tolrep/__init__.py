"""Workbench for tolerances of finite algebras.

A tolerance is a reflexive symmetric relation compatible with all operations.
This package decides whether a given tolerance arises as R ∘ R⁻ for a single
reflexive compatible R (representable), or as an intersection of such
composites (weakly representable), and ships a small corpus of algebras on
which those two notions part ways.

The `tolrep` console script exposes the same machinery over a plain text
file format; `tolrep verify-paper` re-derives every bundled claim.
"""

from .algebras import (
    CLOSURE_MODES,
    Algebra,
    OperationTable,
    RelationClass,
    classify_relation,
    closure,
    eval_op,
    expand,
    is_compatible,
)
from . import cli  # the console front end loads with the package
from .corpus import corpus_get, corpus_names
from .decide import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_REL_BUDGET,
    AdmissibleEnumeration,
    PermutabilityReport,
    RepWitness,
    WeakRepWitness,
    check_permutability,
    enumerate_admissible,
    enumerate_congruences,
    enumerate_tolerances,
    exhaustive_representation,
    find_representation,
    find_weak_representation,
    represent_via_order,
    tolerance_join,
    verify_representation,
    verify_weak_representation,
)
from .document import Document, parse_document, print_document
from .errors import BudgetExceeded, DimensionError, DocumentError, TermSyntaxError
from .relations import (
    BinRel,
    RelationShape,
    classify_shape,
    compose,
    converse,
    intersect,
    subset,
    union,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AdmissibleEnumeration",
    "BinRel",
    "BudgetExceeded",
    "CLOSURE_MODES",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_REL_BUDGET",
    "DimensionError",
    "Document",
    "DocumentError",
    "OperationTable",
    "PermutabilityReport",
    "RelationClass",
    "RelationShape",
    "RepWitness",
    "TermSyntaxError",
    "WeakRepWitness",
    "check_permutability",
    "classify_relation",
    "classify_shape",
    "closure",
    "compose",
    "converse",
    "corpus_get",
    "corpus_names",
    "enumerate_admissible",
    "enumerate_congruences",
    "enumerate_tolerances",
    "eval_op",
    "exhaustive_representation",
    "expand",
    "find_representation",
    "find_weak_representation",
    "intersect",
    "is_compatible",
    "parse_document",
    "print_document",
    "represent_via_order",
    "subset",
    "tolerance_join",
    "union",
    "verify_representation",
    "verify_weak_representation",
]
