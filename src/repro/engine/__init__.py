"""SPARQL query evaluation engines over the in-memory RDF store.

Paper mapping: the chain-vs-cycle engine experiment of Figure 3 (sec 3).
"""

from .engines import (
    Engine,
    IndexedEngine,
    NestedLoopEngine,
    QueryRunResult,
    WorkloadRunResult,
)
from .evaluator import PatternEvaluator, Solution, evaluate_bgp_order
from .expressions import (
    ExpressionError,
    effective_boolean_value,
    evaluate_expression,
)

__all__ = [
    "Engine",
    "IndexedEngine",
    "NestedLoopEngine",
    "QueryRunResult",
    "WorkloadRunResult",
    "PatternEvaluator",
    "Solution",
    "evaluate_bgp_order",
    "ExpressionError",
    "effective_boolean_value",
    "evaluate_expression",
]
