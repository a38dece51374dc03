"""gMark-style graph schemas (paper §5.1).

A schema describes node types with relative proportions and typed
predicates with degree distributions — enough to generate graph
instances and shape-controlled conjunctive query workloads the way
gMark's Bib use case does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..exceptions import WorkloadError

__all__ = [
    "DegreeDistribution",
    "Predicate",
    "GraphSchema",
    "bib_schema",
]


@dataclass(frozen=True)
class DegreeDistribution:
    """An out-degree distribution: uniform, zipfian, or constant.

    * ``uniform``: integers in [low, high];
    * ``zipfian``: degree low + Zipf-ish tail, clamped to high;
    * ``constant``: always ``low``.
    """

    kind: str
    low: int
    high: int
    alpha: float = 2.5

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "zipfian", "constant"):
            raise WorkloadError(f"unknown distribution kind {self.kind!r}")
        if self.low < 0 or self.high < self.low:
            raise WorkloadError("invalid degree bounds")

    def sample(self, rng: random.Random) -> int:
        """Draw a degree from this distribution."""
        if self.kind == "constant":
            return self.low
        if self.kind == "uniform":
            return rng.randint(self.low, self.high)
        # Zipfian: inverse-transform sample of a truncated power law.
        span = self.high - self.low
        if span == 0:
            return self.low
        u = rng.random()
        value = int((u ** (-1.0 / (self.alpha - 1.0)) - 1.0))
        return self.low + min(value, span)


@dataclass(frozen=True)
class Predicate:
    """A typed edge label: subjects of *source* type point to objects
    of *target* type with the given out-degree distribution."""

    name: str
    source: str
    target: str
    out_degree: DegreeDistribution

    def iri(self, namespace: str) -> str:
        """The node's IRI inside *namespace*."""
        return namespace + self.name


@dataclass
class GraphSchema:
    """Node types (with proportions summing to 1) plus predicates."""

    namespace: str
    node_types: Dict[str, float]
    predicates: List[Predicate] = field(default_factory=list)

    def __post_init__(self) -> None:
        total = sum(self.node_types.values())
        if abs(total - 1.0) > 1e-6:
            raise WorkloadError(
                f"node type proportions sum to {total}, expected 1.0"
            )
        for predicate in self.predicates:
            if predicate.source not in self.node_types:
                raise WorkloadError(f"unknown source type {predicate.source!r}")
            if predicate.target not in self.node_types:
                raise WorkloadError(f"unknown target type {predicate.target!r}")

    def predicate(self, name: str) -> Predicate:
        """Look up a predicate by name."""
        for predicate in self.predicates:
            if predicate.name == name:
                return predicate
        raise WorkloadError(f"unknown predicate {name!r}")

    def steps_from(self, node_type: str) -> List[Tuple[Predicate, bool, str]]:
        """All schema-graph steps leaving *node_type*, traversing
        predicates forward (False) or backward (True); the third field
        is the type reached."""
        steps: List[Tuple[Predicate, bool, str]] = []
        for predicate in self.predicates:
            if predicate.source == node_type:
                steps.append((predicate, False, predicate.target))
            if predicate.target == node_type:
                steps.append((predicate, True, predicate.source))
        return steps


def bib_schema() -> GraphSchema:
    """The Bib use case of gMark: researchers, papers, journals and
    conferences, with citation/authorship/venue edges.

    The proportions and degree ranges follow gMark's bundled ``bib``
    configuration in spirit; exact constants differ but preserve the
    skew (papers cite few papers, authors write several papers, venues
    publish many papers).
    """
    uniform = DegreeDistribution
    return GraphSchema(
        namespace="http://example.org/bib/",
        node_types={
            "Researcher": 0.50,
            "Paper": 0.35,
            "Journal": 0.07,
            "Conference": 0.08,
        },
        predicates=[
            Predicate(
                "authoredBy", "Paper", "Researcher",
                uniform("uniform", 1, 4),
            ),
            Predicate(
                "cites", "Paper", "Paper",
                uniform("zipfian", 0, 20),
            ),
            Predicate(
                "publishedIn", "Paper", "Journal",
                uniform("uniform", 0, 1),
            ),
            Predicate(
                "presentedAt", "Paper", "Conference",
                uniform("uniform", 0, 1),
            ),
            Predicate(
                "editorOf", "Researcher", "Journal",
                uniform("uniform", 0, 1),
            ),
            Predicate(
                "friendOf", "Researcher", "Researcher",
                uniform("zipfian", 0, 10),
            ),
            Predicate(
                "chairOf", "Researcher", "Conference",
                uniform("uniform", 0, 1),
            ),
        ],
    )
