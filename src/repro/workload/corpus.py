"""Calibrated synthetic query-log corpus (the paper's data substitute).

The paper's raw logs (180M queries from USEWOD, Openlink, LSQ and the
Wikidata example page) are not redistributable.  This module generates,
per dataset, a stream of raw query texts whose *distributions* follow
the paper's published per-dataset numbers:

* Table 1 — total / valid / unique proportions (duplicates and invalid
  entries are injected accordingly);
* Figure 1 — query-type mix and number-of-triples histograms;
* Tables 2–3 — keyword and operator-set usage;
* Table 4 — shape mix of the conjunctive cores;
* Table 5 — property-path expression types;
* §4.4 — subquery and projection rates.

Every generated query is real SPARQL produced by composing an actual
pattern (not string templates with placeholders), so the downstream
pipeline — cleaning, parsing, deduplication, classification — runs the
same code paths it would on the real logs.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import WorkloadError

__all__ = [
    "DatasetProfile",
    "DATASET_PROFILES",
    "DATASET_ORDER",
    "generate_dataset",
    "generate_corpus",
    "generate_day_log",
]

# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

#: Triple-count histogram: weights for 0,1,2,…,10 triples plus an 11+
#: tail (sampled uniformly from 11–25, occasionally much larger).
TripleHist = Tuple[float, ...]

_DEFAULT_HIST: TripleHist = (0.02, 0.56, 0.16, 0.08, 0.05, 0.04, 0.03, 0.02, 0.01, 0.01, 0.01, 0.01)


@dataclass(frozen=True)
class DatasetProfile:
    """Everything needed to synthesize one dataset's log stream."""

    name: str
    total: int  # Table 1 "Total #Q"
    valid: int  # Table 1 "Valid #Q"
    unique: int  # Table 1 "Unique #Q"
    namespace: str
    #: probabilities for SELECT / ASK / DESCRIBE / CONSTRUCT
    query_type_mix: Tuple[float, float, float, float] = (0.88, 0.05, 0.045, 0.025)
    triple_hist: TripleHist = _DEFAULT_HIST
    distinct_rate: float = 0.22
    limit_rate: float = 0.17
    offset_rate: float = 0.06
    order_by_rate: float = 0.02
    filter_rate: float = 0.40
    union_rate: float = 0.19
    optional_rate: float = 0.16
    graph_rate: float = 0.027
    minus_rate: float = 0.014
    not_exists_rate: float = 0.016
    count_rate: float = 0.006
    group_by_rate: float = 0.003
    subquery_rate: float = 0.005
    property_path_rate: float = 0.004
    predicate_variable_rate: float = 0.10
    projection_rate: float = 0.15
    describe_bodyless_rate: float = 0.97
    constant_rate: float = 0.787  # single-edge CQs using constants
    #: shape mix of conjunctive cores with ≥ 3 triples.  The paper's
    #: cycle share is ~0.03% of CQs; we keep cyclic queries a few times
    #: more frequent so that scaled-down corpora still contain them
    #: (documented in EXPERIMENTS.md — §6.1 needs a populated girth
    #: histogram to reproduce its finding).
    cycle_rate: float = 0.020
    flower_rate: float = 0.012
    star_rate: float = 0.05


def _profile(
    name: str,
    total: int,
    valid: int,
    unique: int,
    namespace: str,
    **overrides,
) -> DatasetProfile:
    return replace(
        DatasetProfile(name, total, valid, unique, namespace),
        **overrides,
    )


#: The 13 logs of Table 1, with the per-dataset deviations the paper
#: calls out in §4 (BioMed is Describe-heavy, LGD13 Construct-heavy,
#: BritM is template-generated with near-universal DISTINCT, BioPortal
#: uses GRAPH massively, Wikidata is aggregate/path-heavy, …).
DATASET_PROFILES: Dict[str, DatasetProfile] = {
    "DBpedia9/12": _profile(
        "DBpedia9/12", 28_534_301, 27_097_467, 13_437_966,
        "http://dbpedia.org/",
        query_type_mix=(0.925, 0.05, 0.015, 0.01),
        distinct_rate=0.18,
        triple_hist=(0.02, 0.60, 0.15, 0.07, 0.05, 0.03, 0.02, 0.02, 0.01, 0.01, 0.01, 0.01),
    ),
    "DBpedia13": _profile(
        "DBpedia13", 5_243_853, 4_819_837, 2_628_005,
        "http://dbpedia.org/",
        query_type_mix=(0.88, 0.04, 0.05, 0.03),
        distinct_rate=0.08,
        offset_rate=0.12,
        triple_hist=(0.02, 0.42, 0.14, 0.09, 0.07, 0.05, 0.04, 0.03, 0.02, 0.02, 0.02, 0.08),
    ),
    "DBpedia14": _profile(
        "DBpedia14", 37_219_788, 33_996_480, 17_217_448,
        "http://dbpedia.org/",
        query_type_mix=(0.90, 0.055, 0.035, 0.01),
        distinct_rate=0.11,
        triple_hist=(0.03, 0.62, 0.14, 0.07, 0.04, 0.03, 0.02, 0.01, 0.01, 0.01, 0.01, 0.01),
    ),
    "DBpedia15": _profile(
        "DBpedia15", 43_478_986, 42_709_778, 13_253_845,
        "http://dbpedia.org/",
        query_type_mix=(0.815, 0.115, 0.05, 0.02),
        distinct_rate=0.38,
        triple_hist=(0.02, 0.52, 0.16, 0.08, 0.06, 0.04, 0.03, 0.02, 0.02, 0.01, 0.01, 0.03),
    ),
    "DBpedia16": _profile(
        "DBpedia16", 15_098_176, 14_687_869, 4_369_781,
        "http://dbpedia.org/",
        query_type_mix=(0.62, 0.02, 0.34, 0.02),
        distinct_rate=0.08,
        triple_hist=(0.03, 0.46, 0.15, 0.09, 0.07, 0.05, 0.04, 0.03, 0.02, 0.02, 0.01, 0.03),
    ),
    "LGD13": _profile(
        "LGD13", 1_841_880, 1_513_868, 357_842,
        "http://linkedgeodata.org/",
        query_type_mix=(0.28, 0.005, 0.005, 0.71),
        offset_rate=0.13,
        triple_hist=(0.01, 0.40, 0.20, 0.12, 0.08, 0.06, 0.04, 0.03, 0.02, 0.01, 0.01, 0.02),
    ),
    "LGD14": _profile(
        "LGD14", 1_999_961, 1_929_130, 628_640,
        "http://linkedgeodata.org/",
        query_type_mix=(0.96, 0.015, 0.01, 0.015),
        limit_rate=0.41,
        offset_rate=0.38,
        filter_rate=0.61,
        count_rate=0.31,
        triple_hist=(0.01, 0.45, 0.20, 0.11, 0.08, 0.05, 0.04, 0.02, 0.01, 0.01, 0.01, 0.01),
    ),
    "BioP13": _profile(
        "BioP13", 4_627_271, 4_624_430, 687_773,
        "http://bioportal.bioontology.org/",
        query_type_mix=(0.90, 0.10, 0.0, 0.0),
        distinct_rate=0.82,
        graph_rate=0.80,
        filter_rate=0.03,
        union_rate=0.02,
        optional_rate=0.02,
        triple_hist=(0.02, 0.84, 0.11, 0.02, 0.005, 0.003, 0.001, 0.0005, 0.0002, 0.0002, 0.0001, 0.0),
    ),
    "BioP14": _profile(
        "BioP14", 26_438_933, 26_404_710, 2_191_152,
        "http://bioportal.bioontology.org/",
        query_type_mix=(0.95, 0.047, 0.002, 0.001),
        distinct_rate=0.69,
        graph_rate=0.40,
        filter_rate=0.05,
        union_rate=0.03,
        optional_rate=0.03,
        triple_hist=(0.01, 0.68, 0.22, 0.06, 0.02, 0.005, 0.003, 0.001, 0.0005, 0.0003, 0.0002, 0.0),
    ),
    "BioMed13": _profile(
        "BioMed13", 883_374, 882_809, 27_030,
        "http://openbiomed.org/",
        query_type_mix=(0.128, 0.0007, 0.847, 0.0242),
        triple_hist=(0.01, 0.42, 0.18, 0.10, 0.07, 0.05, 0.04, 0.03, 0.02, 0.02, 0.02, 0.04),
    ),
    "SWDF13": _profile(
        "SWDF13", 13_762_797, 13_618_017, 1_229_759,
        "http://data.semanticweb.org/",
        query_type_mix=(0.94, 0.02, 0.025, 0.015),
        limit_rate=0.47,
        triple_hist=(0.02, 0.70, 0.15, 0.05, 0.03, 0.02, 0.01, 0.01, 0.005, 0.003, 0.002, 0.01),
    ),
    "BritM14": _profile(
        "BritM14", 1_523_827, 1_513_534, 135_112,
        "http://collection.britishmuseum.org/",
        query_type_mix=(0.97, 0.016, 0.01, 0.004),
        distinct_rate=0.97,
        triple_hist=(0.0, 0.06, 0.10, 0.14, 0.16, 0.15, 0.12, 0.10, 0.07, 0.05, 0.03, 0.02),
    ),
    "WikiData17": _profile(
        "WikiData17", 309, 308, 308,
        "http://www.wikidata.org/",
        query_type_mix=(0.97, 0.01, 0.01, 0.01),
        order_by_rate=0.42,
        group_by_rate=0.30,
        count_rate=0.25,
        subquery_rate=0.0974,
        property_path_rate=0.2987,
        limit_rate=0.30,
        filter_rate=0.35,
        optional_rate=0.40,
        triple_hist=(0.0, 0.12, 0.18, 0.18, 0.14, 0.10, 0.08, 0.06, 0.05, 0.03, 0.03, 0.03),
    ),
}

DATASET_ORDER: Tuple[str, ...] = tuple(DATASET_PROFILES)

#: Table 5 expression-type sampling weights (paper's relative counts).
_PATH_TYPE_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("!a", 0.255),
    ("^a", 0.002),
    ("(a1|...|ak)*", 0.291),
    ("a*", 0.197),
    ("a1/.../ak", 0.087),
    ("a*/b", 0.077),
    ("a1|...|ak", 0.065),
    ("a+", 0.015),
    ("a1?/.../ak?", 0.011),
)


# ---------------------------------------------------------------------------
# Vocabulary per dataset
# ---------------------------------------------------------------------------


class _Vocabulary:
    """Pools of IRIs and literals for a dataset's namespace."""

    def __init__(self, namespace: str, rng: random.Random) -> None:
        base = namespace.rstrip("/")
        self.predicates = [
            f"{base}/property/p{i}" for i in range(40)
        ] + [
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            "http://www.w3.org/2000/01/rdf-schema#label",
            "http://xmlns.com/foaf/0.1/name",
        ]
        self.entities = [f"{base}/resource/e{i}" for i in range(400)]
        self.classes = [f"{base}/ontology/C{i}" for i in range(25)]
        self.graphs = [f"{base}/graph/g{i}" for i in range(8)]
        self._rng = rng

    def predicate(self) -> str:
        """A profile-weighted predicate IRI."""
        return f"<{self._rng.choice(self.predicates)}>"

    def entity(self) -> str:
        """A profile-weighted entity IRI."""
        return f"<{self._rng.choice(self.entities)}>"

    def graph_iri(self) -> str:
        """A named-graph IRI."""
        return f"<{self._rng.choice(self.graphs)}>"

    def literal(self) -> str:
        """A literal matching the profile's value shapes."""
        kind = self._rng.random()
        if kind < 0.4:
            return f'"value{self._rng.randrange(1000)}"'
        if kind < 0.7:
            return f'"label {self._rng.randrange(100)}"@en'
        return str(self._rng.randrange(5000))


# ---------------------------------------------------------------------------
# Query synthesis
# ---------------------------------------------------------------------------


class _QueryBuilder:
    """Synthesizes one query's text from a profile draw."""

    def __init__(
        self, profile: DatasetProfile, vocabulary: _Vocabulary, rng: random.Random
    ) -> None:
        self.profile = profile
        self.vocab = vocabulary
        self.rng = rng
        self._variable_counter = 0
        # Decorations gated on "≥ 2 triples" must compensate for the
        # gate, or the corpus-wide rates undershoot the profile targets
        # (most queries have ≤ 1 triple).
        weights = profile.triple_hist
        total = sum(weights) or 1.0
        self._p_multi = max(
            0.05, sum(weights[2:]) / total
        )

    def _gated_chance(self, rate: float) -> bool:
        return self.rng.random() < min(0.9, rate / self._p_multi)

    # -- helpers -------------------------------------------------------
    def _fresh_variable(self) -> str:
        self._variable_counter += 1
        return f"?v{self._variable_counter}"

    def _chance(self, rate: float) -> bool:
        return self.rng.random() < rate

    def _sample_triple_count(self) -> int:
        weights = self.profile.triple_hist
        bucket = self.rng.choices(range(len(weights)), weights=weights)[0]
        if bucket < 11:
            return bucket
        if self.rng.random() < 0.02:
            return self.rng.randint(26, 230)  # the paper saw up to 229
        return self.rng.randint(11, 25)

    # -- core pattern construction --------------------------------------
    def _term(self, position: str, constant_bias: float) -> str:
        if self.rng.random() < constant_bias:
            if position == "o" and self.rng.random() < 0.4:
                return self.vocab.literal()
            return self.vocab.entity()
        return self._fresh_variable()

    def _single_triple(self) -> Tuple[str, List[str]]:
        use_constants = self._chance(self.profile.constant_rate)
        subject = self._term("s", 0.35 if use_constants else 0.0)
        obj = self._term("o", 0.75 if use_constants else 0.0)
        if subject.startswith("<") and obj.startswith(("<", '"')) and not self._chance(0.2):
            obj = self._fresh_variable()
        # Avoid accidental self-loops from entity-pool collisions: real
        # logs rarely assert <e> p <e>, and girth-1 "cycles" would
        # otherwise swamp the §6.1 statistics.
        while obj == subject:
            obj = self.vocab.entity()
        if self._chance(self.profile.predicate_variable_rate):
            predicate = self._fresh_variable()
        else:
            predicate = self.vocab.predicate()
        triple = f"{subject} {predicate} {obj} ."
        variables = [t for t in (subject, predicate, obj) if t.startswith("?")]
        return triple, variables

    def _cq_core(self, triple_count: int) -> Tuple[List[str], List[str]]:
        """Build a conjunctive core of *triple_count* triples with a
        shape drawn from the profile's shape mix."""
        if triple_count <= 0:
            return [], []
        if triple_count == 1:
            triple, variables = self._single_triple()
            return [triple], variables
        draw = self.rng.random()
        if triple_count >= 3 and draw < self.profile.cycle_rate:
            return self._cycle_core(triple_count)
        if triple_count >= 4 and draw < self.profile.cycle_rate + self.profile.flower_rate:
            return self._flower_core(triple_count)
        if triple_count >= 3 and self._chance(self.profile.star_rate):
            return self._star_core(triple_count)
        if self._chance(0.5):
            return self._chain_core(triple_count)
        return self._tree_core(triple_count)

    def _chain_core(self, length: int) -> Tuple[List[str], List[str]]:
        nodes = [self._fresh_variable() for _ in range(length + 1)]
        if self._chance(0.3):
            nodes[-1] = self.vocab.entity() if self._chance(0.6) else self.vocab.literal()
        triples = [
            f"{nodes[i]} {self.vocab.predicate()} {nodes[i + 1]} ."
            for i in range(length)
        ]
        return triples, [n for n in nodes if n.startswith("?")]

    def _star_core(self, branches: int) -> Tuple[List[str], List[str]]:
        center = self._fresh_variable()
        leaves = [self._fresh_variable() for _ in range(branches)]
        triples = [
            f"{center} {self.vocab.predicate()} {leaf} ." for leaf in leaves
        ]
        return triples, [center] + leaves

    def _tree_core(self, size: int) -> Tuple[List[str], List[str]]:
        nodes = [self._fresh_variable()]
        triples: List[str] = []
        for _ in range(size):
            parent = self.rng.choice(nodes)
            child = self._fresh_variable()
            triples.append(f"{parent} {self.vocab.predicate()} {child} .")
            nodes.append(child)
        return triples, nodes

    def _cycle_core(self, length: int) -> Tuple[List[str], List[str]]:
        # Girth 3 dominates real cyclic queries (§6.1): build a short
        # cycle and spend the rest of the budget on stamens at a node.
        cycle_length = min(length, self.rng.choices(
            (3, 4, 5, length), weights=(70, 12, 10, 8)
        )[0])
        nodes = [self._fresh_variable() for _ in range(cycle_length)]
        triples = [
            f"{nodes[i]} {self.vocab.predicate()} {nodes[(i + 1) % cycle_length]} ."
            for i in range(cycle_length)
        ]
        variables = list(nodes)
        for _ in range(length - cycle_length):
            leaf = self._fresh_variable()
            variables.append(leaf)
            triples.append(f"{nodes[0]} {self.vocab.predicate()} {leaf} .")
        return triples, variables

    def _flower_core(self, size: int) -> Tuple[List[str], List[str]]:
        core = self._fresh_variable()
        variables = [core]
        triples: List[str] = []
        remaining = size
        # One petal (a small cycle through the core) plus stamens.
        petal = min(max(3, size // 2), remaining)
        nodes = [core] + [self._fresh_variable() for _ in range(petal - 1)]
        variables += nodes[1:]
        for i in range(petal):
            triples.append(
                f"{nodes[i]} {self.vocab.predicate()} {nodes[(i + 1) % petal]} ."
            )
        remaining -= petal
        for _ in range(remaining):
            leaf = self._fresh_variable()
            variables.append(leaf)
            triples.append(f"{core} {self.vocab.predicate()} {leaf} .")
        return triples, variables

    # -- decorations -----------------------------------------------------
    def _filter_text(self, variables: List[str]) -> str:
        if not variables:
            return 'FILTER (1 = 1)'
        variable = self.rng.choice(variables)
        kind = self.rng.random()
        if kind < 0.35:
            return f'FILTER (lang({variable}) = "en")'
        if kind < 0.55:
            return f'FILTER regex({variable}, "item", "i")'
        if kind < 0.75:
            return f"FILTER ({variable} != {self.vocab.entity()})"
        if kind < 0.9:
            # Value constraints on one variable (kept simple on purpose:
            # ?x = ?y filters would collapse canonical-graph nodes and
            # inject artificial cycles the real logs do not exhibit).
            return f"FILTER ({variable} != {self.vocab.literal()})"
        return f"FILTER (isIRI({variable}))"

    def _path_triple(self) -> str:
        subject = self._fresh_variable()
        obj = self._fresh_variable()
        names = [t for t, _ in _PATH_TYPE_WEIGHTS]
        weights = [w for _, w in _PATH_TYPE_WEIGHTS]
        expression_type = self.rng.choices(names, weights=weights)[0]
        p = self.vocab.predicate
        if expression_type == "!a":
            path = f"!{p()}"
        elif expression_type == "^a":
            path = f"^{p()}"
        elif expression_type == "(a1|...|ak)*":
            k = self.rng.randint(2, 4)
            path = "(" + "|".join(p() for _ in range(k)) + ")*"
        elif expression_type == "a*":
            path = f"{p()}*"
        elif expression_type == "a1/.../ak":
            k = self.rng.randint(2, 6)
            path = "/".join(p() for _ in range(k))
        elif expression_type == "a*/b":
            path = f"{p()}*/{p()}" if self._chance(0.5) else f"{p()}/{p()}*"
        elif expression_type == "a1|...|ak":
            k = self.rng.randint(2, 6)
            path = "|".join(p() for _ in range(k))
        elif expression_type == "a+":
            path = f"{p()}+"
        else:  # a1?/.../ak?
            k = self.rng.randint(2, 5)
            path = "/".join(f"{p()}?" for _ in range(k))
        return f"{subject} {path} {obj} ."

    # -- query forms -----------------------------------------------------
    def build(self) -> str:
        """One synthetic query honouring the dataset profile."""
        draw = self.rng.random()
        select_p, ask_p, describe_p, _ = self.profile.query_type_mix
        if draw < select_p:
            return self._select_or_ask("SELECT")
        if draw < select_p + ask_p:
            return self._select_or_ask("ASK")
        if draw < select_p + ask_p + describe_p:
            return self._describe()
        return self._construct()

    def _select_or_ask(self, form: str) -> str:
        profile = self.profile
        triple_count = self._sample_triple_count()
        if form == "ASK" and triple_count == 0:
            triple_count = 1

        # Decide the decorations first so their triples come out of the
        # sampled budget — the triple-count histogram (Figure 1) counts
        # every triple pattern, wherever it sits in the body.
        use_path = self._chance(profile.property_path_rate)
        use_union = triple_count >= 2 and self._gated_chance(profile.union_rate)
        use_graph = triple_count >= 1 and self._chance(profile.graph_rate)
        use_minus = triple_count >= 2 and self._gated_chance(profile.minus_rate)
        use_not_exists = triple_count >= 2 and self._gated_chance(
            profile.not_exists_rate
        )
        use_subquery = triple_count >= 2 and self._gated_chance(
            profile.subquery_rate
        )
        extra = (
            (1 if use_path else 0)
            + (2 if use_union else 0)
            + (1 if use_graph else 0)
            + (1 if use_minus else 0)
            + (1 if use_not_exists else 0)
            + (1 if use_subquery else 0)
        )
        # Decorations may carry the whole body (a bare UNION of two
        # branches is the paper's "U" row; a bare GRAPH block its "G"
        # row) — only force a core triple when nothing else supplies one.
        decorations_supply = use_union or use_graph or use_path or use_subquery
        floor = 0 if (decorations_supply or triple_count == 0) else 1
        core_count = max(floor, triple_count - extra)
        body_parts, variables = self._cq_core(core_count)

        if use_path:
            body_parts.append(self._path_triple())
        if body_parts and self._chance(profile.optional_rate):
            moved = body_parts.pop()
            body_parts.append(f"OPTIONAL {{ {moved} }}")
        if use_union:
            triple, triple_vars = self._single_triple()
            other, other_vars = self._single_triple()
            variables.extend(triple_vars + other_vars)
            body_parts.append(f"{{ {triple} }} UNION {{ {other} }}")
        if use_graph:
            triple, triple_vars = self._single_triple()
            variables.extend(triple_vars)
            body_parts.append(f"GRAPH {self.vocab.graph_iri()} {{ {triple} }}")
        if use_minus:
            triple, _ = self._single_triple()
            body_parts.append(f"MINUS {{ {triple} }}")
        # Real logs attach filters to large queries disproportionately;
        # scaling by size keeps the overall rate on target while pushing
        # the 1-triple share of the pure-CQ fragment up (Figure 5).
        filter_chance = profile.filter_rate * (0.85 if triple_count <= 1 else 1.35)
        if self._chance(min(0.95, filter_chance)):
            body_parts.append(self._filter_text(variables))
        if use_not_exists:
            triple, _ = self._single_triple()
            body_parts.append(f"FILTER NOT EXISTS {{ {triple} }}")
        if use_subquery:
            inner_var = self._fresh_variable()
            body_parts.append(
                f"{{ SELECT {inner_var} WHERE {{ {inner_var} "
                f"{self.vocab.predicate()} {self._fresh_variable()} }} LIMIT 10 }}"
            )
            variables.append(inner_var)
        if not body_parts:
            body_parts, variables = self._cq_core(1)

        body = "\n  ".join(body_parts)
        unique_vars = list(dict.fromkeys(variables))

        if form == "ASK":
            return f"ASK WHERE {{\n  {body}\n}}"

        distinct = "DISTINCT " if self._chance(profile.distinct_rate) else ""
        use_group_by = self._chance(profile.group_by_rate) and unique_vars
        use_count = self._chance(profile.count_rate) and unique_vars
        if use_group_by or use_count:
            group_var = unique_vars[0]
            head = f"{group_var} (COUNT({unique_vars[-1]}) AS ?cnt)"
            tail = f"\nGROUP BY {group_var}"
        elif unique_vars and self._chance(profile.projection_rate):
            keep = max(1, len(unique_vars) - self.rng.randint(1, len(unique_vars)))
            head = " ".join(unique_vars[:keep])
            tail = ""
        else:
            head = "*"
            tail = ""
        text = f"SELECT {distinct}{head} WHERE {{\n  {body}\n}}{tail}"
        if self._chance(profile.order_by_rate) and unique_vars:
            text += f"\nORDER BY {unique_vars[0]}"
        if self._chance(profile.limit_rate):
            text += f"\nLIMIT {self.rng.choice((10, 50, 100, 1000))}"
            if self._chance(profile.offset_rate / max(profile.limit_rate, 1e-9)):
                text += f"\nOFFSET {self.rng.choice((10, 100, 1000))}"
        return text

    def _describe(self) -> str:
        if self._chance(self.profile.describe_bodyless_rate):
            return f"DESCRIBE {self.vocab.entity()}"
        variable = self._fresh_variable()
        return (
            f"DESCRIBE {variable} WHERE {{ {variable} "
            f"{self.vocab.predicate()} {self.vocab.literal()} }}"
        )

    def _construct(self) -> str:
        subject = self._fresh_variable()
        obj = self._fresh_variable()
        predicate = self.vocab.predicate()
        extra, _ = self._cq_core(max(0, self._sample_triple_count() - 1))
        body = "\n  ".join([f"{subject} {predicate} {obj} ."] + extra)
        return (
            f"CONSTRUCT {{ {subject} {predicate} {obj} . }}\n"
            f"WHERE {{\n  {body}\n}}"
        )


# ---------------------------------------------------------------------------
# Dataset and corpus generation
# ---------------------------------------------------------------------------


def _stable_seed(seed: int, label: str) -> int:
    """Derive a per-dataset RNG seed that is stable across processes.

    ``hash()`` of a string is randomized per interpreter (PYTHONHASHSEED),
    so seeding from a tuple hash would generate a *different corpus on
    every run* — a flaky foundation for the calibrated benchmarks.
    CRC32 is deterministic everywhere.
    """
    return seed * 0x1000193 ^ zlib.crc32(label.encode("utf-8"))


def _invalid_entry(rng: random.Random, vocabulary: _Vocabulary) -> str:
    """A log entry that is not a parseable query (the Total−Valid gap)."""
    kind = rng.random()
    if kind < 0.3:
        return "GET /sparql?format=json HTTP/1.1"  # not a query at all
    if kind < 0.55:
        return f"SELECT ?x WHERE {{ ?x {vocabulary.predicate()} "  # truncated
    if kind < 0.8:
        return "SELECT COUNT(?x) WHERE { ?x ?p ?o }"  # bad aggregate syntax
    return "PREFIX broken SELECT * WHERE { ?s ?p ?o }"


def generate_dataset(
    profile: DatasetProfile, scale: float = 1e-4, seed: int = 0
) -> List[str]:
    """Generate one dataset's raw log entries in log order.

    *scale* multiplies Table 1's counts; the default 1e-4 yields ~18k
    queries across the full corpus.  Unique queries are generated first,
    then duplicated with a skewed repetition profile to hit the
    valid/unique ratio, then invalid entries are mixed in to hit the
    total/valid ratio.
    """
    rng = random.Random(_stable_seed(seed, profile.name))
    vocabulary = _Vocabulary(profile.namespace, rng)
    builder = _QueryBuilder(profile, vocabulary, rng)

    n_unique = max(1, int(round(profile.unique * scale)))
    n_valid = max(n_unique, int(round(profile.valid * scale)))
    n_total = max(n_valid, int(round(profile.total * scale)))

    unique_queries: List[str] = []
    seen = set()
    attempts = 0
    while len(unique_queries) < n_unique and attempts < n_unique * 20:
        attempts += 1
        text = builder.build()
        if text not in seen:
            seen.add(text)
            unique_queries.append(text)

    # Duplicate with a zipf-like profile: few hot queries, long tail.
    entries: List[str] = list(unique_queries)
    extra = n_valid - len(unique_queries)
    if extra > 0 and unique_queries:
        weights = [1.0 / (rank + 1) for rank in range(len(unique_queries))]
        entries.extend(rng.choices(unique_queries, weights=weights, k=extra))
    for _ in range(n_total - len(entries)):
        entries.append(_invalid_entry(rng, vocabulary))
    rng.shuffle(entries)
    return entries


def generate_corpus(
    scale: float = 1e-4,
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
) -> Dict[str, List[str]]:
    """Generate the full 13-dataset corpus (or a subset)."""
    names = list(datasets) if datasets is not None else list(DATASET_ORDER)
    corpus: Dict[str, List[str]] = {}
    for name in names:
        profile = DATASET_PROFILES.get(name)
        if profile is None:
            raise WorkloadError(f"unknown dataset {name!r}")
        corpus[name] = generate_dataset(profile, scale=scale, seed=seed)
    return corpus


# ---------------------------------------------------------------------------
# Day logs with refinement sessions (Table 6)
# ---------------------------------------------------------------------------


def generate_day_log(
    n_queries: int = 5000,
    session_rate: float = 0.25,
    seed: int = 0,
    profile: Optional[DatasetProfile] = None,
) -> List[str]:
    """An ordered single-day log containing *refinement sessions*.

    A fraction of the stream belongs to sessions in which a user
    gradually edits a seed query (changing constants, adding triples or
    modifiers) — precisely the behaviour §8's streak analysis measures.
    Session lengths are heavy-tailed so the Table 6 histogram has mass
    in every bucket.
    """
    if profile is None:
        profile = DATASET_PROFILES["DBpedia15"]
    rng = random.Random(_stable_seed(seed, "daylog"))
    vocabulary = _Vocabulary(profile.namespace, rng)
    builder = _QueryBuilder(profile, vocabulary, rng)

    log: List[str] = []
    budget = n_queries
    while budget > 0:
        if rng.random() < session_rate:
            length = _session_length(rng)
            length = min(length, budget)
            log.extend(_refinement_session(builder, vocabulary, rng, length))
            budget -= length
        else:
            log.append(builder.build())
            budget -= 1
    return log


def _session_length(rng: random.Random) -> int:
    """Heavy-tailed session length: mostly short, occasionally 100+."""
    u = rng.random()
    if u < 0.70:
        return rng.randint(2, 10)
    if u < 0.90:
        return rng.randint(11, 30)
    if u < 0.975:
        return rng.randint(31, 70)
    return rng.randint(71, 180)


def _refinement_session(
    builder: _QueryBuilder,
    vocabulary: _Vocabulary,
    rng: random.Random,
    length: int,
) -> List[str]:
    subject = "?item"
    current = (
        f"SELECT {subject} WHERE {{\n  {subject} "
        f"{vocabulary.predicate()} {vocabulary.literal()} .\n}}"
    )
    session = [current]
    for _ in range(length - 1):
        current = _refine(current, vocabulary, rng)
        session.append(current)
    return session


def _refine(text: str, vocabulary: _Vocabulary, rng: random.Random) -> str:
    """One small user edit: swap a constant, append a modifier, or add
    a triple — the kinds of steps that keep Levenshtein distance low.

    Query growth is capped: once the text gets long, users in real logs
    mostly keep tweaking constants rather than appending triples (and
    unbounded growth would make the similarity scans quadratic).
    """
    choice = rng.random()
    if len(text) > 400 and choice >= 0.7:
        choice = rng.random() * 0.4  # fall back to constant swaps
    if choice < 0.4:
        # Swap the literal/entity.
        replacement = vocabulary.literal()
        index = text.rfind('"')
        if index != -1:
            start = text.rfind('"', 0, index)
            if start != -1:
                return text[:start] + replacement + text[index + 1:]
        return text + " "
    if choice < 0.6 and "LIMIT" not in text:
        return text + f"\nLIMIT {rng.choice((10, 20, 50, 100))}"
    if choice < 0.7 and "LIMIT" in text:
        return text.replace("LIMIT", "LIMIT ", 1).replace("LIMIT  ", "LIMIT ")
    if choice < 0.9:
        closing = text.rfind("}")
        lim = text.find("LIMIT")
        cut = closing if lim == -1 or closing < lim else text.rfind("}", 0, lim)
        addition = f"  ?item {vocabulary.predicate()} {vocabulary.literal()} .\n"
        return text[:cut] + addition + text[cut:]
    return text.replace("SELECT ?item", "SELECT DISTINCT ?item", 1)
