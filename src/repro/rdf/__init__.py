"""RDF data model: terms, triples, graphs, well-known prefixes.

Paper mapping: the RDF preliminaries of sec 3, backing the Figure 3
engines and the synthetic corpus.
"""

from .graph import Graph
from .namespaces import WELL_KNOWN_PREFIXES
from .terms import (
    IRI,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Literal,
    Term,
    Triple,
    Variable,
)

__all__ = [
    "Graph",
    "WELL_KNOWN_PREFIXES",
    "IRI",
    "BlankNode",
    "Literal",
    "Term",
    "Triple",
    "Variable",
    "XSD_BOOLEAN",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_INTEGER",
    "XSD_STRING",
]
