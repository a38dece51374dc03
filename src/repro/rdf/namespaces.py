"""Well-known prefixes.

SPARQL queries abbreviate IRIs with ``PREFIX`` declarations.  This
module ships the well-known vocabularies that appear throughout the
logs studied by the paper (rdf, rdfs, owl, foaf, dbo, wdt, …); the log
pipeline lets the parser expand them without a declaration, as the
endpoints did.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["WELL_KNOWN_PREFIXES"]


#: Prefixes that real SPARQL endpoints (and the paper's logs) use heavily.
WELL_KNOWN_PREFIXES: Dict[str, str] = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "owl": "http://www.w3.org/2002/07/owl#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "foaf": "http://xmlns.com/foaf/0.1/",
    "dc": "http://purl.org/dc/elements/1.1/",
    "dcterms": "http://purl.org/dc/terms/",
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "dbo": "http://dbpedia.org/ontology/",
    "dbr": "http://dbpedia.org/resource/",
    "dbp": "http://dbpedia.org/property/",
    "wd": "http://www.wikidata.org/entity/",
    "wdt": "http://www.wikidata.org/prop/direct/",
    "p": "http://www.wikidata.org/prop/",
    "ps": "http://www.wikidata.org/prop/statement/",
    "pq": "http://www.wikidata.org/prop/qualifier/",
    "geo": "http://www.w3.org/2003/01/geo/wgs84_pos#",
    "swrc": "http://swrc.ontoware.org/ontology#",
    "bio": "http://purl.org/vocab/bio/0.1/",
}
