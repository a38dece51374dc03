"""A fixed gauge task that gauges how fast the host runs right now.

The host's CPUs change speed by up to twofold over minutes (other
tenants' load), which no statistic inside one run can remove.  So every
timed operation is paired with this task, run just before it on the
same CPUs, and reported *normalized*: its time divided by the paired
task's time, times the task's nominal time (see ``bench_stats``).  A
slower program still reads slower; a slower host mostly does not.

The task uses the standard library only, so no change to the program
can change it, and its input is fixed (built from ``random.Random(0)``),
so it is the same work in every run.  It does the kind of work the
program does: percent-decoding log lines, regex tokenizing query texts,
counting into dicts and writing JSON.  Run it as a script for the
process form (interpreter start-up included, like a ``repro`` child) or
call :func:`gauge_task` in-process.
"""

from __future__ import annotations

import collections
import json
import random
import re
import sys
import urllib.parse

#: Lines the process form works through (about 0.1 s on a quiet host).
SCRIPT_LINES = 600

_TOKEN = re.compile(r"[?$][A-Za-z_]\w*|<[^>]*>|\"[^\"]*\"|\w+|[{}().;,*]")
_WORDS = ("SELECT", "DISTINCT", "WHERE", "FILTER", "OPTIONAL", "UNION", "LIMIT",
          "ORDER", "BY", "regex", "lang", "str", "COUNT", "GROUP")
_IRIS = ("<http://dbpedia.org/ontology/birthPlace>", "<http://xmlns.com/foaf/0.1/name>",
         "<http://www.w3.org/2000/01/rdf-schema#label>", "<http://purl.org/dc/terms/subject>")


def _lines(count: int):
    """*count* fixed, URL-encoded query-like log lines."""
    rng = random.Random(0)
    for _ in range(count):
        parts = [rng.choice(_WORDS)]
        for _ in range(rng.randint(3, 12)):
            parts.append(f"?v{rng.randint(0, 9)} {rng.choice(_IRIS)} \"x{rng.randint(0, 99)}\" .")
        query = " ".join(parts) + " { " + rng.choice(_WORDS) + " }"
        yield "GET /sparql?query=" + urllib.parse.quote_plus(query) + " HTTP/1.1"


def gauge_task(count: int) -> int:
    """Decode, tokenize and count *count* fixed lines; returns the JSON size."""
    keywords: collections.Counter = collections.Counter()
    rows = []
    for line in _lines(count):
        query = urllib.parse.unquote_plus(line.split("query=", 1)[1].rsplit(" ", 1)[0])
        tokens = _TOKEN.findall(query)
        keywords.update(token.upper() for token in tokens if token.isalpha())
        rows.append({"n": len(tokens), "vars": sorted({t for t in tokens if t[0] in "?$"})})
    return len(json.dumps([keywords.most_common(50), rows]))


if __name__ == "__main__":
    sys.exit(0 if gauge_task(SCRIPT_LINES) > 0 else 1)
