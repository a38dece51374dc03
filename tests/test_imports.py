"""What importing the package costs, and that the lazy root still
exports everything.

Every spawned ``repro`` process compiles or loads each module it
imports, so ``import repro.cli`` must not pull in the layers only some
verbs use.  Each check runs in a fresh interpreter: the test process
has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: Loaded by the verbs that use them, never by ``import repro.cli``.
VERB_ONLY = (
    "repro.analysis.incremental",
    "repro.engine",
    "repro.workload",
    "repro.warehouse",
    "sqlite3",
)


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_skips_verb_only_layers():
    loaded = _run("import sys, repro.cli; print('\\n'.join(sys.modules))").split()
    assert "repro.cli" in loaded
    assert [
        module for module in loaded
        if any(module == layer or module.startswith(layer + ".") for layer in VERB_ONLY)
    ] == []


def test_every_public_name_imports_from_the_root():
    code = (
        "import repro\n"
        "for name in repro.__all__:\n"
        "    exec(f'from repro import {name}')\n"
        "missing = set(repro.__all__) - set(dir(repro))\n"
        "print(len(repro.__all__), sorted(missing))\n"
    )
    assert _run(code).split(None, 1) == [str(len(repro.__all__)), "[]\n"]


def test_layer_packages_are_root_attributes():
    assert _run("import repro; print(repro.sparql.parse_query is repro.parse_query)") == "True\n"


def test_unknown_root_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro, "no_such_name")


def test_one_merge_studies():
    import repro.analysis
    import repro.api

    assert repro.merge_studies is repro.api.merge_studies
    assert not hasattr(repro.analysis, "merge_studies")
    assert not hasattr(repro.analysis.parallel, "merge_studies")
