"""The public API: every exported name resolves, and the views kept only as
test oracles (semigroup normal forms, scalar delta, tau, the dict front end
of the rigid extension) are not exported."""

import os
import subprocess
import sys
from pathlib import Path

import floerrank
from floerrank import seifert

DROPPED = ("NormalForm", "delta_at", "membership", "rigid_extend", "semigroup_elements_upto",
           "tau_sequence")


def test_public_api():
    assert [name for name in floerrank.__all__ if not hasattr(floerrank, name)] == []
    for name in DROPPED:
        assert name not in floerrank.__all__, name
        assert not hasattr(floerrank, name) and not hasattr(seifert, name), name


def _loaded_after(imports: str, modules: tuple) -> list:
    """The modules, of those named, that a fresh interpreter has loaded after
    the imports, as it prints the sorted list."""
    code = f"import sys, {imports}; print(sorted(m for m in {modules!r} if m in sys.modules))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return proc.stdout


def test_import_loads_no_xml_or_url_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client and email
    assert _loaded_after("floerrank, floerrank.cli", ("xml.sax", "urllib.request")) == "[]\n"


def test_import_loads_no_json_or_fractions():
    # the JSON writers and the CLI import json, and euler_number imports
    # fractions (which loads decimal), where they use them
    assert _loaded_after("floerrank", ("json", "fractions", "decimal")) == "[]\n"
