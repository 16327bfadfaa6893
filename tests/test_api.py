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


def test_import_loads_no_xml_or_url_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client and email
    code = ("import sys, floerrank, floerrank.cli; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request') if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout == "[]\n", proc.stdout
