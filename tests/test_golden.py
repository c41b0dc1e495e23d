"""Golden reports: `analyze` and `matroid` output must stay byte-identical.

``data/golden_reports.json`` holds the exit code and the exact report text
of both subcommands for a fixed input set.  Any difference is a change in
behaviour; re-record (``PYTHONPATH=src python tests/test_golden.py``) only
for a deliberate output change.
"""

import json
import os
import tempfile

from stratachain.cli import main
from stratachain.corpus import (BUILTIN_NAMES, annulus, folded_book,
                                pinched_sphere, solid_tetrahedron, torus9)

from conftest import cone, freudenthal

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_reports.json")


def golden_inputs():
    """(label, complex or None for a builtin) in a fixed order."""
    out = [(name, None) for name in BUILTIN_NAMES]
    for factory in (pinched_sphere, annulus, torus9, folded_book,
                    solid_tetrahedron):
        out.append((factory.__name__, factory()))
    out.append(("cone_torus9", cone(torus9(), name="cone_torus9")))
    out.append(("freudenthal_ball2", freudenthal(2, name="freudenthal_ball2")))
    return out


def current_reports(tmp_dir):
    """{"<command> <label>": [exit code, report text]} for every input."""
    reports = {}
    report_path = os.path.join(tmp_dir, "report")
    for label, K in golden_inputs():
        if K is None:
            source = ["--builtin", label]
        else:
            source = [os.path.join(tmp_dir, label + ".json")]
            with open(source[0], "w", encoding="utf-8") as fh:
                fh.write(K.to_json())
        for command in ("analyze", "matroid"):
            code = main([command] + source + ["--out", report_path])
            with open(report_path, encoding="utf-8") as fh:
                reports["%s %s" % (command, label)] = [code, fh.read()]
            os.remove(report_path)
    return reports


def test_reports_match_golden(tmp_path):
    with open(DATA, encoding="utf-8") as fh:
        golden = json.load(fh)
    current = current_reports(str(tmp_path))
    assert sorted(current) == sorted(golden)
    for key in golden:
        assert current[key] == golden[key], key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = current_reports(tmp)
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d reports to %s" % (len(recorded), DATA))
