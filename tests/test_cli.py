import json
import subprocess
import sys

from stratachain.cli import main
from stratachain.corpus import folded_book, solid_tetrahedron, torus9


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_builtin_disk(capsys):
    code, out, err = run(capsys, "analyze", "--builtin", "disk")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["input"]["name"] == "disk"
    assert doc["strata"]["counts"] == {"0": 0, "1": 1, "2": 1}
    assert doc["chain"]["dims"] == [0, 1, 1]
    assert doc["homology"] == {"top_homology_dim": 0, "oracle_dim": 0}
    assert doc["taut"]["taut"] is True
    assert doc["matroid"]["canonical_form"] == "n=1;circuits=[]"
    assert "timing" not in doc


def test_analyze_is_deterministic(capsys):
    _, out1, _ = run(capsys, "analyze", "--builtin", "torus7")
    _, out2, _ = run(capsys, "analyze", "--builtin", "torus7")
    assert out1 == out2


def test_analyze_timing_flag(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "circle", "--timing")
    assert code == 0
    assert set(json.loads(out)["timing"]) == \
        {"stratify", "chains", "matroid", "taut"}


def test_analyze_file_matches_builtin(tmp_path, capsys):
    from stratachain import builtin_complex
    p = tmp_path / "torus7.json"
    p.write_text(builtin_complex("torus7").to_json())
    _, from_file, _ = run(capsys, "analyze", str(p))
    _, from_builtin, _ = run(capsys, "analyze", "--builtin", "torus7")
    assert from_file == from_builtin


def test_analyze_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--builtin", "theta",
                       "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["input"]["name"] == "theta"


def test_analyze_text_format(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "disk",
                       "--format", "text")
    assert code == 0
    assert "chain.dims = [0, 1, 1]" in out
    _, out2, _ = run(capsys, "analyze", "--builtin", "disk", "--format", "text")
    assert out == out2


def test_analyze_dimension_three_taut_skipped(tmp_path, capsys):
    p = tmp_path / "solid.json"
    p.write_text(solid_tetrahedron().to_json())
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    assert json.loads(out)["taut"] is None


def test_analyze_empty_input(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text('{"maximal_simplices": []}\n')
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["chain"]["dims"] == []
    assert doc["matroid"]["canonical_form"] == "n=0;circuits=[]"


def test_analyze_dimension_cap(tmp_path, capsys):
    p = tmp_path / "four.json"
    p.write_text('{"maximal_simplices": [[0,1,2,3,4]]}')
    code, out, err = run(capsys, "analyze", str(p))
    assert code == 2 and out == ""
    assert "error:" in err


def test_dimension_cap_rejected_before_face_closure(tmp_path, capsys,
                                                   monkeypatch):
    from stratachain import simplicial

    def no_closure(cell):
        raise AssertionError("closed %d vertices under faces" % len(cell))

    monkeypatch.setattr(simplicial, "faces_of", no_closure)
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"maximal_simplices": [[0, 1], list(range(40))]}))
    for command in ("analyze", "matroid", "compare"):
        args = [command, str(p)] + ([str(p)] if command == "compare" else [])
        code, out, err = run(capsys, *args)
        assert code == 2 and out == "", command
        assert err == "error: stratification supports dimension <= 3, " \
                      "got 39\n", command
    # a malformed simplex is still an input error, even beside a big one
    p.write_text('{"maximal_simplices": [[0, 1, 2, 3, 4, 5], [1, 1]]}')
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 1 and "repeated vertices" in err


def test_compare_true_with_certificate(tmp_path, capsys):
    p = tmp_path / "torus9.json"
    p.write_text(torus9().to_json())
    code, out, _ = run(capsys, "compare", "--builtin", "torus7", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["homeomorphic"] is True
    assert doc["certificate"] is not None


def test_compare_false(capsys):
    code, out, _ = run(capsys, "compare", "--builtin", "torus7",
                       "--builtin", "klein8")
    assert code == 0
    doc = json.loads(out)
    assert doc["homeomorphic"] is False
    assert doc["certificate"] is None


def test_compare_not_taut_exits_2(tmp_path, capsys):
    p = tmp_path / "folded.json"
    p.write_text(folded_book().to_json())
    code, out, err = run(capsys, "compare", str(p), "--builtin", "disk")
    assert code == 2 and out == ""
    assert "not taut" in err and "stratum 0" in err


def test_compare_dimension_three_exits_2(tmp_path, capsys):
    p = tmp_path / "solid.json"
    p.write_text(solid_tetrahedron().to_json())
    code, _, err = run(capsys, "compare", str(p), "--builtin", "disk")
    assert code == 2 and "dimension" in err


def test_matroid_report(capsys):
    code, out, _ = run(capsys, "matroid", "--builtin", "wedge2spheres")
    assert code == 0
    doc = json.loads(out)
    assert doc["matroid"]["ground"] == [0, 1]
    assert doc["matroid"]["circuits"] == [
        {"positive": [], "negative": [0]}, {"positive": [0], "negative": []},
        {"positive": [], "negative": [1]}, {"positive": [1], "negative": []}]
    assert doc["matroid"]["canonical_form"] == "n=2;circuits=[-0,-1]"


def test_matroid_cap_exits_2(capsys):
    code, _, err = run(capsys, "matroid", "--builtin", "wedge2spheres",
                       "--max-ground", "1")
    assert code == 2 and "cap" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/path.json")
    assert code == 1 and "cannot read" in err


def test_bad_json_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 1 and "error:" in err


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "analyze", str(p))
    assert code == 1 and out == ""
    assert err.startswith("error: %s: invalid JSON: " % p)


def test_unknown_builtin_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "--builtin", "zzz")
    assert code == 1 and "unknown builtin" in err


def test_wrong_input_count_exits_1(capsys):
    code, _, err = run(capsys, "compare", "--builtin", "disk")
    assert code == 1 and "expected 2" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stratachain", "analyze", "--builtin", "circle"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["input"]["name"] == "circle"
    assert doc["homology"]["top_homology_dim"] == 1
