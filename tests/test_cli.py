from __future__ import annotations

import json

import pytest

from agkit import builtin, dump_algebra
from agkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_show_builtin(capsys):
    code, out, _ = run(capsys, "algebra", "show", "3_klst")
    assert code == 0
    assert dump_algebra(builtin("3_klst")) in out


def test_algebra_show_file(capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(dump_algebra(builtin("2")))
    code, out, _ = run(capsys, "algebra", "show", str(path))
    assert code == 0 and "algebra 2" in out


def test_algebra_show_unknown(capsys):
    code, _, err = run(capsys, "algebra", "show", "3_kldst")
    assert code == 2 and "error" in err


def test_check_valid_identity(capsys):
    code, out, _ = run(capsys, "check", "--variety", "G", "--sentence", "x*' = x**")
    assert code == 0 and "valid" in out


def test_check_with_countermodel_json(capsys):
    code, out, _ = run(capsys, "check", "--variety", "AG",
                       "--sentence", "x \\/ x' = 1", "--json")
    assert code == 0
    payload = json.loads(out)
    record = payload["records"][0]
    assert record["verdict"] is False
    assert record["detail"]["countermodel"]["algebra"] == "3_klst"
    assert record["detail"]["countermodel"]["witness"] == {"x": "a"}


def test_check_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "check", "--variety", "G", "--sentence", "x = )")
    assert code == 2 and "offset" in err


def test_check_deeply_nested_sentence_exits_2(capsys):
    sentence = "x" + "*" * 5000 + " = x"
    code, _, err = run(capsys, "check", "--variety", "G", "--sentence", sentence)
    assert code == 2 and "nested deeper" in err


def test_homs_command(capsys):
    code, out, _ = run(capsys, "homs", "3_dblst", "3_klst")
    assert code == 0 and out.startswith("0 homomorphism")
    code, out, _ = run(capsys, "homs", "4_dmba", "4_dmba", "--json")
    payload = json.loads(out)
    assert payload["records"][0]["verdict"] == 2


def test_congruences_command(capsys):
    code, out, _ = run(capsys, "congruences", "3_klst")
    assert code == 0
    assert "2 congruence(s)" in out


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "4_dmba")
    assert code == 0
    assert "simple: True" in out and "sc: True" in out


def test_amalgamate_obstruction_exits_zero(capsys):
    code, out, _ = run(capsys, "amalgamate", "--variety", "G", "--base", "2",
                       "--left", "3_dblst", "--right", "3_klst")
    assert code == 0
    assert "NOT amalgamable" in out


def test_amalgamate_json_certificate(capsys):
    code, out, _ = run(capsys, "amalgamate", "--variety", "RDBLST", "--base", "2",
                       "--left", "3_dblst", "--right", "3_dblst", "--json")
    assert code == 0
    record = json.loads(out)["records"][0]
    assert record["verdict"] == "amalgam"
    assert record["detail"]["factors"] == ["3_dblst"]


def test_classify_ap_all_matches_expected_table(capsys):
    code, out, _ = run(capsys, "classify-ap", "--all")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("|") and "---" not in l]
    table = {row.split("|")[1].strip(): row.split("|")[3].strip()
             for row in lines[1:]}
    assert table == {"BA": "yes", "RDBLST": "yes", "RKLST": "yes", "DMBA": "yes",
                     "G": "no", "V_DBLST_DMBA": "no", "V_KLST_DMBA": "no", "AG": "no"}


def test_classify_ap_requires_selector(capsys):
    code, _, err = run(capsys, "classify-ap")
    assert code == 2 and "classify-ap" in err


def test_lemmas_command(capsys):
    code, out, _ = run(capsys, "lemmas", "--variety", "V_KLST_DMBA")
    assert code == 0
    assert "L3.14" in out and "FAIL" not in out


def test_applications_command(capsys):
    code, out, _ = run(capsys, "applications", "--variety", "G")
    assert code == 0
    assert "tp: False" in out
    assert "(3_dblst,3_klst)=no" in out


def test_free_command(capsys):
    code, out, _ = run(capsys, "free", "--variety", "BA", "-n", "1")
    assert code == 0 and "4 elements" in out


def test_unknown_command_exits_2(capsys):
    assert main(["bogus"]) == 2


def test_json_reports_are_canonical_and_deterministic(capsys):
    _, first, _ = run(capsys, "classify-ap", "--all", "--json")
    _, second, _ = run(capsys, "classify-ap", "--all", "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == 1
    assert first == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_verify_paper_cli(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-paper", "--out", str(out_path))
    assert code == 0
    assert "0 failed -> OK" in out
    payload = json.loads(out_path.read_text())
    assert payload["summary"]["ok"] is True
    assert payload["summary"]["checks"] == len(payload["records"])


def test_verify_paper_cli_mismatch_exits_1(capsys, tmp_path, monkeypatch):
    import agkit.algebra

    tampered = dict(agkit.algebra.BUILTIN_SPECS["3_dblst"])
    tampered["quote"] = (2, 1, 0)
    monkeypatch.setitem(agkit.algebra.BUILTIN_SPECS, "3_dblst", tampered)
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-paper", "--out", str(out_path))
    assert code == 1
    assert "FAIL ap/G [" in out
    assert out.endswith("failed -> MISMATCH\n")
    payload = json.loads(out_path.read_text())
    assert payload["command"] == ["verify-paper", "--out", str(out_path)]
    assert payload["summary"]["ok"] is False
