from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from collections import Counter

import pytest

import agkit.algebra
import agkit.cli
import agkit.congruence
import agkit.report
from agkit import builtin, direct_product, dump_algebra, load_algebra
from agkit.cli import main
from tests.conftest import chain4, chain_algebra, log_calls, renumber


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


def _nested_file(path):
    path.write_text("[" * 100_000)
    return path


def _non_utf8_file(path):
    path.write_bytes(b"\xff\xfe{")
    return path


def _directory(path):
    path.mkdir()
    return path


@pytest.mark.parametrize("make, message", [
    (_nested_file, "nested too deeply"),
    (_non_utf8_file, "not UTF-8 (invalid start byte) at offset 0"),
    (_directory, "cannot read algebra file"),
], ids=["deeply_nested", "not_utf8", "directory"])
def test_hostile_algebra_file_exits_2(capsys, tmp_path, make, message):
    path = make(tmp_path / "hostile.json")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert err.startswith("error: ") and message in err and "Traceback" not in err


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


def test_classify_file_at_the_congruence_cap(capsys, tmp_path, monkeypatch):
    # 2^8: 256 elements, the elements bound and default cap, and 2^8
    # congruences by Fraser-Horn, which classify reads off 8 closures
    # without listing them
    path = tmp_path / "power.json"
    path.write_text(dump_algebra(direct_product([builtin("2")] * 8)))
    lattices = []
    log_calls(monkeypatch, agkit.congruence, "congruence_lattice", lattices)
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0 and "simple: False" in out
    assert lattices == []
    assert len(agkit.congruence.congruence_lattice(load_algebra(path.read_text()))) == 256


def test_classify_a_long_chain_without_listing_its_congruences(capsys, tmp_path):
    """A 30-element chain with identity star and quote passes every cap, and
    every mask of its 29 join-irreducibles is closed: 2^29 congruences.
    classify reads its verdicts off the 29 closures, one per bit."""
    path = tmp_path / "chain30.json"
    identity = tuple(range(30))
    path.write_text(dump_algebra(chain_algebra(30, identity, identity)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", str(path))
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines()[:3] == [
        "simple: False", "subdirectly_irreducible: False", "directly_indecomposable: True"]


def test_amalgamate_obstruction_exits_zero(capsys):
    code, out, _ = run(capsys, "amalgamate", "--variety", "G", "--base", "2",
                       "--left", "3_dblst", "--right", "3_klst")
    assert code == 0
    assert "NOT amalgamable" in out


def test_amalgamate_without_embedding_exits_2(capsys):
    code, _, err = run(capsys, "amalgamate", "--variety", "AG", "--base", "4_dmba",
                       "--left", "2", "--right", "2")
    assert code == 2
    assert "no embedding 4_dmba -> 2" in err and "Traceback" not in err


def test_amalgamate_names_the_si_member_as_amalgam(capsys):
    code, out, _ = run(capsys, "amalgamate", "--variety", "RDBLST", "--base", "2",
                       "--left", "3_dblst", "--right", "3_dblst")
    assert code == 0
    assert "D = 3_dblst (3 elements)" in out


def test_amalgamate_trivial_diagram(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{"name": "1", "size": 1, "labels": ["0"], "join": [[0]], '
                    '"meet": [[0]], "star": [0], "quote": [0], "zero": 0, "one": 0}')
    code, out, err = run(capsys, "amalgamate", "--variety", "BA", "--base", str(path),
                         "--left", str(path), "--right", str(path))
    assert code == 0 and "Traceback" not in err
    assert "D = 1 (1 elements)" in out


def test_amalgamate_names_a_product_it_does_not_build(capsys, tmp_path):
    """<4_dmba; 4_dmba^3, 4_dmba^3> in DMBA: the amalgam's name and size are
    read off its five factors, and its 2^20-entry tables are never built."""
    path = tmp_path / "cube.json"
    path.write_text(dump_algebra(direct_product([builtin("4_dmba")] * 3)))
    code, out, _ = run(capsys, "amalgamate", "--variety", "DMBA", "--base", "4_dmba",
                       "--left", str(path), "--right", str(path))
    assert code == 0
    assert out.rstrip().endswith(
        "D = (4_dmba x 4_dmba x 4_dmba x 4_dmba x 4_dmba) (1024 elements)")


def test_homs_from_a_trivial_source(capsys, tmp_path):
    one, c2 = tmp_path / "one.json", tmp_path / "c2.json"
    one.write_text('{"name": "one", "size": 1, "labels": ["0"], "join": [[0]], '
                   '"meet": [[0]], "star": [0], "quote": [0], "zero": 0, "one": 0}')
    # the 2-chain whose star and quote fix both elements
    c2.write_text('{"name": "c2", "size": 2, "labels": ["0", "1"], '
                  '"join": [[0, 1], [1, 1]], "meet": [[0, 0], [0, 1]], '
                  '"star": [0, 1], "quote": [0, 1], "zero": 0, "one": 1}')
    code, out, err = run(capsys, "homs", str(one), str(c2))
    assert code == 0 and "Traceback" not in err
    assert "0 homomorphism(s) one -> c2" in out


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


@pytest.mark.parametrize("argv", [["lemmas"], ["lemmas", "--json"],
                                  ["classify", "4_dmba", "--json"], ["bogus"]])
def test_a_separator_before_the_command_changes_nothing(capsys, argv):
    """`agkit -- lemmas` runs `agkit lemmas`: the "--" ends the options of
    agkit, which has none here, so the command still follows it, and an
    unknown one is named as such."""
    assert run(capsys, "--", *argv) == run(capsys, *argv)


def test_applications_command(capsys):
    code, out, _ = run(capsys, "applications", "--variety", "G")
    assert code == 0
    assert "tp: False" in out
    assert "(3_dblst,3_klst)=no" in out


def test_free_command(capsys):
    code, out, _ = run(capsys, "free", "--variety", "BA", "-n", "1")
    assert code == 0 and "4 elements" in out and "factors: 2[0] x 2[1]" in out
    code, out, _ = run(capsys, "free", "--variety", "AG", "-n", "1", "--json")
    (record,) = json.loads(out)["records"]
    assert record["verdict"] == 144 == 2 * 2 * 3 * 3 * 4
    assert record["detail"]["factors"] == [
        {"si": "2", "generators": ["0"]}, {"si": "2", "generators": ["1"]},
        {"si": "3_dblst", "generators": ["a"]}, {"si": "3_klst", "generators": ["a"]},
        {"si": "4_dmba", "generators": ["a"]}]


@pytest.mark.parametrize("name, size", [("DMBA", 65_536), ("G", 944_784),
                                        ("AG", 3_869_835_264)])
def test_free_past_the_old_cap_prints_its_size_at_once(capsys, monkeypatch, name, size):
    """free prints what free_algebra proves and builds no table of F: the only
    products built are proof (b)'s squares, of at most 4 x 4 elements."""
    products = []
    log_calls(monkeypatch, agkit.algebra, "direct_product", products)
    start = time.perf_counter()
    code, out, _ = run(capsys, "free", "--variety", name, "-n", "2")
    assert time.perf_counter() - start < 1
    assert code == 0 and f": {size} elements;" in out
    assert products and max(product.size for _, product in products) <= 16


@pytest.mark.parametrize("n", ["4", "-1"])
def test_free_generators_out_of_range_exits_2(capsys, n):
    code, _, err = run(capsys, "free", "--variety", "BA", "-n", n)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_report_is_encoded_only_for_json_or_out(capsys, monkeypatch, tmp_path):
    """A command in text form encodes no report; --json and --out each
    encode it once, and write the same bytes."""
    encoded = []
    to_json = agkit.report.Report.to_json

    def logged(report):
        encoded.append(report)
        return to_json(report)

    monkeypatch.setattr(agkit.report.Report, "to_json", logged)
    check = ["check", "--variety", "BA", "--sentence", "x'' = x"]
    assert run(capsys, *check)[0] == 0 and encoded == []
    _, out, _ = run(capsys, *check, "--json")
    assert len(encoded) == 1 and json.loads(out)["records"][0]["verdict"] is True
    path = tmp_path / "report.json"
    assert run(capsys, "verify-paper", "--out", str(path))[0] == 0
    assert len(encoded) == 2 and path.read_text() == to_json(encoded[1])


def test_unknown_command_exits_2(capsys):
    assert main(["bogus"]) == 2


COMMAND_CHOICES = "{" + ",".join(agkit.cli._COMMANDS) + "}"  # as the usage line shows them


@pytest.mark.parametrize("argv, message", [
    ([], f"the following arguments are required: {COMMAND_CHOICES}"),
    (["algebra"], "the following arguments are required: {show}"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["--"], f"the following arguments are required: {COMMAND_CHOICES}"),
    (["--", "--help"], f"argument {COMMAND_CHOICES}: invalid choice: '--help' (choose from "
                       + ", ".join(map(repr, agkit.cli._COMMANDS)) + ")"),
], ids=["no command", "no algebra command", "unknown option", "separator alone",
        "option-like command after the separator"])
def test_rejection_names_the_argument_as_the_usage_line_does(capsys, argv, message):
    """A missing command is named by its choices, not by an internal
    destination, and an unknown option is named before a missing command."""
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("target, reason", [
    (lambda tmp: tmp, "Is a directory"),
    (lambda tmp: tmp / "missing" / "report.json", "No such file or directory"),
], ids=["directory", "missing_parent"])
def test_verify_paper_unwritable_out_exits_2(capsys, tmp_path, target, reason):
    out = target(tmp_path)
    code, stdout, err = run(capsys, "verify-paper", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == f"error: cannot write {out}: {reason}\n"


def test_non_integer_cap_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("AGKIT_CAP", "abc")
    out = tmp_path / "report.json"
    for argv in (["classify", "2"], ["verify-paper", "--out", str(out)]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "AGKIT_CAP" in err and "Traceback" not in err
    assert not out.exists()


def test_capped_verify_paper_writes_error_records_and_exits_1(capsys, monkeypatch, tmp_path):
    """A cap hit inside verify-paper fails the records of its unit; the run
    goes on, --out is written and the exit code is that of a failed check."""
    out = tmp_path / "report.json"
    monkeypatch.setenv("AGKIT_CAP", "20")
    code, stdout, _ = run(capsys, "verify-paper", "--out", str(out))
    assert code == 1
    records = json.loads(out.read_text())["records"]
    errors = [r for r in records if r["verdict"] == "error"]
    assert (len(records), len(errors)) == (218, 16)
    # three-variable sentences on 3_dblst and 3_klst (27 assignments), and the
    # three-variable base J on 4_dmba (64): of the base matrix only the
    # V_DBLST_DMBA cells fail, the other cells being units of their own
    assert Counter(r["detail"]["error"] for r in errors) == {
        "assignments guard exceeded: requested 27, limit 20": 15,
        "assignments guard exceeded: requested 64, limit 20": 1}
    assert [r["id"] for r in errors if r["id"].startswith("base_matrix/")] == [
        f"base_matrix/{si}/V_DBLST_DMBA" for si in ("3_dblst", "3_klst", "4_dmba")]
    fails = [line for line in stdout.splitlines() if line.startswith("FAIL ")]
    assert fails == [f"FAIL {r['id']} [{r['label']}]: got 'error' ({r['detail']['error']}), "
                     f"expected {r['expected']!r}" for r in errors]
    assert fails[0] == ("FAIL hereditarily_si/V_DBLST_DMBA [Thm 3.1 hypothesis (2)]: got "
                        "'error' (assignments guard exceeded: requested 27, limit 20), "
                        "expected True")


def test_capped_lemmas_gives_error_rows_and_exits_1(capsys, monkeypatch):
    """Each lemma is a unit, as in verify-paper: a cap hit fails its own row
    and record, and the other lemmas still run."""
    monkeypatch.setenv("AGKIT_CAP", "20")
    code, out, _ = run(capsys, "lemmas")
    assert code == 1
    rows = [line.split(" | ")[0].lstrip("| ") for line in out.splitlines() if "| error |" in line]
    assert rows == ["LH", "L3.19", "214", "215"]  # the three-variable lemmas (27 assignments)
    code, out, _ = run(capsys, "lemmas", "--json")
    records = json.loads(out)["records"]
    assert code == 1 and len(records) == 25
    assert {r["id"]: r["detail"] for r in records if r["verdict"] == "error"} == {
        f"lemma/{name}": {"error": "assignments guard exceeded: requested 27, limit 20"}
        for name in rows}
    assert all(r["verdict"] is True for r in records if r["verdict"] != "error")


def test_capped_classify_ap_gives_an_error_row_and_exits_1(capsys, monkeypatch):
    """Each variety is a unit, as in verify-paper: a cap hit fails its own row
    and record, and the other varieties are still classified."""
    monkeypatch.setenv("AGKIT_CAP", "20")
    message = "assignments guard exceeded: requested 27, limit 20"
    code, out, _ = run(capsys, "classify-ap", "--all")
    assert code == 1
    rows = [line for line in out.splitlines() if "| error |" in line]
    assert rows == [f"| V_DBLST_DMBA | 2,3_dblst,4_dmba | error | {message} |"]
    assert len(out.splitlines()) == 2 + 8
    code, out, _ = run(capsys, "classify-ap", "--all", "--json")
    records = json.loads(out)["records"]
    assert code == 1 and len(records) == 8
    assert [(r["id"], r["ok"], r["detail"]) for r in records if r["verdict"] == "error"] == [
        ("ap/V_DBLST_DMBA", False, {"error": message})]


# sha256 of the whole --json stdout of commands whose result records are read
# by `Amalgam.as_dict`, `applications` and `verify._add_lemma`; the verify-paper
# digest covers none of these outputs (its theorem diagrams are obstructions).
GOLDEN_CLI_SHA256 = {
    "one_pair_amalgam": (
        "4486c713b283c86dd0539f7de431c91f12e9b05a42d7dc80bf5015150933cd4f",
        ["amalgamate", "--variety", "RDBLST", "--base", "2", "--left", "3_dblst",
         "--right", "3_dblst"]),
    "obstruction": (
        "23829c75601cae08ed05e9a15304cf23c8f1629eb4b0fda7278294b774ec3325",
        ["amalgamate", "--variety", "G", "--base", "2", "--left", "3_dblst",
         "--right", "3_klst"]),
    "two_factor_amalgam": (
        "52f0c1fad312658ebbbdbd2c71d00402a609f181ae3e2512c3668584df62d8d3",
        ["amalgamate", "--variety", "RDBLST", "--base", "2", "--left", "product.json",
         "--right", "3_dblst"]),
    "applications_G": (
        "bed11dc50323018c5f0e73420fde6ec7df76ee512cf3c9171ec8e256154af7b8",
        ["applications", "--variety", "G"]),
    "applications_RDBLST": (
        "dd69fbaa1d11db0f982d446f89f68f46cdab69a1ce8420826d8803c6f2dd55fd",
        ["applications", "--variety", "RDBLST"]),
    "lemmas": (
        "9c1ac48066b5424876a881e758a8e3bdcd09c83dec4f8cd397f2bc7df83588c8",
        ["lemmas"]),
    "lemmas_V_KLST_DMBA": (
        "1591fcdfce9fc5d65a96cdae4132daf263c7a21e22b17ff4296164ec0193ec46",
        ["lemmas", "--variety", "V_KLST_DMBA"]),
    "classify_ap_all": (
        "65836c48c3080da88d31292e390e11b9c06020f94e3a9c3ff0fc7e15975813b7",
        ["classify-ap", "--all"]),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CLI_SHA256))
def test_json_output_matches_golden_digest(capsys, tmp_path, monkeypatch, case):
    digest, argv = GOLDEN_CLI_SHA256[case]
    # the two-factor amalgam <2; 2 x 3_dblst, 3_dblst> reads its left side from
    # a file; a relative path keeps the echoed command the same in every run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "product.json").write_text(
        dump_algebra(direct_product([builtin("2"), builtin("3_dblst")])))
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout, then of the --json stdout, of `congruences` and
# `classify` on each builtin and on the algebra files of CONGRUENCE_FILES,
# captured while Con(A) was still built as partitions: the text lists every
# partition with its classes, finest first, and the JSON holds the blocks and
# the monolith.
GOLDEN_CONGRUENCE_SHA256 = {
    "congruences 2": ("ab9cff5e35ed5b9f9bb818eb2c5a2adbdb35e3b150ffbcabd6299c0ba89ab5da",
                      "8cf40afa909b16c5223cfa1405879686aa46da426838486cde1ee7f041906dc3"),
    "congruences 3_dblst": ("aa2b073ed0683f50537e82d419ff957b96324134b77589b75895827c0b77cd5f",
                            "ce3b9673b706cf2630f9bf648e9f555ce08108dedd474585f376ccbe5a312df1"),
    "congruences 3_klst": ("7e848c3aa0806857a14a31c07ed8676819a8a3b653b25f89267225a06725c5d5",
                           "9137b48d32515905e142d81144a9d8c5add2116d04d12c9c79507825c6e9e86d"),
    "congruences 4_dmba": ("cc7f45153ee18654bc424b37e7a8baaed90f0c392b7d271c4efab1017b987352",
                           "bc15a0154a8242f34fbbfeebcc06f02ef77cb905089cde60080e7b99f1648951"),
    "congruences product36.json": (
        "eb65226d89ad816e38516cca6c926c88341e4bd60f89639ef21d0fea4351fe26",
        "8f772ab2c6f04789cd398bd8bec86fb1b0e92532b4301a6d947d9a54cb02a7fe"),
    "congruences power8.json": (
        "dd0a75a02ab8c06173482ade4927ce00a0680f646fd229b3792e8ff906f4f530",
        "ed38a16e400a83aef68da2e27d267f840c06b334c87b5b9e540d7e5634534cc6"),
    "congruences chain4.json": (
        "58fd5f36abf3c6124eac6a49a6c4e45a1c553b3c83625d189273071e56bc7ee1",
        "ad2bf2007b1a4961b5212bb4143d4aa9500546c94ab5050fd48a63c4c71abea6"),
    "classify 2": ("8f3625aa90182f47d8e8cfe53a8d92d5202a94c651d53fb88e3ea584ec2a962f",
                   "bc727e1e7f0e7edf11a6677671be044d8e885561f4f288cf1024224cf297dc04"),
    "classify 3_dblst": ("e0c8405f8bf7223dd57d995f9e219a66f7feb0d639697515d7f7668a54c828bb",
                         "c37e66f6d6356aa75d4d3ed436bff19bea30866120088502a818b8905c991117"),
    "classify 3_klst": ("e0c8405f8bf7223dd57d995f9e219a66f7feb0d639697515d7f7668a54c828bb",
                        "c9536335a34246f2b996493048c174871f23b9c21af085d7b2956b26096754ec"),
    "classify 4_dmba": ("3a81b136ff8f34b91f167f69cd51e375c0da892a54c034702758a70e5a2beafe",
                        "0504e971c749c0f0a3701e8bdc5fb4e1964945735cf3e8cb07272b922e3a62c7"),
    "classify product36.json": (
        "e07bb997d03650413d570b9b51d109b5079fe001e7fc32ba5e350a30dc38a52d",
        "bf30dff7cb16306868ee2296411aae5f7c54b1b3e04ebd6af9d695ebfd747c1f"),
    "classify power8.json": (
        "e07bb997d03650413d570b9b51d109b5079fe001e7fc32ba5e350a30dc38a52d",
        "14fb496119aebc6c37d5edd3fca7400f0d434a155d9f1c633152ef4a2a73de6b"),
    "classify chain4.json": (
        "c0b0db5b15c47c4532b1709474a477bb847019da2800b706a8688c9698bc1a2d",
        "1046a6f6c2d2b5e7e112f8ba05fef695abe26da1f2f455af54294d1ebd514614"),
}
CONGRUENCE_FILES = {
    # a renumbered 36-element product: no partition is in the product's order
    "product36.json": lambda: renumber(
        direct_product([builtin(n) for n in ("3_dblst", "3_klst", "4_dmba")]),
        random.Random(0).sample(range(36), 36)),
    # 2^8: 256 elements and congruences, at the elements bound
    "power8.json": lambda: direct_product([builtin("2")] * 8),
    # the chain 0 < a < b < 1 with five congruences and the monolith {0,a | b | 1}
    "chain4.json": lambda: chain4((0, 0, 0, 0), (0, 0, 1, 0)),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CONGRUENCE_SHA256))
def test_congruence_output_matches_golden_digest(capsys, tmp_path, monkeypatch, case):
    command, target = case.split()
    monkeypatch.chdir(tmp_path)  # a relative path keeps the echoed command the same
    if target in CONGRUENCE_FILES:
        (tmp_path / target).write_text(dump_algebra(CONGRUENCE_FILES[target]()))
    digests = []
    for flags in ((), ("--json",)):
        code, out, _ = run(capsys, command, target, *flags)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN_CONGRUENCE_SHA256[case]


def _hostile_algebras(tmp_path) -> list[str]:
    """An algebra argument from each hostile class: a missing file, a
    directory, a file that is not UTF-8, not JSON, nested too deeply, not an
    object, short of keys, with a ragged table or with more elements than an
    algebra holds, then an unknown builtin and an empty name."""
    files = {"not_utf8.json": b"\xff\xfe{", "not_json.json": b"{not json",
             "nested.json": b"[" * 100_000, "array.json": b"[1, 2]",
             "keys.json": b'{"name": "x", "size": 2}',
             "ragged.json": json.dumps(dict(json.loads(dump_algebra(builtin("2"))),
                                            join=[[0, 1], [1]])).encode(),
             "chain300.json": CHAIN_300}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "directory").mkdir()
    return [str(tmp_path / name) for name in ("missing.json", "directory", *files)] + [
        "3_kldst", ""]


def _chain_document(n: int) -> dict:
    """The JSON document of the n-element chain, written without building it."""
    return dict(name=f"chain{n}", size=n, labels=[str(x) for x in range(n)],
                join=[[max(x, y) for y in range(n)] for x in range(n)],
                meet=[[min(x, y) for y in range(n)] for x in range(n)],
                star=[n - 1] + [0] * (n - 1), quote=list(reversed(range(n))), zero=0, one=n - 1)


CHAIN_300 = json.dumps(_chain_document(300)).encode()


def test_algebra_past_256_elements_exits_2(capsys, tmp_path):
    path = tmp_path / "chain300.json"
    path.write_bytes(CHAIN_300)
    code, out, err = run(capsys, "algebra", "show", str(path))
    assert (code, out) == (2, "")
    assert err == "error: chain300: size must be 1 to 256\n"


BAD_VARIETIES = ("NOPE", "")
BAD_SENTENCES = ("x = " + "(" * 200 + "x" + ")" * 200, "x" + "*" * 500 + " = x",
                 "", "=>", "x = y =>")
# AGKIT_CAP at 1, at 0 and below, and malformed
BAD_CAPS = ("1", "0", "-3", "abc", "")


def _hostile_argvs(tmp_path) -> dict[str, list[list[str]]]:
    """Per command, argument lists drawn from the hostile classes."""
    algebras = _hostile_algebras(tmp_path)
    return {
        "algebra": [["algebra", "show", a] for a in algebras],
        "check": [["check", "--variety", v, "--sentence", "x = x"] for v in BAD_VARIETIES]
        + [["check", "--variety", "G", "--sentence", s] for s in BAD_SENTENCES],
        "homs": [argv for a in algebras for argv in (["homs", a, "2"], ["homs", "2", a])],
        "congruences": [["congruences", a] for a in algebras],
        "classify": [["classify", a] for a in algebras],
        "amalgamate": [["amalgamate", "--variety", "AG", "--base", a, "--left", "2",
                        "--right", "2"] for a in algebras]
        + [["amalgamate", "--variety", "AG", "--base", "2", "--left", "3_klst",
            "--right", a] for a in algebras]
        + [["amalgamate", "--variety", v, "--base", "2", "--left", "2", "--right", "2"]
           for v in BAD_VARIETIES],
        "classify-ap": [["classify-ap"]] + [["classify-ap", "--variety", v]
                                            for v in BAD_VARIETIES],
        "lemmas": [["lemmas", "--variety", v] for v in BAD_VARIETIES],
        "applications": [["applications", "--variety", v] for v in BAD_VARIETIES],
        "free": [["free", "--variety", v, "-n", "1"] for v in BAD_VARIETIES]
        + [["free", "--variety", "AG", "-n", n] for n in ("0", "-1", "4", "1000000")]
        + [["free", "--variety", "AG", "-n", "1", "--cap", cap]
           for cap in ("0", "-1", "1", "100000000")],
        "verify-paper": [["verify-paper", "--out", str(tmp_path / "directory")],
                         ["verify-paper", "--out", str(tmp_path / "missing" / "r.json")]],
    }


# Per command, and at the top level, argument lists that argparse rejects: a
# missing or unknown command or option, a missing value, a value of the wrong
# type and a stray positional
REJECTED = {
    "top level": [[], ["bogus"], ["--bogus"], ["--json", "lemmas"]],
    "algebra": [["algebra"], ["algebra", "bogus"], ["algebra", "show"],
                ["algebra", "--json", "show", "2"], ["algebra", "show", "2", "--bogus"]],
    "check": [["check"], ["check", "--variety", "G"],
              ["check", "--variety", "G", "--sentence", "x = x", "extra"]],
    "homs": [["homs"], ["homs", "2"], ["homs", "2", "2", "2"]],
    "congruences": [["congruences"], ["congruences", "2", "--bogus"]],
    "classify": [["classify"], ["classify", "2", "3"]],
    "amalgamate": [["amalgamate", "--variety", "G"],
                   ["amalgamate", "--base", "2", "--left", "2", "--right", "2"]],
    "classify-ap": [["classify-ap", "--variety"], ["classify-ap", "--all", "x"]],
    "lemmas": [["lemmas", "--variety"], ["lemmas", "x"]],
    "applications": [["applications"], ["applications", "--variety"]],
    "free": [["free", "--variety", "BA"], ["free", "--variety", "BA", "-n", "x"],
             ["free", "--variety", "BA", "-n", "1", "--cap", "1.5"], ["free", "-n", "1"]],
    "verify-paper": [["verify-paper", "--json"], ["verify-paper", "--out"],
                     ["verify-paper", "x"]],
}

# One well-formed call per command, run under each of BAD_CAPS
WELL_FORMED = {
    "algebra": ["algebra", "show", "2"],
    "check": ["check", "--variety", "G", "--sentence", "x*' = x**"],
    "homs": ["homs", "2", "3_klst"],
    "congruences": ["congruences", "4_dmba"],
    "classify": ["classify", "3_klst"],
    "amalgamate": ["amalgamate", "--variety", "AG", "--base", "2", "--left", "3_klst",
                   "--right", "4_dmba"],
    "classify-ap": ["classify-ap", "--all"],
    "lemmas": ["lemmas"],
    "applications": ["applications", "--variety", "G"],
    "free": ["free", "--variety", "G", "-n", "1"],
    "verify-paper": ["verify-paper", "--out", "{tmp}/report.json"],
}


@pytest.mark.parametrize("command", list(REJECTED))
def test_hostile_input_ends_in_an_exit_code(capsys, monkeypatch, tmp_path, command):
    """Every command, on each class of hostile input, returns 0, 1 or 2 and
    lets no exception escape; exit 2 comes with one stderr line, `error: ...`.
    What argparse rejects, here or at the top level, exits 2."""
    hostile = _hostile_argvs(tmp_path)
    assert WELL_FORMED.keys() == hostile.keys() == agkit.cli._COMMANDS.keys()
    assert REJECTED.keys() - {"top level"} == agkit.cli._COMMANDS.keys()
    sweep = [(argv, None) for argv in hostile.get(command, [])]
    if command in WELL_FORMED:
        well_formed = [arg.format(tmp=tmp_path) for arg in WELL_FORMED[command]]
        sweep += [(well_formed, cap) for cap in BAD_CAPS]
    sweep += [(argv, None) for argv in REJECTED[command]]
    for argv, cap in sweep:
        if cap is None:
            monkeypatch.delenv("AGKIT_CAP", raising=False)
        else:
            monkeypatch.setenv("AGKIT_CAP", cap)
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), (argv, cap)
        if argv in REJECTED[command]:
            assert (code, out) == (2, ""), argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, cap, err)


# sha256 of the stdout of --help, --version and each command's -h, captured
# before the commands were declared in one registry; each exits 0 with
# nothing on stderr.  The bytes are argparse's layout at 80 columns, which
# differs across Python versions, so they are pinned for Python 3.11.
GOLDEN_HELP_SHA256 = {
    "--help": "31a61d6875e2b471d14ce301c8be49e74fd9e0037ead5d3334756c74fd7d3a86",
    "--version": "4ff5db33655c4839ca220e41f1d3090a51d1d2986372f3f5dada67727301ce7f",
    "algebra -h": "c36cf4491e4d60966ff39762dde823a6b56cbfb8fc339dd2ca0e042180eac3a0",
    "algebra show -h": "b3bb0c0e26b6e19fce3716ef9b0ab2063ceddd5beeda03d10bb598de64fee424",
    "check -h": "710811e79886a07b374dba58d496cd914cbfd004fd0eb58d949766cf84d43109",
    "homs -h": "8363af4ee189157b1ac8d8e811ce19c22e9945ad15ec6089302eb816e5911191",
    "congruences -h": "223c7c2f66a0ca9c9b14e927fb929e4c53e34e4bebb4c400da87c0dc26432533",
    "classify -h": "a64a5b4cda3d3ce97b4045b933f1e1bf6861d369900dc907a7cd3fc91c1b9911",
    "amalgamate -h": "f296a7eceaf538cd3e8c5c51fde53526f5dd68b56ca664aae8bbb5404d2be18b",
    "classify-ap -h": "2398b04c6b4655516e780552918fac8b002198e356c5c04a64945ea01c4fcd79",
    "lemmas -h": "9dfefb491cf0daa1fa53eade84d55c3a50e75b43a43ae19edbafb482ed8ed152",
    "applications -h": "99e8eb90dacec2bc8d1703f93227635ad6c643d0fbe4b091e88f3792f14d6ec0",
    "free -h": "040900affce439b489c4a780301e73e1ec9d58944166d6aba0385ccfb8b42b45",
    "verify-paper -h": "3d21d15e95ba84ee65b8e9a2f0de11c275eb474f563f1aa7ec1276caab7ee247",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse layout of Python 3.11")
@pytest.mark.parametrize("case", list(GOLDEN_HELP_SHA256))
def test_help_output_matches_golden_digest(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *case.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_HELP_SHA256[case]


def test_help_covers_every_command():
    assert {case.split()[0] for case in GOLDEN_HELP_SHA256} - {"--help", "--version"} == \
        agkit.cli._COMMANDS.keys()


@pytest.mark.parametrize("argv, parsers", [
    (["verify-paper", "--out", "{tmp}/report.json"], 2),  # agkit and verify-paper
    (["algebra", "show", "2"], 3),  # agkit, algebra and show
    (["--version"], 13), (["bogus"], 13),  # the whole tree
])
def test_a_run_builds_only_the_parser_it_uses(capsys, monkeypatch, tmp_path, argv, parsers):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        built.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert len(built) == parsers
