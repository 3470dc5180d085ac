import json

import pytest

from maxplus import (
    generate_dm,
    generate_wielandt,
    parse_matrix,
    render_matrix,
    weak_threshold_T1,
    wielandt_skeleton,
)
from maxplus import cli, csr
from maxplus.cli import main


def write_matrix(tmp_path, matrix, name="a.txt"):
    path = tmp_path / name
    path.write_text(render_matrix(matrix))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_wielandt_skeleton(tmp_path, capsys):
    path = write_matrix(tmp_path, wielandt_skeleton(5))
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["T1"] == 17 and report["attains_wiel"] is True
    assert report["lambda"] == "0" and report["g"] == 4

    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "T1: 17" in out.replace(" ", "").replace("T1:", "T1: ").replace("  ", " ") or "17" in out


def test_powers_and_csr_output_matrix_text(tmp_path, capsys):
    path = write_matrix(tmp_path, wielandt_skeleton(3))
    code, out, _ = run(capsys, "powers", path, "--t", "3")
    assert code == 0
    assert parse_matrix(out).n == 3

    code, out, _ = run(capsys, "csr", path, "--t", "2")
    assert code == 0
    assert parse_matrix(out).n == 3


def test_powers_rejects_t_zero(tmp_path, capsys):
    path = write_matrix(tmp_path, wielandt_skeleton(3))
    code, _, err = run(capsys, "powers", path, "--t", "0")
    assert code == 1
    assert "t must be >= 1" in err
    assert err.count("\n") == 1  # single-line diagnostic


def test_parse_failure_is_single_line_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and err.startswith("error:")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/m.txt")
    assert code == 1


def test_generate_check_dm_pipeline(tmp_path, capsys):
    out_path = str(tmp_path / "dm.txt")
    code, out, _ = run(
        capsys, "generate", "dm", "--n", "5", "--g", "3", "--seed", "2", "--out", out_path
    )
    assert code == 0
    provenance = json.loads((tmp_path / "dm.txt.json").read_text())
    assert provenance["verified_T1"] == 14
    assert provenance["numbering"] == [0, 1, 2, 3, 4]

    code, out, _ = run(capsys, "check-dm", out_path, "--json")
    assert code == 0
    verdict = json.loads(out)["dm_attainment"]
    assert verdict["holds"] is True
    assert all(c["passed"] for c in verdict["conditions"].values())


def test_generate_without_out_streams_matrix_then_provenance(capsys):
    code, out, _ = run(capsys, "generate", "wielandt", "--n", "4", "--seed", "1", "--case", "n")
    assert code == 0
    a = parse_matrix(out)  # trailing provenance line is ignored by the parser
    assert a.n == 4
    assert json.loads(out.strip().splitlines()[-1])["verified_T1"] == 10


@pytest.mark.parametrize(
    "argv",
    [
        ("dm", "--n", "5", "--g", "2", "--seed", "4"),
        ("dm", "--n", "7", "--g", "3", "--seed", "1"),
        ("wielandt", "--n", "5", "--seed", "2", "--case", "n-1"),
        ("wielandt", "--n", "6", "--seed", "0", "--case", "n"),
    ],
)
def test_generate_verified_T1_matches_a_fresh_scan(capsys, argv):
    code, out, _ = run(capsys, "generate", *argv)
    assert code == 0
    provenance = json.loads(out.strip().splitlines()[-1])
    assert provenance["verified_T1"] == weak_threshold_T1(parse_matrix(out)).t1


def test_generate_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "generate", "dm", "--n", "5", "--g", "2", "--seed", "9")
    code2, out2, _ = run(capsys, "generate", "dm", "--n", "5", "--g", "2", "--seed", "9")
    assert code1 == code2 == 0 and out1 == out2


def test_generate_dm_requires_g(capsys):
    code, _, err = run(capsys, "generate", "dm", "--n", "5")
    assert code == 1 and "needs --g" in err


def test_generate_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "generate", "dm", "--n", "4", "--g", "2")
    assert code == 1 and "coprime" in err


def test_check_verbs_exit_two_on_negative_verdict(tmp_path, capsys):
    # a plain 2-cycle attains nothing
    path = tmp_path / "plain.txt"
    path.write_text("2\n-inf 0\n0 -inf\n")
    code, out, _ = run(capsys, "check-wiel", str(path))
    assert code == 2
    assert "does not hold" in out

    code, out, _ = run(capsys, "check-crit-rc", str(path), "--json")
    assert code == 2
    verdict = json.loads(out)
    assert verdict == {"crit_rc_dm": False, "crit_rc_wielandt": False}


@pytest.mark.parametrize("case", ["n-1", "n"])
def test_check_crit_rc_has_no_size_limit(tmp_path, capsys, case):
    path = write_matrix(tmp_path, generate_wielandt(12, seed=0, case=case))
    code, out, _ = run(capsys, "check-crit-rc", path)
    assert code == 0
    assert "crit_rc_wielandt: holds" in out.splitlines()


def test_check_dm_with_explicit_numbering(tmp_path, capsys):
    from maxplus import apply_numbering, generate_dm

    a = generate_dm(5, 2, seed=3)
    scrambled = apply_numbering(a, (2, 0, 4, 1, 3))
    path = write_matrix(tmp_path, scrambled)
    # the numbering undoing the scramble: position p holds scrambled node inv[p]
    inv = [0] * 5
    for pos, node in enumerate((2, 0, 4, 1, 3)):
        inv[node] = pos
    numbering = ",".join(str(inv[orig]) for orig in range(5))
    code, out, _ = run(capsys, "check-dm", path, "--numbering", numbering, "--json")
    assert code == 0 and json.loads(out)["dm_attainment"]["holds"] is True

    code, _, err = run(capsys, "check-dm", path, "--numbering", "0,0,1,2,3")
    assert code == 1 and "permutation" in err


def test_oracle_verb(tmp_path, capsys):
    from maxplus import generate_dm

    path = write_matrix(tmp_path, generate_dm(5, 2, seed=0))
    code, out, _ = run(capsys, "oracle", path, "--i", "2", "--j", "4", "--t", "10", "--json")
    assert code == 0
    walk = json.loads(out)["walk"]
    assert walk["interesting"] is True
    assert walk["nodes"] == [2, 3, 4] + [0, 1, 2, 3, 4] * 2

    code, out, _ = run(capsys, "oracle", path, "--i", "2", "--j", "4", "--t", "10")
    assert code == 0 and "interesting: True" in out


def test_readme_example_session(tmp_path, capsys):
    path = str(tmp_path / "ex.txt")
    code, _, _ = run(capsys, "generate", "dm", "--n", "5", "--g", "3", "--seed", "0", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "analyze", path, "--json")
    report = json.loads(out)
    assert code == 0 and report["T"] == report["T1"] == 14
    assert report["attains_dm"] is True and report["attains_wiel"] is False
    code, out, _ = run(capsys, "check-dm", path)
    assert code == 0
    assert out.splitlines()[:2] == ["dm_attainment: holds", "  numbering: 0 1 2 3 4"]
    code, out, _ = run(capsys, "oracle", path, "--i", "3", "--j", "4", "--t", "13")
    assert code == 0
    assert out.splitlines() == [
        "walk: " + " ".join(map(str, [3, 4] + [0, 1, 2, 3, 4] * 3)),
        "length: 16",
        "weight: 0",
        "interesting: True",
    ]


def test_oracle_size_guard(tmp_path, capsys):
    from maxplus import dm_skeleton

    path = write_matrix(tmp_path, dm_skeleton(9, 2))
    code, _, err = run(capsys, "oracle", path, "--i", "0", "--j", "1", "--t", "3")
    assert code == 1 and "too large" in err


def test_reports_are_deterministic_bytes(tmp_path, capsys):
    path = write_matrix(tmp_path, wielandt_skeleton(4))
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_matrix_text_roundtrip_via_cli(tmp_path, capsys):
    text = "3\n0 -inf 1/2\n-inf -3 -inf\n7 0 -inf\n"
    path = tmp_path / "m.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "powers", str(path), "--t", "1")
    assert code == 0 and out == text


def test_exhausted_generator_budget_is_exit_one(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "generate_dm", lambda n, g, seed: generate_dm(n, g, seed, budget=0)
    )
    code, out, err = run(capsys, "generate", "dm", "--n", "5", "--g", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: budget of 0 attempts exhausted")
    assert err.count("\n") == 1


def test_transient_past_scan_cap_is_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(csr, "_SCAN_CAP", 3)
    path = write_matrix(tmp_path, wielandt_skeleton(5))  # T = 17
    code, out, err = run(capsys, "analyze", path, "--json")
    assert code == 1 and out == ""
    assert err == "error: transient exceeds the scan cap 3\n"
