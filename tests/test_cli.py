"""Command-line interface: parsing, schemas, exit codes, determinism."""

import json

import numpy as np
import pytest

from indexlaw.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestEstimate:
    def test_headcount(self, tmp_path, capsys):
        path = write(tmp_path, "x.csv", "1\n2\n3\n4\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path, "--index", "fgt",
                               "--alpha", "0", "--poverty-line", "2.5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == 0.5
        assert payload["n"] == 4
        assert set(payload) >= {"index", "params", "n", "estimate", "variance",
                                "ci", "level"}

    def test_header_detected(self, tmp_path, capsys):
        path = write(tmp_path, "x.csv", "income\n1\n2\n3\n4\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path, "--index", "fgt",
                               "--alpha", "0", "--poverty-line", "2.5",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 4

    def test_parse_error_line(self, tmp_path, capsys):
        path = write(tmp_path, "x.csv", "1\n2\nabc\n4\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path, "--index", "fgt",
                               "--alpha", "0", "--poverty-line", "2.5")
        assert code == 1
        assert "line 3" in err

    def test_empty_input(self, tmp_path, capsys):
        path = write(tmp_path, "x.csv", "\n")
        code, _, err = run_cli(capsys, "estimate", "--input", path, "--index", "fgt",
                               "--alpha", "0", "--poverty-line", "1")
        assert code == 1

    def test_text_json_parity(self, tmp_path, capsys):
        path = write(tmp_path, "x.csv", "0.3\n0.7\n1.4\n2.9\n0.9\n")
        _, jout, _ = run_cli(capsys, "estimate", "--input", path, "--index", "sen",
                             "--poverty-line", "1.0", "--format", "json")
        payload = json.loads(jout)
        _, tout, _ = run_cli(capsys, "estimate", "--input", path, "--index", "sen",
                             "--poverty-line", "1.0", "--format", "text")
        for key in ("estimate", "variance"):
            line = next(l for l in tout.splitlines() if l.startswith(f"{key}:"))
            assert abs(float(line.split(":")[1]) - payload[key]) <= 1e-12

    def test_missing_input_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--index", "fgt", "--alpha", "0",
                             "--poverty-line", "1")
        assert code == 2

    @pytest.mark.parametrize("index", ["kakwani", "central-moment"])
    def test_k_zero_rejected_not_defaulted(self, tmp_path, capsys, index):
        path = write(tmp_path, "x.csv", "0.3\n0.7\n1.4\n2.9\n")
        code, out, err = run_cli(capsys, "estimate", "--input", path, "--index", index,
                                 "--k", "0", "--poverty-line", "1.0")
        assert code == 1
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ("estimate", "--seed", "3"),
        ("estimate", "--grid", "8"),
        ("validate", "--experiment", "cre2", "--seed", "1", "--input", "x.csv"),
    ])
    def test_flags_of_other_subcommands_are_usage_errors(self, tmp_path, capsys, argv):
        path = write(tmp_path, "x.csv", "1\n2\n")
        if argv[0] == "estimate":
            argv = (*argv, "--input", path, "--index", "fgt", "--alpha", "0",
                    "--poverty-line", "1.5")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""


class TestCompare:
    def test_identical_periods(self, tmp_path, capsys):
        rows = "\n".join(f"{v},{v}" for v in np.linspace(0.2, 3.0, 40))
        path = write(tmp_path, "p.csv", rows + "\n")
        code, out, _ = run_cli(capsys, "compare", "--input", path, "--index", "fgt",
                               "--alpha", "0", "--poverty-line", "1.0",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == 0.0
        assert payload["relative"] == 0.0
        assert len(payload["joint_covariance"]) == 2

    def test_growth_delta_matches_direct(self, tmp_path, capsys):
        vals = np.linspace(0.2, 3.0, 25)
        rows = "\n".join(f"{v},{1.1 * v}" for v in vals)
        path = write(tmp_path, "p.csv", rows + "\n")
        code, out, _ = run_cli(capsys, "compare", "--input", path, "--index", "fgt",
                               "--alpha", "0", "--poverty-line", "1.0",
                               "--format", "json")
        payload = json.loads(out)
        h1 = np.mean(vals <= 1.0)
        h2 = np.mean(1.1 * vals <= 1.0)
        assert payload["delta"] == pytest.approx(h2 - h1, abs=1e-12)

    def test_column_mismatch(self, tmp_path, capsys):
        path = write(tmp_path, "p.csv", "1,2\n3\n")
        code, _, err = run_cli(capsys, "compare", "--input", path, "--index", "fgt",
                               "--alpha", "0", "--poverty-line", "1.0")
        assert code == 1


class TestDecompose:
    def test_fgt_zero_gap(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = "\n".join(f"{v},{g}" for v, g in
                         zip(rng.lognormal(size=30), rng.integers(1, 3, size=30)))
        path = write(tmp_path, "g.csv", rows + "\n")
        code, out, _ = run_cli(capsys, "decompose", "--input", path, "--index", "fgt",
                               "--alpha", "1", "--poverty-line", "1.0",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] == pytest.approx(0.0, abs=1e-12)
        assert payload["ci_gd"][0] == pytest.approx(payload["ci_gd"][1], abs=1e-9)

    def test_label_mapping(self, tmp_path, capsys):
        rows = "0.5,urban\n1.5,rural\n0.8,urban\n2.5,rural\n0.9,urban\n1.1,rural\n"
        path = write(tmp_path, "g.csv", rows)
        code, out, _ = run_cli(capsys, "decompose", "--input", path, "--index", "fgt",
                               "--alpha", "0", "--poverty-line", "1.0",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["groups"] == ["urban", "rural"]
        assert payload["weights"] == [0.5, 0.5]

    def test_single_group(self, tmp_path, capsys):
        rows = "0.5,a\n1.5,a\n0.8,a\n"
        path = write(tmp_path, "g.csv", rows)
        code, out, _ = run_cli(capsys, "decompose", "--input", path, "--index",
                               "shorrocks", "--poverty-line", "1.0", "--format", "json")
        payload = json.loads(out)
        assert payload["gap"] == 0.0
        assert payload["theta1_sq"] == 0.0


class TestValidate:
    def test_unknown_experiment(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--experiment", "bogus", "--seed", "1")
        assert code == 2

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--experiment", "cre2")
        assert code == 2

    def test_cre2_runs_and_is_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "validate", "--experiment", "cre2",
                                 "--seed", "9", "--format", "json")
        code2, out2, _ = run_cli(capsys, "validate", "--experiment", "cre2",
                                 "--seed", "9", "--format", "json")
        assert code1 == 0
        assert out1 == out2


class TestCompareTwoFiles:
    def test_input2_pairs_periods(self, tmp_path, capsys):
        vals = np.linspace(0.2, 3.0, 20)
        p1 = write(tmp_path, "a.csv", "\n".join(str(v) for v in vals) + "\n")
        p2 = write(tmp_path, "b.csv", "\n".join(str(1.1 * v) for v in vals) + "\n")
        code, out, _ = run_cli(capsys, "compare", "--input", p1, "--input2", p2,
                               "--index", "fgt", "--alpha", "0",
                               "--poverty-line", "1.0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        h1 = np.mean(vals <= 1.0)
        h2 = np.mean(1.1 * vals <= 1.0)
        assert payload["delta"] == pytest.approx(h2 - h1, abs=1e-12)

    def test_length_mismatch(self, tmp_path, capsys):
        p1 = write(tmp_path, "a.csv", "1\n2\n")
        p2 = write(tmp_path, "b.csv", "1\n")
        code, _, _ = run_cli(capsys, "compare", "--input", p1, "--input2", p2,
                             "--index", "fgt", "--alpha", "0", "--poverty-line", "1.0")
        assert code == 1


class TestValidateAcceptanceBand:
    def test_coverage_band_exit_zero(self, capsys):
        # the acceptance-configuration coverage run holds its band at seed 42
        code, out, _ = run_cli(capsys, "validate", "--experiment", "coverage",
                               "--seed", "42", "--format", "json")
        assert code == 0
        assert json.loads(out)["band_ok"] is True
