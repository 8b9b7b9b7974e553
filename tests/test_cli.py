"""Command-line interface: parsing, schemas, exit codes, determinism."""

import ast
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indexlaw
from indexlaw import cli
from indexlaw.cli import _build_index, build_parser, main, read_csv
from indexlaw.errors import (ColumnCountMismatch, EmptyInput, IndexLawError, ParseError,
                             UnknownExperiment)
from indexlaw.indices import _MOMENT_KINDS, _POVERTY_KINDS, NamedIndex

POVERTY_FLAGS = {
    "fgt": ("--alpha", "1"), "sen": (), "kakwani": ("--k", "2"), "shorrocks": (),
    "thon": (), "takayama": (), "takayama-ratio": (),
}


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestEstimate:
    def test_nobody_poor(self, tmp_path, capsys):
        values = 0.5 + np.random.default_rng(16).lognormal(size=700)
        path = write(tmp_path, "x.csv", "\n".join(map(repr, values.tolist())) + "\n")
        code, out, err = run_cli(capsys, "estimate", "--input", path, "--index", "sen",
                                 "--poverty-line", "0.5", "--format", "json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["estimate"] == 0.0 and payload["variance"] == 0.0

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

    def test_first_central_moment_has_zero_variance(self, tmp_path, capsys):
        # the score of the first central moment is identically 0
        x = np.random.default_rng(8).lognormal(size=400)
        path = write(tmp_path, "x.csv", "\n".join(map(repr, x.tolist())) + "\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", path, "--index",
                               "central-moment", "--k", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["estimate"], payload["variance"], payload["ci"]) == (0.0, 0.0, [0.0, 0.0])

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

    def test_utf8_bom_keeps_first_row(self, tmp_path, capsys):
        rows = b"1.5\n2.5\n3.5\n0.5\n"
        plain = tmp_path / "plain.csv"
        plain.write_bytes(rows)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + rows)
        argv = ("--index", "fgt", "--alpha", "0", "--poverty-line", "2", "--format", "json")
        code, out_bom, _ = run_cli(capsys, "estimate", "--input", str(bom), *argv)
        assert code == 0
        payload = json.loads(out_bom)
        assert payload["n"] == 4
        assert payload["estimate"] == 0.5
        _, out_plain, _ = run_cli(capsys, "estimate", "--input", str(plain), *argv)
        assert out_bom == out_plain

    def test_nan_reaches_build_sample(self, tmp_path, capsys):
        path = write(tmp_path, "x.csv", "1\nnan\n3\n")
        code, out, err = run_cli(capsys, "estimate", "--input", path, "--index", "fgt",
                                 "--alpha", "0", "--poverty-line", "2")
        assert code == 1
        assert out == ""
        assert "non-finite value at input position 1" in err

    @pytest.mark.parametrize("flags", [
        ("--index", "fgt", "--alpha", "inf", "--poverty-line", "1"),
        ("--index", "sen", "--poverty-line", "inf"),
    ], ids=["fgt-alpha-inf", "sen-line-inf"])
    def test_infinite_parameter_is_input_error(self, tmp_path, capsys, flags):
        path = write(tmp_path, "x.csv", "0.4\n1.2\n0.7\n2.5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "estimate", "--input", path, *flags)
        assert code == 1
        assert out == ""
        assert "finite" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["estimate", "compare", "decompose"])
@pytest.mark.parametrize("index", sorted(POVERTY_FLAGS))
def test_missing_poverty_line_is_usage_error(tmp_path, capsys, command, index):
    rows = {"estimate": "0.5\n1.5\n", "compare": "0.5,0.6\n1.5,1.4\n",
            "decompose": "0.5,a\n1.5,b\n"}[command]
    path = write(tmp_path, "x.csv", rows)
    code, out, err = run_cli(capsys, command, "--input", path, "--index", index,
                             *POVERTY_FLAGS[index])
    assert code == 2
    assert out == ""
    assert f"error: --poverty-line is required for {index}" in err


def test_index_flags_checked_before_input_is_read(tmp_path, capsys):
    code, _, err = run_cli(capsys, "estimate", "--input", str(tmp_path / "absent.csv"),
                           "--index", "sen")
    assert code == 2
    assert "--poverty-line" in err


@pytest.mark.parametrize("argv", [
    ("estimate", "--index", "sen", "--poverty-line", "1", "--level", "2"),
    ("estimate", "--index", "sen", "--poverty-line", "1", "--level", "nan"),
    ("validate", "--experiment", "cre2", "--seed", "1", "--level", "2"),
    ("validate", "--experiment", "normality", "--seed", "1", "--level", "0"),
], ids=["estimate-2", "estimate-nan", "validate-cre2-2", "validate-normality-0"])
def test_level_checked_before_any_work(tmp_path, capsys, argv):
    if argv[0] == "estimate":
        argv = (*argv, "--input", str(tmp_path / "absent.csv"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "confidence level must lie in (0, 1)" in err


# --index choice, its own flags, flags it does not take, the index the
# factories build, and the "params" object that the CLI prints
_Z = ("--poverty-line", "2")
_NOT_LINE = ("--alpha", "2", "--k", "4")
_CATALOG_FLAGS = [
    ("fgt", ("--alpha", "1", *_Z), ("--k", "4"), NamedIndex.fgt(1.0, 2.0),
     {"alpha": 1.0, "poverty_line": 2.0}),
    ("sen", _Z, _NOT_LINE, NamedIndex.sen(2.0), {"poverty_line": 2.0}),
    ("kakwani", _Z, ("--alpha", "2"), NamedIndex.kakwani(1, 2.0),
     {"k": 1, "poverty_line": 2.0}),
    ("kakwani", ("--k", "3", *_Z), ("--alpha", "2"), NamedIndex.kakwani(3, 2.0),
     {"k": 3, "poverty_line": 2.0}),
    ("shorrocks", _Z, _NOT_LINE, NamedIndex.shorrocks(2.0), {"poverty_line": 2.0}),
    ("thon", _Z, _NOT_LINE, NamedIndex.thon(2.0), {"poverty_line": 2.0}),
    ("takayama", _Z, _NOT_LINE, NamedIndex.takayama(2.0), {"poverty_line": 2.0}),
    ("takayama-ratio", _Z, _NOT_LINE, NamedIndex.takayama_ratio(2.0), {"poverty_line": 2.0}),
    ("central-moment", (), ("--alpha", "2", *_Z), NamedIndex.central_moment(2), {"order": 2}),
    ("odd-moment", ("--k", "3"), ("--alpha", "2", *_Z), NamedIndex.odd_normalized(3),
     {"order": 3}),
    ("even-moment", (), ("--alpha", "2", *_Z), NamedIndex.even_normalized(2), {"order": 2}),
]


class TestIndexFlags:
    @pytest.mark.parametrize("stray", [False, True], ids=["own-flags", "stray-flags"])
    @pytest.mark.parametrize("choice, flags, extra, want, params", _CATALOG_FLAGS,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(_CATALOG_FLAGS)])
    def test_build_index_matches_factory(self, choice, flags, extra, want, params, stray):
        argv = ["estimate", "--input", "x.csv", "--index", choice, *flags]
        index = _build_index(build_parser().parse_args(argv + list(extra) * stray))
        assert index == want
        assert json.dumps(index.params()) == json.dumps(params)

    def test_every_choice_is_covered(self):
        assert {c[0] for c in _CATALOG_FLAGS} == set(_index_choices())

    def test_choices_are_the_catalog_kinds(self):
        assert _index_choices() == [k.replace("_", "-") for k in _POVERTY_KINDS + _MOMENT_KINDS]
        assert _index_choices() == ["fgt", "sen", "kakwani", "shorrocks", "thon", "takayama",
                                    "takayama-ratio", "central-moment", "odd-moment",
                                    "even-moment"]


def _index_choices():
    estimate = build_parser()._subparsers._group_actions[0].choices["estimate"]
    return list(next(a for a in estimate._actions if a.dest == "index").choices)


def _oracle_read(text: str, n_columns: int, label: bool, path: str):
    """The CSV rules one line at a time, with Python's ``float``.

    Returns the numeric columns and the labels, or raises the error that the
    rules give: its class, its 1-based line and its message.
    """
    n_numeric = n_columns - label
    rows = []
    first = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != n_columns:
            raise ColumnCountMismatch(
                f"line {lineno}: expected {n_columns} columns, found {len(cells)}")
        try:
            values = [float(c) for c in cells[:n_numeric]]
        except ValueError:
            if not first:
                shown = "".join(c if c.isprintable() else c.encode("unicode_escape").decode()
                                for c in line)
                raise ParseError(lineno, shown) from None
            first = False
            continue
        first = False
        rows.append((values, cells[-1].strip() if label else None))
    if not rows:
        raise EmptyInput(f"no data rows in {path}")
    columns = [np.array([v[j] for v, _ in rows], dtype=float) for j in range(n_numeric)]
    return columns, [lab for _, lab in rows]


_pad = st.text(alphabet=" \t", max_size=2)
_cell = st.builds(lambda a, x, b: a + repr(x) + b, _pad, st.floats(), _pad)
_label = st.builds(lambda a, x, b: a + x + b, _pad,
                   st.text(alphabet="abcxyz019_-", min_size=1, max_size=4), _pad)
# Cells that Python's float and np.loadtxt read differently, or that neither
# reads, and the line breaks of str.splitlines that np.loadtxt does not break at.
_ODD_CELLS = ("1_000", "\u0661\u0662", "\uff11", "\xa01.5", "1.5\u2003", "1.5\x1f",
              "\x1c1.5", "1#2", "nan", "-Infinity", "1e999", "", '"1"')
_ODD_BREAKS = ("\x0b", "\x0c", "\x1c", "\x85", "\u2028")


@st.composite
def _tables(draw):
    """A CSV text, the column count to read it with, and whether the last
    column is a label.

    A third of the tables are plain files.  Each of the others has one odd
    feature: cells of one odd token, odd line breaks inside rows,
    whitespace-only lines, CRLF line ends, a header with the wrong comma
    count, or more columns than asked for.
    """
    label = draw(st.integers(0, 3)) == 0
    n_columns = draw(st.integers(1, 2)) + label
    odd = draw(st.sampled_from([None] * 3 + ["cell", "break", "blank", "crlf", "header",
                                             "wide"]))
    token = draw(st.sampled_from(_ODD_CELLS))

    def now(feature: str) -> bool:
        return odd == feature and draw(st.booleans())

    width = n_columns + (odd == "wide")
    lines = []
    if odd == "header" or draw(st.booleans()):
        shift = draw(st.sampled_from([-1, 1])) if odd == "header" else 0
        lines.append(",".join(["income", "period2", "group", "other"][:n_columns + shift]))
    for _ in range(draw(st.integers(1, 25))):
        cells = [token if now("cell") else draw(_cell) for _ in range(width - label)]
        if now("break"):  # at a cell's edge, where np.loadtxt reads it as whitespace
            i = draw(st.integers(0, len(cells) - 1))
            cells[i] = draw(st.sampled_from([f"{b}{cells[i]}" for b in _ODD_BREAKS]
                                            + [f"{cells[i]}{b}" for b in _ODD_BREAKS]))
        lines.append(",".join(cells + [draw(_label)] * label))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_pad) if odd == "blank" else "")
    text = "".join(line + ("\r\n" if now("crlf") else "\n") for line in lines)
    return draw(st.sampled_from(["", "\n", " \t\n"])) + text, n_columns, label


class TestReadCsv:
    @settings(max_examples=500, deadline=None)
    @given(_tables())
    def test_matches_line_by_line_float(self, table):
        text, n_columns, label = table
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "t.csv")
            Path(path).write_bytes(text.encode("utf-8"))
            try:
                columns, labels = _oracle_read(text, n_columns, label, path)
            except IndexLawError as want:
                with pytest.raises(IndexLawError) as got:
                    read_csv(path, n_columns, last_is_label=label)
                assert type(got.value) is type(want)
                assert str(got.value) == str(want)
                return
            got = read_csv(path, n_columns, last_is_label=label)
        assert len(got) == n_columns
        for have, want in zip(got, columns):
            assert have.dtype == want.dtype
            assert np.array_equal(have, want, equal_nan=True)
            assert have.tobytes() == want.tobytes()
        if label:
            assert got[-1] == labels

    @pytest.mark.parametrize("text, n_columns, error, message", [
        ("x,y,z\n1,2\n3,4\n", 2, ColumnCountMismatch, "line 1: expected 2 columns, found 3"),
        ("income,,\n1\n2\n", 1, ColumnCountMismatch, "line 1: expected 1 columns, found 3"),
        ("1\x0c,2\n", 2, ColumnCountMismatch, "line 1: expected 2 columns, found 1"),
        ("1,\x1c2\n", 2, ColumnCountMismatch, "line 2: expected 2 columns, found 1"),
        ("1\u2028,2\n", 2, ColumnCountMismatch, "line 1: expected 2 columns, found 1"),
        ("a,b\n1,2,3\n4,5,6\n", 2, ColumnCountMismatch, "line 2: expected 2 columns, found 3"),
        ("1,2\n1.5\x1f,2\n", 2, ParseError, "parse error on line 2: 1.5\\x1f,2"),
        ("1\n1#2\n", 1, ParseError, "parse error on line 2: 1#2"),
    ], ids=["header-too-wide", "header-commas", "form-feed-break", "file-separator-break",
            "line-separator-break", "rows-wider-than-header", "unit-separator-in-cell", "hash-is-no-comment"])
    def test_bulk_parse_traps(self, tmp_path, text, n_columns, error, message):
        """Files that np.loadtxt would read but the CSV rules reject."""
        path = write(tmp_path, "x.csv", text)
        with pytest.raises(error) as exc:
            read_csv(path, n_columns)
        assert str(exc.value) == message

    def test_unit_separator_ending_a_line_is_stripped(self, tmp_path):
        # str.strip takes \x1f as whitespace, float does not
        path = write(tmp_path, "x.csv", "1.5\x1f\n2\n")
        (col,) = read_csv(path, 1)
        assert col.tolist() == [1.5, 2.0]

    @pytest.mark.parametrize("text", ["", "\n \t\n\n", "income\n", "income\n\n\n",
                                      "\nincome\n \n", "1#2\n"],
                             ids=["empty", "blank-only", "header-only", "header-empty-lines",
                                  "header-blank-lines", "hash-header"])
    def test_no_data_row_is_empty_input_without_warning(self, tmp_path, text):
        path = write(tmp_path, "x.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyInput):
                read_csv(path, 1)

    @pytest.mark.parametrize("n_columns", [1, 2])
    def test_plain_files_take_the_bulk_path(self, tmp_path, monkeypatch, n_columns):
        # written as bench/workloads.py writes its inputs, plus a header row
        values = np.exp(np.random.default_rng(3).standard_normal((500, n_columns)))
        rows = [[f"{v:.9g}" for v in row] for row in values]
        header = ",".join(["income", "period2"][:n_columns])
        path = write(tmp_path, "x.csv", "\n".join([header] + [",".join(r) for r in rows]) + "\n")
        monkeypatch.setattr(cli, "_read_rows",
                            lambda *args: pytest.fail("the string reader was called"))
        got = read_csv(path, n_columns)
        want = np.array([[float(c) for c in row] for row in rows]).T
        assert len(got) == n_columns
        for have, col in zip(got, want):
            assert have.tobytes() == col.tobytes()

    @pytest.mark.parametrize("header", ["income,period2\n", ""], ids=["header", "no-header"])
    @pytest.mark.parametrize("n_columns", [1, 2])
    def test_bulk_reader_matches_string_reader(self, tmp_path, n_columns, header):
        # np.loadtxt reads the file past the byte-order mark, the leading
        # blank lines and the header that the string reader drops from the text
        values = np.exp(np.random.default_rng(5).standard_normal((300, n_columns)))
        rows = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values)
        head = ",".join(header.rstrip("\n").split(",")[:n_columns]) + "\n" if header else ""
        path = str(tmp_path / "x.csv")
        Path(path).write_bytes(("\ufeff\n \n\t\n  " + head + rows).encode("utf-8"))
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
        bulk = cli._bulk_table(path, text, n_columns)
        assert bulk is not None and bulk.shape == (300, n_columns)
        strings = cli._read_rows(path, text, n_columns, False)
        for have, want in zip(np.ascontiguousarray(bulk.T), strings):
            assert have.tobytes() == want.tobytes()
        assert np.array_equal(bulk, values)

    def test_parse_error_line_after_blank_lines(self, tmp_path):
        path = write(tmp_path, "x.csv", "\n\n1\n\n2\nabc\n3\n")
        with pytest.raises(ParseError) as exc:
            read_csv(path, 1)
        assert exc.value.line == 6
        assert "abc" in str(exc.value)

    def test_column_count_line_after_blank_lines(self, tmp_path):
        path = write(tmp_path, "p.csv", "\n1,2\n \n\n3,4,5\n6\n")
        with pytest.raises(ColumnCountMismatch, match="line 5: expected 2 columns, found 3"):
            read_csv(path, 2)

    def test_second_non_numeric_row(self, tmp_path):
        path = write(tmp_path, "x.csv", "income\nwealth\n1\n")
        with pytest.raises(ParseError) as exc:
            read_csv(path, 1)
        assert exc.value.line == 2

    def test_bad_value_in_label_file(self, tmp_path):
        path = write(tmp_path, "g.csv", "value,group\n1,a\n\nx,b\n")
        with pytest.raises(ParseError) as exc:
            read_csv(path, 2, last_is_label=True)
        assert exc.value.line == 4

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "x.csv", "\nincome\n\n")
        with pytest.raises(EmptyInput):
            read_csv(path, 1)

    def test_python_float_spellings(self, tmp_path):
        path = write(tmp_path, "x.csv", "1_000\n 2.5 \n-Infinity\n")
        (col,) = read_csv(path, 1)
        assert col.tolist() == [1000.0, 2.5, float("-inf")]


def _run_python(code: str, *args: str):
    src = str(Path(indexlaw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestImportCost:
    """The runtime is numpy only: no path loads scipy, and the package runs
    with scipy blocked."""

    def test_import_loads_no_scipy(self):
        proc = _run_python(f"import sys, indexlaw; print({_SCIPY_MODULES})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, rows", [
        (("estimate", "--index", "sen"), "0.4\n1.2\n0.7\n2.5\n0.9\n"),
        (("decompose", "--index", "shorrocks"), "0.4,a\n1.2,b\n0.7,b\n2.5,a\n0.9,a\n1.6,b\n"),
    ], ids=["estimate-sen", "decompose-shorrocks"])
    def test_empirical_commands_load_no_scipy(self, tmp_path, argv, rows):
        path = write(tmp_path, "x.csv", rows)
        code = ("import sys; from indexlaw.cli import main; code = main(sys.argv[1:]); "
                f"print('scipy', {_SCIPY_MODULES}); sys.exit(code)")
        proc = _run_python(code, *argv, "--input", path, "--poverty-line", "1.0",
                           "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "scipy []"

    @pytest.mark.parametrize("code", [
        "from indexlaw.cli import main; main(['validate', '--experiment', 'coverage', "
        "'--seed', '3', '--format', 'json'])",
        "from indexlaw import LogNormal, NamedIndex, index_variance, named_representation; "
        "m = LogNormal(0.0, 1.0); rep = named_representation(m, NamedIndex.sen(1.0)); "
        "rep.value(m); index_variance(m, rep)",
    ], ids=["validate-coverage", "parametric-sen"])
    def test_parametric_paths_load_no_heavy_scipy(self, code):
        proc = _run_python(f"import sys; {code}; print('scipy', {_SCIPY_MODULES})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "scipy []"

    def test_no_scipy_import_in_source(self):
        found = []
        for path in sorted(Path(indexlaw.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                found += [(path.name, mod) for mod in modules if mod.split(".")[0] == "scipy"]
        assert found == []

    def test_runs_with_scipy_blocked(self):
        # an import of scipy anywhere below raises ImportError
        code = """
import sys
sys.modules["scipy"] = None
import indexlaw as il
from indexlaw.montecarlo import (coverage_experiment, decomposability_experiment,
                                 normality_experiment)
sen = il.NamedIndex.sen(1.0)
coverage_experiment(il.LogNormal(0.0, 1.0), sen, n=50, n_replicates=5, level=0.95,
                    master_seed=1)
normality_experiment(il.LogNormal(0.0, 1.0), sen, n=50, n_replicates=5, master_seed=2)
decomposability_experiment([il.LogNormal(0.0, 1.0), il.LogNormal(0.5, 1.0)], [0.5, 0.5],
                           il.NamedIndex.shorrocks(1.0), n=100, n_replicates=5,
                           master_seed=3)
mixture = il.Mixture((0.5, 0.5), [il.LogNormal(0.0, 1.0), il.LogNormal(0.5, 1.0)])
for m in (il.LogNormal(0.0, 1.0), il.Normal(1.0, 0.5), mixture):
    assert il.index_variance(m, il.named_representation(m, sen)).total > 0.0
m1, m2 = il.LogNormal(0.0, 1.0), il.LogNormal(0.1, 0.9)
frame = il.BivariateFrame(m1, m2, il.GaussianCopula(0.5))
fgt = il.NamedIndex.fgt(1.0, 1.0)
reps = [il.named_representation(m, ix) for m in (m1, m2) for ix in (sen, fgt)]
assert il.mutual_variation_covariance(frame, *reps).matrix.shape == (4, 4)
print("ok", sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "ok ['scipy']"


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

    def test_first_central_moment_has_no_relative_variation(self, tmp_path, capsys):
        # the first central moment is exactly 0, never a round-off residue
        # that the relative variation would divide by
        rng = np.random.default_rng(3)
        x = rng.lognormal(size=(2000, 2))
        path = write(tmp_path, "p.csv", "\n".join(f"{a},{b}" for a, b in x) + "\n")
        code, out, _ = run_cli(capsys, "compare", "--input", path, "--index",
                               "central-moment", "--k", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate1"] == payload["estimate2"] == payload["delta"] == 0.0
        assert payload["relative"] is None and payload["relative_ci"] is None

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

    @pytest.mark.parametrize("index", ["sen", "shorrocks", "takayama", "takayama-ratio"])
    def test_group_with_nobody_poor(self, tmp_path, capsys, index):
        # group c has no value <= Z: its score pair is (0, 0) and its index 0
        rng = np.random.default_rng(16)
        groups = np.array(["a", "b", "c"])[rng.integers(0, 3, size=2000)]
        values = rng.lognormal(size=2000) + np.where(groups == "c", 0.5, 0.0)
        rows = "\n".join(f"{v!r},{g}" for v, g in zip(values.tolist(), groups))
        path = write(tmp_path, "g.csv", rows + "\n")
        code, out, err = run_cli(capsys, "decompose", "--input", path, "--index", index,
                                 "--poverty-line", "0.5", "--format", "json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["group_estimates"][payload["groups"].index("c")] == 0.0
        assert all(np.isfinite(payload[key]) for key in ("gap", "theta1_sq", "theta2_sq"))

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

    def test_unknown_experiment_named_before_level(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--experiment", "bogus", "--seed", "1",
                               "--level", "0.9")
        assert code == 2
        assert "invalid choice: 'bogus'" in err and "--level" not in err.splitlines()[-1]
        args = build_parser().parse_args(["validate", "--experiment", "cre2", "--seed", "1",
                                          "--level", "0.9"])
        args.experiment = "bogus"
        with pytest.raises(UnknownExperiment):
            cli.cmd_validate(args)

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--experiment", "cre2")
        assert code == 2

    @pytest.mark.parametrize("experiment", ["normality", "cre2", "decomposability"])
    def test_level_only_for_coverage(self, capsys, experiment):
        code, out, err = run_cli(capsys, "validate", "--experiment", experiment,
                                 "--seed", "1", "--level", "0.95")
        assert code == 2
        assert out == ""
        assert "--level is read only by --experiment coverage" in err

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

    def test_coverage_reads_level(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--experiment", "coverage",
                               "--seed", "42", "--level", "0.9", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["band"] == "|coverage - 0.9| <= 0.015"
        assert abs(payload["coverage"] - 0.9) <= 0.015
