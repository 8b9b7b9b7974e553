"""Command-line front end.

Subcommands::

    indexlaw estimate  --input data.csv --index fgt --alpha 1 --poverty-line 2.5
    indexlaw compare   --input paired.csv --index fgt --alpha 0 --poverty-line 1
    indexlaw decompose --input grouped.csv --index shorrocks --poverty-line 1
    indexlaw validate  --experiment coverage --seed 42

CSV conventions: UTF-8 (a leading byte-order mark is skipped), comma-separated,
decimal point, blank lines ignored, an optional single header row
(auto-detected when the first row is non-numeric).  ``estimate`` expects one
numeric column, ``compare`` two numeric columns of equal length (paired
periods), ``decompose`` a numeric value column followed by a group label
column (labels map to 1..K in first-seen order).  Numbers follow Python's
``float`` exactly.  A plain numeric file (ASCII, no control character but
tab and newline, no whitespace-only line, well formed) is parsed in one
``np.loadtxt`` pass; non-ASCII text, control characters, whitespace-only
lines, label files and malformed input are read by the string reader, which
gives the same numbers and reports the first bad line.

``--level`` must lie in (0, 1) for every subcommand; any other value is an
input error, raised before the input is read.  Of the ``validate``
experiments only ``coverage`` reads it (default 0.95); given to another one
it is a usage error.

Exit codes: 0 success, 1 input error, 2 usage error, 3 validation band
failed.  All numbers are printed with 12 significant digits; json and text
outputs carry identical values.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn, Optional

import numpy as np

from . import montecarlo
from .decomposition import SubgroupPartition, gap_inference
from .distributions import EmpiricalDistribution, LogNormal, Uniform
from .empirical import build_sample
from .errors import (BadLevel, ColumnCountMismatch, EmptyInput, IndexLawError, ParseError,
                     UnknownExperiment)
from .indices import (_MOMENT_KINDS, _POVERTY_KINDS, NamedIndex, named_estimate,
                      named_representation)
from .representation import confidence_interval, index_variance
from .temporal import (BivariateFrame, empirical_copula, relative_variation_law,
                       temporal_joint_covariance)

_EXPERIMENTS = ("normality", "coverage", "cre2", "decomposability")


def _sig12(x):
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, (list, tuple)):
        return [_sig12(v) for v in x]
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        xf = float(x)
        if xf != xf or xf in (float("inf"), float("-inf")):
            return None
        return float(f"{xf:.12g}")
    return x


def _round_tree(obj):
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    return _sig12(obj)


def read_csv(path: str, n_columns: int, last_is_label: bool = False):
    """Read a CSV with line-accurate errors.

    Returns a list of column arrays (floats, except the trailing label
    column when requested).  A UTF-8 byte-order mark is skipped.  Every
    numeric cell is read by Python's ``float`` rules, and lines are 1-based
    including any header and blank lines.

    The text is read once.  A file without a label column is first tried in
    one ``np.loadtxt`` pass, which parses each cell with the C routine that
    ``float`` uses; see ``_bulk_table`` for the files it accepts.  Every
    other file goes to the string reader, which defines the rules and is the
    only source of errors: blank lines are dropped, the comma count of every
    line is checked, the kept lines are split into one flat list of cells and
    that list becomes one float array.  Only when a check or the conversion
    fails are the lines read again one at a time, to raise the error of the
    first bad line.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    table = None if last_is_label else _bulk_table(path, text, n_columns)
    if table is None:
        return _read_rows(path, text, n_columns, last_is_label)
    return list(np.ascontiguousarray(table.T))


# The C0 controls other than tab and newline.  ``str.splitlines`` breaks
# lines at \r, \x0b, \x0c and \x1c-\x1e and ``float`` rejects \x1f, where
# ``np.loadtxt`` takes each of them for whitespace, so only the string reader
# reads a file that holds a control character.
_CONTROLS = tuple(chr(c) for c in range(32) if chr(c) not in "\t\n")


def _bulk_table(path: str, text: str, n_columns: int):
    """The ``(rows, n_columns)`` float table of a plain numeric file, or None.

    On ASCII text without control characters, ``np.loadtxt`` strips each
    field and calls ``PyOS_string_to_double``, as ``float`` does, so where
    both accept a cell they give the same double.  The header is the first
    non-blank line when it does not read as numbers, and its comma count is
    checked here since ``np.loadtxt`` never sees it.  None -- for non-ASCII
    text, a control character, a bad header, no data row, or anything
    ``np.loadtxt`` rejects (whitespace-only lines, ``1_000``, malformed
    rows) -- sends the file to the string reader.  ``np.loadtxt`` reads
    the file itself, which its chunked reader does faster than a string,
    skipping the leading blank lines and the header that ``text`` shows.
    """
    if not text.isascii() or any(c in text for c in _CONTROLS):
        return None
    body = text.lstrip()
    skip = text[:len(text) - len(body)].count("\n")
    end = body.find("\n")
    first = body if end < 0 else body[:end]
    if first.count(",") != n_columns - 1:
        return None
    if not _is_numeric(first.split(",")):
        body = "" if end < 0 else body[end + 1:]
        skip += 1
    if not body or body.isspace():
        return None
    try:
        table = np.loadtxt(path, delimiter=",", dtype=float, comments=None, quotechar=None,
                           ndmin=2, encoding="utf-8-sig", skiprows=skip)
    except ValueError:
        return None
    return table if table.shape[1] == n_columns and len(table) else None


def _read_rows(path: str, text: str, n_columns: int, last_is_label: bool):
    """The string reader: the CSV rules, one list of cells, one conversion."""
    lines = text.splitlines()
    n_numeric = n_columns - int(last_is_label)
    rows = [row for row in map(str.strip, lines) if row]
    if any(row.count(",") != n_columns - 1 for row in rows):
        _raise_first_error(path, lines, n_columns, n_numeric)
    if rows and not _is_numeric(rows[0].split(",")[:n_numeric]):
        del rows[0]  # the header
    if not rows:
        raise EmptyInput(f"no data rows in {path}")
    cells = ",".join(rows).split(",")
    labels = None
    if last_is_label:
        labels = [c.strip() for c in cells[n_numeric::n_columns]]
        del cells[n_numeric::n_columns]
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        _raise_first_error(path, lines, n_columns, n_numeric)
    out = list(np.ascontiguousarray(values.reshape(-1, n_numeric).T))
    if last_is_label:
        out.append(labels)
    return out


def _is_numeric(cells) -> bool:
    try:
        for c in cells:
            float(c)
    except ValueError:
        return False
    return True


def _raise_first_error(path: str, lines: list, n_columns: int, n_numeric: int) -> NoReturn:
    """Raise the error of the first line that does not read as a data row."""
    first = True
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        cells = text.split(",")
        if len(cells) != n_columns:
            raise ColumnCountMismatch(
                f"line {lineno}: expected {n_columns} columns, found {len(cells)}")
        if not _is_numeric(cells[:n_numeric]) and not first:
            # escape what a terminal would not show, such as \x1f in "1.5\x1f"
            shown = "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)
            raise ParseError(lineno, shown) from None
        first = False
    raise EmptyInput(f"no data rows in {path}")


class _UsageError(Exception):
    pass


def _build_index(args) -> NamedIndex:
    """The index of the flags; flags that the kind does not take are ignored."""
    kind = args.index.replace("-", "_")
    if kind in _MOMENT_KINDS:
        return NamedIndex(kind, order=2 if args.k is None else args.k)
    if args.poverty_line is None:
        raise _UsageError(f"--poverty-line is required for {args.index}")
    if kind == "fgt" and args.alpha is None:
        raise _UsageError("--alpha is required for fgt")
    return NamedIndex(kind, alpha=args.alpha if kind == "fgt" else None,
                      k=(1 if args.k is None else args.k) if kind == "kakwani" else None,
                      poverty_line=args.poverty_line)


def _emit(payload: dict, fmt: str) -> None:
    payload = _round_tree(payload)
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, val in payload.items():
        print(f"{key}: {val}")


def cmd_estimate(args) -> int:
    index = _build_index(args)
    (col,) = read_csv(args.input, 1)
    sample = build_sample(col)
    est = named_estimate(sample, index)
    plug = EmpiricalDistribution(sample)
    var = index_variance(plug, named_representation(plug, index)).total
    lo, hi = confidence_interval(est, var, sample.n, args.level)
    _emit({"index": index.kind, "params": index.params(), "n": sample.n,
           "estimate": est, "variance": var, "ci": [lo, hi], "level": args.level},
          args.format)
    return 0


def cmd_compare(args) -> int:
    index = _build_index(args)
    if args.input2:
        (col1,) = read_csv(args.input, 1)
        (col2,) = read_csv(args.input2, 1)
        if col1.size != col2.size:
            raise ColumnCountMismatch(
                f"period files differ in length: {col1.size} vs {col2.size}")
    else:
        col1, col2 = read_csv(args.input, 2)
    s1, s2 = build_sample(col1), build_sample(col2)
    i1, i2 = named_estimate(s1, index), named_estimate(s2, index)
    m1, m2 = EmpiricalDistribution(s1), EmpiricalDistribution(s2)
    frame = BivariateFrame(m1, m2, empirical_copula(np.column_stack([col1, col2])))
    rep1 = named_representation(m1, index)
    rep2 = named_representation(m2, index)
    n = s1.n
    delta = i2 - i1
    if i1 != 0.0:
        joint = relative_variation_law(frame, rep1, i1, i2, rep2=rep2)
        rel = delta / i1
        rel_var = joint.rel_var
        rel_ci = confidence_interval(rel, rel_var, n, args.level)
    else:
        joint = temporal_joint_covariance(frame, rep1, rep2=rep2)
        rel = rel_var = rel_ci = None
    var1 = float(joint.matrix[0, 0])
    var2 = float(joint.matrix[1, 1])
    payload = {
        "index": index.kind, "params": index.params(), "n": n,
        "estimate1": i1, "estimate2": i2,
        "variance1": var1, "variance2": var2,
        "ci1": list(confidence_interval(i1, var1, n, args.level)),
        "ci2": list(confidence_interval(i2, var2, n, args.level)),
        "delta": delta, "delta_variance": joint.delta_var,
        "delta_ci": list(confidence_interval(delta, joint.delta_var, n, args.level)),
        "relative": rel, "relative_variance": rel_var,
        "relative_ci": list(rel_ci) if rel_ci else None,
        "joint_covariance": [[float(v) for v in row] for row in joint.matrix],
        "level": args.level,
    }
    _emit(payload, args.format)
    return 0


def cmd_decompose(args) -> int:
    index = _build_index(args)
    values, labels = read_csv(args.input, 2, last_is_label=True)
    sample = build_sample(values)
    partition = SubgroupPartition.from_labels(labels)
    inference = gap_inference(sample, partition, index, level=args.level)
    dec = inference.decomposition
    payload = {
        "index": index.kind, "params": index.params(), "n": sample.n,
        "groups": list(partition.names), "weights": [float(v) for v in inference.weights],
        "group_estimates": [float(v) for v in inference.group_estimates],
        "gap": inference.gap,
        "theta1_sq": dec.theta1_sq, "theta2_sq": dec.theta2_sq,
        "theta3_sq": dec.theta3_sq,
        "variance_gd": inference.variance_gd, "variance_gd0": inference.variance_gd0,
        "ci_gd": list(inference.ci_gd), "ci_gd0": list(inference.ci_gd0),
        "level": args.level,
    }
    _emit(payload, args.format)
    return 0


def cmd_validate(args) -> int:
    seed = args.seed
    name = args.experiment
    if name not in _EXPERIMENTS:
        raise UnknownExperiment(f"unknown experiment {name!r}")
    if name != "coverage" and args.level is not None:
        raise _UsageError(f"--level is read only by --experiment coverage, not {name}")
    if name == "coverage":
        level = 0.95 if args.level is None else args.level
        report = montecarlo.coverage_experiment(
            Uniform(0.0, 1.0), NamedIndex.fgt(0.0, 0.5), n=1000, n_replicates=2000,
            level=level, master_seed=seed)
        ok = abs(report.coverage - level) <= 0.015
        band = f"|coverage - {level}| <= 0.015"
    elif name == "normality":
        report = montecarlo.normality_experiment(
            LogNormal(0.0, 1.0), NamedIndex.fgt(1.0, 1.0), n=2000, n_replicates=2000,
            master_seed=seed)
        ok = report.ks_pvalue > 0.01
        band = "ks_pvalue > 0.01"
    elif name == "cre2":
        seq = montecarlo.cre2_diagnostic(
            Uniform(0.0, 1.0), lambda x: np.asarray(x, dtype=float),
            n_grid=[100, 400, 1600, 6400], n_replicates=200, master_seed=seed)
        ok = all(b[1] < a[1] for a, b in zip(seq, seq[1:]))
        payload = {"experiment": "cre2", "master_seed": seed,
                   "diagnostic": [[n, v] for n, v in seq],
                   "band": "strictly decreasing", "band_ok": ok}
        _emit(payload, args.format)
        return 0 if ok else 3
    else:  # decomposability
        report = montecarlo.decomposability_experiment(
            [LogNormal(0.0, 1.0), LogNormal(0.5, 1.0)], [0.5, 0.5],
            NamedIndex.shorrocks(1.0), n=4000, n_replicates=500, master_seed=seed)
        ok = report.ks_pvalue > 0.01
        band = "ks_pvalue > 0.01"
    payload = report.to_dict()
    payload["band"] = band
    payload["band_ok"] = bool(ok)
    _emit(payload, args.format)
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="indexlaw",
                                     description="Index estimation and asymptotic inference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("estimate", cmd_estimate), ("compare", cmd_compare),
                     ("decompose", cmd_decompose), ("validate", cmd_validate)):
        p = sub.add_parser(name)
        if name == "validate":
            p.add_argument("--experiment", choices=_EXPERIMENTS, required=True)
            p.add_argument("--seed", type=int, required=True)
        else:
            p.add_argument("--input", required=True, help="CSV input path")
            if name == "compare":
                p.add_argument("--input2", help="optional second single-column CSV (period 2)")
            p.add_argument("--index", default="fgt", choices=[
                kind.replace("_", "-") for kind in _POVERTY_KINDS + _MOMENT_KINDS])
            p.add_argument("--alpha", type=float, default=None)
            p.add_argument("--k", type=int, default=None)
            p.add_argument("--poverty-line", dest="poverty_line", type=float, default=None)
        # validate tells an explicit --level from none: only coverage reads it
        p.add_argument("--level", type=float, default=None if name == "validate" else 0.95)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=fn)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.level is not None and not 0.0 < args.level < 1.0:
            raise BadLevel(f"confidence level must lie in (0, 1), got {args.level}")
        return args.func(args)
    except (UnknownExperiment, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, IndexLawError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
