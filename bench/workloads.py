"""The benchmark's workloads: seeded inputs, operation cycles and checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  ``build(name, seed, workdir, src)``
generates the inputs from the seed alone and returns the fixed cycle of
operations; the runner repeats the cycle.  An operation returns an
``Outcome`` whose ``error`` is ``None`` when every check on its output held.

CLI operations run ``indexlaw`` in a child process, as users run it, or -- in
the traced run -- in this process through ``indexlaw.cli.main`` with the same
argv.  Library operations always run in this process.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

import reference as ref

# The ``indexlaw`` console script of pyproject.toml: indexlaw.cli:main.
CLI_ENTRY = "import sys; from indexlaw.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 150.0

CLI_SMALL_ROWS = 2_000
CLI_SMALL_GROUPS = 3
CLI_LARGE_ROWS = 500_000
CLI_LARGE_DECOMPOSE_ROWS = 12_000
CLI_LARGE_GROUPS = 4
JOINT_LAWS_PER_CYCLE = 16
# The parametric-variance mixture is the decomposability experiment's
# population.  It is fixed because the cost of its quadrature depends on the
# parameters, and a seed should not change how much work an operation is.
MIXTURE_WEIGHTS = (0.5, 0.5)
MIXTURE_PARTS = ((0.0, 1.0), (0.5, 1.0))
MIXTURE_POVERTY_LINE = 1.0

# Keys each subcommand documents in its JSON output.
DOCUMENTED_KEYS = {
    "estimate": ("index", "n", "estimate", "variance", "ci"),
    "compare": ("estimate1", "estimate2", "delta", "delta_variance", "delta_ci",
                "joint_covariance"),
    "decompose": ("groups", "group_estimates", "gap", "theta1_sq", "theta2_sq",
                  "theta3_sq", "ci_gd", "ci_gd0"),
    "validate": ("experiment", "master_seed", "band", "band_ok"),
}

# The validation experiments at their documented configurations, with the
# replicates one run of each completes (cre2: R = 200 at each of 4 sizes).
EXPERIMENTS = (("coverage", 2000), ("normality", 2000), ("decomposability", 500),
               ("cre2", 800))


@dataclass
class Outcome:
    seconds: float
    error: Optional[str] = None
    rss_kb: int = 0
    replicates: int = 0


@dataclass
class Op:
    kind: str
    run: Callable[[bool], Outcome]  # argument: run a CLI op in-process


@dataclass
class Cycle:
    ops: list
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Running the CLI
# ---------------------------------------------------------------------------


def child_env(src: Path) -> dict:
    """The caller's environment with only ``src`` on PYTHONPATH; thread
    settings are left as they are."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def run_child(args: list, env: dict, out_path: Path):
    """Run ``python <args>`` with stdout to ``out_path`` and stderr next to
    it; return exit code, stdout bytes, wall seconds and the child's peak RSS
    in KiB."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), seconds, usage.ru_maxrss


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def run_inprocess(argv: list):
    cli = importlib.import_module("indexlaw.cli")
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    seconds = time.perf_counter() - t0
    return code, out.getvalue().encode(), seconds, 0


def cli_op(kind: str, argv: list, check: Callable[[dict, bytes], Optional[str]],
           env: dict, out_path: Path, ok_codes=(0,), replicates: int = 0) -> Op:
    def run(inprocess: bool) -> Outcome:
        if inprocess:
            code, out, seconds, rss = run_inprocess(argv)
        else:
            code, out, seconds, rss = run_child(["-c", CLI_ENTRY, *argv], env, out_path)
        outcome = Outcome(seconds=seconds, rss_kb=rss, replicates=replicates)
        if code not in ok_codes:
            stderr = "" if inprocess else out_path.with_suffix(".err").read_text(errors="replace")
            outcome.error = f"{kind}: exit code {code} {last_line(stderr)}"
            return outcome
        try:
            payload = json.loads(out)
        except ValueError:
            outcome.error = f"{kind}: output is not JSON"
            return outcome
        missing = [k for k in DOCUMENTED_KEYS[argv[0]] if k not in payload]
        outcome.error = (f"{kind}: missing keys {missing}" if missing
                         else check(payload, out))
        return outcome

    return Op(kind, run)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncomeLaw:
    """Lognormal incomes; the poverty line is the ``poor_share`` quantile, so
    it lies inside the support and a fixed share of people is poor."""

    mu: float
    sigma: float
    poverty_line: float

    @staticmethod
    def draw(rng: np.random.Generator) -> "IncomeLaw":
        mu = rng.uniform(-0.2, 0.2)
        sigma = rng.uniform(0.6, 1.0)
        poor_share = rng.uniform(0.2, 0.4)
        z = math.exp(mu + sigma * NormalDist().inv_cdf(poor_share))
        return IncomeLaw(mu, sigma, float(f"{z:.6g}"))


def _as_text(values: np.ndarray) -> list:
    return [f"{v:.9g}" for v in values]


def _write(path: Path, lines: list) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_incomes(path: Path, rng, law: IncomeLaw, n: int) -> np.ndarray:
    """One income column; returns the values exactly as the CLI parses them."""
    text = _as_text(np.exp(law.mu + law.sigma * rng.standard_normal(n)))
    _write(path, text)
    return np.array(text, dtype=float)


def write_pairs(path: Path, rng, law: IncomeLaw, n: int):
    """Two periods linked by a Gaussian copula (rho in [0.5, 0.9]) with
    log-income growth in [0, 0.1]."""
    rho = rng.uniform(0.5, 0.9)
    growth = rng.uniform(0.0, 0.1)
    z1 = rng.standard_normal(n)
    z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    t1 = _as_text(np.exp(law.mu + law.sigma * z1))
    t2 = _as_text(np.exp(law.mu + growth + law.sigma * z2))
    _write(path, [f"{a},{b}" for a, b in zip(t1, t2)])
    return np.array(t1, dtype=float), np.array(t2, dtype=float)


def write_groups(path: Path, rng, law: IncomeLaw, n: int, k: int):
    """Values with K group labels of unequal shares proportional to 1..K.

    Group sizes are fixed by (n, K) so that work counts repeat across seeds;
    the seed shuffles the labels and draws the values.  Returns the parsed
    values and the label of each row.
    """
    sizes = [n * g // (k * (k + 1) // 2) for g in range(1, k + 1)]
    sizes[-1] += n - sum(sizes)
    group = rng.permutation(np.repeat(np.arange(k), sizes))
    shift = 0.2 * (group - (k - 1) / 2.0)
    text = _as_text(np.exp(law.mu + shift + law.sigma * rng.standard_normal(n)))
    labels = [f"g{g + 1}" for g in group]
    _write(path, [f"{v},{g}" for v, g in zip(text, labels)])
    return np.array(text, dtype=float), np.array(labels)


# ---------------------------------------------------------------------------
# The index catalog as the CLI takes it, with reference formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexSpec:
    flags: tuple           # CLI flags selecting the index (no poverty line)
    formula: Callable      # (values, poverty_line) -> exact value
    poverty: bool = True   # whether the index takes --poverty-line

    def argv(self, law: IncomeLaw) -> list:
        return [*self.flags, *(("--poverty-line", repr(law.poverty_line)) if self.poverty else ())]


CATALOG = (
    IndexSpec(("--index", "fgt", "--alpha", "0"), lambda x, z: ref.fgt(x, z, 0.0)),
    IndexSpec(("--index", "fgt", "--alpha", "1"), lambda x, z: ref.fgt(x, z, 1.0)),
    IndexSpec(("--index", "fgt", "--alpha", "2"), lambda x, z: ref.fgt(x, z, 2.0)),
    IndexSpec(("--index", "sen"), ref.sen),
    IndexSpec(("--index", "kakwani", "--k", "2"), lambda x, z: ref.kakwani(x, z, 2)),
    IndexSpec(("--index", "shorrocks"), ref.shorrocks),
    IndexSpec(("--index", "thon"), ref.thon),
    IndexSpec(("--index", "takayama"), ref.takayama),
    IndexSpec(("--index", "central-moment", "--k", "2"),
              lambda x, z: ref.central_moment(x, 2), poverty=False),
)
SEN = CATALOG[3]
SHORROCKS = CATALOG[5]


def _mismatch(what: str, got, want: float, scale: float | None = None) -> Optional[str]:
    if not isinstance(got, (int, float)) or not ref.agrees(float(got), want, scale):
        return f"{what} = {got!r}, reference {want!r}"
    return None


def estimate_check(x, spec: IndexSpec, z: float):
    want = spec.formula(x, z)
    return lambda payload, _out: _mismatch("estimate", payload["estimate"], want)


def compare_check(x, y, spec: IndexSpec, z: float):
    w1, w2 = spec.formula(x, z), spec.formula(y, z)

    def check(payload, _out):
        return (_mismatch("estimate1", payload["estimate1"], w1)
                or _mismatch("estimate2", payload["estimate2"], w2)
                or _mismatch("delta", payload["delta"], w2 - w1, max(abs(w1), abs(w2))))

    return check


def decompose_check(values, labels, spec: IndexSpec, z: float):
    n = values.size
    whole = spec.formula(values, z)
    groups = {g: spec.formula(values[labels == g], z) for g in np.unique(labels)}
    parts = [np.count_nonzero(labels == g) / n * v for g, v in groups.items()]
    gap = whole - math.fsum(parts)
    scale = max(abs(whole), math.fsum(abs(p) for p in parts))

    def check(payload, _out):
        names, ests = payload["groups"], payload["group_estimates"]
        if sorted(names) != sorted(groups) or len(ests) != len(names):
            return f"groups {names!r}, expected {sorted(groups)!r}"
        for name, got in zip(names, ests):
            bad = _mismatch(f"group_estimates[{name}]", got, groups[name])
            if bad:
                return bad
        return _mismatch("gap", payload["gap"], gap, scale)

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _cli_op(command: str, spec: IndexSpec, law: IncomeLaw, env: dict, workdir: Path,
            inputs: dict) -> Op:
    """An estimate, compare or decompose op on ``<command>.csv``."""
    z = law.poverty_line
    if command == "estimate":
        check = estimate_check(inputs["x"], spec, z)
    elif command == "compare":
        check = compare_check(*inputs["pairs"], spec, z)
    else:
        check = decompose_check(*inputs["groups"], spec, z)
    argv = [command, "--input", str(workdir / f"{command}.csv"), *spec.argv(law),
            "--format", "json"]
    return cli_op(command, argv, check, env, workdir / "stdout.json")


def cli_small(seed: int, workdir: Path, src: Path) -> Cycle:
    """9 ops: op i runs command i mod 3 with catalog index i, so one cycle
    touches every index and each command three times."""
    rng = np.random.default_rng([seed, 1])
    law = IncomeLaw.draw(rng)
    env = child_env(src)
    x = write_incomes(workdir / "estimate.csv", rng, law, CLI_SMALL_ROWS)
    pairs = write_pairs(workdir / "compare.csv", rng, law, CLI_SMALL_ROWS)
    groups = write_groups(workdir / "decompose.csv", rng, law, CLI_SMALL_ROWS,
                          CLI_SMALL_GROUPS)
    inputs = {"x": x, "pairs": pairs, "groups": groups}
    commands = ("estimate", "compare", "decompose")
    ops = [_cli_op(commands[i % 3], spec, law, env, workdir, inputs)
           for i, spec in enumerate(CATALOG)]
    return Cycle(ops, {"rows": CLI_SMALL_ROWS, "groups": CLI_SMALL_GROUPS,
                       "poverty_line": law.poverty_line})


def cli_large(seed: int, workdir: Path, src: Path) -> Cycle:
    """estimate and compare with Sen on 500,000 rows; decompose with
    Shorrocks on 12,000 rows in 4 groups."""
    rng = np.random.default_rng([seed, 2])
    law = IncomeLaw.draw(rng)
    env = child_env(src)
    inputs = {
        "x": write_incomes(workdir / "estimate.csv", rng, law, CLI_LARGE_ROWS),
        "pairs": write_pairs(workdir / "compare.csv", rng, law, CLI_LARGE_ROWS),
        "groups": write_groups(workdir / "decompose.csv", rng, law,
                               CLI_LARGE_DECOMPOSE_ROWS, CLI_LARGE_GROUPS),
    }
    ops = [_cli_op("estimate", SEN, law, env, workdir, inputs),
           _cli_op("compare", SEN, law, env, workdir, inputs),
           _cli_op("decompose", SHORROCKS, law, env, workdir, inputs)]
    return Cycle(ops,
                 {"rows": CLI_LARGE_ROWS, "decompose_rows": CLI_LARGE_DECOMPOSE_ROWS,
                  "groups": CLI_LARGE_GROUPS, "poverty_line": law.poverty_line})


def validate(seed: int, workdir: Path, src: Path) -> Cycle:
    """One pass runs the four experiments; their seeds come from the
    workload seed and every pass reuses them, so payloads must repeat
    byte for byte."""
    seeds = np.random.default_rng([seed, 3]).integers(0, 2**31, size=len(EXPERIMENTS))
    env = child_env(src)
    first_payload: dict = {}
    ops = []
    for (name, replicates), exp_seed in zip(EXPERIMENTS, seeds):
        def check(payload, out, _name=name, _seed=int(exp_seed)):
            if payload["experiment"] != _name or payload["master_seed"] != _seed:
                return (f"validate {_name}: payload is for {payload['experiment']} "
                        f"seed {payload['master_seed']}")
            if first_payload.setdefault(_name, out) != out:
                return f"validate {_name}: payload differs from the first pass"
            return None

        argv = ["validate", "--experiment", name, "--seed", str(int(exp_seed)),
                "--format", "json"]
        ops.append(cli_op(f"validate_{name}", argv, check, env, workdir / "stdout.json",
                          ok_codes=(0, 3), replicates=replicates))
    return Cycle(ops, {"experiment_seeds": [int(s) for s in seeds]})


def parametric_joint(seed: int, workdir: Path, src: Path) -> Cycle:
    """16 joint laws and one parametric variance per cycle.

    ``joint_law``: the 4x4 ``mutual_variation_covariance`` of Sen and FGT(1)
    over two lognormal margins under a Gaussian copula, rho drawn from the
    seed in [-0.9, 0.9], default grid and copula grid.  The margins and the
    poverty line come from the seed too.  ``parametric_variance``:
    ``named_representation`` plus ``index_variance`` of Sen on the fixed
    2-component lognormal mixture ``MIXTURE_*``.  The four margin
    representations are built here, in set-up.
    """
    il = importlib.import_module("indexlaw")
    rng = np.random.default_rng([seed, 4])
    law = IncomeLaw.draw(rng)
    z = law.poverty_line
    growth, sigma2 = rng.uniform(0.0, 0.1), law.sigma * rng.uniform(0.8, 1.2)
    m1, m2 = il.LogNormal(law.mu, law.sigma), il.LogNormal(law.mu + growth, sigma2)
    sen, fgt1 = il.NamedIndex.sen(z), il.NamedIndex.fgt(1.0, z)
    mix_sen = il.NamedIndex.sen(MIXTURE_POVERTY_LINE)
    reps = [il.named_representation(m, ix) for m in (m1, m2) for ix in (sen, fgt1)]
    rho_rng = np.random.default_rng([seed, 5])
    first: dict = {}

    def joint_law(_inprocess: bool) -> Outcome:
        rho = float(rho_rng.uniform(-0.9, 0.9))
        t0 = time.perf_counter()
        frame = il.BivariateFrame(m1, m2, il.GaussianCopula(rho))
        m = il.mutual_variation_covariance(frame, reps[0], reps[1], reps[2], reps[3]).matrix
        outcome = Outcome(seconds=time.perf_counter() - t0)
        if m.shape != (4, 4) or not np.all(np.isfinite(m)) or not np.array_equal(m, m.T):
            outcome.error = f"joint_law rho={rho}: matrix is not a finite symmetric 4x4"
        elif np.linalg.eigvalsh(m).min() < -1e-9:
            outcome.error = f"joint_law rho={rho}: eigenvalue {np.linalg.eigvalsh(m).min()}"
        return outcome

    def parametric_variance(_inprocess: bool) -> Outcome:
        t0 = time.perf_counter()
        mix = il.Mixture(MIXTURE_WEIGHTS, [il.LogNormal(*p) for p in MIXTURE_PARTS])
        total = il.index_variance(mix, il.named_representation(mix, mix_sen)).total
        outcome = Outcome(seconds=time.perf_counter() - t0)
        if not (math.isfinite(total) and total > 0.0):
            outcome.error = f"parametric_variance = {total}"
        elif first.setdefault("total", total) != total:
            outcome.error = f"parametric_variance {total} differs from the first {first['total']}"
        return outcome

    ops = [Op("joint_law", joint_law)] * JOINT_LAWS_PER_CYCLE
    ops.append(Op("parametric_variance", parametric_variance))
    return Cycle(ops, {"poverty_line": z, "grid": 2048, "copula_grid": 512})


WORKLOADS = {
    "cli-small": cli_small,
    "cli-large": cli_large,
    "validate": validate,
    "parametric-joint": parametric_joint,
}
CLI_WORKLOADS = ("cli-small", "cli-large", "validate")
