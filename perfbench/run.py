"""Fit benchmark for the igwvmp command line: one workload, one seed.

Usage, from the repository root:

    python3 perfbench/run.py --workload example-m20 --seed 1 --seconds 30 --trace 0

Closed loop, one client: each CLI call runs in a fresh interpreter
(``child.py``), one at a time, with BLAS pinned to one thread. Inputs are
simulated from ``--seed`` with ``tlmm.simulate`` and written with
``cli.write_data_csv`` outside the timed region; call ``i`` of a run uses
data seed ``SeedSequence([seed, i])``. Calls continue while the next one is
expected to end within ``--seconds`` (at least two calls, or one untraced
and traced pair with ``--trace 1``). Every output is checked; a call that
exits non-zero or fails its check counts as failed.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones (see README.md). The line
before it is an ``info`` object with versions, sample counts, timing
summaries and failures.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
GROUP_SIZE = 15
SETUP_SAMPLES = 5  # set-up probes top the calls' own set-up samples up to this
START_LIMIT_S = 100.0  # no call starts later than this into a run
CALL_LIMIT_S = 165.0  # a child still running this far into a run is killed
COEFFICIENT_ROWS = ("beta0", "beta1", "u[1,0]", "u[1,1]", "u[2,0]", "u[2,1]")
TRUTH_SD_MULTIPLE = 6.0
REFERENCE_CHAIN = (500, 2000)  # warmup, kept of the Gibbs reference on fit-vmp


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n_groups: int
    df: float
    cli_args: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        # the shipped example as users run it: Gibbs, Moon Rock sampling and
        # summaries dominate
        Workload("example-m20", "compare", 20, 1.5, ("--warmup", "1000", "--kept", "5000")),
        # k = 82: the dense k-dimensional coefficient algebra dominates
        Workload("vmp-wide-m40", "fit-vmp", 40, 1.5),
        # k = 22, near-Gaussian noise, ~1000 cheap sweeps: fixed per-sweep
        # costs dominate
        Workload("vmp-long-m10", "fit-vmp", 10, 100.0, ("--max-iters", "20000")),
    )
}
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "accuracy_mean": "%"}


class BenchError(Exception):
    """The benchmark cannot run here at all; no result is printed."""


def _import_program():
    if not (SRC / "igwvmp" / "cli.py").is_file():
        raise BenchError(f"no igwvmp sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from igwvmp import cli, mcmc, tlmm

    return numpy, scipy, cli, mcmc, tlmm


def data_seed(seed, i):
    import numpy as np

    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def child_env():
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def environment():
    numpy, scipy, *_ = _import_program()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def call(tmp, cli_args, spans_path=None, deadline=None):
    """Run one CLI call (or, with no arguments, a set-up probe) in a fresh
    interpreter. Returns setup_s, run_s, rc, peak_rss_mb and stderr."""
    result_path = Path(tmp) / "result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(result_path),
            str(spans_path) if spans_path else "-", *cli_args]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=tmp, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"rc": None, "stderr": f"killed after {timeout:.0f} s"}
    if proc.returncode != 0 and not result_path.exists():
        return {"rc": proc.returncode, "stderr": proc.stderr[-500:]}
    with open(result_path) as fh:
        res = json.load(fh)
    res["setup_s"] = res.pop("ready") - spawned
    res["stderr"] = proc.stderr[-500:]
    return res


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _non_finite(obj, path="$"):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{path}.{k}")]
    return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]


def check_vmp(payload, truth):
    """fit-vmp: converged, every number finite, and each fixed-effect mean
    within TRUTH_SD_MULTIPLE posterior sds of the simulation truth."""
    if payload.get("converged") is not True:
        return ["not converged"]
    bad = _non_finite(payload)
    if bad:
        return [f"non-finite {bad[0]}"]
    names = payload["names"]
    mean, cov = payload["beta_u"]["mean"], payload["beta_u"]["cov"]
    problems = []
    for j, true in enumerate(truth.beta):
        i = names.index(f"beta{j}")
        sd = math.sqrt(cov[i][i])
        if not abs(mean[i] - true) <= TRUTH_SD_MULTIPLE * sd:
            problems.append(f"beta{j} mean {mean[i]:.4f} sd {sd:.4f} truth {true}")
    return problems


def check_compare(payload, truth=None):
    """compare: the acceptance test's agreement gates on the coefficient
    rows. Each row's mean gap must be under half the chain sd; the accuracy
    gate (over 80) applies to the rows' mean, because single random-slope
    rows fall below 80 on some simulated data sets (see README.md)."""
    if payload.get("vmp", {}).get("converged") is not True:
        return ["vmp not converged"]
    bad = _non_finite(payload)
    if bad:
        return [f"non-finite {bad[0]}"]
    rows = [payload["parameters"][name] for name in COEFFICIENT_ROWS]
    problems = []
    for name, row in zip(COEFFICIENT_ROWS, rows):
        gap = abs(row["vmp_mean"] - row["mcmc_mean"])
        if not gap < 0.5 * row["mcmc_sd"]:
            problems.append(f"{name}: gap {gap:.4f} sd {row['mcmc_sd']:.4f}")
    accuracy = statistics.fmean(row["accuracy"] for row in rows)
    if not accuracy > 80.0:
        problems.append(f"coefficient rows: mean accuracy {accuracy:.1f}")
    return problems


def _check_output(workload, out_path, truth, res):
    if res.get("rc") != 0:
        return [f"exit {res.get('rc')}: {res.get('stderr', '').strip()[-200:]}"]
    try:
        with open(out_path) as fh:
            payload = json.load(fh)
        check = check_compare if workload.command == "compare" else check_vmp
        return check(payload, truth)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _sweeps(out_path):
    with open(out_path) as fh:
        payload = json.load(fh)
    return payload["vmp"]["iterations"] if "vmp" in payload else payload["iterations"]


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------


def compare_accuracy(out_path):
    """Mean of the per-parameter accuracy column of a compare report."""
    with open(out_path) as fh:
        rows = json.load(fh)["parameters"]
    return statistics.fmean(row["accuracy"] for row in rows.values())


def reference_accuracy(out_path, data, dseed):
    """Mean accuracy of a fit-vmp output's coefficient rows against a Gibbs
    reference chain on the same data, by the compare report's measure."""
    np, _, cli, mcmc, _ = _import_program()
    from scipy.stats import gaussian_kde

    with open(out_path) as fh:
        payload = json.load(fh)
    chain = mcmc.gibbs_fit(data, None, mcmc.GibbsConfig(*REFERENCE_CHAIN, dseed), "slope")
    names = list(chain.names)
    scores = []
    for name in COEFFICIENT_ROWS:
        i = names.index(name)
        mu = payload["beta_u"]["mean"][i]
        sd = math.sqrt(payload["beta_u"]["cov"][i][i])
        draws = chain.coefficients[:, i]
        spread = float(np.std(draws))
        lo = min(mu - 6.0 * sd, float(draws.min()) - 0.5 * spread)
        hi = max(mu + 6.0 * sd, float(draws.max()) + 0.5 * spread)
        grid = np.linspace(lo, hi, 401)
        q_vmp = np.exp(-0.5 * ((grid - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        q_ref = gaussian_kde(draws, bw_method="silverman")(grid)
        scores.append(cli.density_accuracy(grid, q_vmp, q_ref))
    return statistics.fmean(scores)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def timing_summary(values):
    """Median, and the highest percentile with at least ten samples above
    it (None below eleven samples), with the sample count."""
    v = sorted(values)
    n = len(v)
    tail = {"percentile": 100.0 * (n - 10) / n, "value": v[n - 11]} if n >= 11 else None
    return {"median": statistics.median(v) if v else None, "n": n, "tail": tail}


class _Inputs:
    """Simulated data sets of one run, written as CSV on first use."""

    def __init__(self, workload, seed, tmp):
        self.workload, self.seed, self.tmp = workload, seed, Path(tmp)
        self.cache = {}

    def get(self, i):
        if i not in self.cache:
            _, _, cli, _, tlmm = _import_program()
            dseed = data_seed(self.seed, i)
            data, truth = tlmm.simulate(seed=dseed, n_groups=self.workload.n_groups,
                                        group_size=GROUP_SIZE, df=self.workload.df)
            csv_path = self.tmp / f"data{i}.csv"
            cli.write_data_csv(csv_path, data)
            self.cache[i] = (csv_path, data, truth, dseed)
        return self.cache[i]

    def cli_args(self, i, out_path):
        csv_path, _, _, dseed = self.get(i)
        args = [self.workload.command, "--input", str(csv_path), "--output", str(out_path)]
        if self.workload.command == "compare":
            args += ["--seed", str(dseed)]
        return args + list(self.workload.cli_args)


def run(workload, seed, seconds, trace, corrupt=None):
    """One benchmark run. Returns (result, info): ``result`` is the object
    the last output line carries. ``corrupt``, if given, is applied to each
    output file before it is checked (the harness's own test uses it)."""
    started = time.monotonic()
    deadline = started + CALL_LIMIT_S
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK)
    try:
        inputs = _Inputs(workload, seed, tmp)
        calls, problems = [], []

        def one(i, traced):
            out_path = Path(tmp) / f"out{i}{'t' if traced else ''}.json"
            spans_path = Path(tmp) / f"spans{len(calls)}.json" if traced else None
            args = inputs.cli_args(i, out_path)
            res = call(tmp, args, spans_path, deadline)
            if corrupt is not None and out_path.exists():
                corrupt(out_path)
            found = _check_output(workload, out_path, inputs.get(i)[2], res)
            problems.extend(f"call {len(calls)}: {p}" for p in found)
            res["sweeps"] = _sweeps(out_path) if not found else None
            res.update(index=i, traced=traced, ok=not found, out=out_path, spans=spans_path)
            calls.append(res)

        walls = []
        unit = 1 if trace else 2  # calls that must be made before stopping
        while True:
            t = time.monotonic()
            if trace:
                # alternate which side of the pair runs first
                first = len(walls) % 2 == 1
                one(0, traced=first)
                one(0, traced=not first)
            else:
                one(len(calls), traced=False)
            walls.append(time.monotonic() - t)
            elapsed = time.monotonic() - started
            enough = len(walls) >= unit and elapsed + statistics.median(walls) > seconds
            if enough or elapsed > START_LIMIT_S:
                break

        info = {
            "workload": workload.name,
            "seed": seed,
            "trace": int(trace),
            "env": environment(),
            "data_seeds": sorted({inputs.get(c["index"])[3] for c in calls}),
        }
        info["per_call"] = [
            {k: c.get(k) for k in ("index", "traced", "run_s", "cpu_s", "setup_s", "sweeps", "ok")}
            for c in calls
        ]
        failed = sum(not c["ok"] for c in calls)
        info.update(calls=len(calls), failed=failed, failed_frac=failed / len(calls),
                    problems=problems[:5])
        if trace:
            metrics = _layer_metrics(workload, seed, calls, info)
        else:
            metrics = _end_to_end_metrics(workload, inputs, calls, info, deadline, tmp)
        result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
                  "metrics": metrics}
        return result, info
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _end_to_end_metrics(workload, inputs, calls, info, deadline, tmp):
    setups = [c["setup_s"] for c in calls if "setup_s" in c]
    while len(setups) < SETUP_SAMPLES:
        probe = call(tmp, [], deadline=deadline)
        if "setup_s" not in probe:
            raise BenchError(f"set-up probe failed: {probe.get('stderr', '')}")
        setups.append(probe["setup_s"])
    timed = [c for c in calls if "run_s" in c]
    run_s = [c["run_s"] for c in timed]
    info["timings"] = {"setup_s": timing_summary(setups), "run_s": timing_summary(run_s)}
    metrics = {}
    if timed:
        metrics["setup_s"] = statistics.median(setups)
        metrics["run_s"] = statistics.median(run_s)
        metrics["peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in timed)
    good = [c for c in calls if c["ok"]]
    if good and workload.command == "compare":
        metrics["accuracy_mean"] = statistics.median(compare_accuracy(c["out"]) for c in good)
    elif good:
        first = good[0]
        _, data, _, dseed = inputs.get(first["index"])
        metrics["accuracy_mean"] = reference_accuracy(first["out"], data, dseed)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def _layer_metrics(workload, seed, calls, info):
    from spans import UNITS, layer_metrics, self_time_ranking

    traced = [c for c in calls if c["traced"] and c["spans"] is not None and c["spans"].exists()]
    plain = [c["run_s"] for c in calls if not c["traced"] and "run_s" in c]
    if not traced or not plain:
        return {}
    dumps = []
    for c in traced:
        with open(c["spans"]) as fh:
            dumps.append(json.load(fh))
    kept = WORK / f"spans-{workload.name}-seed{seed}.json"
    shutil.copyfile(traced[0]["spans"], kept)
    per_call = [layer_metrics(d) for d in dumps]
    metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
    traced_run = statistics.median(c["run_s"] for c in traced)
    metrics["trace.overhead_s"] = traced_run - statistics.median(plain)
    info["timings"] = {
        "run_s_untraced": timing_summary(plain),
        "run_s_traced": timing_summary([c["run_s"] for c in traced]),
    }
    info["self_time_top_s"] = self_time_ranking(dumps[0])
    info["spans_file"] = str(kept.relative_to(ROOT))
    return {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _import_program()
        result, info = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
