"""Command line interface.

Four subcommands cover the example workflow end to end: ``simulate`` writes
a CSV data set, ``fit-vmp`` and ``fit-mcmc`` write posterior JSON files, and
``compare`` runs both fits and writes a side-by-side report with density
grids for external plotting. Exit codes: 0 success, 2 input or validation
error, 3 for a ``NumericalFailure`` (non-convergence included), which is what
any failure of a fit on valid input raises.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import mcmc, tlmm
from .distributions import (
    igw_sample,
    inv_chisq_log_density,
    inv_chisq_sqrt_mean,
    inv_chisq_sqrt_sd,
    moonrock_log_density,
)
from .errors import (
    DimensionMismatch,
    IGWVMPError,
    InvalidHyperparameter,
    NotConverged,
    NumericalFailure,
)

__all__ = ["main", "build_parser", "read_data_csv", "write_data_csv", "density_accuracy"]

CSV_HEADER = ("group", "y", "x1")


class CommandError(Exception):
    """A failure carrying the process exit code to use."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def write_data_csv(path, data: tlmm.TLMMData):
    """Rows in group order, as ``TLMMData`` stores them; floats written in
    round-trip precision."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for g, y, x in zip(data.group.tolist(), data.y.tolist(), data.x.tolist()):
                writer.writerow([g, repr(y), repr(x)])
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}")


def read_data_csv(path) -> tlmm.TLMMData:
    """Parse the ``group,y,x1`` schema, naming the line of any bad row."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}")
    if not rows:
        raise CommandError(f"{path}: line 1: empty file, expected header group,y,x1")
    if [c.strip() for c in rows[0]] != list(CSV_HEADER):
        raise CommandError(
            f"{path}: line 1: expected header group,y,x1, got {','.join(rows[0])}"
        )
    groups, ys, xs = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise CommandError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
        try:
            groups.append(int(row[0]))
            ys.append(float(row[1]))
            xs.append(float(row[2]))
        except ValueError as exc:
            raise CommandError(f"{path}: line {lineno}: {exc}")
        if not (math.isfinite(ys[-1]) and math.isfinite(xs[-1])):
            raise CommandError(f"{path}: line {lineno}: y and x1 must be finite numbers")
    try:
        return tlmm.TLMMData(
            np.array(ys, dtype=float), np.array(xs, dtype=float), np.array(groups, dtype=int)
        )
    except DimensionMismatch as exc:
        raise CommandError(f"{path}: {exc}")


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path, payload):
    """Strict JSON: a NaN or infinity in the payload is a numerical failure
    (code 3), and the partly written file is removed."""
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=_jsonify, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}")
    except ValueError as exc:
        Path(path).unlink(missing_ok=True)
        raise CommandError(f"cannot write {path}: {exc}", code=3)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _parse_scales(text):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise CommandError(
            f"--s-Sigma expects a comma-separated list of numbers, got {text!r}"
        )


def _hyper_for(args):
    n_random = tlmm.design_sizes(args.design)[1]
    scales = _parse_scales(args.s_Sigma)
    if len(scales) == 1 and n_random > 1:
        scales = scales * n_random
    if len(scales) != n_random:
        raise CommandError(
            f"--s-Sigma needs {n_random} entries for --design {args.design}, "
            f"got {len(scales)}"
        )
    try:
        return tlmm.TLMMHyper(args.sigma_beta, args.s_sigma, scales, args.lambda_nu)
    except InvalidHyperparameter as exc:
        raise CommandError(str(exc))


def _gibbs_config(args) -> mcmc.GibbsConfig:
    """Chain settings, checked before any fit runs: the summaries need at
    least ``mcmc.MIN_SUMMARY_DRAWS`` retained draws."""
    if args.kept < mcmc.MIN_SUMMARY_DRAWS:
        raise CommandError(f"--kept must be at least {mcmc.MIN_SUMMARY_DRAWS}, got {args.kept}")
    try:
        return mcmc.GibbsConfig(args.warmup, args.kept, args.seed)
    except InvalidHyperparameter as exc:
        raise CommandError(str(exc))


def _add_fit_arguments(p):
    p.add_argument("--input", required=True, help="data CSV with header group,y,x1")
    p.add_argument("--output", required=True, help="output JSON path")
    p.add_argument(
        "--design",
        choices=("slope", "intercept"),
        default="slope",
        help="random intercept+slope (q=2) or intercept only (q=1)",
    )
    p.add_argument("--sigma-beta", type=float, default=1e5, help="fixed-effects prior scale")
    p.add_argument("--s-sigma", type=float, default=1e5, help="noise half-Cauchy scale")
    p.add_argument(
        "--s-Sigma",
        default="1e5",
        help="comma list of covariance prior scales (one value is repeated)",
    )
    p.add_argument("--lambda-nu", type=float, default=0.01, help="degrees-of-freedom prior rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igwvmp",
        description="t-response mixed model: simulate, fit, and compare posteriors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a data set from the example model")
    sim.add_argument("--output", required=True, help="CSV path to write")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--m", type=int, default=20, help="number of groups")
    sim.add_argument("--n-per-group", type=int, default=15, help="observations per group")
    sim.add_argument("--design", choices=("slope", "intercept"), default="slope")
    sim.set_defaults(func=cmd_simulate)

    vmp = sub.add_parser("fit-vmp", help="fit by variational message passing")
    _add_fit_arguments(vmp)
    vmp.add_argument("--tol", type=float, default=1e-10, help="convergence tolerance")
    vmp.add_argument("--max-iters", type=int, default=500, help="maximum sweeps")
    vmp.set_defaults(func=cmd_fit_vmp)

    gibbs = sub.add_parser("fit-mcmc", help="fit by Gibbs sampling")
    _add_fit_arguments(gibbs)
    gibbs.add_argument("--warmup", type=int, default=1000)
    gibbs.add_argument("--kept", type=int, default=5000)
    gibbs.add_argument("--seed", type=int, default=0)
    gibbs.set_defaults(func=cmd_fit_mcmc)

    comp = sub.add_parser("compare", help="run both fits and report accuracy")
    _add_fit_arguments(comp)
    comp.add_argument("--tol", type=float, default=1e-10)
    comp.add_argument("--max-iters", type=int, default=500)
    comp.add_argument("--warmup", type=int, default=1000)
    comp.add_argument("--kept", type=int, default=5000)
    comp.add_argument("--seed", type=int, default=0)
    comp.set_defaults(func=cmd_compare)
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    q = tlmm.design_sizes(args.design)[1]
    cov = np.array(tlmm.TRUE_RANDOM_COV)[:q, :q]
    data, _ = tlmm.simulate(
        seed=args.seed,
        n_groups=args.m,
        group_size=args.n_per_group,
        random_cov=cov,
        design=args.design,
    )
    write_data_csv(args.output, data)
    print(f"wrote {data.n_obs} rows to {args.output}")
    return 0


def cmd_fit_vmp(args):
    data = read_data_csv(args.input)
    hyper = _hyper_for(args)
    try:
        fit = tlmm.fit(data, hyper, args.design, tol=args.tol, max_iters=args.max_iters)
    except NotConverged as exc:
        _write_json(
            args.output,
            {
                "method": "vmp",
                "converged": False,
                "iterations": exc.report.iterations,
                "final_change": exc.report.final_change,
                "tol": args.tol,
            },
        )
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_json(
        args.output,
        {"method": "vmp", "converged": True, "tol": args.tol, **fit.summary.to_dict()},
    )
    print(f"converged in {fit.summary.report.iterations} sweeps; wrote {args.output}")
    return 0


def _mcmc_payload(chain, summary, args):
    """The ``fit-mcmc`` keys around the shared posterior block, whose
    parametric families are moment-matched to the chain."""
    block = tlmm.posterior_block(
        chain.names,
        chain.coefficients.mean(axis=0),
        np.cov(chain.coefficients.T),
        mcmc.match_inv_chisq(chain.sigma2),
        mcmc.match_igw_full(chain.Sigma),
        mcmc.match_moonrock(chain.nu / 2.0),
        mcmc.kde_density(chain.nu),
    )
    return {
        "method": "mcmc",
        "converged": summary.converged,
        "iterations": args.warmup + args.kept,
        "warmup": args.warmup,
        "kept": args.kept,
        "seed": args.seed,
        **block,
        "split_half_z": {name: p.split_z for name, p in summary.parameters.items()},
    }


def cmd_fit_mcmc(args):
    cfg = _gibbs_config(args)
    data = read_data_csv(args.input)
    hyper = _hyper_for(args)
    chain = mcmc.gibbs_fit(data, hyper, cfg, args.design)
    summary = mcmc.summarize(chain)
    _write_json(args.output, _mcmc_payload(chain, summary, args))
    print(f"kept {args.kept} draws; wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

_POSITIVE_PARAMS = frozenset({"sigma", "sigma1", "sigma2", "nu"})


def density_accuracy(grid, q_a, q_b) -> float:
    """100 (1 - L1 distance / 2) between two densities on a shared grid."""
    return float(100.0 * (1.0 - 0.5 * np.trapezoid(np.abs(np.asarray(q_a) - np.asarray(q_b)), grid)))


def _normal_pdf(grid, mu, sd):
    z = (grid - mu) / sd
    return np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi))


def _compare_entries(fit, seed):
    """(name, vmp mean, vmp sd, vmp density callable) per reported
    parameter: fixed effects, the first two groups' random effects, the
    noise and covariance scales, and the degrees of freedom."""
    s = fit.summary
    names = list(s.names)
    q = s.variance.dim
    m = (len(names) - 2) // q
    targets = ["beta0", "beta1"]
    for i in range(1, min(m, 2) + 1):
        targets.extend(f"u[{i},{j}]" for j in range(q))

    entries = []
    for nm in targets:
        i = names.index(nm)
        mu, sd = float(s.coefficient_mean[i]), float(s.coefficient_sd[i])
        entries.append((nm, mu, sd, lambda g, mu=mu, sd=sd: _normal_pdf(g, mu, sd)))

    # sigma^2 is inverse-chi^2, and so is each diagonal marginal of the
    # covariance posterior, with shape xi - 2q + 2
    shape = s.variance.xi - 2.0 * q + 2.0
    variances = [("sigma", s.noise_delta, s.noise_lambda)]
    variances += [(f"sigma{j + 1}", shape, float(s.variance.Lambda[j, j])) for j in range(q)]
    for nm, d, l in variances:
        entries.append(
            (
                nm,
                inv_chisq_sqrt_mean(d, l),
                inv_chisq_sqrt_sd(d, l),
                lambda g, d=d, l=l: 2.0 * g * np.exp(inv_chisq_log_density(d, l, g * g)),
            )
        )

    if q == 2:
        rng = np.random.default_rng(seed + 1)
        draws = igw_sample(s.variance, rng, size=4000)
        sds = np.sqrt(draws[:, [0, 1], [0, 1]])
        rho_v = draws[:, 0, 1] / (sds[:, 0] * sds[:, 1])
        mean_v, sd_v = float(np.mean(rho_v)), float(np.std(rho_v, ddof=1))
        entries.append(("rho", mean_v, sd_v, lambda g: mcmc.kde_density(rho_v, g)[1]))

    entries.append(
        (
            "nu",
            s.df_mean(),
            s.df_sd(),
            lambda g: 0.5 * np.exp(moonrock_log_density(s.df_half, g / 2.0)),
        )
    )
    return entries


def _aligned_grid(name, mu, sd, draws):
    lo = min(mu - 6.0 * sd, float(np.min(draws)) - 0.5 * float(np.std(draws)))
    hi = max(mu + 6.0 * sd, float(np.max(draws)) + 0.5 * float(np.std(draws)))
    if name in _POSITIVE_PARAMS:
        lo = max(lo, 1e-6)
    if name == "rho":
        lo, hi = max(lo, -1.0), min(hi, 1.0)
    return np.linspace(lo, hi, 401)


def _safe_name(name):
    return name.replace("[", "_").replace("]", "").replace(",", "_")


def cmd_compare(args):
    cfg = _gibbs_config(args)
    data = read_data_csv(args.input)
    hyper = _hyper_for(args)
    fit = tlmm.fit(data, hyper, args.design, tol=args.tol, max_iters=args.max_iters)
    chain = mcmc.gibbs_fit(data, hyper, cfg, args.design)
    chain_summary = mcmc.summarize(chain)
    series = mcmc.chain_series(chain)

    out = Path(args.output)
    stem = out.parent / out.stem
    table = {}
    for name, vmp_mean, vmp_sd, vmp_density in _compare_entries(fit, args.seed):
        draws = series[name]
        grid = _aligned_grid(name, vmp_mean, vmp_sd, draws)
        q_vmp = np.asarray(vmp_density(grid), dtype=float)
        _, q_mcmc = mcmc.kde_density(draws, grid)
        accuracy = density_accuracy(grid, q_vmp, q_mcmc)
        csv_path = Path(f"{stem}_density_{_safe_name(name)}.csv")
        try:
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("value", "q_vmp", "q_mcmc"))
                for v, a, b in zip(grid, q_vmp, q_mcmc):
                    writer.writerow((repr(float(v)), repr(float(a)), repr(float(b))))
        except OSError as exc:
            raise CommandError(f"cannot write {csv_path}: {exc}")
        mc = chain_summary.parameters[name]
        table[name] = {
            "vmp_mean": vmp_mean,
            "vmp_sd": vmp_sd,
            "mcmc_mean": mc.mean,
            "mcmc_sd": mc.sd,
            "accuracy": accuracy,
            "density_csv": csv_path.name,
        }

    _write_json(
        args.output,
        {
            "method": "compare",
            "n_obs": data.n_obs,
            "design": args.design,
            "vmp": {"converged": True, "iterations": fit.summary.report.iterations},
            "mcmc": {
                "converged": chain_summary.converged,
                "warmup": args.warmup,
                "kept": args.kept,
            },
            "parameters": table,
        },
    )
    print(f"wrote {args.output} and {len(table)} density files")
    return 0


def _exit_code(exc) -> int:
    """A CommandError's own code, 3 for a numerical failure and 2 for every
    other error, which rejects input or usage."""
    if isinstance(exc, CommandError):
        return exc.code
    return 3 if isinstance(exc, NumericalFailure) else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CommandError, IGWVMPError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
