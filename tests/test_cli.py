"""Command-line interface: file formats, exit codes, and the compare report."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from igwvmp import cli, mcmc, tlmm
from igwvmp.cli import CommandError, density_accuracy, main, read_data_csv, write_data_csv
from igwvmp.distributions import (
    Graph,
    MoonRockParams,
    NaturalIGW,
    igw_from_natural,
    igw_to_natural,
    CommonIGW,
)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.csv"
    rc = main(["simulate", "--output", str(path), "--seed", "5", "--m", "6", "--n-per-group", "10"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def vmp_json(small_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_vmp") / "fit.json"
    rc = main(["fit-vmp", "--input", str(small_csv), "--output", str(path)])
    assert rc == 0
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_default_row_count(tmp_path):
    path = tmp_path / "d.csv"
    assert main(["simulate", "--output", str(path), "--seed", "0"]) == 0
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "group,y,x1"
    assert len(rows) == 1 + 300


def test_simulate_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["simulate", "--output", str(a), "--seed", "3", "--m", "4", "--n-per-group", "5"])
    main(["simulate", "--output", str(b), "--seed", "3", "--m", "4", "--n-per-group", "5"])
    main(["simulate", "--output", str(c), "--seed", "4", "--m", "4", "--n-per-group", "5"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_micro_rows(tmp_path):
    path = tmp_path / "micro.csv"
    assert main(["simulate", "--output", str(path), "--m", "1", "--n-per-group", "2"]) == 0
    assert len(path.read_text().strip().splitlines()) == 3


def test_csv_round_trip(tmp_path):
    data, _ = tlmm.simulate(seed=9, n_groups=5, group_size=7)
    path = tmp_path / "rt.csv"
    write_data_csv(path, data)
    back = read_data_csv(path)
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.group, data.group)


# ---------------------------------------------------------------------------
# CSV validation
# ---------------------------------------------------------------------------


def test_read_csv_names_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("group,y,x1\n0,1.0,2.0\nzero,3.0,4.0\n")
    with pytest.raises(CommandError, match="line 3"):
        read_data_csv(path)


def test_read_csv_wrong_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("group,y\n0,1.0\n")
    with pytest.raises(CommandError, match="line 1"):
        read_data_csv(path)


def test_read_csv_field_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("group,y,x1\n0,1.0\n")
    with pytest.raises(CommandError, match="line 2"):
        read_data_csv(path)


def test_validation_exit_codes(tmp_path, capsys):
    out = tmp_path / "o.json"
    bad = tmp_path / "bad.csv"
    bad.write_text("group,y,x1\n0,1.0,nan?\n")
    assert main(["fit-vmp", "--input", str(bad), "--output", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["fit-vmp", "--input", str(tmp_path / "none.csv"), "--output", str(out)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["fit-vmp", "fit-mcmc", "compare"])
@pytest.mark.parametrize("row", ["0,nan,0.5", "0,0.5,inf", "1,-inf,0.5"])
def test_non_finite_data_exit_code(command, row, tmp_path, capsys):
    bad = tmp_path / "nonfinite.csv"
    bad.write_text(f"group,y,x1\n0,1.0,0.2\n1,2.0,0.4\n{row}\n1,3.0,0.9\n")
    rc = main([command, "--input", str(bad), "--output", str(tmp_path / "o.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 4" in err and "finite" in err


def test_scale_list_validation(small_csv, tmp_path, capsys):
    out = tmp_path / "o.json"
    args = ["fit-vmp", "--input", str(small_csv), "--output", str(out)]
    assert main(args + ["--s-Sigma", "1,2,3"]) == 2
    assert main(args + ["--s-Sigma", "1;2"]) == 2
    assert main(args + ["--design", "intercept", "--s-Sigma", "1,2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("fit-vmp", ["--max-iters", "0"]),
        ("fit-vmp", ["--tol", "-1"]),
        ("fit-vmp", ["--tol", "nan"]),
        ("compare", ["--tol", "0"]),
        ("fit-mcmc", ["--kept", "10"]),
        ("compare", ["--kept", "10"]),
    ]
    + [
        (command, [flag, value])
        for command in ("fit-vmp", "fit-mcmc", "compare")
        for flag in ("--sigma-beta", "--s-sigma", "--lambda-nu", "--s-Sigma")
        for value in ("nan", "inf")
    ],
)
def test_bad_run_length_rejected_before_work(command, extra, small_csv, tmp_path, capsys, monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("the Gibbs chain ran")

    monkeypatch.setattr(mcmc, "gibbs_fit", no_chain)
    out = tmp_path / "o.json"
    assert main([command, "--input", str(small_csv), "--output", str(out), *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_non_finite_payload_is_a_numerical_failure(tmp_path):
    out = tmp_path / "o.json"
    with pytest.raises(CommandError, match="cannot write") as info:
        cli._write_json(out, {"final_change": float("inf"), "values": np.array([1.0, np.nan])})
    assert info.value.code == 3
    assert not out.exists()


# ---------------------------------------------------------------------------
# fit-vmp
# ---------------------------------------------------------------------------


def test_fit_vmp_schema(vmp_json):
    d = vmp_json
    assert d["method"] == "vmp"
    assert d["converged"] is True
    assert set(d) >= {"beta_u", "sigma2", "Sigma", "upsilon", "nu_density", "names", "iterations"}
    k = 2 + 2 * 6
    assert len(d["names"]) == k
    assert len(d["beta_u"]["mean"]) == k
    assert np.asarray(d["beta_u"]["cov"]).shape == (k, k)
    assert len(d["nu_density"]["grid"]) == 401
    assert d["Sigma"]["kappa"] == pytest.approx(d["Sigma"]["xi"] - 2 + 1)


def test_fit_vmp_json_matches_in_process(small_csv, vmp_json):
    data = read_data_csv(small_csv)
    fit = tlmm.fit(data)
    s = fit.summary
    assert np.array_equal(np.asarray(vmp_json["beta_u"]["mean"]), s.coefficient_mean)
    assert np.array_equal(np.asarray(vmp_json["Sigma"]["Lambda"]), s.variance.Lambda)
    assert vmp_json["sigma2"]["lambda"] == s.noise_lambda


def test_fit_vmp_json_regenerates_common(vmp_json):
    d = vmp_json
    igw = CommonIGW(Graph.FULL, d["Sigma"]["xi"], np.asarray(d["Sigma"]["Lambda"]))
    back = igw_from_natural(igw_to_natural(igw))
    assert back.xi == pytest.approx(d["Sigma"]["xi"], abs=1e-10)
    assert np.allclose(back.Lambda, d["Sigma"]["Lambda"], atol=1e-10)
    # scalar chains through the stacked wire encoding
    eta = np.array([-(d["sigma2"]["delta"] + 2.0) / 2.0, -d["sigma2"]["lambda"] / 2.0])
    assert -2.0 * eta[0] - 2.0 == pytest.approx(d["sigma2"]["delta"], abs=1e-10)
    assert -2.0 * eta[1] == pytest.approx(d["sigma2"]["lambda"], abs=1e-10)
    ups = MoonRockParams.from_vector(
        np.array([d["upsilon"]["alpha"], -d["upsilon"]["beta"]])
    )
    assert ups.alpha == pytest.approx(d["upsilon"]["alpha"], abs=1e-10)
    assert ups.beta == pytest.approx(d["upsilon"]["beta"], abs=1e-10)


def test_fit_vmp_not_converged(small_csv, tmp_path, capsys):
    out = tmp_path / "nc.json"
    rc = main(["fit-vmp", "--input", str(small_csv), "--output", str(out), "--max-iters", "3"])
    assert rc == 3
    d = json.loads(out.read_text())
    assert d["converged"] is False
    assert d["iterations"] == 3
    capsys.readouterr()


@pytest.mark.parametrize("command, seed", [("simulate", "-1"), ("fit-mcmc", "-3"), ("compare", "-1")])
def test_negative_seed_is_an_input_error(command, seed, small_csv, tmp_path, capsys):
    # rejected with a typed error before any fit runs or any file is written
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, "--output", str(out / "result"), "--seed", seed]
    if command != "simulate":
        argv += ["--input", str(small_csv)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(out.iterdir()) == []


def test_fit_vmp_numerical_failure_exit_code(tmp_path, capsys):
    # noise-free responses drive the coefficient precision non-SPD; the
    # typed NonSPDPrecision must map to exit code 3, not a traceback
    data, _ = tlmm.simulate(seed=1, noise_variance=0)
    path = tmp_path / "zero_noise.csv"
    write_data_csv(path, data)
    rc = main(["fit-vmp", "--input", str(path), "--output", str(tmp_path / "z.json")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_fit_vmp_constant_predictor_exit_code(tmp_path, capsys):
    # a constant x1 makes each group's slope column a multiple of its
    # intercept column; the singular coefficient precision must end in the
    # typed NonSPDPrecision (exit 3), not a traceback
    data, _ = tlmm.simulate(seed=1)
    flat = tlmm.TLMMData(data.y, np.full(data.n_obs, 0.5), data.group)
    path = tmp_path / "constant_x.csv"
    write_data_csv(path, flat)
    rc = main(["fit-vmp", "--input", str(path), "--output", str(tmp_path / "c.json")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# fit-mcmc
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mcmc_json(small_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_mcmc") / "m.json"
    rc = main(
        ["fit-mcmc", "--input", str(small_csv), "--output", str(path),
         "--warmup", "150", "--kept", "500", "--seed", "2"]
    )
    assert rc == 0
    return json.loads(path.read_text())


def test_fit_mcmc_schema(mcmc_json):
    d = mcmc_json
    assert d["method"] == "mcmc"
    assert d["iterations"] == 650
    assert d["sigma2"]["delta"] > 0 and d["sigma2"]["lambda"] > 0
    assert d["Sigma"]["kappa"] == pytest.approx(d["Sigma"]["xi"] - 2 + 1)
    assert d["Sigma"]["xi"] > 4  # moment matching keeps E(Sigma) finite
    assert d["upsilon"]["beta"] > d["upsilon"]["alpha"] >= 0
    assert len(d["nu_density"]["grid"]) == len(d["nu_density"]["values"]) == 401
    expected = set(d["names"]) | {"sigma", "sigma1", "sigma2", "rho", "nu"}
    assert set(d["split_half_z"]) == expected


def test_fit_json_files_share_the_posterior_block(vmp_json, mcmc_json):
    shared = set(vmp_json) & set(mcmc_json) - {"method", "converged", "iterations"}
    assert shared == {"names", "beta_u", "sigma2", "Sigma", "upsilon", "nu_density"}
    assert vmp_json["names"] == mcmc_json["names"]
    for key in shared - {"names"}:
        assert set(vmp_json[key]) == set(mcmc_json[key]), key


# ---------------------------------------------------------------------------
# accuracy score
# ---------------------------------------------------------------------------


def test_accuracy_of_density_against_itself_is_100():
    grid = np.linspace(-5, 5, 401)
    q = np.exp(-0.5 * grid**2) / np.sqrt(2 * np.pi)
    assert density_accuracy(grid, q, q) == 100.0


def test_accuracy_of_disjoint_densities_is_zero():
    grid = np.linspace(-12, 12, 2001)
    a = np.exp(-0.5 * ((grid + 8) / 0.5) ** 2) / (0.5 * np.sqrt(2 * np.pi))
    b = np.exp(-0.5 * ((grid - 8) / 0.5) ** 2) / (0.5 * np.sqrt(2 * np.pi))
    assert density_accuracy(grid, a, b) == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def compare_run(small_csv, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli_cmp")
    out = out_dir / "report.json"
    rc = main(
        ["compare", "--input", str(small_csv), "--output", str(out),
         "--warmup", "150", "--kept", "600", "--seed", "11"]
    )
    assert rc == 0
    return out_dir, json.loads(out.read_text())


def test_compare_parameter_rows(compare_run):
    _, report = compare_run
    names = set(report["parameters"])
    assert names == {
        "beta0", "beta1", "u[1,0]", "u[1,1]", "u[2,0]", "u[2,1]",
        "sigma", "sigma1", "sigma2", "rho", "nu",
    }
    for row in report["parameters"].values():
        assert 0.0 < row["accuracy"] <= 100.0
        assert row["vmp_sd"] > 0 and row["mcmc_sd"] > 0


def test_compare_density_files(compare_run):
    out_dir, report = compare_run
    for name, row in report["parameters"].items():
        path = out_dir / row["density_csv"]
        assert path.exists()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value", "q_vmp", "q_mcmc"]
        assert len(rows) == 1 + 401
        grid = np.array([float(r[0]) for r in rows[1:]])
        assert np.all(np.diff(grid) > 0)
        if name == "rho":
            assert grid[0] >= -1.0 and grid[-1] <= 1.0


def test_compare_gaussian_limit_beta_accuracy(tmp_path):
    # near-Gaussian response: the variational posterior for beta is close
    # to exact, so the overlap with the sampler should be high
    data, _ = tlmm.simulate(seed=17, n_groups=20, group_size=15, df=80.0)
    path = tmp_path / "g.csv"
    write_data_csv(path, data)
    out = tmp_path / "report.json"
    rc = main(
        ["compare", "--input", str(path), "--output", str(out),
         "--max-iters", "2500", "--warmup", "500", "--kept", "2500", "--seed", "4"]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["parameters"]["beta0"]["accuracy"] > 95.0
    assert report["parameters"]["beta1"]["accuracy"] > 95.0


def test_compare_intercept_design(tmp_path):
    path = tmp_path / "i.csv"
    main(["simulate", "--output", str(path), "--seed", "8", "--m", "6",
          "--n-per-group", "12", "--design", "intercept"])
    out = tmp_path / "r.json"
    rc = main(
        ["compare", "--input", str(path), "--output", str(out), "--design", "intercept",
         "--warmup", "150", "--kept", "500", "--seed", "3"]
    )
    assert rc == 0
    names = set(json.loads(out.read_text())["parameters"])
    assert names == {"beta0", "beta1", "u[1,0]", "u[2,0]", "sigma", "sigma1", "nu"}


@pytest.mark.parametrize(
    "command, extra, most",
    [
        ("fit-vmp", [], 1),
        ("fit-mcmc", ["--warmup", "10", "--kept", "100"], 1),
        # one design for the VMP fit, one for the Gibbs chain
        ("compare", ["--warmup", "10", "--kept", "100"], 2),
    ],
)
def test_design_is_assembled_once_per_engine(command, extra, most, small_csv, tmp_path, monkeypatch):
    calls = []
    assemble = tlmm.assemble_design

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(tlmm, "assemble_design", counted)
    monkeypatch.setattr(mcmc, "assemble_design", counted)
    out = tmp_path / "out.json"
    assert main([command, "--input", str(small_csv), "--output", str(out), *extra]) == 0
    assert 1 <= len(calls) <= most


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What pip's generated console-script wrapper does: import the declared
# target, name the program after the script, call it with no arguments and
# hand its return value to sys.exit.
WRAPPER = """\
import importlib, sys
module, _, attr = sys.argv.pop(1).partition(":")
func = getattr(importlib.import_module(module), attr)
sys.argv[0] = "igwvmp"
sys.exit(func())
"""


def test_console_script(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["igwvmp"]

    def run(*args):
        return subprocess.run(
            [sys.executable, "-c", WRAPPER, target, *args], capture_output=True, text=True
        )

    path = tmp_path / "s.csv"
    proc = run("simulate", "--output", str(path), "--m", "1", "--n-per-group", "2")
    assert proc.returncode == 0, proc.stderr
    assert path.exists()

    proc = run("fit-vmp", "--input", str(tmp_path / "missing.csv"), "--output",
               str(tmp_path / "fit.json"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr


@pytest.mark.skipif(shutil.which("igwvmp") is None, reason="no igwvmp executable on PATH")
def test_installed_console_script(tmp_path):
    path = tmp_path / "s.csv"
    proc = subprocess.run(
        ["igwvmp", "simulate", "--output", str(path), "--m", "1", "--n-per-group", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert path.exists()


# scipy.stats costs about 0.5 s and 22 MB at start-up, scipy.optimize about
# 0.3 s and 24 MB; only fit-mcmc's moment matching loads scipy.optimize
HEAVY_SCIPY = """\
import sys
print(sorted(m for m in sys.modules
             if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "optimize"])))
"""


def run_and_list_heavy_scipy(code):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code + HEAVY_SCIPY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_package_import_leaves_out_scipy_stats_and_optimize():
    assert run_and_list_heavy_scipy("import igwvmp.cli, igwvmp.mcmc, igwvmp.tlmm\n") == "[]"


def test_fit_vmp_leaves_out_scipy_optimize(small_csv, tmp_path):
    out = tmp_path / "fit.json"
    code = (
        "from igwvmp.cli import main\n"
        f"assert main(['fit-vmp', '--input', {str(small_csv)!r}, '--output', {str(out)!r}]) == 0\n"
    )
    assert run_and_list_heavy_scipy(code) == "[]"


def test_module_invocation_help():
    proc = subprocess.run(
        [sys.executable, "-m", "igwvmp.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for word in ("simulate", "fit-vmp", "fit-mcmc", "compare"):
        assert word in proc.stdout
