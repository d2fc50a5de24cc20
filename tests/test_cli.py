"""End-to-end checks of the command-line interface.

Almost everything runs in process through ``main(argv)`` so exit codes,
stdout JSON, and written CSV files are all observable without
subprocesses; the import-path checks start fresh interpreters.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import ctrwpricer

from ctrwpricer import american, blackscholes, cli, european, fourier
from ctrwpricer.cli import FIGURES, build_figure, main, read_meta
from ctrwpricer.densities import Family, fit_from_moments
from ctrwpricer.errors import AccuracyError, OutOfBandError, ValidationError
from ctrwpricer.european import (
    Contract,
    PayoffKind,
    PriceMethod,
    no_trade_vanilla_call,
)
from ctrwpricer.numerics import QuadSpec
from ctrwpricer.riskneutral import MarketParams


# a figure's default grid [lo, hi, count] made bad in one entry
BAD_GRIDS = {
    "negative-endpoint": lambda g: [-g[0], g[1], g[2]],
    "zero-endpoint": lambda g: [0, g[1], g[2]],
    "infinite-endpoint": lambda g: [g[0], math.inf, g[2]],
    "nan-endpoint": lambda g: [math.nan, g[1], g[2]],
    "fractional-count": lambda g: [g[0], g[1], 2.5],
    "zero-count": lambda g: [g[0], g[1], 0],
    "negative-count": lambda g: [g[0], g[1], -3],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def fresh_env():
    src = os.path.dirname(os.path.dirname(ctrwpricer.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # a fresh interpreter, so modules other tests imported do not count
    probe = ("import sys, ctrwpricer.cli; print(sorted({m.split('.')[1] "
             "for m in sys.modules if m.startswith('scipy.')}))")
    out = subprocess.run([sys.executable, "-c", probe], env=fresh_env(), check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out.replace("'", '"')))
    assert not loaded & {"integrate", "optimize", "special", "stats"}, loaded


# main(argv) in a fresh interpreter; with "refuse" first, any scipy import
# raises ImportError.  The last stderr line says whether scipy.special loaded.
FRESH_MAIN = """
import sys
class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")
if sys.argv[1] == "refuse":
    sys.meta_path.insert(0, RefuseScipy())
from ctrwpricer.cli import main
code = main(sys.argv[2:])
print("scipy.special" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def run_fresh(mode, *argv):
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, mode, *argv],
                          env=fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr.splitlines()[-1] == "True"


def butterfly(density):
    return ("price", "--method", "fourier", "--contract", "butterfly", "--density",
            density, "--mu1", "1e-3", "--mu2", "1e-4", "--strike", "100", "--L", "10",
            "--spot", "92")


NUMPY_ONLY_COMMANDS = {
    "laplace-binary-call": ("price", "--contract", "binary-call", "--method", "laplace",
                            "--rho", "2", "--sigma", "0.1", "--spot", "1.05"),
    "laplace-vanilla-call": ("price", "--contract", "vanilla-call", "--method", "laplace",
                             "--rho", "5", "--sigma", "0.2", "--T", "1", "--spot", "0.9"),
    "american-binary-put": ("price", "--style", "american", "--contract", "binary-put",
                            "--method", "laplace", "--rho", "2", "--gamma", "9",
                            "--T", "0.5", "--spot", "1.1"),
    "perpetual-vanilla-put": ("price", "--style", "perpetual", "--contract", "vanilla-put",
                              "--rho", "2", "--gamma", "9", "--spot", "0.995"),
    **{f"butterfly-{d}": butterfly(d)
       for d in ("exp", "discrete", "constant", "gaussian", "logistic", "pareto")},
    "mc": ("mc", "--contract", "binary-call", "--rho", "2", "--gamma", "9",
           "--paths", "20000", "--seed", "3"),
    "validate": ("validate", "--rho", "2", "--gamma", "9"),
    "calibrate-lambda": ("calibrate-lambda", "--density", "exp", "--a", "0.3",
                         "--b", "0.05"),
}


class TestScipyBoundary:
    """Only the Bessel closed forms, Black-Scholes and the Gumbel law need
    scipy.special; every other route runs on numpy alone."""

    @pytest.mark.parametrize("name", sorted(NUMPY_ONLY_COMMANDS))
    def test_runs_without_scipy(self, capsys, name):
        argv = NUMPY_ONLY_COMMANDS[name]
        out, _ = run_fresh("refuse", *argv)
        code, expected, err = run(capsys, *argv)
        assert code == 0, err
        assert out == expected

    @pytest.mark.parametrize("argv", [
        ("price", "--method", "closed", "--rho", "2", "--sigma", "0.1"),
        butterfly("gumbel"),
    ], ids=["closed", "butterfly-gumbel"])
    def test_loads_scipy_special(self, argv):
        _, loaded = run_fresh("allow", *argv)
        assert loaded


class TestPriceCommand:
    def test_binary_call_matches_library(self, capsys):
        payload = run_json(
            capsys, "price", "--contract", "binary-call", "--rho", "2",
            "--sigma", "0.1", "--rate", "0.04", "--T", "0.25",
            "--spot", "1", "--strike", "1",
        )
        model = MarketParams.from_rho_sigma(2.0, 0.04, 0.1)
        contract = Contract(kind=PayoffKind.BINARY_CALL, strike=1.0, t_bar=0.25)
        expected = european.european_price(model, contract, 0.0, PriceMethod.CLOSED)
        assert payload["price"] == pytest.approx(expected, rel=1e-12)
        assert payload["contract"] == "binary-call"
        assert payload["style"] == "european"
        assert payload["method"] == "closed"
        assert payload["risk_neutral"] is True
        assert payload["T"] == 0.25

    def test_gamma_flag_equals_sigma_flag(self, capsys):
        # rho = 2, r = 4%, sigma = 10% sits exactly on the gamma = 9 slice
        via_sigma = run_json(capsys, "price", "--rho", "2", "--sigma", "0.1")
        via_gamma = run_json(capsys, "price", "--rho", "2", "--gamma", "9")
        assert via_sigma["price"] == pytest.approx(via_gamma["price"], rel=1e-13)

    def test_vanilla_near_no_trade_limit(self, capsys):
        payload = run_json(
            capsys, "price", "--contract", "vanilla-call", "--rho", "1.000001",
            "--sigma", "0.1", "--spot", "1.05",
        )
        target = no_trade_vanilla_call(1.0, math.log(1.05), 0.25, 0.04)
        assert abs(payload["price"] - target) <= 1e-4

    def test_laplace_method_agrees_with_closed(self, capsys):
        closed = run_json(capsys, "price", "--rho", "2", "--gamma", "9",
                          "--spot", "1.05")
        laplace = run_json(capsys, "price", "--rho", "2", "--gamma", "9",
                           "--spot", "1.05", "--method", "laplace")
        assert laplace["price"] == pytest.approx(closed["price"], abs=1e-6)

    def test_american_binary_put(self, capsys):
        payload = run_json(
            capsys, "price", "--style", "american", "--contract", "binary-put",
            "--method", "laplace", "--rho", "2", "--gamma", "9",
            "--spot", "1.1", "--strike", "1", "--T", "0.5",
        )
        model = MarketParams.exponential(2.0, 9.0, 0.04)
        expected = american.binary_put_price(model, 0.0, math.log(1.1), 0.5, "laplace")
        assert payload["price"] == pytest.approx(expected, rel=1e-12)

    def test_perpetual_vanilla_put_reports_boundary(self, capsys):
        payload = run_json(
            capsys, "price", "--style", "perpetual", "--contract", "vanilla-put",
            "--rho", "2", "--gamma", "9", "--spot", "0.995", "--strike", "1",
        )
        model = MarketParams.exponential(2.0, 9.0, 0.04)
        assert payload["exercise_boundary"] == pytest.approx(80.0 / 81.0, rel=1e-12)
        expected = american.perpetual_vanilla_put(model, 1.0, math.log(0.995))
        assert payload["price"] == pytest.approx(expected, rel=1e-12)
        assert "T" not in payload

    @pytest.mark.parametrize("contract", ["binary-put", "vanilla-put"])
    @pytest.mark.parametrize("method", [(), ("--method", "laplace")],
                             ids=["default", "laplace"])
    def test_perpetual_reports_closed_route(self, capsys, contract, method):
        # perpetual puts are algebraic: whatever --method says, the price is
        # the closed form's and the payload names that route
        args = ("price", "--style", "perpetual", "--contract", contract,
                "--rho", "2", "--gamma", "9", "--spot", "1.05")
        payload = run_json(capsys, *args, *method)
        assert payload == run_json(capsys, *args, "--method", "closed")
        assert payload["method"] == "closed"

    @pytest.mark.parametrize("argv, message", [
        (("--style", "american", "--contract", "binary-put", "--method", "closed", "--T", "1"),
         "--method laplace"),
        (("--style", "perpetual", "--contract", "vanilla-put"), "martingale intensity"),
    ], ids=["american-closed", "perpetual-vanilla"])
    def test_martingale_formulas_refuse_other_intensities(self, capsys, argv, message):
        code, out, err = run(capsys, "price", "--rho", "2", "--gamma", "9", "--spot", "1.1",
                             "--lambda-override", "0.5", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_perpetual_binary_put_at_any_intensity(self, capsys):
        payload = run_json(capsys, "price", "--style", "perpetual", "--contract", "binary-put",
                           "--rho", "2", "--gamma", "9", "--spot", "1.1",
                           "--lambda-override", "0.5")
        model = MarketParams.exponential(2.0, 9.0, 0.04, lam=0.5)
        s = 1e-9
        limit = s * complex(american.binary_put_laplace(model, 0.0, math.log(1.1), s)).real
        assert payload["price"] == pytest.approx(limit, abs=1e-6)
        assert payload["risk_neutral"] is False

    def test_perpetual_call_rejected(self, capsys):
        code, _, err = run(capsys, "price", "--style", "perpetual",
                           "--contract", "vanilla-call", "--rho", "2",
                           "--gamma", "9")
        assert code == 2
        assert "validation error" in err

    def test_butterfly_fourier_route(self, capsys):
        payload = run_json(
            capsys, "price", "--method", "fourier", "--contract", "butterfly",
            "--density", "gaussian", "--mu1", "1e-3", "--mu2", "1e-4",
            "--strike", "100", "--L", "10", "--spot", "100",
        )
        market = MarketParams.risk_neutral(
            0.04, fit_from_moments(Family.GAUSSIAN, 1e-3, 1e-4))
        expected = fourier.price_fourier(
            market, fourier.butterfly_payoff(100.0, 10.0), math.log(100.0),
            0.25, QuadSpec(rel_tol=1e-9, abs_tol=1e-6))
        assert payload["price"] == pytest.approx(expected, rel=1e-12)

    def test_butterfly_fourier_discrete_uses_exact_route(self, capsys):
        payload = run_json(
            capsys, "price", "--method", "fourier", "--contract", "butterfly",
            "--density", "discrete", "--mu1", "1e-3", "--mu2", "1e-4",
            "--strike", "100", "--L", "10", "--spot", "92",
        )
        market = MarketParams.risk_neutral(
            0.04, fit_from_moments(Family.DISCRETE, 1e-3, 1e-4))
        expected = fourier.price_two_point_exact(
            market, fourier.butterfly_payoff(100.0, 10.0), math.log(92.0), 0.25)
        assert payload["price"] == pytest.approx(expected, rel=1e-12)

    def test_fourier_method_requires_butterfly(self, capsys):
        # every profile without a transform is refused, the default one too
        for contract in ((), *(("--contract", k) for k in (
                "binary-call", "binary-put", "vanilla-call", "vanilla-put"))):
            code, _, err = run(capsys, "price", "--method", "fourier", *contract,
                               "--rho", "2", "--gamma", "9")
            assert code == 2, contract
            assert "the transform route prices butterfly portfolios" in err

    def test_divergent_rho_exits_2(self, capsys):
        code, out, err = run(capsys, "price", "--rho", "0.5", "--gamma", "9")
        assert code == 2
        assert out == ""
        assert "validation error" in err

    def test_inadmissible_gamma_exits_2(self, capsys):
        code, _, err = run(capsys, "price", "--rho", "2", "--gamma", "0.5")
        assert code == 2
        assert "validation error" in err

    def test_rho_with_non_exponential_density_rejected(self, capsys):
        code, _, err = run(capsys, "price", "--density", "gaussian",
                           "--rho", "2", "--gamma", "9")
        assert code == 2

    def test_accuracy_failure_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AccuracyError("tolerance not certified", best=1.0, bound=1e-3)

        monkeypatch.setattr(european, "european_price", boom)
        code, out, err = run(capsys, "price", "--rho", "2", "--gamma", "9")
        assert code == 3
        assert out == ""
        assert "accuracy error" in err


class TestConfigFile:
    def test_config_fills_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"rho": 2.0, "sigma": 0.1, "contract": "binary-call"}))
        via_config = run_json(capsys, "price", "--config", str(cfg))
        explicit = run_json(capsys, "price", "--contract", "binary-call",
                            "--rho", "2", "--sigma", "0.1")
        assert via_config == explicit

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 2.0, "sigma": 0.1}))
        payload = run_json(capsys, "price", "--config", str(cfg), "--rho", "5")
        baseline = run_json(capsys, "price", "--rho", "5", "--sigma", "0.1")
        assert payload["price"] == baseline["price"]

    def test_explicit_flag_equal_to_its_default_beats_config(self, capsys, tmp_path):
        # --rate 0.04 is also the flag's default; it must still win
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rate": 0.05}))
        args = ("mc", "--rho", "2", "--sigma", "0.1", "--paths", "2000",
                "--seed", "5")
        payload = run_json(capsys, *args, "--config", str(cfg), "--rate", "0.04")
        explicit = run_json(capsys, *args, "--rate", "0.04")
        from_config = run_json(capsys, *args, "--rate", "0.05")
        assert payload == explicit
        assert payload["price"] != from_config["price"]

    def test_boolean_config_key_applies(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"antithetic": True}))
        args = ("mc", "--density", "gaussian", "--a", "0.001", "--b", "0.01",
                "--paths", "2000", "--seed", "3")
        via_config = run_json(capsys, *args, "--config", str(cfg))
        explicit = run_json(capsys, *args, "--antithetic")
        plain = run_json(capsys, *args)
        assert via_config == explicit
        assert via_config["std_error"] != plain["std_error"]

    @pytest.mark.parametrize("text", [None, '{"rho": 2,', '[2, 9]'])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run(capsys, "price", "--config", str(cfg),
                             "--rho", "2", "--gamma", "9")
        assert code == 2
        assert out == ""
        assert "config" in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"volatility": 0.1}))
        code, _, err = run(capsys, "price", "--config", str(cfg),
                           "--rho", "2", "--gamma", "9")
        assert code == 2
        assert "volatility" in err

    @pytest.mark.parametrize("command, conf, key", [
        ("price", {"spot": [1]}, "--spot"),
        ("price", {"T": True}, "--T"),
        ("price", {"density": "nope"}, "--density"),
        ("iv", {"spoints": 2.5}, "--spoints"),
    ], ids=["list-spot", "bool-T", "bad-density", "float-spoints"])
    def test_config_value_checked_like_its_flag(self, capsys, tmp_path, command, conf, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(conf))
        code, out, err = run(capsys, command, "--config", str(cfg), "--rho", "2", "--gamma", "9")
        assert code == 2
        assert out == ""
        assert key in err and "validation error" in err

    def test_false_switch_in_config_leaves_it_off(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"antithetic": False, "paths": 2000}))
        args = ("mc", "--density", "gaussian", "--a", "0.001", "--b", "0.01", "--seed", "3")
        via_config = run_json(capsys, *args, "--config", str(cfg))
        assert via_config == run_json(capsys, *args, "--paths", "2000")
        assert via_config["paths"] == 2000


class TestIvCommand:
    def test_csv_structure_and_bs_self_check(self, capsys, tmp_path):
        out = tmp_path / "iv.csv"
        payload = run_json(capsys, "iv", "--rho", "20", "--sigma", "0.1",
                           "--out", str(out))
        assert payload["written"] == str(out)
        assert payload["out_of_band"] == 0

        lines = out.read_text().splitlines()
        assert lines[1] == "s_over_k,model_iv,bs_check"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[2:]]
        assert len(rows) == 31

        # recovering the input volatility from a Black-Scholes price is the
        # self-test of the solver itself
        for _, _, bs_iv in rows:
            assert bs_iv == pytest.approx(0.1, abs=1e-7)

        # the model curve crosses sigma inside the moneyness band where both
        # exist, sloping upward through it
        diffs = [(s, iv - 0.1) for s, iv, _ in rows if 0.93 <= s <= 0.99]
        assert min(d for _, d in diffs) < 0 < max(d for _, d in diffs)

        meta = read_meta(str(out))
        assert meta["rho"] == 20.0
        assert meta["out_of_band"] == 0

    def test_stdout_mode_has_no_meta_line(self, capsys):
        code, out, _ = run(capsys, "iv", "--rho", "2", "--gamma", "9",
                           "--spoints", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s_over_k,model_iv,bs_check"
        assert len(lines) == 6

    def test_stdout_equals_out_file_without_meta_line(self, capsys, tmp_path):
        args = ("iv", "--rho", "2", "--gamma", "9", "--spoints", "7", "--T", "0.5")
        code, stdout, err = run(capsys, *args)
        assert code == 0, err
        out = tmp_path / "iv.csv"
        run_json(capsys, *args, "--out", str(out))
        meta, body = out.read_text().split("\n", 1)
        assert meta.startswith("# {")
        assert body == stdout

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf, 1e-300], ids=repr)
    def test_horizon_refused_as_fig_from_meta_refuses_it(self, capsys, tmp_path, T):
        # iv --T and the T of an iv1 meta line: both exit 2, before any
        # pricing, or both price
        table = tmp_path / "iv1.csv"
        run_json(capsys, "fig", "--figure", "iv1", "--out", str(table))
        meta = dict(read_meta(str(table)), T=T)
        table.write_text("# " + json.dumps(meta) + "\n")
        fig_code, _, fig_err = run(capsys, "fig", "--from-meta", str(table),
                                   "--out", str(tmp_path / "again.csv"))
        code, out, err = run(capsys, "iv", "--rho", "2", "--gamma", "9",
                             "--spoints", "3", "--T", repr(T))
        assert code == fig_code
        if code:
            assert code == 2 and out == ""
            assert err.startswith("validation error:") and fig_err.startswith("validation error:")

    def test_fig_from_meta_refuses_iv_csv(self, capsys, tmp_path):
        # an iv meta line describes its curve but is not a figure recipe
        out = tmp_path / "iv.csv"
        run_json(capsys, "iv", "--rho", "20", "--sigma", "0.1", "--out", str(out))
        again = tmp_path / "again.csv"
        code, stdout, err = run(capsys, "fig", "--from-meta", str(out),
                                "--out", str(again))
        assert code == 2
        assert stdout == ""
        assert "iv CSV" in err
        assert not again.exists()


def float_loop_iv_table(meta: dict, models: dict, sigma=None) -> tuple:
    """An iv table's model and bs_check columns and its out_of_band count
    as one float ``implied_vol`` call per cell gives them."""
    K, T, r = meta["K"], meta["T"], meta["r"]
    spots = [mny * K for mny in cli._grid(meta["grid"])]

    def iv(price, spot):
        try:
            return blackscholes.implied_vol(float(price), spot, K, r, T)
        except OutOfBandError:
            return None

    xs = np.log(spots)
    columns = {name: [iv(p, s) for p, s in zip(european.vanilla_call_closed(m, K, xs, T), spots)]
               for name, m in models.items()}
    skipped = sum(v is None for col in columns.values() for v in col)
    if sigma is not None:
        columns["bs_check"] = [iv(blackscholes.bs_vanilla_call(s, K, r, sigma, T), s)
                               for s in spots]
    return columns, skipped


class TestIvFigures:
    """iv1 and iv2 solve all their cells in one array implied_vol call."""

    def test_one_solve_per_figure(self, monkeypatch):
        # one implied_vol call per figure, and normal_cdf on no more
        # elements than the 124 + 31 float solves took: 3,546 with the
        # bs_check column's prices (2,940 for iv1, 606 for iv2)
        solves, cdf = [], []
        solve, cdf_inner = blackscholes.implied_vol, blackscholes.normal_cdf
        monkeypatch.setattr(blackscholes, "implied_vol",
                            lambda *args: (solves.append(args), solve(*args))[1])
        monkeypatch.setattr(blackscholes, "normal_cdf",
                            lambda z: (cdf.append(np.size(z)), cdf_inner(z))[1])
        for fig_id in ("iv1", "iv2"):
            solves.clear()
            build_figure(fig_id)
            assert len(solves) == 1, fig_id
        assert sum(cdf) <= 3546

    @pytest.mark.parametrize("fig_id, T, grid, tol", [
        ("iv1", None, None, 1e-13),
        ("iv2", None, None, 1e-13),
        # flat bands in both wings; short-dated cells whose vega of about
        # 1e-5 leaves their last few ulps of price to rounding, up to 3e-12
        ("iv1", 1e-4, [0.3, 3.0, 41], 1e-11),
        ("iv1", 1e-3, [0.05, 20.0, 25], 1e-11),
        ("iv2", 1e-4, [0.5, 2.0, 16], 1e-11),
    ])
    def test_cells_and_out_of_band_match_the_float_loop(self, fig_id, T, grid, tol):
        meta = dict(FIGURES[fig_id][1], figure=fig_id)
        if T is not None:
            meta.update(T=T, grid=grid)
        fig = build_figure(meta=meta)
        if fig_id == "iv1":
            columns, skipped = float_loop_iv_table(meta, cli._exp_models(meta), meta["sigma"])
        else:
            market = MarketParams.from_rho_sigma(meta["rho"], meta["r"], meta["sigma"])
            columns, skipped = float_loop_iv_table(meta, {"model_iv": market})
        assert fig.meta["out_of_band"] == skipped
        assert T is None or skipped > 0
        assert fig.columns[1:] == list(columns)
        for j, want in enumerate(columns.values(), start=1):
            got = [row[j] for row in fig.rows]
            assert [v is None for v in got] == [v is None for v in want]
            assert all(v is None or abs(v - w) <= tol for v, w in zip(got, want))


class TestMcCommand:
    ARGS = ("mc", "--contract", "binary-call", "--rho", "2", "--gamma", "9",
            "--paths", "2000", "--seed", "42")

    def test_json_fields_and_reproducibility(self, capsys):
        first = run_json(capsys, *self.ARGS)
        second = run_json(capsys, *self.ARGS)
        assert first == second
        assert first["paths"] == 2000
        assert first["seed"] == 42
        assert first["style"] == "european"
        assert 0.0 <= first["price"] <= 1.0
        assert first["std_error"] > 0.0

    def test_price_has_no_mc_method(self, capsys):
        # simulation is the mc subcommand's; price takes no method alias for it
        with pytest.raises(SystemExit) as exc:
            main(["price", "--method", "mc", "--contract", "binary-call",
                  "--rho", "2", "--gamma", "9"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_first_passage_over_draw_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "mc", "--style", "american",
                           "--contract", "binary-put", "--rho", "2000",
                           "--sigma", "0.1", "--T", "1", "--spot", "1.1")
        assert code == 2
        assert "jump draws per block" in err

    def test_perpetual_style_rejected(self, capsys):
        code, _, err = run(capsys, "mc", "--style", "perpetual",
                           "--contract", "binary-put", "--rho", "2",
                           "--gamma", "9")
        assert code == 2


class TestBadNumericInputs:
    MARKET = ("--rho", "2", "--gamma", "9")

    @pytest.mark.parametrize("argv", [
        ("price", "--spot", "0"),
        ("mc", "--spot", "0", "--paths", "100"),
        ("iv", "--smin", "0"),
        ("price", "--T", "nan"),
        ("price", "--rate", "nan"),
        ("price", "--strike", "nan"),
        ("price", "--spot", "nan"),
        ("price", "--spot", "inf"),
        ("price", "--strike", "inf", "--method", "laplace"),
        ("price", "--lambda-override", "nan"),
        ("mc", "--spot", "-1", "--paths", "100"),
        ("iv", "--smax", "inf"),
        ("iv", "--spoints", "-3"),
        ("iv", "--spoints", "0"),
        ("iv", "--T", "-1"),
        ("iv", "--T", "nan"),
        ("iv", "--T", "inf"),
        ("iv", "--strike", "0"),
        ("iv", "--strike", "-1"),
        ("iv", "--strike", "1e-300", "--smin", "1e300"),  # the grid's last spot rounds to 0
        ("calibrate-lambda", "--rate", "nan"),
        ("price", "--tol", "nan"),
        ("price", "--tol", "inf", "--method", "laplace"),
    ], ids=" ".join)
    def test_refused_with_exit_2(self, capsys, argv):
        # refused before any pricing runs: no traceback, no accuracy error
        code, out, err = run(capsys, *argv, *self.MARKET)
        assert code == 2
        assert out == ""
        assert err.startswith("validation error:")


def strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, as strict parsers do."""
    def refuse(name):
        raise ValueError(f"non-finite JSON number {name}")
    return json.loads(text, parse_constant=refuse)


class TestHostileInputs:
    """Inputs a fuzz of every command found to end in a traceback or in a
    non-finite success: each is now refused (exit 2 or 3) or prints only
    finite numbers, with no warning (pytest turns one into an error)."""

    @pytest.mark.parametrize("argv", [
        ("price", "--rho", "0", "--sigma", "0.1"),
        ("price", "--rho", "2", "--gamma", "0"),
        ("mc", "--rho", "2", "--gamma", "9", "--rate", "1e300", "--paths", "1000"),
        ("price", "--rho", "1.5", "--sigma", "0.1", "--rate", "1e300", "--contract",
         "vanilla-put", "--T", "9", "--strike", "100"),
        ("calibrate-lambda", "--density", "gaussian", "--a", "0.01", "--b", "1e300"),
        ("iv", "--rho", "2", "--gamma", "9", "--rate", "1e300"),
        ("price", "--method", "fourier", "--contract", "butterfly", "--L", "10", "--strike",
         "100", "--spot", "100", "--rho", "2", "--gamma", "9", "--rate", "1e300"),
        ("price", "--density", "discrete", "--mu1", "1e-3", "--mu2", "1e-4", "--method",
         "fourier", "--contract", "butterfly", "--L", "10", "--strike", "100", "--spot", "100",
         "--T", "1e300"),
        *[(command, "--rho", "2", "--sigma", "1e-300", *extra) for command, extra in (
            ("price", ()), ("mc", ("--paths", "1000")), ("iv", ()), ("calibrate-lambda", ()))],
    ], ids=" ".join)
    def test_refused_with_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("validation error:")

    @pytest.mark.parametrize("rho, sigma", [
        ("2", "1e-300"),  # sigma^2 underflows to 0
        ("0.5", "0.4"),  # rho - 1 + 2 r / sigma^2 rounds to -1.1e-16
    ])
    def test_a_down_tail_rate_that_is_not_positive_is_named(self, capsys, rho, sigma):
        code, out, err = run(capsys, "price", "--rho", rho, "--sigma", sigma)
        assert code == 2
        assert out == ""
        assert err == ("validation error: rho - 1 + 2 r / sigma^2 is not a positive finite "
                       f"down-tail rate gamma (rho={float(rho)!r}, r=0.04, "
                       f"sigma={float(sigma)!r})\n")

    def test_an_infinite_exponential_moment_fails_validate(self, capsys):
        code, out, _ = run(capsys, "validate", "--density", "gaussian", "--a", "1e300",
                           "--b", "0.02", "--lambda-override", "5")
        assert code == 2
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        assert checks["exp_moment_finite"]["passed"] is False
        assert "not finite" in checks["exp_moment_finite"]["detail"]

    def test_an_infinite_standard_error_exits_3(self, capsys):
        # the payoff's squared deviations pass the double range at spot 1e300
        code, out, err = run(capsys, "mc", "--density", "discrete", "--mu1", "1e-3",
                             "--mu2", "1e-4", "--contract", "vanilla-call", "--spot", "1e300",
                             "--paths", "1000")
        assert code == 3
        assert out == ""
        assert err == "accuracy error: non-finite result: std_error\n"

    def test_an_infinite_payoff_exits_3(self, capsys):
        # E[e^J] is infinite at rho = 1e-300: simulated calls pass the double range
        code, out, err = run(capsys, "mc", "--rho", "1e-300", "--gamma", "9",
                             "--lambda-override", "9", "--paths", "1000")
        assert code == 3
        assert out == ""
        assert err == "accuracy error: non-finite result: price, std_error\n"

    def test_output_is_strict_json(self, capsys):
        code, out, _ = run(capsys, "mc", "--density", "discrete", "--mu1", "1e-3",
                           "--mu2", "1e-4", "--contract", "vanilla-call", "--paths", "1000")
        assert code == 0
        payload = strict_json(out)
        assert math.isfinite(payload["price"]) and math.isfinite(payload["std_error"])


# the exponential routes' cells: the European calls and puts, the American
# binary put and the two perpetual puts
EXPONENTIAL_CELLS = [("european", c) for c in ("binary-call", "binary-put", "vanilla-call",
                                                "vanilla-put")] + [
    ("american", "binary-put"), ("perpetual", "binary-put"), ("perpetual", "vanilla-put")]
STEP_LIMITED = {("closed", "european", "binary-call"), ("closed", "european", "binary-put")}
TINY_T = ("1e-300", "1e-307", "1e-308", "1e-310", "1e-320", "5e-324")
# (flags, spots): T and lam T down to the smallest positive double, and gamma
# and rho up to 1e300
EXTREME_MARKETS = [
    *((("--rho", "2", "--gamma", "9", "--T", t, *lam), ("1.1",))
      for t in TINY_T for lam in ((), ("--lambda-override", "1e10"))),
    *((("--rho", "2", "--gamma", "9", "--T", t, "--lambda-override", lam), ("1.1",))
      for lam in ("1e-300", "1e-310", "5e-324") for t in ("0.25", "1e-300")),
    *((("--rho", rho, "--gamma", gamma, *lam), ("1.1",) if gamma != "1e300" else ("0.9", "1.1"))
      for rho, gamma in (("2", "1e154"), ("2", "1e155"), ("2", "1e300"), ("1e100", "1e300"),
                         ("1e300", "1e300"))
      for lam in ((), ("--lambda-override", "1e-300"))),
]


class TestExtremeAdmittedInputs:
    """Admitted inputs at the ends of the double range: each exponential
    route prints a finite price or refuses with exit 2 where a quantity it
    forms leaves the double range, with no warning, and the closed and
    Laplace routes agree wherever both price."""

    @pytest.mark.parametrize("argv", [
        ("price", "--rho", "2", "--sigma", "0.1", "--gamma", "1e300", "--rate", "9", "--spot",
         "0.5", "--method", "laplace"),
        ("price", "--rho", "2", "--sigma", "0.1", "--lambda-override", "1e-300", "--T", "1e-300"),
        ("price", "--style", "american", "--contract", "binary-put", "--method", "closed",
         "--rho", "2", "--gamma", "9", "--T", "5e-324", "--spot", "1.1"),
        ("price", "--rho", "2", "--gamma", "9", "--T", "5e-324", "--method", "laplace"),
        ("iv", "--rho", "2", "--gamma", "9", "--T", "5e-324"),
        ("iv", "--rho", "2", "--sigma", "0.1", "--a", "1e-8", "--b", "1e-300"),
    ], ids=" ".join)
    def test_mended_command_exits_cleanly(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code in (0, 2), err
        if code == 2:
            assert out == "" and err.startswith("validation error:")
        elif argv[0] == "price":
            assert math.isfinite(strict_json(out)["price"])

    @pytest.mark.parametrize("flags, spots", EXTREME_MARKETS,
                             ids=[" ".join(flags) for flags, _ in EXTREME_MARKETS])
    def test_exponential_routes(self, capsys, flags, spots):
        prices = {}
        for method in ("closed", "laplace"):
            for style, contract in EXPONENTIAL_CELLS:
                for spot in spots:
                    cell = (method, style, contract, spot)
                    code, out, err = run(capsys, "price", "--method", method, "--style", style,
                                         "--contract", contract, "--spot", spot, *flags)
                    if code == 0:
                        prices[cell] = strict_json(out)["price"]
                        assert math.isfinite(prices[cell]), cell
                    elif cell[:3] in STEP_LIMITED and spot == "0.9" and float(flags[3]) >= 1e10:
                        # the closed binaries' integrand is a step sharper than the
                        # quadrature resolves from about gamma = 1e10 on
                        assert out == "" and (code, err[:9]) in ((2, "validatio"), (3, "accuracy "))
                    else:
                        assert (code, out) == (2, ""), (cell, err)
        for (method, *cell), price in prices.items():
            if method == "closed" and ("laplace", *cell) in prices:
                assert abs(price - prices["laplace", *cell]) <= 1e-6, cell

    @pytest.mark.parametrize("command", ["iv", "price"])
    def test_vanilla_forward_past_the_double_range_is_refused(self, capsys, command):
        # lam E_1 - r = 7.16, so the vanilla leg's log-forward is about 716 > ln(DBL_MAX)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--rho", "2", "--sigma", "0.1",
                             "--lambda-override", "9", "--T", "100")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("validation error: a leg's log-forward 71")

    def test_binary_call_prices_where_the_forward_is_past_the_double_range(self, capsys):
        payload = run_json(capsys, "price", "--rho", "2", "--sigma", "0.1", "--lambda-override",
                           "9", "--T", "100", "--contract", "binary-call")
        assert 0.0 <= payload["price"] <= math.exp(-0.04 * 100.0) * (1.0 + 1e-12)

    @pytest.mark.parametrize("density", [f.value for f in Family])
    @pytest.mark.parametrize("b", ["1e100", "1e150", "1e200", "1e300"])
    def test_transform_route_on_wide_laws(self, capsys, density, b):
        # sqrt(E[J^2]) passes the double range from b = 1e200 on: refused up front
        code, out, err = run(capsys, "price", "--method", "fourier", "--contract", "butterfly",
                             "--L", "10", "--strike", "100", "--spot", "100", "--a", "0.01",
                             "--b", b, "--lambda-override", "1", "--density", density)
        assert code in (2, 3) and out == ""
        if float(b) >= 1e200 and density != "pareto":  # the tempered law needs b < 1
            assert "E[J^2]" in err or "payoff overflows" in err


class TestRefusals:
    """Each route and jump-law rule the CLI enforces, named in its refusal."""

    MARKET = ("--rho", "2", "--gamma", "9")

    @pytest.mark.parametrize("argv, message", [
        (("price", "--method", "fourier", "--contract", "butterfly", "--L", "10", "--style",
          "american", *MARKET), "the transform route prices European claims"),
        (("price", "--style", "american", "--contract", "vanilla-put", *MARKET),
         "finite-expiry American pricing covers binary puts only"),
        (("mc", "--style", "american", "--contract", "binary-call", *MARKET),
         "American simulation covers binary puts only"),
        (("price", "--density", "gaussian", "--mu1", "1e-3"),
         "--mu1 and --mu2 must be given together"),
        (("price", "--density", "gaussian", *MARKET),
         "--rho applies to the exponential family only"),
        (("price", "--rho", "2"), "--rho needs --gamma or --sigma to fix the down tail"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v[:3]))
    def test_refusal_names_its_rule(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"validation error: {message}\n"


ROUTES = {"closed": ("price", "--method", "closed"), "laplace": ("price", "--method", "laplace"),
          "fourier": ("price", "--method", "fourier"), "mc": ("mc", "--paths", "1000")}
STYLES = ("european", "american", "perpetual")
CONTRACTS = ("binary-call", "binary-put", "vanilla-call", "vanilla-put", "butterfly")
LAWS = tuple(f.value for f in Family)
# every cell's market is its law fitted to these moments, and its contract these terms
CELL_FLAGS = ("--mu1", "1e-3", "--mu2", "1e-4", "--strike", "100", "--spot", "104",
              "--T", "0.25", "--L", "10")


def route_rule(route: str, style: str, contract: str, law: str) -> str | None:
    """The route table: None where the cell prices, else its refusal message."""
    if route == "fourier":
        if contract != "butterfly":
            return "the transform route prices butterfly portfolios"
        return None if style == "european" else "the transform route prices European claims"
    if route == "mc":
        if style == "perpetual":
            return "no simulation estimator for perpetual claims"
        if style == "american" and contract != "binary-put":
            return "American simulation covers binary puts only"
        if style == "american" and law == "pareto":
            return "sampling is not available for family pareto"
        return None
    # closed and Laplace: the two-sided exponential law only
    if style == "american" and contract != "binary-put":
        return "finite-expiry American pricing covers binary puts only"
    if style == "perpetual" and contract not in ("binary-put", "vanilla-put"):
        return "perpetual pricing covers binary and vanilla puts"
    if style == "european" and contract == "butterfly":
        return ("european_price prices European calls and puts, not Contract(kind=<PayoffKind."
                "PORTFOLIO: 'butterfly'>, strike=100.0, t_bar=0.25, style=<OptionStyle.EUROPEAN: "
                "'european'>, width=10.0)")
    return None if law == "exp" else f"requires the two-sided exponential family, not {law}"


CELLS = [(route, style, contract, law) for route in ROUTES for style in STYLES
         for contract in CONTRACTS for law in LAWS]


class TestRouteCells:
    """Every cell of (route, style, contract, jump law) that ``price`` and
    ``mc`` accept, run in process: each prices or names its refusal as
    ``route_rule`` says, and routes that both price a cell agree."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        """Each cell's exit code, stdout and stderr."""
        results = {}
        for route, style, contract, law in CELLS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*ROUTES[route], "--style", style, "--contract", contract,
                             "--density", law, *CELL_FLAGS])
            results[route, style, contract, law] = code, out.getvalue(), err.getvalue()
        return results

    def prices(self, outcomes, route):
        """The printed estimate of each cell that ``route`` prices, by (style, contract, law)."""
        return {cell[1:]: strict_json(out) for cell, (code, out, _) in outcomes.items()
                if cell[0] == route and code == 0}

    def test_every_cell_prices_or_names_its_refusal(self, outcomes):
        wrong = []
        for cell, (code, out, err) in outcomes.items():
            refusal = route_rule(*cell)
            if refusal is not None:
                ok = (code, out, err) == (2, "", f"validation error: {refusal}\n")
            else:
                payload = strict_json(out) if code == 0 and not err else {}
                ok = (payload.get("contract"), payload.get("style")) == (cell[2], cell[1]) \
                    and math.isfinite(payload["price"])
            if not ok:
                wrong.append((cell, code, out, err))
        assert not wrong
        assert sum(route_rule(*cell) is None for cell in CELLS) == 62

    def test_closed_and_laplace_agree(self, outcomes):
        closed, laplace = self.prices(outcomes, "closed"), self.prices(outcomes, "laplace")
        assert closed.keys() == laplace.keys() and len(closed) == 7
        for cell in closed:
            assert abs(closed[cell]["price"] - laplace[cell]["price"]) <= 1e-6, cell

    def test_monte_carlo_within_four_standard_errors(self, outcomes):
        exact = {**self.prices(outcomes, "fourier"), **self.prices(outcomes, "closed")}
        mc = self.prices(outcomes, "mc")
        shared = exact.keys() & mc.keys()
        assert len(shared) == 5 + 7  # the exponential law's closed cells, every butterfly
        for cell in shared:
            z = (mc[cell]["price"] - exact[cell]["price"]) / mc[cell]["std_error"]
            assert abs(z) <= 4.0, (cell, z)


class TestFigCommand:
    @pytest.mark.parametrize("fig_id", sorted(cli.FIGURES))
    def test_regeneration_is_bit_identical(self, capsys, tmp_path, fig_id):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        payload = run_json(capsys, "fig", "--figure", fig_id,
                           "--out", str(first))
        assert payload["figure"] == fig_id
        run_json(capsys, "fig", "--from-meta", str(first),
                 "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_fig5_cells_match_closed_form(self):
        # criterion 3 on the figure grid: every Laplace cell against the
        # time-domain Bessel integral
        fig = build_figure("fig5")
        meta = fig.meta
        k = math.log(meta["K"])
        for j, col in enumerate(fig.columns[1:], start=1):
            rho, t_bar = (float(v) for v in col[len("rho_"):].split("_t"))
            m = MarketParams.from_rho_sigma(rho, meta["r"], meta["sigma"])
            for row in fig.rows:
                x = math.log(row[0] * meta["K"])
                closed = american.binary_put_closed(m, k, x, t_bar)
                assert abs(row[j] - closed) <= 1e-6, (col, row[0])

    def test_meta_line_is_json_with_figure_id(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        run_json(capsys, "fig", "--figure", "iv2", "--out", str(out))
        meta = read_meta(str(out))
        assert meta["figure"] == "iv2"
        fig = build_figure(meta=meta)
        assert fig.meta == meta

    @pytest.mark.parametrize("edit, named", [
        (lambda meta: meta.pop("K"), "'K'"),
        (lambda meta: meta.update(payoff="nope"), "nope"),
        (lambda meta: meta.update(K="1"), "'K'"),
        (lambda meta: meta.update(rho=5), "'rho'"),
        (lambda meta: meta.update(grid=[0.8, 1.2]), "'grid'"),
    ], ids=["missing-key", "unknown-payoff", "string-number", "number-for-list", "short-grid"])
    def test_bad_meta_line_exits_2(self, capsys, tmp_path, edit, named):
        # a meta line is read from a file: a missing key, a value of the
        # wrong kind or an unknown payoff is bad input (exit 2), not a traceback
        first = tmp_path / "fig1.csv"
        run_json(capsys, "fig", "--figure", "fig1", "--out", str(first))
        meta, body = first.read_text().split("\n", 1)
        meta = json.loads(meta[2:])
        edit(meta)
        first.write_text("# " + json.dumps(meta) + "\n" + body)
        again = tmp_path / "again.csv"
        code, stdout, err = run(capsys, "fig", "--from-meta", str(first), "--out", str(again))
        assert code == 2
        assert stdout == ""
        assert err.startswith("validation error:") and named in err
        assert not again.exists()

    @pytest.mark.parametrize("fig_id, key, value", [
        *[(fig_id, "grid", edit) for fig_id in FIGURES for edit in BAD_GRIDS],
        ("fig3", "K", math.nan), ("fig3", "L", math.nan), ("fig3", "K", math.inf),
        ("fig3", "L", math.inf), ("fig3", "T", math.nan), ("fig4", "T", math.nan),
        ("fig4", "T", math.inf),
        *[(fig_id, "K", k) for fig_id in ("iv1", "iv2", "fig5") for k in (0.0, -1.0)],
        *[(fig_id, "T", t) for fig_id in ("iv1", "iv2") for t in (-1.0, math.nan, math.inf)],
        *[("fig5", "T", t) for t in (-1.0, math.nan, math.inf)],
        pytest.param("fig5", "t_bars", [math.nan], id="fig5-t_bars-nan"),
        pytest.param("fig5", "t_bars", [1.0, math.inf], id="fig5-t_bars-inf"),
    ])
    def test_bad_meta_value_exits_2(self, capsys, tmp_path, fig_id, key, value):
        # a grid whose endpoint is not positive and finite or whose count is
        # not a whole number of at least 1, a non-finite strike, wing or
        # horizon, a strike of 0 or below and a negative horizon are bad
        # input (exit 2), not a traceback, a RuntimeWarning, an accuracy
        # failure, or a table of the wrong size.  fig5 prices at its t_bars,
        # yet a horizon it stores must still be one
        meta = dict(FIGURES[fig_id][1], figure=fig_id)
        meta[key] = BAD_GRIDS[value](meta["grid"]) if key == "grid" else value
        first = tmp_path / "meta.csv"
        first.write_text("# " + json.dumps(meta) + "\n")
        again = tmp_path / "again.csv"
        code, stdout, err = run(capsys, "fig", "--from-meta", str(first), "--out", str(again))
        assert code == 2
        assert stdout == ""
        assert err.startswith("validation error:")
        if key in ("grid", "K", "T"):
            assert f"'{key}'" in err
        assert not again.exists()

    def test_file_without_meta_line_rejected(self, tmp_path):
        bare = tmp_path / "bare.csv"
        bare.write_text("s_over_k,price\n1.0,0.5\n")
        with pytest.raises(ValidationError):
            read_meta(str(bare))

    @pytest.mark.parametrize("line", ["# {not json\n", "# [1, 2]\n", None])
    def test_meta_line_not_a_json_object_rejected(self, tmp_path, line):
        bad = tmp_path / "bad.csv"
        if line is not None:  # None: no such file
            bad.write_text(line + "s_over_k,price\n1.0,0.5\n")
        with pytest.raises(ValidationError):
            read_meta(str(bad))

    def test_meta_line_with_unknown_family_rejected(self):
        meta = dict(FIGURES["fig4"][1], figure="fig4", families=["exp", "nope"])
        with pytest.raises(ValidationError, match="nope"):
            build_figure(meta=meta)

    def test_unknown_figure_rejected_by_parser(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fig", "--figure", "nope", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        capsys.readouterr()


class TestCalibrateAndValidate:
    def test_calibrate_lambda(self, capsys):
        payload = run_json(capsys, "calibrate-lambda", "--density", "exp",
                           "--a", "0.5", "--b", str(1.0 / 9.0))
        assert payload["lam"] == pytest.approx(0.05, rel=1e-12)
        assert payload["exp_moment"] == pytest.approx(1.8, rel=1e-12)
        assert payload["rate"] == 0.04
        assert payload["density"]["family"] == "exp"

    def test_validate_passes_for_admissible_market(self, capsys):
        code, out, err = run(capsys, "validate", "--rho", "2", "--gamma", "9")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(check["passed"] for check in payload["checks"])
        assert all({"name", "passed", "detail"} <= set(c) for c in payload["checks"])

    def test_validate_flags_drifting_override(self, capsys):
        code, out, _ = run(capsys, "validate", "--density", "exp",
                           "--a", "0.5", "--b", str(1.0 / 9.0),
                           "--lambda-override", "0.2")
        assert code == 2
        payload = json.loads(out)
        assert payload["passed"] is False
        assert any(not check["passed"] for check in payload["checks"])
