"""End-to-end checks of the command-line interface.

Almost everything runs in process through ``main(argv)`` so exit codes,
stdout JSON, and written CSV files are all observable without
subprocesses; the import-path checks start fresh interpreters.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import ctrwpricer

from ctrwpricer import american, cli, european, fourier
from ctrwpricer.cli import FIGURES, build_figure, main, read_meta
from ctrwpricer.densities import Family, fit_from_moments
from ctrwpricer.errors import AccuracyError, ValidationError
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
        pytest.param("fig5", "t_bars", [math.nan], id="fig5-t_bars-nan"),
        pytest.param("fig5", "t_bars", [1.0, math.inf], id="fig5-t_bars-inf"),
    ])
    def test_bad_meta_value_exits_2(self, capsys, tmp_path, fig_id, key, value):
        # a grid whose endpoint is not positive and finite or whose count is
        # not a whole number of at least 1, and a non-finite strike, wing
        # or horizon, are bad input (exit 2), not a traceback, a
        # RuntimeWarning, an accuracy failure or a table of the wrong size
        meta = dict(FIGURES[fig_id][1], figure=fig_id)
        meta[key] = BAD_GRIDS[value](meta["grid"]) if key == "grid" else value
        first = tmp_path / "meta.csv"
        first.write_text("# " + json.dumps(meta) + "\n")
        again = tmp_path / "again.csv"
        code, stdout, err = run(capsys, "fig", "--from-meta", str(first), "--out", str(again))
        assert code == 2
        assert stdout == ""
        assert err.startswith("validation error:")
        if key == "grid":
            assert "'grid'" in err
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
