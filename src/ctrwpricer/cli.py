"""Command-line interface and figure/CSV generation.

Exit codes: 0 success, 2 validation failure (bad parameters, inadmissible
model, out-of-band inputs), 3 accuracy failure (a numerical routine could
not certify its tolerance).

Every CSV is one table, a grid column then named value columns, under a
``#``-prefixed JSON meta line.  ``fig --from-meta`` rebuilds a ``fig`` CSV
from its meta line bit for bit; an ``iv`` CSV's meta line describes the
curve but omits a ``--lambda-override`` intensity, so it is refused there.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import american, blackscholes, european, fourier, montecarlo
from .densities import Family, JumpDensity, exp_moment, fit_from_moments
from .errors import AccuracyError, OutOfBandError, PricingError, ValidationError
from .european import Contract, OptionStyle, PayoffKind, PriceMethod
from .numerics import QuadSpec
from .riskneutral import MarketParams, risk_neutral_intensity, validate

__all__ = ["main", "FigureData", "build_figure", "write_csv", "read_meta", "FIGURES"]

# default quadrature target for the transform route
FOURIER_TOL = 1e-6


def _spec(tol: float | None, default: float) -> QuadSpec:
    """The quadrature spec of a ``--tol`` (an absolute tolerance), else of ``default``."""
    return QuadSpec(abs_tol=default if tol is None else tol)


def _transform_price(market, payoff, x, t_bar: float, tol: float | None):
    # x is a log-spot or a 1-D array of them (one figure column per call);
    # the two-point law prices exactly by jump-count conditioning; the
    # transform integral would converge only through the payoff tail
    if market.density.family is Family.DISCRETE:
        return fourier.price_two_point_exact(market, payoff, x, t_bar)
    return fourier.price_fourier(market, payoff, x, t_bar, _spec(tol, FOURIER_TOL))


# ----------------------------------------------------------------------
# CSV figures
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FigureData:
    meta: dict
    columns: list
    rows: list  # list of lists, cells are float or None


def _table(meta: dict, first: str, grid: list, columns: dict) -> FigureData:
    """The figure whose first column ``first`` is the grid, followed by the
    named value columns in order, each one value per grid point."""
    values = list(columns.values())
    rows = [[g] + [col[i] for col in values] for i, g in enumerate(grid)]
    return FigureData(meta, [first, *columns], rows)


def _cell(v) -> str:
    return "" if v is None else repr(float(v))


def _csv_body(fig: FigureData) -> str:
    """The header and rows of a CSV, without its meta line."""
    lines = [",".join(fig.columns)] + [",".join(map(_cell, row)) for row in fig.rows]
    return "\n".join(lines) + "\n"


def write_csv(fig: FigureData, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(fig.meta, sort_keys=True) + "\n" + _csv_body(fig))


def read_meta(path: str) -> dict:
    try:
        with open(path) as fh:
            first = fh.readline()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    if not first.startswith("# "):
        raise ValidationError(f"{path} has no meta line")
    try:
        meta = json.loads(first[2:])
    except ValueError as exc:
        raise ValidationError(f"{path}: meta line is not JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise ValidationError(f"{path}: meta line is not a JSON object")
    return meta


def _grid(spec) -> list:
    lo, hi, n = float(spec[0]), float(spec[1]), int(spec[2])
    if n < 2:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _exp_models(meta) -> dict:
    return {
        f"rho_{g:g}": MarketParams.from_rho_sigma(float(g), meta["r"], meta["sigma"])
        for g in meta["rho"]
    }


def _fig_european(meta) -> FigureData:
    K, T, r, sigma = meta["K"], meta["T"], meta["r"], meta["sigma"]
    contract = Contract(PayoffKind(meta["payoff"]), K, T)
    binary = contract.kind is PayoffKind.BINARY_CALL
    bs = blackscholes.bs_binary_call if binary else blackscholes.bs_vanilla_call
    grid = _grid(meta["grid"])
    xs = [math.log(mny * K) for mny in grid]
    columns = {name: european.european_price(m, contract, np.array(xs))
               for name, m in _exp_models(meta).items()}
    columns["bs"] = [bs(mny * K, K, r, sigma, T) for mny in grid]
    if not binary:
        columns["no_trade"] = [european.no_trade_vanilla_call(K, x, T, r) for x in xs]
    return _table(meta, "s_over_k", grid, columns)


def _iv_table(meta: dict, models: dict, sigma: float | None = None) -> FigureData:
    """Each model's implied-vol column over the s/K grid and, given sigma,
    ``bs_check``: the implied vol of the Black-Scholes price at sigma (a
    self-check).  Out-of-band model cells stay empty, counted in the meta."""
    K, T, r = meta["K"], meta["T"], meta["r"]
    grid = _grid(meta["grid"])
    spots = [mny * K for mny in grid]

    def iv(price, spot):
        try:
            return blackscholes.implied_vol(price, spot, K, r, T)
        except OutOfBandError:
            return None

    xs = np.array([math.log(s) for s in spots])
    columns = {name: [iv(price, s) for price, s in
                      zip(european.vanilla_call_closed(m, K, xs, T), spots)]
               for name, m in models.items()}
    skipped = sum(v is None for col in columns.values() for v in col)
    if sigma is not None:
        columns["bs_check"] = [iv(blackscholes.bs_vanilla_call(s, K, r, sigma, T), s)
                               for s in spots]
    return _table(dict(meta, out_of_band=skipped), "s_over_k", grid, columns)


def _fig_iv1(meta) -> FigureData:
    return _iv_table(meta, _exp_models(meta), meta["sigma"])


def _fig_iv2(meta) -> FigureData:
    m = MarketParams.from_rho_sigma(meta["rho"], meta["r"], meta["sigma"])
    return _iv_table(meta, {"model_iv": m})


def _bs_butterfly(spot, K, L, r, sigma, T):
    return sum(wt * blackscholes.bs_vanilla_call(spot, strike, r, sigma, T)
               for wt, strike in fourier.butterfly_legs(K, L))


def _fig_butterfly_rho(meta) -> FigureData:
    K, L, T, r, sigma = meta["K"], meta["L"], meta["T"], meta["r"], meta["sigma"]
    payoff = fourier.butterfly_payoff(K, L)
    grid = _grid(meta["grid"])
    xs = np.log(grid)
    columns = {name: _transform_price(m, payoff, xs, T, meta["tol"])
               for name, m in _exp_models(meta).items()}
    columns["bs"] = [_bs_butterfly(spot, K, L, r, sigma, T) for spot in grid]
    return _table(meta, "spot", grid, columns)


def _fig_butterfly_families(meta) -> FigureData:
    r, mu1, mu2 = meta["r"], meta["mu1"], meta["mu2"]
    payoff = fourier.butterfly_payoff(meta["K"], meta["L"])
    grid = _grid(meta["grid"])
    xs = np.log(grid)
    columns = {
        f: _transform_price(MarketParams.risk_neutral(r, fit_from_moments(Family(f), mu1, mu2)),
                            payoff, xs, meta["T"], meta["tol"])
        for f in meta["families"]
    }
    return _table(meta, "spot", grid, columns)


def _fig_american(meta) -> FigureData:
    K = meta["K"]
    grid = _grid(meta["grid"])
    k = math.log(K)
    xs = np.array([math.log(mny * K) for mny in grid])
    # t ascending within each rho, one inversion per column
    columns = {f"{name}_t{t:g}": american.binary_put_price(m, k, xs, t, PriceMethod.LAPLACE)
               for name, m in _exp_models(meta).items() for t in meta["t_bars"]}
    return _table(meta, "s_over_k", grid, columns)


_BASE_EXP = {"K": 1.0, "T": 0.25, "r": 0.04, "sigma": 0.1, "rho": [2, 5, 20]}

FIGURES = {
    "fig1": (_fig_european, dict(_BASE_EXP, payoff="binary-call",
                                 grid=[0.8, 1.2, 41], method="closed")),
    "fig2": (_fig_european, dict(_BASE_EXP, payoff="vanilla-call",
                                 grid=[0.8, 1.2, 41], method="closed")),
    "iv1": (_fig_iv1, dict(_BASE_EXP, payoff="vanilla-call",
                           grid=[0.9, 1.2, 31], method="closed")),
    "iv2": (_fig_iv2, {"K": 1.0, "T": 60.0 / 365.0, "r": 0.02139, "sigma": 0.2,
                       "rho": 30, "grid": [0.85, 1.15, 31], "method": "closed"}),
    "fig3": (_fig_butterfly_rho, dict(_BASE_EXP, K=100.0, L=10.0, tol=None,
                                      grid=[80, 125, 19], method="fourier")),
    "fig4": (_fig_butterfly_families, {
        "K": 100.0, "L": 10.0, "T": 0.25, "r": 0.04,
        "mu1": 1e-3, "mu2": 1e-4, "tol": None,
        "families": [f.value for f in Family],
        "grid": [86, 122, 13], "method": "fourier"}),
    "fig5": (_fig_american, dict(_BASE_EXP, t_bars=[0.25, 1.0, 5.0],
                                 grid=[0.9, 1.5, 31], method="laplace")),
}


def build_figure(fig_id: str | None = None, meta: dict | None = None) -> FigureData:
    """Build a figure from its id (library defaults) or from a stored meta line."""
    if meta is None:
        if fig_id not in FIGURES:
            raise ValidationError(f"unknown figure id {fig_id!r}")
        builder, defaults = FIGURES[fig_id]
        meta = dict(defaults, figure=fig_id)
    else:
        fig_id = meta.get("figure")
        if meta.get("command") == "iv":
            raise ValidationError("meta line is from an iv CSV; fig --from-meta rebuilds fig CSVs")
        if fig_id not in FIGURES:
            raise ValidationError(f"meta line names unknown figure {fig_id!r}")
        builder, defaults = FIGURES[fig_id]
        _check_meta(meta, defaults)
        meta = dict(meta)
        meta.pop("out_of_band", None)  # derived, recomputed on build
    return builder(meta)


def _check_meta(meta: dict, defaults: dict) -> None:
    """Refuse a stored meta line, input from a file, that lacks a key of its
    figure's defaults, holds a value of another kind than the default's, a
    grid whose endpoints are not positive and finite or whose count is not
    a whole number of at least 1, or names an unknown payoff or jump family."""
    for key, default in defaults.items():
        if key not in meta:
            raise ValidationError(f"meta line lacks key {key!r}")
        if not _same_kind(meta[key], default) or (key == "grid" and len(meta[key]) != 3):
            raise ValidationError(f"meta line key {key!r} holds {meta[key]!r}, "
                                  f"not a value like {default!r}")
    lo, hi, count = meta["grid"]
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf and isinstance(count, int) and count >= 1):
        raise ValidationError(f"meta line key 'grid' holds {meta['grid']!r}, not two positive "
                              "finite endpoints and a whole count of at least 1")
    try:
        PayoffKind(meta.get("payoff", PayoffKind.VANILLA_CALL.value))
        for family in meta.get("families", ()):
            Family(family)
    except ValueError as exc:
        raise ValidationError(f"meta line is invalid: {exc}") from None


def _same_kind(value, default) -> bool:
    """Whether a JSON value is of the default's kind: a string, a list of
    the kind of its first entry, or a number (or null, where the default is)."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_kind(v, default[0]) for v in value)
    if isinstance(default, str):
        return isinstance(value, str)
    if default is None and value is None:
        return True
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ----------------------------------------------------------------------
# argument handling
# ----------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--density", choices=[f.value for f in Family], default="exp")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--mu1", type=float)
    p.add_argument("--mu2", type=float)
    p.add_argument("--rate", type=float, default=0.04)
    p.add_argument("--sigma", type=float)
    p.add_argument("--lambda-override", dest="lambda_override", type=float)


# price, mc and iv share these declarations; iv takes --T and --strike only
_CONTRACT_FLAGS = {
    "--contract": dict(default="vanilla-call", choices=[k.value for k in PayoffKind]),
    "--style": dict(default="european", choices=[s.value for s in OptionStyle]),
    "--T": dict(type=float, default=0.25),
    "--spot": dict(type=float, default=1.0),
    "--strike": dict(type=float, default=1.0),
    "--L": dict(type=float, help="butterfly wing width"),
}


def _add_contract(p: argparse.ArgumentParser, *flags: str):
    for flag in flags or _CONTRACT_FLAGS:
        p.add_argument(flag, **_CONTRACT_FLAGS[flag])


def _config_flags(args: argparse.Namespace) -> list:
    """The ``--config`` file's values as the subcommand's command-line flags."""
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    if not isinstance(conf, dict):
        raise ValidationError("config file must hold a JSON object")
    flags = []
    for key, val in conf.items():
        attr = key.replace("-", "_")
        if attr in ("command", "func", "config") or not hasattr(args, attr):
            raise ValidationError(f"unknown config key {key!r}")
        flag = "--" + attr.replace("_", "-")
        if isinstance(getattr(args, attr), bool) and isinstance(val, bool):  # a switch
            flags += [flag] if val else []
        else:
            flags.append(f"{flag}={val}")
    return flags


def _build_density(args) -> JumpDensity:
    fam = Family(args.density)
    if args.mu1 is not None or args.mu2 is not None:
        if args.mu1 is None or args.mu2 is None:
            raise ValidationError("--mu1 and --mu2 must be given together")
        return fit_from_moments(fam, args.mu1, args.mu2)
    if args.a is not None and args.b is not None:
        return JumpDensity(fam, args.a, args.b)
    if args.rho is not None:
        if fam is not Family.EXPONENTIAL:
            raise ValidationError("--rho applies to the exponential family only")
        if args.gamma is not None:
            g = args.gamma
        elif args.sigma is not None:
            g = european.gamma_for_sigma(args.rho, args.rate, args.sigma)
        else:
            raise ValidationError("--rho needs --gamma or --sigma to fix the down tail")
        return JumpDensity(fam, 1.0 / args.rho, 1.0 / g)
    raise ValidationError("specify the jump law via --a/--b, --rho, or --mu1/--mu2")


def _build_market(args) -> MarketParams:
    d = _build_density(args)
    if args.lambda_override is not None:
        return MarketParams(r=args.rate, density=d, lam=args.lambda_override)
    return MarketParams.risk_neutral(args.rate, d)


def _build_contract(args) -> Contract:
    return Contract(
        kind=PayoffKind(args.contract),
        strike=args.strike,
        t_bar=args.T,
        style=OptionStyle(args.style),
        width=args.L,
    )


def _price_flag(args, flag: str) -> float:
    """The value of ``flag``, a price that must be positive and finite."""
    value = getattr(args, flag.lstrip("-"))
    if not 0.0 < value < math.inf:  # a NaN fails here too
        raise ValidationError(f"{flag} must be positive and finite, got {value!r}")
    return value


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_price(args) -> int:
    market = _build_market(args)
    contract = _build_contract(args)
    kind, style, x = contract.kind, contract.style, math.log(_price_flag(args, "--spot"))
    method = PriceMethod(args.method)
    out = {
        "contract": kind.value,
        "style": style.value,
        # perpetual prices are algebraic whatever the method
        "method": "closed" if style is OptionStyle.PERPETUAL else method.value,
        "spot": args.spot,
        "strike": args.strike,
        "risk_neutral": market.is_risk_neutral,
    }
    if style is not OptionStyle.PERPETUAL:
        out["T"] = contract.t_bar

    # a bad --tol fails every route up front but the transform's, which may not read it
    spec = None if method is PriceMethod.FOURIER else _spec(args.tol, QuadSpec.abs_tol)
    if method is PriceMethod.FOURIER:
        payoff = contract.payoff
        if payoff.transform is None:
            raise ValidationError("the transform route prices butterfly portfolios")
        if style is not OptionStyle.EUROPEAN:
            raise ValidationError("the transform route prices European claims")
        out["price"] = _transform_price(market, payoff, x, contract.t_bar, args.tol)
    elif style is OptionStyle.EUROPEAN:
        out["price"] = european.european_price(market, contract, x, method, spec)
    elif style is OptionStyle.AMERICAN:
        if kind is not PayoffKind.BINARY_PUT:
            raise ValidationError("finite-expiry American pricing covers binary puts only")
        out["price"] = american.binary_put_price(market, contract.log_strike, x,
                                                 contract.t_bar, method, spec)
    elif kind is PayoffKind.BINARY_PUT:
        out["price"] = american.perpetual_binary_put(market, contract.log_strike, x)
    elif kind is PayoffKind.VANILLA_PUT:
        out["price"] = american.perpetual_vanilla_put(market, contract.strike, x)
        out["exercise_boundary"] = american.perpetual_exercise_boundary(market, contract.strike)
    else:
        raise ValidationError("perpetual pricing covers binary and vanilla puts")
    _emit(out)
    return 0


def _cmd_iv(args) -> int:
    smin, smax = _price_flag(args, "--smin"), _price_flag(args, "--smax")
    if args.spoints < 1:
        raise ValidationError(f"--spoints must be at least 1, got {args.spoints!r}")
    market = _build_market(args)
    rho, gamma = market.exponential_rates()
    meta = {
        "command": "iv", "rho": rho, "gamma": gamma, "r": args.rate,
        "K": args.strike, "T": args.T, "grid": [smin, smax, args.spoints],
        "risk_neutral": market.is_risk_neutral,
    }
    sigma = math.sqrt(2.0 * args.rate / (gamma - rho + 1.0))
    fig = _iv_table(meta, {"model_iv": market}, sigma)
    if args.out:
        write_csv(fig, args.out)
        _emit({"written": args.out, "out_of_band": fig.meta["out_of_band"]})
    else:
        sys.stdout.write(_csv_body(fig))
    return 0


def _cmd_mc(args) -> int:
    market = _build_market(args)
    contract = _build_contract(args)
    x = math.log(_price_flag(args, "--spot"))
    config = montecarlo.MCConfig(paths=args.paths, seed=args.seed,
                                 antithetic=args.antithetic)
    if contract.style is OptionStyle.AMERICAN:
        if contract.kind is not PayoffKind.BINARY_PUT:
            raise ValidationError("American simulation covers binary puts only")
        est = montecarlo.price_american_binary_put_mc(
            market, contract.log_strike, x, contract.t_bar, config)
    elif contract.style is OptionStyle.EUROPEAN:
        est = montecarlo.price_european_mc(market, contract, x, config)
    else:
        raise ValidationError("no simulation estimator for perpetual claims")
    _emit({
        "contract": contract.kind.value, "style": contract.style.value,
        "price": est.value, "std_error": est.std_error,
        "paths": est.paths, "seed": est.seed,
        "risk_neutral": market.is_risk_neutral,
    })
    return 0


def _cmd_fig(args) -> int:
    if args.from_meta:
        fig = build_figure(meta=read_meta(args.from_meta))
    else:
        fig = build_figure(args.figure)
    write_csv(fig, args.out)
    _emit({"written": args.out, "figure": fig.meta.get("figure")})
    return 0


def _cmd_calibrate(args) -> int:
    d = _build_density(args)
    lam = risk_neutral_intensity(args.rate, d)
    _emit({"lam": lam, "exp_moment": exp_moment(d), "rate": args.rate,
           "density": d.to_dict()})
    return 0


def _cmd_validate(args) -> int:
    market = _build_market(args)
    diag = validate(market)
    _emit({
        "passed": diag.passed,
        "checks": [{"name": n, "passed": ok, "detail": detail} for n, ok, detail in diag],
    })
    return 0 if diag.passed else 2


def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    ap = argparse.ArgumentParser(
        prog="ctrwpricer",
        description="Option pricing under pure-jump compound-Poisson market models",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one contract")
    _add_common(p)
    _add_contract(p)
    p.add_argument("--method", default="closed",
                   choices=[m.value for m in PriceMethod])
    p.add_argument("--tol", type=float, help="absolute quadrature tolerance")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("iv", help="implied-volatility curve")
    _add_common(p)
    _add_contract(p, "--T", "--strike")
    p.add_argument("--smin", type=float, default=0.9)
    p.add_argument("--smax", type=float, default=1.2)
    p.add_argument("--spoints", type=int, default=31)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_iv)

    p = sub.add_parser("mc", help="Monte Carlo estimate")
    _add_common(p)
    _add_contract(p)
    p.add_argument("--paths", type=int, default=montecarlo.MCConfig.paths)
    p.add_argument("--seed", type=int, default=montecarlo.MCConfig.seed)
    p.add_argument("--antithetic", action="store_true")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("fig", help="write a named figure CSV")
    p.add_argument("--figure", choices=sorted(FIGURES))
    p.add_argument("--from-meta", dest="from_meta",
                   help="regenerate from the meta line of an existing CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fig)

    p = sub.add_parser("calibrate-lambda", help="martingale-consistent intensity")
    _add_common(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("validate", help="admissibility diagnostics")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)
    return ap, sub.choices


def main(argv=None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's flags go first: each passes its flag's checks, explicit flags win
            parser.exit_on_error = commands[args.command].exit_on_error = False
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        return args.func(args)
    except (ValidationError, argparse.ArgumentError) as exc:  # the latter from --config only
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except PricingError as exc:  # residual library errors are validation-grade
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
