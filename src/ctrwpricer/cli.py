"""Command-line interface and figure/CSV generation.

Exit codes: 0 success, 2 validation failure (bad parameters, inadmissible
model, out-of-band inputs), 3 accuracy failure (a numerical routine could
not certify its tolerance).

Every CSV written by this module starts with a single ``#``-prefixed JSON
meta line carrying all inputs needed to regenerate the file; regeneration
from that line is bit-identical.
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


def _fourier_spec(tol: float | None) -> QuadSpec:
    return QuadSpec(rel_tol=1e-9, abs_tol=FOURIER_TOL if tol is None else tol)


def _transform_price(market, payoff, x, t_bar: float, tol: float | None):
    # x is a log-spot or a 1-D array of them (one figure column per call);
    # the two-point law prices exactly by jump-count conditioning; the
    # transform integral would converge only through the payoff tail
    if market.density.family is Family.DISCRETE:
        return fourier.price_two_point_exact(market, payoff, x, t_bar)
    return fourier.price_fourier(market, payoff, x, t_bar, _fourier_spec(tol))


# ----------------------------------------------------------------------
# CSV figures
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FigureData:
    meta: dict
    columns: list
    rows: list  # list of lists, cells are float or None


def _cell(v) -> str:
    return "" if v is None else repr(float(v))


def write_csv(fig: FigureData, path: str) -> None:
    lines = ["# " + json.dumps(fig.meta, sort_keys=True)]
    lines.append(",".join(fig.columns))
    for row in fig.rows:
        lines.append(",".join(_cell(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_meta(path: str) -> dict:
    with open(path) as fh:
        first = fh.readline()
    if not first.startswith("# "):
        raise ValidationError(f"{path} has no meta line")
    return json.loads(first[2:])


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
    binary = meta["payoff"] == "binary-call"
    models = _exp_models(meta)
    K, T, r, sigma = meta["K"], meta["T"], meta["r"], meta["sigma"]
    grid = _grid(meta["grid"])
    cols = ["s_over_k"] + list(models) + ["bs"]
    if not binary:
        cols.append("no_trade")
    rows = []
    for mny in grid:
        x = math.log(mny * K)
        row = [mny]
        for m in models.values():
            if binary:
                row.append(european.binary_call_closed(m, math.log(K), x, T))
            else:
                row.append(european.vanilla_call_closed(m, K, x, T))
        if binary:
            row.append(blackscholes.bs_binary_call(mny * K, K, r, sigma, T))
        else:
            row.append(blackscholes.bs_vanilla_call(mny * K, K, r, sigma, T))
            row.append(european.no_trade_vanilla_call(K, x, T, r))
        rows.append(row)
    return FigureData(meta, cols, rows)


def _iv_rows(models, K, T, r, grid, sigma=None):
    """Rows of s/K, each model's implied vol and, given sigma, the implied
    vol of the Black-Scholes price at sigma (a self-check); and the number
    of out-of-band model cells, which are left empty."""
    def iv(price, spot):
        try:
            return blackscholes.implied_vol(price, spot, K, r, T)
        except OutOfBandError:
            return None

    rows, skipped = [], 0
    for mny in grid:
        spot = mny * K
        row = [mny]
        for m in models:
            row.append(iv(european.vanilla_call_closed(m, K, math.log(spot), T), spot))
            skipped += row[-1] is None
        if sigma is not None:
            row.append(iv(blackscholes.bs_vanilla_call(spot, K, r, sigma, T), spot))
        rows.append(row)
    return rows, skipped


def _fig_iv1(meta) -> FigureData:
    models = _exp_models(meta)
    rows, skipped = _iv_rows(models.values(), meta["K"], meta["T"], meta["r"],
                             _grid(meta["grid"]), meta["sigma"])
    cols = ["s_over_k"] + list(models) + ["bs_check"]
    return FigureData(dict(meta, out_of_band=skipped), cols, rows)


def _fig_iv2(meta) -> FigureData:
    m = MarketParams.from_rho_sigma(meta["rho"], meta["r"], meta["sigma"])
    rows, skipped = _iv_rows([m], meta["K"], meta["T"], meta["r"], _grid(meta["grid"]))
    return FigureData(dict(meta, out_of_band=skipped), ["s_over_k", "model_iv"], rows)


def _bs_butterfly(spot, K, L, r, sigma, T):
    return sum(wt * blackscholes.bs_vanilla_call(spot, strike, r, sigma, T)
               for wt, strike in fourier.butterfly_legs(K, L))


def _fig_butterfly_rho(meta) -> FigureData:
    models = _exp_models(meta)
    K, L, T, r, sigma = meta["K"], meta["L"], meta["T"], meta["r"], meta["sigma"]
    payoff = fourier.butterfly_payoff(K, L)
    grid = _grid(meta["grid"])
    xs = np.log(grid)
    columns = [_transform_price(m, payoff, xs, T, meta["tol"])
               for m in models.values()]
    cols = ["spot"] + list(models) + ["bs"]
    rows = []
    for i, spot in enumerate(grid):
        row = [spot] + [col[i] for col in columns]
        row.append(_bs_butterfly(spot, K, L, r, sigma, T))
        rows.append(row)
    return FigureData(meta, cols, rows)


def _fig_butterfly_families(meta) -> FigureData:
    K, L, T, r = meta["K"], meta["L"], meta["T"], meta["r"]
    mu1, mu2 = meta["mu1"], meta["mu2"]
    payoff = fourier.butterfly_payoff(K, L)
    fams = [Family(f) for f in meta["families"]]
    grid = _grid(meta["grid"])
    xs = np.log(grid)
    columns = [
        _transform_price(MarketParams.risk_neutral(r, fit_from_moments(f, mu1, mu2)),
                         payoff, xs, T, meta["tol"])
        for f in fams
    ]
    rows = [[spot] + [col[i] for col in columns] for i, spot in enumerate(grid)]
    return FigureData(meta, ["spot"] + [f.value for f in fams], rows)


def _fig_american(meta) -> FigureData:
    models = _exp_models(meta)
    K, T_list = meta["K"], meta["t_bars"]
    grid = _grid(meta["grid"])
    cols = ["s_over_k"]
    for name in models:
        cols += [f"{name}_t{t:g}" for t in T_list]  # t ascending within each rho
    k = math.log(K)
    xs = np.array([math.log(mny * K) for mny in grid])
    columns = [american.binary_put_price(m, k, xs, t, PriceMethod.LAPLACE)
               for m in models.values() for t in T_list]
    rows = [[mny] + [col[i] for col in columns] for i, mny in enumerate(grid)]
    return FigureData(meta, cols, rows)


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
        if fig_id not in FIGURES:
            raise ValidationError(f"meta line names unknown figure {fig_id!r}")
        builder = FIGURES[fig_id][0]
        meta = dict(meta)
        meta.pop("out_of_band", None)  # derived, recomputed on build
    return builder(meta)


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


def _add_contract(p: argparse.ArgumentParser):
    p.add_argument("--contract", default="vanilla-call",
                   choices=[k.value for k in PayoffKind])
    p.add_argument("--style", default="european",
                   choices=[s.value for s in OptionStyle])
    p.add_argument("--T", type=float, default=0.25)
    p.add_argument("--spot", type=float, default=1.0)
    p.add_argument("--strike", type=float, default=1.0)
    p.add_argument("--L", type=float, help="butterfly wing width")


def _config_defaults(args: argparse.Namespace) -> dict:
    """The ``--config`` file's values, keyed by the subcommand's flag names."""
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    if not isinstance(conf, dict):
        raise ValidationError("config file must hold a JSON object")
    defaults = {}
    for key, val in conf.items():
        attr = key.replace("-", "_")
        if attr in ("command", "func", "config") or not hasattr(args, attr):
            raise ValidationError(f"unknown config key {key!r}")
        defaults[attr] = val
    return defaults


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


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_price(args) -> int:
    market = _build_market(args)
    contract = _build_contract(args)
    x = math.log(args.spot)
    method = PriceMethod(args.method)
    out = {
        "contract": contract.kind.value,
        "style": contract.style.value,
        "method": method.value,
        "spot": args.spot,
        "strike": args.strike,
        "risk_neutral": market.is_risk_neutral,
    }

    if method is PriceMethod.FOURIER:
        payoff = contract.payoff
        if payoff.transform is None:
            raise ValidationError("the transform route prices butterfly portfolios")
        if contract.style is not OptionStyle.EUROPEAN:
            raise ValidationError("the transform route prices European claims")
        price = _transform_price(market, payoff, x, contract.t_bar, args.tol)
        out.update(price=price, T=contract.t_bar)
        _emit(out)
        return 0

    spec = QuadSpec() if args.tol is None else QuadSpec(rel_tol=1e-9, abs_tol=args.tol)
    if contract.style is OptionStyle.EUROPEAN:
        price = european.european_price(market, contract, x, method, spec)
        out.update(price=price, T=contract.t_bar)
    elif contract.style is OptionStyle.AMERICAN:
        if contract.kind is not PayoffKind.BINARY_PUT:
            raise ValidationError("finite-expiry American pricing covers binary puts only")
        price = american.binary_put_price(market, contract.log_strike, x,
                                          contract.t_bar, method, spec)
        out.update(price=price, T=contract.t_bar)
    else:  # perpetual
        if contract.kind is PayoffKind.BINARY_PUT:
            price = american.perpetual_binary_put(market, contract.log_strike, x)
            out.update(price=price)
        elif contract.kind is PayoffKind.VANILLA_PUT:
            price = american.perpetual_vanilla_put(market, contract.strike, x)
            out.update(price=price,
                       exercise_boundary=american.perpetual_exercise_boundary(
                           market, contract.strike))
        else:
            raise ValidationError("perpetual pricing covers binary and vanilla puts")
    _emit(out)
    return 0


def _cmd_iv(args) -> int:
    market = _build_market(args)
    rho, gamma = market.exponential_rates()
    K, T, r = args.strike, args.T, args.rate
    grid = _grid([args.smin, args.smax, args.spoints])
    rows, skipped = _iv_rows([market], K, T, r, grid, math.sqrt(2.0 * r / (gamma - rho + 1.0)))
    meta = {
        "command": "iv", "rho": rho, "gamma": gamma, "r": r,
        "K": K, "T": T, "grid": [args.smin, args.smax, args.spoints],
        "out_of_band": skipped, "risk_neutral": market.is_risk_neutral,
    }
    fig = FigureData(meta, ["s_over_k", "model_iv", "bs_check"], rows)
    if args.out:
        write_csv(fig, args.out)
        _emit({"written": args.out, "out_of_band": skipped})
    else:
        sys.stdout.write("\n".join(
            [",".join(fig.columns)] + [",".join(_cell(v) for v in row) for row in rows]
        ) + "\n")
    return 0


def _cmd_mc(args) -> int:
    market = _build_market(args)
    contract = _build_contract(args)
    x = math.log(args.spot)
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
    p.add_argument("--T", type=float, default=0.25)
    p.add_argument("--strike", type=float, default=1.0)
    p.add_argument("--smin", type=float, default=0.9)
    p.add_argument("--smax", type=float, default=1.2)
    p.add_argument("--spoints", type=int, default=31)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_iv)

    p = sub.add_parser("mc", help="Monte Carlo estimate")
    _add_common(p)
    _add_contract(p)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
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
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # config values become the subcommand's defaults, so explicit
            # flags win over them and flags left out take them
            commands[args.command].set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
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
