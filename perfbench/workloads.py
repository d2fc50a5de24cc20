"""Input generation, ops and output checks for the four workloads.

A workload is a sequence of passes; a pass is a fixed list of ops made from
the seed.  Every op returns an output that ``check`` classifies as

* ``ok``      - the output is within the bound it is held to,
* ``refused`` - the program declined with its documented refusal in a
  known-defect corner (an ``AccuracyError`` from the Laplace route whose
  bound is truthful, or the memory-capped rho=2000 simulation running out
  of memory); these count towards ``failed_share``,
* ``failed``  - anything else: a value outside its bound, an unexpected
  exception or exit code.

Bounds: closed form vs Laplace 1e-6 (acceptance criterion 3); transform vs
replication from three closed-form vanillas 1e-4 (criterion 9); Monte Carlo
vs closed form ``MC_SIGMAS`` standard errors; recorded references
(``reference.json``, written by ``record.py``) are held to the certified
tolerance of the route that produced them.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

# ops call the package through module attributes, so that the names the
# tracer patches are the ones the benchmark's own calls resolve
from ctrwpricer import (
    american,
    blackscholes,
    cli,
    densities,
    european,
    fourier,
    montecarlo,
    riskneutral,
)
from ctrwpricer.densities import Family
from ctrwpricer.errors import AccuracyError, OutOfBandError
from ctrwpricer.european import Contract, DEModel, PayoffKind, PriceMethod
from ctrwpricer.numerics import QuadSpec
from ctrwpricer.riskneutral import MarketParams

from child import REFUSED_EXIT

HERE = Path(__file__).resolve().parent
OK, REFUSED, FAILED = "ok", "refused", "failed"

R = 0.04
METHOD_GAP = 1e-6          # criterion 3: closed form vs Laplace inversion
REPLICATION_GAP = 1e-4     # criterion 9: transform vs three closed-form vanillas
ROOT_GAP = 1e-10           # criterion 7: perpetual boundaries vs root-finders
PERPETUAL_LIMIT_GAP = 1e-6  # criterion 7: s -> 0 limit of the finite-horizon transform
IV_RESIDUAL = 1e-9         # implied vol reprices its input (solver gate is 1e-10 K)
MC_SIGMAS = 5.0            # Monte Carlo estimates vs closed form, in standard errors
FOURIER_TOL = cli.FOURIER_TOL  # transform-route tolerance of the CLI and the figures
MEMORY_CAP = 1 << 30       # address-space cap of the rho=2000 simulation child
CHILD_TIMEOUT = 150.0

# the admissible space point-mix draws from; the rho in {200, 2000},
# T in {5, 50} corner is where the Laplace route refuses at the seed
RHOS = (1.01, 1.1, 2.0, 5.0, 20.0, 200.0, 2000.0)
SIGMAS = (0.05, 0.1, 0.2, 0.4, 0.8)
HORIZONS = (1e-4, 0.01, 0.25, 1.0, 5.0, 50.0)
MONEYNESS = (0.3, 3.0)
POINT_CONTRACTS = 500      # point contracts per pass
POINT_BUTTERFLIES = 5      # butterflies per pass, placed at random
POINT_KINDS = (("binary-call", 3), ("vanilla-call", 3), ("american-binary-put", 2),
               ("perpetual-put", 2))


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def _rng(workload: str, seed: int, *more) -> random.Random:
    return random.Random("/".join(str(v) for v in (workload, seed, *more)))


def _mc_seed(rng: random.Random) -> int:
    return rng.getrandbits(62)


def _close(a: float, b: float, bound: float) -> bool:
    return abs(a - b) <= bound


# ----------------------------------------------------------------------
# fig-grid
# ----------------------------------------------------------------------

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "iv1", "iv2")
TRANSFORM_FIGURES = ("fig3", "fig4")


def fig_grid_inputs(seed: int, passes: int) -> list:
    """Build order of the seven figures, one permutation per pass."""
    orders = []
    for p in range(passes):
        order = list(FIGURE_IDS)
        _rng("fig-grid", seed, p).shuffle(order)
        orders.append(order)
    return orders


def cell_bound(fig_id: str, column: str) -> float:
    """Bound a figure cell is held to against the recorded reference."""
    if column in ("s_over_k", "spot"):
        return 0.0
    if column in ("bs", "no_trade"):
        return 1e-12                 # analytic formulas
    if column == "discrete":
        return 1e-10                 # exact net-count conditioning
    return METHOD_GAP if fig_id not in TRANSFORM_FIGURES else FOURIER_TOL


def check_figure(fig_id: str, fig, reference: dict):
    ref = reference["figures"][fig_id]
    if fig.columns != ref["columns"] or len(fig.rows) != len(ref["rows"]):
        return FAILED, f"{fig_id}: shape differs from the reference"
    if fig.meta.get("out_of_band") != ref["meta"].get("out_of_band"):
        return FAILED, f"{fig_id}: out_of_band {fig.meta.get('out_of_band')} != reference"
    for i, (row, ref_row) in enumerate(zip(fig.rows, ref["rows"])):
        for col, v, w in zip(fig.columns, row, ref_row):
            if (v is None) != (w is None):
                return FAILED, f"{fig_id} row {i} {col}: {v!r} vs reference {w!r}"
            if v is not None and not _close(float(v), w, cell_bound(fig_id, col)):
                return FAILED, f"{fig_id} row {i} {col}: {v!r} vs reference {w!r}"
    return OK, ""


class FigGrid:
    """Pass 0 builds each figure from library defaults and writes its CSV;
    later passes rebuild it from that CSV's meta line (``fig --from-meta``),
    which must reproduce the file byte for byte."""

    min_passes = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reference = load_reference()

    def _csv(self, fig_id: str, again: bool) -> Path:
        return self.workdir / f"{fig_id}{'.again' if again else ''}.csv"

    def pass_ops(self, p: int) -> list:
        ops = []
        for fig_id in fig_grid_inputs(self.seed, p + 1)[p]:
            first = self._csv(fig_id, again=False)
            if p == 0:
                def run(fig_id=fig_id):
                    return cli.build_figure(fig_id)
            else:
                def run(first=first):
                    return cli.build_figure(meta=cli.read_meta(str(first)))

            def check(fig, fig_id=fig_id, first=first, again=p > 0):
                outcome, detail = check_figure(fig_id, fig, self.reference)
                out = self._csv(fig_id, again)
                cli.write_csv(fig, str(out))
                if outcome == OK and again and out.read_bytes() != first.read_bytes():
                    return FAILED, f"{fig_id}: --from-meta regeneration is not byte-identical"
                return outcome, detail
            ops.append((fig_id, run, check))
        return ops

    @staticmethod
    def summary(records) -> dict:
        transform, closed = _group_medians(
            records, lambda label: label in TRANSFORM_FIGURES)
        return {"fig_transform_s": (transform, "s"), "fig_closed_s": (closed, "s")}


# ----------------------------------------------------------------------
# point-mix
# ----------------------------------------------------------------------

def point_mix_inputs(seed: int, p: int, n_cases: int) -> list:
    """One pass of contracts and butterflies, as plain data."""
    rng = _rng("point-mix", seed, p)
    kinds = [k for k, w in POINT_KINDS for _ in range(w)]
    ops = []
    for _ in range(POINT_CONTRACTS):
        ops.append({
            "kind": rng.choice(kinds),
            "rho": rng.choice(RHOS),
            "sigma": rng.choice(SIGMAS),
            "T": rng.choice(HORIZONS),
            "moneyness": math.exp(rng.uniform(*map(math.log, MONEYNESS))),
            "perpetual_vanilla": rng.random() < 0.5,
        })
    # butterflies cycle through a seed-shuffled order of the recorded cases
    # so every run prices the same mix of families
    order = list(range(n_cases))
    _rng("point-mix", seed, "cases").shuffle(order)
    for j in range(POINT_BUTTERFLIES):
        case = order[(p * POINT_BUTTERFLIES + j) % n_cases]
        ops.insert(rng.randrange(len(ops) + 1),
                   {"kind": "butterfly", "case": case, "spot_index": rng.randrange(1 << 30)})
    return ops


def _refusal(exc: AccuracyError, other: float, label: str):
    """A Laplace refusal counts as refused when its bound is truthful."""
    if exc.best is not None and exc.bound is not None \
            and abs(exc.best - other) <= exc.bound + METHOD_GAP:
        return REFUSED, f"{label}: AccuracyError (bound {exc.bound:.3g})"
    return FAILED, f"{label}: AccuracyError with an untruthful bound: {exc}"


def _two_routes(label, closed_fn, laplace_fn):
    closed = closed_fn()
    try:
        laplace = laplace_fn()
    except AccuracyError as exc:
        return _refusal(exc, closed, label), closed
    if not _close(closed, laplace, METHOD_GAP):
        return (FAILED, f"{label}: closed {closed!r} vs Laplace {laplace!r}"), closed
    return (OK, ""), closed


def price_point(spec: dict):
    """Price one point contract by both routes and check it."""
    m = DEModel.from_rho_sigma(spec["rho"], R, spec["sigma"])
    K, T, spot = 1.0, spec["T"], spec["moneyness"]
    x = math.log(spot)
    kind = spec["kind"]
    label = f"{kind} rho={spec['rho']} sigma={spec['sigma']} T={T} S={spot:.4f}"
    if kind in ("binary-call", "vanilla-call"):
        c = Contract(PayoffKind(kind), K, T)
        result, closed = _two_routes(
            label,
            lambda: european.european_price(m, c, x, PriceMethod.CLOSED),
            lambda: european.european_price(m, c, x, PriceMethod.LAPLACE))
        if kind == "vanilla-call" and result[0] != FAILED:
            try:
                iv = blackscholes.implied_vol(closed, spot, K, R, T)
            except OutOfBandError:
                return result
            repriced = blackscholes.bs_vanilla_call(spot, K, R, iv, T)
            if not _close(repriced, closed, IV_RESIDUAL):
                return FAILED, f"{label}: implied vol {iv!r} reprices to {repriced!r}"
        return result
    if kind == "american-binary-put":
        result, _ = _two_routes(
            label,
            lambda: american.binary_put_price(m, 0.0, x, T, "closed"),
            lambda: american.binary_put_price(m, 0.0, x, T, "laplace"))
        return result
    if spec["perpetual_vanilla"]:
        pairs = ((american.perpetual_exercise_boundary(m, K),
                  american.solve_boundary_numeric(m, K)),
                 (american.vanilla_exercise_trigger(m, K),
                  american.solve_trigger_numeric(m, K)))
        value = american.perpetual_vanilla_put(m, K, x)
        if not max(K - spot, 0.0) - 1e-12 <= value <= K:
            return FAILED, f"{label}: perpetual vanilla put {value!r} outside [intrinsic, K]"
        for closed_form, root in pairs:
            if not _close(closed_form, root, ROOT_GAP):
                return FAILED, f"{label}: boundary {closed_form!r} vs root-finder {root!r}"
        return OK, ""
    value = american.perpetual_binary_put(m, 0.0, x)
    limit = 1e-9 * complex(american.binary_put_laplace(m, 0.0, x, 1e-9)).real
    if not _close(value, limit, PERPETUAL_LIMIT_GAP):
        return FAILED, f"{label}: perpetual binary put {value!r} vs transform limit {limit!r}"
    return OK, ""


def butterfly_market(case: dict) -> MarketParams:
    if "rho" in case:
        return DEModel.from_rho_sigma(case["rho"], R, case["sigma"]).market_params()
    return MarketParams.risk_neutral(R, densities.fit_from_moments(
        Family(case["family"]), case["mu1"], case["mu2"]))


def butterfly_price(case: dict, spot: float, tol: float = FOURIER_TOL) -> float:
    """The transform route as the CLI runs it (exact route for two-point jumps)."""
    market = butterfly_market(case)
    payoff = fourier.butterfly_payoff(case["K"], case["L"])
    x = math.log(spot)
    if market.density.family is Family.DISCRETE:
        return fourier.price_two_point_exact(market, payoff, x, case["T"])
    return fourier.price_fourier(market, payoff, x, case["T"],
                                 QuadSpec(rel_tol=1e-9, abs_tol=tol))


def replicated_butterfly(case: dict, spot: float) -> float:
    m = DEModel.from_market(butterfly_market(case))
    K, L, T, x = case["K"], case["L"], case["T"], math.log(spot)
    vc = european.vanilla_call_closed
    return 2.0 * vc(m, K + 0.5 * L, x, T) - vc(m, K, x, T) - vc(m, K + L, x, T)


def check_butterfly(case: dict, spot_index: int, price: float) -> tuple:
    spot = case["spots"][spot_index]
    label = f"butterfly {case['family']} case={case['id']} S={spot}"
    if case["family"] == "exp":
        ref, bound = replicated_butterfly(case, spot), REPLICATION_GAP
    else:
        ref, bound = case["reference"][spot_index], case["bound"]
    if not _close(price, ref, bound):
        return FAILED, f"{label}: {price!r} vs reference {ref!r} (bound {bound})"
    return OK, ""


class PointMix:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cases = load_reference()["butterflies"]

    def pass_ops(self, p: int) -> list:
        ops = []
        for spec in point_mix_inputs(self.seed, p, len(self.cases)):
            if spec["kind"] == "butterfly":
                case = self.cases[spec["case"]]
                i = spec["spot_index"] % len(case["spots"])

                def run(case=case, i=i):
                    return check_butterfly(case, i, butterfly_price(case, case["spots"][i]))
                ops.append(("butterfly", run, _self_checked))
            else:
                ops.append((spec["kind"], lambda spec=spec: price_point(spec), _self_checked))
        return ops

    @staticmethod
    def summary(records) -> dict:
        lat = sorted(r[2] for r in records)
        tail, _ = tail_of(lat)
        return {"point_per_s": (len(lat) / sum(lat), "ops/s"),
                "point_p50_ms": (median(lat) * 1e3, "ms"),
                "point_tail_ms": (tail * 1e3 if tail is not None else None, "ms")}


def _self_checked(result):
    return result


# ----------------------------------------------------------------------
# mc-paths
# ----------------------------------------------------------------------

def mc_paths_inputs(seed: int) -> list:
    rng = _rng("mc-paths", seed)
    return [
        {"label": "quiet-european", "market": {"rho": 2.0, "gamma": 9.0},
         "contract": "binary-call", "spot": rng.uniform(0.95, 1.1), "T": 0.25,
         "paths": 10**6, "seed": _mc_seed(rng)},
        {"label": "quiet-american", "market": {"rho": 2.0, "gamma": 9.0},
         "contract": "american-binary-put", "spot": rng.uniform(1.02, 1.1), "T": 5.0,
         "paths": 10**6, "seed": _mc_seed(rng)},
        {"label": "jumpy-gaussian", "market": {"family": "gaussian", "mu1": 1e-3,
                                               "mu2": 1e-4},
         "contract": "martingale", "spot": 1.0, "T": 1.0,
         "paths": 10**6, "seed": _mc_seed(rng)},
        {"label": "jumpy-rho200", "market": {"rho": 200.0, "sigma": 0.1},
         "contract": "vanilla-call", "spot": rng.uniform(0.95, 1.05), "T": 0.25,
         "paths": 2 * 10**5, "seed": _mc_seed(rng)},
        {"label": "capped-rho2000", "market": {"rho": 2000.0, "sigma": 0.1},
         "contract": "vanilla-call", "spot": rng.uniform(0.95, 1.05), "T": 1.0,
         "paths": 1 << 14, "seed": _mc_seed(rng)},
    ]


def _model(market: dict) -> DEModel:
    if "gamma" in market:
        return DEModel.risk_neutral(market["rho"], market["gamma"], R)
    return DEModel.from_rho_sigma(market["rho"], R, market["sigma"])


def mc_reference(spec: dict) -> float:
    """Closed-form value the estimate is checked against (0 for the drift)."""
    if spec["contract"] == "martingale":
        return 0.0
    m, x = _model(spec["market"]), math.log(spec["spot"])
    if spec["contract"] == "american-binary-put":
        return american.binary_put_price(m, 0.0, x, spec["T"], "closed")
    c = Contract(PayoffKind(spec["contract"]), 1.0, spec["T"])
    return european.european_price(m, c, x, PriceMethod.CLOSED)


def run_mc(spec: dict) -> tuple:
    """Run one in-process estimate; returns (value, standard error)."""
    config = montecarlo.MCConfig(paths=spec["paths"], seed=spec["seed"])
    x = math.log(spec["spot"])
    if spec["contract"] == "martingale":
        m = spec["market"]
        market = MarketParams.risk_neutral(
            R, densities.fit_from_moments(Family(m["family"]), m["mu1"], m["mu2"]))
        report = montecarlo.martingale_check(market, x, spec["T"], config)
        return report["drift"], report["std_error"]
    market = _model(spec["market"]).market_params()
    if spec["contract"] == "american-binary-put":
        est = montecarlo.price_american_binary_put_mc(market, 0.0, x, spec["T"], config)
    else:
        est = montecarlo.price_european_mc(market, Contract(PayoffKind(spec["contract"]), 1.0,
                                                 spec["T"]), x, config)
    return est.value, est.std_error


def check_mc(label: str, value: float, std_error: float, reference: float) -> tuple:
    if not abs(value - reference) <= MC_SIGMAS * std_error:
        return FAILED, (f"{label}: {value!r} +- {std_error!r} vs closed form "
                        f"{reference!r} (> {MC_SIGMAS} SE)")
    return OK, ""


def mc_cli_args(spec: dict) -> list:
    m = spec["market"]
    return ["mc", "--contract", spec["contract"], "--rho", repr(m["rho"]),
            "--sigma", repr(m["sigma"]), "--rate", repr(R), "--T", repr(spec["T"]),
            "--spot", repr(spec["spot"]), "--strike", "1", "--paths", str(spec["paths"]),
            "--seed", str(spec["seed"])]


class MCPaths:
    QUIET = ("quiet-european", "quiet-american")
    JUMPY = ("jumpy-gaussian", "jumpy-rho200")

    def __init__(self, seed: int, workdir: Path, children=None):
        self.specs = mc_paths_inputs(seed)
        self.references = [mc_reference(s) for s in self.specs]
        self.children = children

    def pass_ops(self, p: int) -> list:
        ops = []
        for spec, ref in zip(self.specs, self.references):
            label = spec["label"]
            if label.startswith("capped"):
                run = (lambda spec=spec, p=p: self.children.run(
                    mc_cli_args(spec), p, memory_cap=MEMORY_CAP))
                check = (lambda res, label=label, ref=ref: _check_capped(label, res, ref))
            else:
                run = lambda spec=spec: run_mc(spec)
                check = lambda res, label=label, ref=ref: check_mc(label, *res, ref)
            ops.append((label, run, check))
        return ops

    @classmethod
    def summary(cls, records) -> dict:
        quiet, _ = _group_medians(records, lambda label: label in cls.QUIET)
        jumpy, _ = _group_medians(records, lambda label: label in cls.JUMPY)
        return {"mc_quiet_s": (quiet, "s"), "mc_jumpy_s": (jumpy, "s")}


def _check_capped(label, result, reference):
    code, out, err = result
    if code == REFUSED_EXIT:
        return REFUSED, f"{label}: ran out of memory under the {MEMORY_CAP >> 20} MiB cap"
    if code in (2, 3):
        return REFUSED, f"{label}: refused with exit {code}: {err.strip()[-200:]}"
    if code != 0:
        return FAILED, f"{label}: exit {code}: {err.strip()[-200:]}"
    payload = json.loads(out)
    return check_mc(label, payload["price"], payload["std_error"], reference)


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------

def cli_cold_inputs(seed: int) -> list:
    """The nine-command mix, parameters drawn from the seed."""
    rng = _rng("cli-cold", seed)

    def market():
        return rng.choice((1.5, 2.0, 5.0, 20.0)), rng.choice((0.1, 0.2, 0.3))

    def common(rho, sigma):
        return ["--rho", repr(rho), "--sigma", repr(sigma), "--rate", repr(R)]

    cmds = []
    for contract, method in (("binary-call", "closed"), ("vanilla-call", "laplace")):
        rho, sigma = market()
        T, spot = rng.choice((0.1, 0.25, 0.5, 1.0)), rng.uniform(0.8, 1.25)
        cmds.append({"label": f"price-{method}", "args": [
            "price", "--contract", contract, "--method", method, *common(rho, sigma),
            "--T", repr(T), "--spot", repr(spot), "--strike", "1"],
            "rho": rho, "sigma": sigma, "T": T, "spot": spot, "contract": contract})
    rho, sigma = market()
    T, spot = rng.choice((0.25, 1.0, 5.0)), rng.uniform(1.01, 1.3)
    cmds.append({"label": "price-american", "args": [
        "price", "--style", "american", "--contract", "binary-put", "--method", "laplace",
        *common(rho, sigma), "--T", repr(T), "--spot", repr(spot), "--strike", "1"],
        "rho": rho, "sigma": sigma, "T": T, "spot": spot})
    rho, gamma, spot = rng.choice((1.5, 2.0, 5.0)), rng.choice((9.0, 15.0)), \
        rng.uniform(0.9, 1.2)
    cmds.append({"label": "price-perpetual", "args": [
        "price", "--style", "perpetual", "--contract", "vanilla-put", "--rho", repr(rho),
        "--gamma", repr(gamma), "--rate", repr(R), "--spot", repr(spot), "--strike", "1"],
        "rho": rho, "gamma": gamma, "spot": spot})
    rho, sigma = rng.choice((2.0, 5.0)), rng.choice((0.1, 0.2))
    T, spot = rng.choice((0.25, 1.0)), rng.choice((90.0, 95.0, 100.0, 105.0, 110.0))
    cmds.append({"label": "price-fourier", "args": [
        "price", "--method", "fourier", "--contract", "butterfly", *common(rho, sigma),
        "--strike", "100", "--L", "10", "--T", repr(T), "--spot", repr(spot)],
        "rho": rho, "sigma": sigma, "T": T, "spot": spot})
    spot = rng.uniform(0.95, 1.1)
    cmds.append({"label": "mc", "args": [
        "mc", "--contract", "binary-call", "--rho", "2", "--gamma", "9", "--rate", repr(R),
        "--T", "0.25", "--spot", repr(spot), "--strike", "1", "--paths", "20000",
        "--seed", str(_mc_seed(rng))], "spot": spot})
    rho, sigma = market()
    cmds.append({"label": "iv", "args": ["iv", *common(rho, sigma), "--spoints", "11"],
                 "rho": rho, "sigma": sigma})
    rho, gamma = rng.choice((1.5, 2.0, 5.0)), rng.choice((9.0, 15.0))
    cmds.append({"label": "validate", "args": [
        "validate", "--rho", repr(rho), "--gamma", repr(gamma), "--rate", repr(R)],
        "rho": rho, "gamma": gamma})
    # (1 - a)(1 + b) < 1, so E[e^J] > 1 and a martingale intensity exists
    a, b = rng.uniform(0.1, 0.5), rng.uniform(0.01, 0.08)
    cmds.append({"label": "calibrate-lambda", "args": [
        "calibrate-lambda", "--density", "exp", "--a", repr(a), "--b", repr(b),
        "--rate", repr(R)], "a": a, "b": b})
    return cmds


def cli_reference(cmd: dict):
    """In-process value the CLI output is checked against (second route)."""
    label = cmd["label"]
    if label in ("price-closed", "price-laplace"):
        m = DEModel.from_rho_sigma(cmd["rho"], R, cmd["sigma"])
        c = Contract(PayoffKind(cmd["contract"]), 1.0, cmd["T"])
        other = PriceMethod.LAPLACE if label == "price-closed" else PriceMethod.CLOSED
        return european.european_price(m, c, math.log(cmd["spot"]), other)
    if label == "price-american":
        m = DEModel.from_rho_sigma(cmd["rho"], R, cmd["sigma"])
        return american.binary_put_closed(m, 0.0, math.log(cmd["spot"]), cmd["T"])
    if label == "price-perpetual":
        m = DEModel.risk_neutral(cmd["rho"], cmd["gamma"], R)
        return {"price": american.perpetual_vanilla_put(m, 1.0, math.log(cmd["spot"])),
                "boundary": american.solve_boundary_numeric(m, 1.0)}
    if label == "price-fourier":
        case = {"rho": cmd["rho"], "sigma": cmd["sigma"], "K": 100.0, "L": 10.0,
                "T": cmd["T"]}
        return replicated_butterfly(case, cmd["spot"])
    if label == "mc":
        m = DEModel.risk_neutral(2.0, 9.0, R)
        c = Contract(PayoffKind.BINARY_CALL, 1.0, 0.25)
        return european.european_price(m, c, math.log(cmd["spot"]))
    if label == "iv":
        m = DEModel.from_rho_sigma(cmd["rho"], R, cmd["sigma"])
        rows = []
        for i in range(11):
            spot = 0.9 + i * (1.2 - 0.9) / 10
            price = european.vanilla_call_closed(m, 1.0, math.log(spot), 0.25)
            try:
                blackscholes.implied_vol(price, spot, 1.0, R, 0.25)
                rows.append((spot, price))
            except OutOfBandError:
                rows.append((spot, None))
        return rows
    if label == "validate":
        m = DEModel.risk_neutral(cmd["rho"], cmd["gamma"], R)
        return riskneutral.validate(m.market_params()).passed
    # calibrate-lambda: E[e^J] of the two-sided exponential in closed form
    moment = 1.0 / ((1.0 - cmd["a"]) * (1.0 + cmd["b"]))
    return R / (moment - 1.0)


def check_cli(cmd: dict, result, reference) -> tuple:
    code, out, err = result
    label = cmd["label"]
    if label == "validate":
        want = 0 if reference else 2
        if code != want or json.loads(out)["passed"] != reference:
            return FAILED, f"validate: exit {code}, want {want}"
        return OK, ""
    if code != 0:
        return FAILED, f"{label}: exit {code}: {err.strip()[-200:]}"
    if label == "iv":
        return _check_iv_csv(out, reference)
    payload = json.loads(out)
    if label == "price-perpetual":
        if not (_close(payload["price"], reference["price"], 1e-12)
                and _close(payload["exercise_boundary"], reference["boundary"], ROOT_GAP)):
            return FAILED, f"{label}: {payload} vs {reference}"
        return OK, ""
    if label == "mc":
        return check_mc(label, payload["price"], payload["std_error"], reference)
    if label == "calibrate-lambda":
        ok = _close(payload["lam"], reference, 1e-12 * reference)
    else:
        bound = REPLICATION_GAP if label == "price-fourier" else METHOD_GAP
        ok = _close(payload["price"], reference, bound)
    return (OK, "") if ok else (FAILED, f"{label}: {out.strip()} vs {reference!r}")


def _check_iv_csv(out: str, rows) -> tuple:
    lines = out.strip().splitlines()
    if lines[0] != "s_over_k,model_iv,bs_check" or len(lines) != len(rows) + 1:
        return FAILED, "iv: unexpected CSV layout"
    for line, (spot, price) in zip(lines[1:], rows):
        cells = line.split(",")
        if (cells[1] == "") != (price is None):
            return FAILED, f"iv: out-of-band cell mismatch at {spot}"
        if price is not None:
            repriced = blackscholes.bs_vanilla_call(spot, 1.0, R, float(cells[1]), 0.25)
            if not _close(repriced, price, IV_RESIDUAL):
                return FAILED, f"iv: {cells[1]} reprices to {repriced!r}, want {price!r}"
    return OK, ""


class CliCold:
    # calls cost about the same (the import dominates), so a run may stop
    # inside a pass without biasing the throughput
    same_cost_ops = True

    def __init__(self, seed: int, workdir: Path, children=None):
        self.cmds = cli_cold_inputs(seed)
        self.references = [cli_reference(c) for c in self.cmds]
        self.children = children

    def pass_ops(self, p: int) -> list:
        return [(cmd["label"], lambda cmd=cmd, p=p: self.children.run(cmd["args"], p),
                 lambda res, cmd=cmd, ref=ref: check_cli(cmd, res, ref))
                for cmd, ref in zip(self.cmds, self.references)]

    @staticmethod
    def summary(records) -> dict:
        lat = sorted(r[2] for r in records)
        tail, _ = tail_of(lat)
        return {"cli_p50_s": (median(lat), "s"), "cli_tail_s": (tail, "s")}


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

class Children:
    """Runs the CLI in fresh interpreters, traced through child.py when asked."""

    def __init__(self, root: Path, workdir: Path, trace: bool):
        self.root, self.workdir, self.trace = root, workdir, trace
        self.traces: list[tuple[int, dict]] = []   # (pass, child trace)

    def run(self, args: list, p: int, memory_cap: int | None = None):
        cmd = [sys.executable]
        trace_file = self.workdir / "child-trace.json"
        if self.trace or memory_cap:
            cmd += [str(HERE / "child.py")]
            if self.trace:
                cmd += ["--trace", str(trace_file)]
            if memory_cap:
                cmd += ["--memory-cap", str(memory_cap)]
            cmd += ["--"]
        else:
            cmd += ["-m", "ctrwpricer.cli"]
        proc = subprocess.run(cmd + args, cwd=self.root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        if self.trace and trace_file.exists():
            with open(trace_file) as fh:
                self.traces.append((p, json.load(fh)))
            trace_file.unlink()
        return proc.returncode, proc.stdout, proc.stderr


# ----------------------------------------------------------------------
# statistics shared by the summaries
# ----------------------------------------------------------------------

def median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def tail_of(sorted_values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(sorted_values)
    if n < 11:
        return None, None
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def _group_medians(records, in_group):
    """Median over passes of the summed latency of the ops in and out of a group."""
    inside, outside = {}, {}
    for p, label, latency, *_ in records:
        target = inside if in_group(label) else outside
        target[p] = target.get(p, 0.0) + latency
    return (median(inside.values()) if inside else None,
            median(outside.values()) if outside else None)


WORKLOADS = {"cli-cold": CliCold, "fig-grid": FigGrid, "point-mix": PointMix,
             "mc-paths": MCPaths}
