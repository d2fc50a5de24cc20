"""Record the reference values the benchmark checks against.

Writes ``perfbench/reference.json``: every cell of the seven named figures
and the butterfly cases point-mix draws from, each with the value computed
here.  Transform-route values are recorded at a tolerance 100 times tighter
than the one the benchmark runs at, so a later run is held to the route's
certified tolerance against a value that is itself well inside it.

Run it only at a commit whose prices are trusted:

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ctrwpricer.cli import FIGURES, build_figure  # noqa: E402

from workloads import (  # noqa: E402
    FIGURE_IDS,
    FOURIER_TOL,
    TRANSFORM_FIGURES,
    butterfly_price,
)

RECORD_TOL = FOURIER_TOL / 100.0
SPOTS = [80.0 + 5.0 * i for i in range(10)]
MOMENT_CASES = ((1e-3, 1e-4, 0.25), (0.0, 3e-4, 0.05), (2e-3, 5e-5, 1.0))
EXP_CASES = ((2.0, 0.1, 1.0), (20.0, 0.2, 0.25), (200.0, 0.1, 5.0))
FAMILIES = ("exp", "discrete", "constant", "gaussian", "logistic", "gumbel", "pareto")


def figures() -> dict:
    out = {}
    for fig_id in FIGURE_IDS:
        meta = dict(FIGURES[fig_id][1], figure=fig_id)
        if fig_id in TRANSFORM_FIGURES:
            meta["tol"] = RECORD_TOL
        fig = build_figure(meta=meta)
        out[fig_id] = {"meta": {"out_of_band": fig.meta.get("out_of_band")},
                       "columns": fig.columns, "rows": fig.rows}
    return out


def butterflies() -> list:
    cases = []
    for family in FAMILIES:
        for mu1, mu2, T in MOMENT_CASES:
            cases.append({"family": family, "mu1": mu1, "mu2": mu2, "T": T})
    for rho, sigma, T in EXP_CASES:
        cases.append({"family": "exp", "rho": rho, "sigma": sigma, "T": T})
    for i, case in enumerate(cases):
        case.update(id=i, K=100.0, L=10.0, spots=SPOTS)
        if case["family"] == "exp":
            continue  # checked by replication from closed-form vanillas
        case["bound"] = 1e-10 if case["family"] == "discrete" else FOURIER_TOL
        case["reference"] = [butterfly_price(case, s, RECORD_TOL) for s in SPOTS]
    return cases


def main() -> int:
    reference = {"figures": figures(), "butterflies": butterflies()}
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
