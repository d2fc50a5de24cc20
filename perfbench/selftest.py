"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

1. The metric names and units each workload emits, traced and untraced,
   equal those in BENCHMARK.json, and so do the workload names.
2. Deliberately perturbed prices are flagged as failed, so no checker is
   vacuous.
3. Input generation is identical for the same seed and differs for a
   different one.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from ctrwpricer import european  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def check_metric_names() -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    expect(names == list(wl.WORKLOADS), "workload names match BENCHMARK.json")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                expect(False, f"{name} trace={trace} runs ({proc.stderr.strip()[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace} emits the {key} names and units")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["attempted"] >= 1,
                   f"{name} trace={trace} result is well formed and correct")


def check_perturbations() -> None:
    reference = wl.load_reference()

    fig = wl.cli.build_figure("fig1")
    expect(wl.check_figure("fig1", fig, reference)[0] == wl.OK, "fig1 matches its reference")
    fig.rows[7][2] += 2 * wl.METHOD_GAP
    expect(wl.check_figure("fig1", fig, reference)[0] == wl.FAILED,
           "a fig1 cell moved by twice its bound fails")

    workdir = ROOT / ".bench_build" / "perfbench" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    grid = wl.FigGrid(3, workdir)
    first = {label: op for label, *op in grid.pass_ops(0)}["iv2"]
    expect(first[1](first[0]())[0] == wl.OK, "iv2 built from defaults passes")
    again = {label: op for label, *op in grid.pass_ops(1)}["iv2"]
    expect(again[1](again[0]())[0] == wl.OK, "iv2 regenerated from its meta line passes")
    csv = workdir / "iv2.csv"
    csv.write_bytes(csv.read_bytes() + b"\n")
    expect(again[1](again[0]())[0] == wl.FAILED, "a regeneration that differs in bytes fails")

    case = next(c for c in reference["butterflies"] if c["family"] == "gaussian")
    price = wl.butterfly_price(case, case["spots"][3])
    expect(wl.check_butterfly(case, 3, price)[0] == wl.OK, "gaussian butterfly matches")
    expect(wl.check_butterfly(case, 3, price + 2 * case["bound"])[0] == wl.FAILED,
           "a butterfly moved by twice its bound fails")
    case = next(c for c in reference["butterflies"] if c["family"] == "exp")
    price = wl.butterfly_price(case, case["spots"][3])
    expect(wl.check_butterfly(case, 3, price + 2 * wl.REPLICATION_GAP)[0] == wl.FAILED,
           "an exponential butterfly off its replication fails")

    expect(wl.check_mc("mc", 0.5 + 6e-3, 1e-3, 0.5)[0] == wl.FAILED,
           "a Monte Carlo estimate six standard errors off fails")

    spec = {"kind": "vanilla-call", "rho": 5.0, "sigma": 0.2, "T": 1.0, "moneyness": 1.1,
            "perpetual_vanilla": False}
    expect(wl.price_point(spec)[0] == wl.OK, "a point contract passes unperturbed")
    original = european.european_price

    def perturbed(m, c, x, method=european.PriceMethod.CLOSED, spec=None):
        value = original(m, c, x, method)
        return value + 2 * wl.METHOD_GAP if method is european.PriceMethod.LAPLACE else value

    european.european_price = perturbed
    try:
        expect(wl.price_point(spec)[0] == wl.FAILED,
               "a Laplace price moved by twice the criterion-3 bound fails")
    finally:
        european.european_price = original

    cmd = next(c for c in wl.cli_cold_inputs(3) if c["label"] == "price-closed")
    ref = wl.cli_reference(cmd)
    payload = json.dumps({"price": ref + 2 * wl.METHOD_GAP})
    expect(wl.check_cli(cmd, (0, payload, ""), ref)[0] == wl.FAILED,
           "a CLI price moved by twice its bound fails")
    expect(wl.check_cli(cmd, (3, "", "accuracy error"), ref)[0] == wl.FAILED,
           "a CLI accuracy exit fails")


def check_inputs() -> None:
    generators = {
        "cli-cold": wl.cli_cold_inputs,
        "fig-grid": lambda seed: wl.fig_grid_inputs(seed, 3),
        "point-mix": lambda seed: [wl.point_mix_inputs(seed, p, 24) for p in range(2)],
        "mc-paths": wl.mc_paths_inputs,
    }
    for name, gen in generators.items():
        a, b, c = gen(5), gen(5), gen(6)
        expect(a == b, f"{name} inputs repeat for the same seed")
        expect(a != c, f"{name} inputs differ for another seed")


def main() -> int:
    check_inputs()
    check_perturbations()
    check_metric_names()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
