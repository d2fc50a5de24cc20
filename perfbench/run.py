"""ctrwpricer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see README.md):

    cli-cold   fresh `python3 -m ctrwpricer.cli` calls over a nine-command mix
    fig-grid   the seven named figures, built in one warm process
    point-mix  single contracts across the admissible space, both routes each
    mc-paths   fixed-path Monte Carlo estimates across jump-intensity regimes

Each run byte-compiles the package, starts the workload process SETUPS
times to time its set-up (fresh interpreter to ready to run the first op),
and lets the last one measure whole passes for S seconds.  With --trace 0
the last line holds the end-to-end metrics, with --trace 1 the per-layer
metrics from a traced run.  Every run also writes a result file with the
environment, all metrics and, for a traced run, the difference from the
untraced run of the same workload and seed, under .bench_build/perfbench/.
This file uses only the standard library so it does not distort set-up.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "fig-grid", "point-mix", "mc-paths")
SETUPS = 3
RUN_TIMEOUT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "norm_ops_per_s": "ops/s"}
# per-layer metric -> unit; counts cover pass 0 of the run, times are per pass
PER_LAYER = {
    "cli.import_s": "s", "cli.modules_loaded": "count", "cli.dispatch_s": "s",
    "numerics.talbot_calls": "count", "numerics.talbot_nodes": "count",
    "numerics.talbot_s": "s", "numerics.semi_inf_calls": "count",
    "numerics.semi_inf_evals": "count", "numerics.semi_inf_s": "s",
    "numerics.real_line_calls": "count", "numerics.real_line_nodes": "count",
    "numerics.real_line_s": "s", "numerics.accuracy_errors": "count",
    "european.calls": "count", "european.s": "s", "european.beta_pm_nodes": "count",
    "american.calls": "count", "american.s": "s",
    "fourier.calls": "count", "fourier.s": "s", "fourier.payoff_nodes": "count",
    "fourier.nodes_per_price": "nodes/call",
    "densities.char_fn_nodes": "count", "densities.char_fn_s": "s",
    "densities.sample_draws": "count", "densities.sample_s": "s",
    "montecarlo.paths": "count", "montecarlo.blocks": "count",
    "montecarlo.jumps": "count", "montecarlo.s": "s", "montecarlo.bytes_computed": "B",
    "montecarlo.memory_errors": "count",
    "blackscholes.iv_calls": "count", "blackscholes.iv_s": "s",
    "blackscholes.iv_out_of_band": "count",
    "riskneutral.calls": "count", "riskneutral.s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(src: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def environment(seed: int, env: dict) -> dict:
    src = ROOT / "src" / "ctrwpricer"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def start_worker(args, env, workdir: Path, log):
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=log, text=True)
    line = proc.stdout.readline().strip()
    setup = time.perf_counter() - t0
    if line != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("workload process failed during set-up")
    return proc, setup


def run_workload(args, env, workdir: Path):
    """Set-up times of SETUPS starts, and the last start's results."""
    log_path = workdir / f"worker-{args.workload}.log"
    setups = []
    with open(log_path, "w") as log:
        for i in range(SETUPS):
            proc, setup = start_worker(args, env, workdir, log)
            setups.append(setup)
            try:
                if i < SETUPS - 1:
                    proc.communicate("exit\n", timeout=RUN_TIMEOUT)
                    continue
                out, _ = proc.communicate("run\n", timeout=RUN_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("workload process timed out") from None
    if proc.returncode != 0 or not out.strip():
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"workload process exited with {proc.returncode}:\n{tail}")
    return setups, json.loads(out.strip().splitlines()[-1])


def compare_with_untraced(traced: dict, untraced_path: Path):
    """Tracing overhead per end-to-end metric and whether op outcomes agree."""
    if not untraced_path.is_file():
        return None
    with open(untraced_path) as fh:
        base = json.load(fh)
    if base["environment"]["source_sha256"] != traced["environment"]["source_sha256"]:
        return None
    diff = {}
    for name, (value, unit) in traced["all_metrics"].items():
        other = base["all_metrics"].get(name, (None, None))[0]
        if value is not None and other is not None:
            diff[name] = {"traced": value, "untraced": other, "difference": value - other,
                          "unit": unit}
    a, b = traced["worker"]["outcomes"], base["worker"]["outcomes"]
    n = min(len(a), len(b))
    return {"metrics": diff, "ops_compared": n, "outcomes_match": a[:n] == b[:n]}


def report(args, result: dict) -> None:
    w = result["worker"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {w['passes']:.4g}  ops {w['attempted']}  refused {w['refused']}  "
          f"failed {w['failed']}")
    tail_pct = w["tail_percentile"]
    for name, (value, unit) in result["all_metrics"].items():
        note = ""
        if name.endswith("tail_ms") or name.endswith("tail_s"):
            note = (f"  (p{tail_pct:.1f} of {w['samples']} samples)" if tail_pct
                    else f"  (undefined: {w['samples']} samples, need 11)")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown:>12} {unit}{note}")
    for problem in w["problems"][:5]:
        print(f"  not ok: {problem}")
    overhead = result.get("tracing_overhead")
    if overhead:
        print(f"  tracing overhead, {overhead['ops_compared']} ops compared, "
              f"outcomes match: {overhead['outcomes_match']}")
        for name, d in overhead["metrics"].items():
            print(f"    {name:<16} {d['difference']:+.6g} {d['unit']}")
    if args.trace:
        print(f"  layers: {len(w['layers'])} metrics, {w.get('spans', 0)} spans "
              f"written; counts over pass 0, times per pass")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ctrwpricer" / "cli.py").is_file():
        print(f"error: no ctrwpricer source under {src}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / "perfbench"
    results = workdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    # the build step: byte-compile so cold starts read cached bytecode
    if not all(compileall.compile_dir(d, quiet=1) for d in (src / "ctrwpricer", HERE)):
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2

    env = child_env(src, threads=1)
    try:
        setups, worker = run_workload(args, env, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    all_metrics = {"setup_s": (statistics.median(setups), "s")}
    all_metrics.update({k: tuple(v) for k, v in worker["metrics"].items()})
    result = {
        "workload": args.workload,
        "inputs": {"seed": args.seed, "seconds": args.seconds},
        "environment": environment(args.seed, env),
        "setup_samples_s": setups,
        "all_metrics": all_metrics,
        "worker": worker,
    }
    correct = worker["failed"] == 0
    if args.trace:
        overhead = compare_with_untraced(
            result, results / f"{args.workload}-seed{args.seed}-trace0.json")
        result["tracing_overhead"] = overhead
        if overhead is not None and not overhead["outcomes_match"]:
            correct = False
        metrics = {k: {"value": worker["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": all_metrics[k][0], "unit": u} for k, u in END_TO_END.items()}
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    report(args, result)
    print(json.dumps({"correct": correct, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
