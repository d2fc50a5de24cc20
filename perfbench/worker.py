"""One workload process: set up, say "ready", then run passes when told to.

Started by run.py as

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

It imports the package and makes the workload's inputs, prints ``ready``
and waits for one line on stdin: ``run`` measures the workload and prints
one JSON line of results; anything else exits (a set-up probe).
"""

import json
import resource
import sys
import time

loaded_before = len(sys.modules)
import_start = time.perf_counter()
import ctrwpricer.cli  # noqa: E402,F401  (timed: the package's full import)

IMPORT_S = time.perf_counter() - import_start
MODULES_LOADED = len(sys.modules) - loaded_before

from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
from calibrate import Calibration  # noqa: E402
from workloads import (  # noqa: E402
    FAILED,
    REFUSED,
    WORKLOADS,
    Children,
    median,
    tail_of,
)


def run_passes(workload, seconds: float, tracer=None):
    """Passes until ``seconds`` have elapsed, at least ``min_passes`` of them.

    A run ends at a pass boundary unless the workload may stop mid-pass.
    The calibration kernel runs between ops (see calibrate.py).  Returns
    the op records (pass, label, latency_s, outcome, detail), the number of
    passes run (fractional when the last one was cut), the calibration and,
    when tracing, the tracer's snapshot after pass 0.
    """
    records, pass0 = [], None
    calibration = Calibration()
    min_passes = getattr(workload, "min_passes", 1)
    stop_mid_pass = getattr(workload, "same_cost_ops", False)
    start = time.perf_counter()
    p = 0
    while True:
        ops = workload.pass_ops(p)
        for i, (label, run, check) in enumerate(ops):
            if stop_mid_pass and p >= min_passes \
                    and time.perf_counter() - start >= seconds:
                return records, p + i / len(ops), calibration, pass0
            calibration.maybe_measure()
            if tracer is not None:
                tracer.op = len(records)
            t0 = time.perf_counter()
            try:
                output, error = run(), None
            except Exception as exc:  # noqa: BLE001 - every op outcome is recorded
                output, error = None, exc
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = -1
            if error is not None:
                outcome, detail = FAILED, f"{label}: {type(error).__name__}: {error}"
            else:
                try:
                    outcome, detail = check(output)
                except Exception as exc:  # noqa: BLE001 - a broken output fails its op
                    outcome, detail = FAILED, f"{label}: check raised {exc!r}"
            records.append((p, label, latency, outcome, detail))
        if p == 0 and tracer is not None:
            pass0 = tracer.snapshot()
        p += 1
        if p >= min_passes and time.perf_counter() - start >= seconds:
            return records, p, calibration, pass0


def end_to_end(workload, records, slowness: float, rss_of_children: bool) -> dict:
    lat = sorted(r[2] for r in records)
    tail, tail_pct = tail_of(lat)
    who = resource.RUSAGE_CHILDREN if rss_of_children else resource.RUSAGE_SELF
    rss_kib = resource.getrusage(who).ru_maxrss
    metrics = {
        "norm_ops_per_s": (len(lat) / sum(lat) * slowness, "ops/s"),
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_ms": (median(lat) * 1e3, "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "op_tail_ms": (tail * 1e3 if tail is not None else None, "ms"),
        "failed_share": (sum(r[3] != "ok" for r in records) / len(records), "ratio"),
    }
    metrics.update(workload.summary(records))
    return {"metrics": metrics, "tail_percentile": tail_pct, "samples": len(lat)}


def layer_metrics(passes, pass0, total, children, cli_in_children) -> dict:
    """Per-layer values: counts over pass 0, self time per pass.

    Child interpreters' traces are merged in.  The cli import figures come
    from this process, or from the CLI children when every op is a CLI call.
    """
    import_s, modules = IMPORT_S, MODULES_LOADED
    traces = children.traces if children is not None else []
    if cli_in_children and traces:
        import_s = median([snap["import_s"] for _, snap in traces])
        modules = traces[0][1]["modules_loaded"]
    for p, snap in traces:
        tracing.merge(total, snap)
        if p == 0:
            tracing.merge(pass0, snap)
    return tracing.layer_metrics(pass0["counts"], total["self_time"], passes,
                                 import_s, modules)


def main(argv) -> int:
    name, seed, seconds, trace, workdir = argv
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    root = Path(__file__).resolve().parent.parent
    cls = WORKLOADS[name]
    children = None
    if name in ("cli-cold", "mc-paths"):
        children = Children(root, workdir, trace)
        workload = cls(seed, workdir, children)
    else:
        workload = cls(seed, workdir)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    tracer = tracing.Tracer().install() if trace else None
    records, passes, calibration, pass0 = run_passes(workload, seconds, tracer)
    result = end_to_end(workload, records, calibration.slowness(),
                        rss_of_children=name == "cli-cold")
    result.update(
        attempted=len(records),
        failed=sum(r[3] == FAILED for r in records),
        refused=sum(r[3] == REFUSED for r in records),
        passes=passes,
        calibration_s=calibration.samples,
        outcomes="".join(r[3][0] for r in records),
        problems=[r[4] for r in records if r[3] != "ok"][:20],
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    if tracer is not None:
        tracer.uninstall()
        total = tracer.snapshot()
        result["layers"] = layer_metrics(passes, pass0, total, children,
                                         cli_in_children=name == "cli-cold")
        result["spans"] = tracer.write_spans(workdir / f"spans-{name}-{seed}.csv")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
