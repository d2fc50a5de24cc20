"""Layer tracing from outside the package.

``Tracer.install()`` replaces, at run time, the public entry points of each
ctrwpricer module with wrappers that record a span (name, start, end,
parent span, op id) and count the work that crosses the boundary: nodes
handed to transforms and integrands, jump draws, paths.  Each patched name
is replaced in every ctrwpricer module that holds it, so calls between
layers (``european.laplace_invert``, ``fourier.char_fn``,
``montecarlo.sample`` ...) nest.  ``uninstall()`` restores the originals.

Spans are recorded only while an op is running (``op >= 0``); they stay in
memory and are written out by ``write_spans``.  Self time (span duration
minus the time covered by child spans) is accumulated per metric group as
spans close.  Integrands handed to the quadrature routines are counted but
not spanned, so a quadrature group's self time includes the integrand
evaluations it drives.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from ctrwpricer.errors import AccuracyError, OutOfBandError
from ctrwpricer.montecarlo import BLOCK
from ctrwpricer.numerics import LaplaceFn


# (module, function, metric group, pre-hook, post-hook).  A group is
# "<layer>" or "<layer>.<part>"; the layer is the module name.
_TALBOT = ("laplace_invert", "laplace_invert_talbot", "laplace_invert_euler")

ENTRY_POINTS = [
    *[("numerics", f, "numerics.talbot", "count_talbot", None) for f in _TALBOT],
    ("numerics", "integrate_semi_infinite", "numerics.semi_inf", "count_semi_inf", None),
    ("numerics", "integrate_real_line", "numerics.real_line", "count_real_line", None),
    *[("european", f, "european", None, None) for f in (
        "european_price", "binary_call_price", "vanilla_call_price",
        "binary_call_closed", "vanilla_call_closed", "binary_call_laplace",
        "vanilla_call_laplace", "put_price_from_parity", "no_trade_vanilla_call")],
    ("european", "beta_pm", "european", "count_beta_pm", None),
    *[("american", f, "american", None, None) for f in (
        "binary_put_price", "binary_put_closed", "binary_put_laplace",
        "perpetual_binary_put", "perpetual_vanilla_put", "perpetual_exercise_boundary",
        "vanilla_exercise_trigger", "solve_trigger_numeric", "solve_boundary_numeric")],
    ("fourier", "price_fourier", "fourier.price", None, None),
    ("fourier", "price_two_point_exact", "fourier.price", None, None),
    ("fourier", "butterfly_payoff", "fourier", None, "count_payoff"),
    ("densities", "char_fn", "densities.char_fn", "count_char_fn", None),
    ("densities", "sample", "densities.sample", None, "count_sample"),
    ("densities", "fit_from_moments", "densities", None, None),
    ("densities", "exp_moment", "densities", None, None),
    *[("montecarlo", f, "montecarlo", "count_paths", None) for f in (
        "price_european_mc", "price_american_binary_put_mc", "martingale_check",
        "simulate_terminal")],
    ("blackscholes", "implied_vol", "blackscholes.iv", None, None),
    *[("blackscholes", f, "blackscholes", None, None) for f in (
        "bs_vanilla_call", "bs_vanilla_put", "bs_binary_call", "bs_binary_put")],
    ("riskneutral", "risk_neutral_intensity", "riskneutral", None, None),
    ("riskneutral", "validate", "riskneutral", None, None),
    ("cli", "main", "cli", None, None),
    ("cli", "build_figure", "cli", None, None),
]

BLOCK_BYTES_PER_PATH = 4 * 8   # counts, ends, sums, payoff: one word each
BYTES_PER_JUMP = 2 * 8         # the jump array and its cumulative sum


def _layer(group: str) -> str:
    return group.split(".", 1)[0]


class Tracer:
    """Span recorder and work counters for one process."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple] = []
        self._mc_depth = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> "Tracer":
        import ctrwpricer.cli  # noqa: F401  (loads every layer module)

        modules = [m for name, m in sys.modules.items()
                   if name.startswith("ctrwpricer.") and m is not None]
        for mod_name, fn_name, group, pre, post in ENTRY_POINTS:
            home = sys.modules[f"ctrwpricer.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", group,
                                 getattr(self, pre) if pre else None,
                                 getattr(self, post) if post else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _wrap(self, fn, name, group, pre, post, callback=False):
        tracer = self
        layer = _layer(group)
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        is_mc = layer == "montecarlo"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            outer_layer = parent is None or parent[1] != layer
            outer_group = parent is None or parent[2] != group
            if pre is not None:
                args = pre(outer_group, args)
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent[3] if parent else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [name_id, layer, group, idx, 0.0]
            stack.append(frame)
            if is_mc:
                tracer._mc_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._count_error(group, outer_layer, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if is_mc:
                    tracer._mc_depth -= 1
                duration = end - start
                tracer.self_time[group] += duration - frame[4]
                if parent is not None:
                    parent[4] += duration
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
                if outer_layer and not callback:
                    tracer.counts[f"{layer}.calls"] += 1
                if outer_group and group != layer:
                    tracer.counts[f"{group}.calls"] += 1
            if post is not None:
                result = post(args, result)
            return result

        return wrapper

    def _count_error(self, group, outer_layer, exc) -> None:
        if group == "blackscholes.iv" and isinstance(exc, OutOfBandError):
            self.counts["blackscholes.iv_out_of_band"] += 1
        if outer_layer and group.startswith("numerics") and isinstance(exc, AccuracyError):
            self.counts["numerics.accuracy_errors"] += 1
        if outer_layer and group == "montecarlo" and isinstance(exc, MemoryError):
            self.counts["montecarlo.memory_errors"] += 1

    # ------------------------------------------------------------------
    # counting hooks: callables passed across a boundary are wrapped so
    # the nodes they are evaluated at are counted
    # ------------------------------------------------------------------

    def _counting(self, fn, key):
        counts = self.counts

        def counted(x, *rest):
            counts[key] += getattr(x, "size", 1)
            return fn(x, *rest)

        return counted

    def count_talbot(self, outer, args):
        if not outer:
            return args  # the outer inversion call already wraps the handle
        f = args[0]
        if isinstance(f, LaplaceFn):
            f = LaplaceFn(self._counting(f.handle, "numerics.talbot_nodes"), f.abscissa)
        else:
            f = self._counting(f, "numerics.talbot_nodes")
        return (f, *args[1:])

    def count_semi_inf(self, outer, args):
        return (self._counting(args[0], "numerics.semi_inf_evals"), *args[1:])

    def count_real_line(self, outer, args):
        return (self._counting(args[0], "numerics.real_line_nodes"), *args[1:])

    def count_beta_pm(self, outer, args):
        self.counts["european.beta_pm_nodes"] += getattr(args[1], "size", 1)
        return args

    def count_char_fn(self, outer, args):
        self.counts["densities.char_fn_nodes"] += getattr(args[1], "size", 1)
        return args

    def count_sample(self, args, result):
        self.counts["densities.sample_draws"] += result.size
        if self._mc_depth:
            self.counts["montecarlo.jumps"] += result.size
        return result

    def count_paths(self, outer, args):
        if outer:
            config = args[-1]
            self.counts["montecarlo.paths"] += config.paths
            self.counts["montecarlo.blocks"] += math.ceil(config.paths / BLOCK)
        return args

    def count_payoff(self, args, payoff):
        """Give the payoff a transform that is spanned and counted."""
        transform = self._wrap(self._counting(payoff.transform, "fourier.payoff_nodes"),
                               "fourier.payoff.transform", "fourier", None, None,
                               callback=True)
        return dataclasses.replace(payoff, transform=transform)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counts and self times so far, as plain dicts."""
        return {"counts": dict(self.counts), "self_time": dict(self.self_time)}

    def write_spans(self, path) -> int:
        """Write every recorded span as CSV; returns the number written."""
        with open(path, "w") as fh:
            fh.write("span,name,parent,op,start,end\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.span_parent[i]},"
                         f"{self.span_op[i]},{self.span_start[i]!r},{self.span_end[i]!r}\n")
        return len(self.span_start)


def layer_metrics(counts: dict, self_time: dict, passes: float,
                  import_s: float, modules_loaded: int) -> dict:
    """Per-layer metric values from pass-0 counts and per-pass self times.

    ``counts`` must come from exactly one pass, so they repeat exactly for
    a seed; ``self_time`` is divided by ``passes`` (the passes it covers).
    """
    c = defaultdict(int, counts)
    t = defaultdict(float, {k: v / passes for k, v in self_time.items()})

    def layer_s(layer):
        return sum(v for k, v in t.items() if _layer(k) == layer)

    prices = c["fourier.price.calls"]
    return {
        "cli.import_s": import_s,
        "cli.modules_loaded": modules_loaded,
        "cli.dispatch_s": t["cli"],
        "numerics.talbot_calls": c["numerics.talbot.calls"],
        "numerics.talbot_nodes": c["numerics.talbot_nodes"],
        "numerics.talbot_s": t["numerics.talbot"],
        "numerics.semi_inf_calls": c["numerics.semi_inf.calls"],
        "numerics.semi_inf_evals": c["numerics.semi_inf_evals"],
        "numerics.semi_inf_s": t["numerics.semi_inf"],
        "numerics.real_line_calls": c["numerics.real_line.calls"],
        "numerics.real_line_nodes": c["numerics.real_line_nodes"],
        "numerics.real_line_s": t["numerics.real_line"],
        "numerics.accuracy_errors": c["numerics.accuracy_errors"],
        "european.calls": c["european.calls"],
        "european.s": layer_s("european"),
        "european.beta_pm_nodes": c["european.beta_pm_nodes"],
        "american.calls": c["american.calls"],
        "american.s": layer_s("american"),
        "fourier.calls": c["fourier.calls"],
        "fourier.s": layer_s("fourier"),
        "fourier.payoff_nodes": c["fourier.payoff_nodes"],
        "fourier.nodes_per_price": c["fourier.payoff_nodes"] / prices if prices else 0.0,
        "densities.char_fn_nodes": c["densities.char_fn_nodes"],
        "densities.char_fn_s": t["densities.char_fn"],
        "densities.sample_draws": c["densities.sample_draws"],
        "densities.sample_s": t["densities.sample"],
        "montecarlo.paths": c["montecarlo.paths"],
        "montecarlo.blocks": c["montecarlo.blocks"],
        "montecarlo.jumps": c["montecarlo.jumps"],
        "montecarlo.s": layer_s("montecarlo"),
        "montecarlo.bytes_computed": _mc_bytes(c),
        "montecarlo.memory_errors": c["montecarlo.memory_errors"],
        "blackscholes.iv_calls": c["blackscholes.iv.calls"],
        "blackscholes.iv_s": t["blackscholes.iv"],
        "blackscholes.iv_out_of_band": c["blackscholes.iv_out_of_band"],
        "riskneutral.calls": c["riskneutral.calls"],
        "riskneutral.s": layer_s("riskneutral"),
    }


def _mc_bytes(c) -> int:
    return (c["montecarlo.blocks"] * BLOCK * BLOCK_BYTES_PER_PATH
            + c["montecarlo.jumps"] * BYTES_PER_JUMP)


def merge(into: dict, part: dict) -> None:
    """Add one snapshot's counts and self times into another."""
    for key in ("counts", "self_time"):
        target = into.setdefault(key, {})
        for k, v in part.get(key, {}).items():
            target[k] = target.get(k, 0) + v
