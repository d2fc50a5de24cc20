"""Hostile numeric input to every pricing command ends in exit 0, 2 or 3,
never in a traceback or a warning, and a success prints only finite
numbers.

Each command draws each of its flags a third of the time: a numeric flag
from a fixed set of hostile and ordinary values, a choice flag from its
choices.  Runs are in process through ``main``, derandomized, so the same
examples run every time.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import given, settings, strategies as st

from ctrwpricer.cli import main
from ctrwpricer.densities import Family
from ctrwpricer.european import OptionStyle, PayoffKind, PriceMethod

VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "1e-8", "0.5", "2", "9", "100")
MARKET = {flag: VALUES for flag in ("--a", "--b", "--rho", "--gamma", "--mu1", "--mu2",
                                    "--rate", "--sigma", "--lambda-override")}
MARKET["--density"] = tuple(f.value for f in Family)
CONTRACT = {flag: VALUES for flag in ("--T", "--spot", "--strike", "--L")}
CONTRACT["--contract"] = tuple(k.value for k in PayoffKind)
CONTRACT["--style"] = tuple(s.value for s in OptionStyle)

# an admissible market the drawn flags override, so that not every run
# stops at the first missing flag
BASE = ("--rho=2", "--sigma=0.1")
# command: (flags given first, flags drawn with the values each may take)
COMMANDS = {
    "price": (BASE, {**MARKET, **CONTRACT, "--tol": VALUES,
                     "--method": tuple(m.value for m in PriceMethod)}),
    "mc": ((*BASE, "--paths=1000"), {**MARKET, **CONTRACT}),
    "iv": (BASE, {**MARKET, "--T": VALUES, "--strike": VALUES, "--smin": VALUES,
                  "--smax": VALUES}),
    "validate": (BASE, MARKET),
    "calibrate-lambda": (BASE, MARKET),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    fixed, flags = COMMANDS[command]
    argv = [command, *fixed]
    for flag, values in flags.items():
        if draw(st.sampled_from((False, False, True))):
            # --flag=value, so argparse reads -inf and -1 as values
            argv.append(f"{flag}={draw(st.sampled_from(values))}")
    return argv


def run_quietly(argv):
    """main(argv)'s exit code, stdout and the warnings it raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), [str(w.message) for w in caught]


def strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, as strict parsers do."""
    def refuse(name):
        raise ValueError(f"non-finite JSON number {name}")
    return json.loads(text, parse_constant=refuse)


def finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def finite_csv(text: str) -> bool:
    """Whether an iv CSV's cells below its header are empty or finite floats."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return bool(rows) and all(c == "" or math.isfinite(float(c)) for row in rows for c in row)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(command_lines())
def test_hostile_flags_end_in_a_clean_exit(argv):
    code, out, caught = run_quietly(argv)
    assert code in (0, 2, 3), argv
    assert not caught, (argv, caught)
    if code == 0:
        if argv[0] == "iv":
            assert finite_csv(out), (argv, out)
        else:
            assert finite_numbers(strict_json(out)), (argv, out)
