"""The CLI contract as a property over the command table.

For argv drawn per command of ``cli.commands()``, one token strategy per
argument kind, mixing valid, boundary and malformed tokens:

- ``cli.main`` returns 0 or 2, and 1 only for ``verify``, ``suite`` or
  ``mellin`` with a failing verdict on stdout;
- no exception escapes it;
- each call ends within ``BUDGET_S`` seconds.

The examples are derandomized, so the module runs the same argv every time.
"""

import contextlib
import io
import json
import re
import signal
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adelic import cli
from adelic.verifier import REGISTRY

# per call; in 40,000 random draws on a 2-vCPU Xeon the slowest call took 0.6 s
BUDGET_S = 3.0

BOUNDARY = (
    "0", "inf", "-inf", "nan", "1e308", "-1e308", "1e-308",
    str(2**61 - 1), str(2**64 + 13), "1" + "0" * 400, "1/1" + "0" * 400,
    # 14,112 bits, past factorize's cofactor cost guard: rho took 8 s to its cap
    str((2**4423 - 1) * (2**9689 - 1)),
)
MALFORMED = ("", " ", "x", "-x", "-", "--", "1/0", "0/0", "1/2/3", "2^3", "0x1f", "1.5.2", "3i", "+-1")


def _tokens(*valid: str) -> st.SearchStrategy[str]:
    return st.sampled_from(valid + BOUNDARY + MALFORMED)


RATIONALS = _tokens("7/8", "-22/7", "3", "-1", "12", "1/2", "6", "-10/7", "3/4", "2/5")
PLACES = _tokens("2", "3", "5", "7", "47", "53", "inf", "INF", "oo", "1", "4", "-3")
COMPLEXES = _tokens(
    "2", "0.5", "1", "-2", "2.5+0.5i", "0.3+0.2i", "1.7-0.4i", "-1.3+7.5i", "0.25+1.5i", "3-265.7i",
    "700", "-1e10", "1e400", "0.5+1e300i", "0+1.6319336184381306i",
)
INTS = _tokens("1", "3", "-1", "7", "20")
FLOATS = _tokens("2", "2.5", "1", "-1", "1.000001", "95", "1e-30")
FAMILIES = st.sampled_from(REGISTRY.names() + ("no-such-family",) + MALFORMED)
PLACE_LISTS = st.lists(PLACES, min_size=1, max_size=3).map(",".join)

# the arguments parsed by their handlers: the kind by name, a rational otherwise
_UNTYPED = {"prime": PLACES, "--place": PLACES, "family": FAMILIES, "--places": PLACE_LISTS}
_KINDS = {
    cli.RATIONAL.parse: RATIONALS,
    cli.PLACE.parse: PLACES,
    cli.FRAC_PRIME.parse: PLACES,
    cli.COMPLEX.parse: COMPLEXES,
    cli.ADELIC_OR_PLACE.parse: PLACES | st.sampled_from(("adelic", "a", "ADELIC")),
}


def _strategy(name: str, spec) -> st.SearchStrategy:
    if isinstance(spec, cli.Kind):
        return _KINDS[spec.parse]
    if "choices" in spec:
        return st.sampled_from(tuple(spec["choices"]) + MALFORMED)
    if "type" in spec:
        return INTS if spec["type"] is int else FLOATS
    if spec.get("nargs") == "*":
        return st.lists(RATIONALS | COMPLEXES, max_size=4)
    return _UNTYPED.get(name, RATIONALS)


@st.composite
def argvs(draw) -> list[str]:
    cmd = draw(st.sampled_from(cli.commands()))
    argv, options = [cmd.name], []
    for name, spec in cmd.args:
        token = draw(_strategy(name, spec))
        nargs = (spec.options if isinstance(spec, cli.Kind) else spec).get("nargs")
        if name.startswith("--"):
            if draw(st.booleans()):
                options += [name, token]
        elif nargs == "*":
            argv += token
        elif nargs != "?" or draw(st.booleans()):
            argv.append(token)
    if draw(st.booleans()):
        options.append("--json")
    if draw(st.integers(0, 7)) == 0:  # one positional short
        argv.pop()
    return argv + options


class _OverBudget(BaseException):
    pass


@contextlib.contextmanager
def _budget(seconds: float):
    def expire(signum, frame):
        raise _OverBudget

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _failing_verdict(argv: list[str], stdout: str) -> bool:
    command = argv[0]
    if "--json" in argv:
        payload = json.loads(stdout)
        if command == "verify":
            return payload["verdict"] == "Fail"
        if command == "suite":
            return payload["all_passed"] is False
        residual = payload["residual"]
    elif command == "verify":
        return stdout.startswith("FAIL: ")
    elif command == "suite":
        return "\n  FAIL #" in stdout
    else:
        # shown to 4 digits; a residual that rounds down onto tol still fails
        residual = float(re.search(r"residual (\S+)\n$", stdout).group(1)) * (1 + 1e-3)
    return not residual <= cli.build_parser(argv).parse_args(argv).tol


def check(argv: list[str]) -> None:
    """Run argv through cli.main and assert the contract."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with _budget(BUDGET_S), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except _OverBudget:
        code = None
    elapsed = time.perf_counter() - start
    assert code is not None and elapsed <= BUDGET_S, f"{argv} ran {elapsed:.2f} s"
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert argv[0] in ("verify", "suite", "mellin") and _failing_verdict(argv, out.getvalue()), argv
    if code == 2:
        assert err.getvalue().strip() and not out.getvalue(), argv


@settings(
    max_examples=500, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
# a product of two large primes, where rho runs to its step cap: ~8 s at 1128
# bits before the cap shrank with the bit length
@example(["verify", "norm-product", str((2**521 - 1) * (2**607 - 1))])
def test_every_argv_keeps_the_contract(argv):
    check(argv)
