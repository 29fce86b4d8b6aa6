"""The benchmark's workloads: seeded inputs, the call each input makes, and
the known answer it is checked against.

Nothing here imports the library at module level: ``setup`` does, so that
a worker can time it.  Inputs depend only on the workload name and
the seed (``random.Random`` seeded with a string hashes it with SHA-512, so
the sequence does not depend on interpreter hash randomisation).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens"

#: seed whose outputs are pinned byte for byte by the golden digests
DEFAULT_SEED = 42

MELLIN_TOL = 1e-8


@dataclass(frozen=True)
class Entry:
    """One operation: what to call, with what, and which answers are right."""

    kind: str
    args: tuple
    expect: tuple[str, ...]


@dataclass(frozen=True)
class Raised:
    """An operation that ended in an exception instead of a result."""

    exc: BaseException


def digest(text: str) -> str:
    """Short SHA-256 digest used for golden comparisons."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Lib:
    """The imported library plus the registry a workload verifies with."""

    def __init__(self, planted: bool) -> None:
        import adelic
        from adelic import dynamics, local, rational, special, symbols, verifier

        self.adelic = adelic
        self.dynamics = dynamics
        self.local = local
        self.rational = rational
        self.special = special
        self.symbols = symbols
        self.verifier = verifier
        self.registry = verifier.default_registry()
        if planted:
            register_planted(self)


def _nonunit_rational(rng: random.Random, height: int) -> Fraction:
    # a nonzero rational with at least one prime in its support
    while True:
        num = rng.randint(-height, height)
        den = rng.randint(1, height)
        if num and abs(num) * den != math.gcd(num, den) ** 2:
            return Fraction(num, den)


def register_planted(lib: Lib) -> None:
    """Two false families whose only right verdict is Fail.

    ``planted-drop-prime`` is the norm product with the largest support prime
    left out of its place set; ``planted-sign-flip`` is the Hilbert product
    with the sign at the archimedean place flipped.  Both go through the
    public ProductFamily / Registry.register API and resolve the library's
    functions at call time, so a traced run sees their calls too.
    """
    local, symbols = lib.local, lib.symbols
    ExactFactor = symbols.ExactFactor
    norm = lib.registry.family("norm-product")
    hilbert = lib.registry.family("hilbert-product")

    def drop_largest(args):
        places = local.places_for(args[0])
        return places[:-1]

    def flipped_sign(place, args):
        sign = symbols.hilbert_symbol(args[0], args[1], place)
        return ExactFactor.from_sign(-sign if place.is_infinite else sign)

    lib.registry.register(
        lib.verifier.ProductFamily(
            name="planted-drop-prime",
            usage="planted-drop-prime x   (x with nonempty support)",
            exact=True,
            parse=norm.parse,
            render=norm.render,
            sample=lambda rng, h: (_nonunit_rational(rng, h),),
            factor=lambda v, a: ExactFactor.from_magnitude(local.local_abs(a[0], v)),
            relevant_places=drop_largest,
        )
    )
    lib.registry.register(
        lib.verifier.ProductFamily(
            name="planted-sign-flip",
            usage="planted-sign-flip x y   (nonzero rationals)",
            exact=True,
            parse=hilbert.parse,
            render=hilbert.render,
            sample=hilbert.sample,
            factor=flipped_sign,
            relevant_places=hilbert.relevant_places,
        )
    )


class Workload:
    """Base: seeded inputs, one call per input, and a check of each answer."""

    name = ""
    #: per-operation deadline in seconds, enforced with an interval timer
    deadline: float | None = None
    #: operations in the fixed sequence a traced run measures
    trace_ops = 0

    def setup(self) -> Lib:
        raise NotImplementedError

    def inputs(self, lib: Lib, seed: int) -> list[Entry]:
        raise NotImplementedError

    def call(self, lib: Lib, entry: Entry):
        raise NotImplementedError

    def check(self, lib: Lib, entry: Entry, outcome) -> str | None:
        """None when the outcome is a right answer, else what was wrong."""
        raise NotImplementedError

    def render(self, entry: Entry, outcome) -> str:
        """Canonical text of an outcome, hashed for the golden digests."""
        raise NotImplementedError

    def goldens(self, seed: int) -> dict | None:
        """Golden digests by golden_key; only seed 42's outputs are pinned."""
        if seed != DEFAULT_SEED:
            return None
        digests = json.loads((GOLDENS / f"{self.name}.json").read_text())["digests"]
        return dict(enumerate(digests))

    def golden_key(self, index: int, entry: Entry):
        return index


def _verdict_error(entry: Entry, outcome) -> str | None:
    if isinstance(outcome, Raised):
        got = type(outcome.exc).__name__
    else:
        got = outcome.verdict
    if got in entry.expect:
        return None
    return f"{entry.kind}{entry.args}: expected {'|'.join(entry.expect)}, got {got}"


class _VerifyWorkload(Workload):
    """Shared call and render for workloads made of Registry.verify calls."""

    def call(self, lib: Lib, entry: Entry):
        return lib.registry.verify(entry.kind, entry.args)

    def check(self, lib: Lib, entry: Entry, outcome) -> str | None:
        return _verdict_error(entry, outcome)

    def render(self, entry: Entry, outcome) -> str:
        if isinstance(outcome, Raised):
            return f"raised {type(outcome.exc).__name__}: {outcome.exc}"
        return outcome.to_json()


class ExactSmall(_VerifyWorkload):
    name = "exact-small"
    trace_ops = 2100
    FAMILIES = (
        ("norm-product", "ExactPass"),
        ("character-product", "ExactPass"),
        ("lambda-product", "ExactPass"),
        ("hilbert-product", "ExactPass"),
        ("gauss-product", "ExactPass"),
        ("planted-drop-prime", "Fail"),
        ("planted-sign-flip", "Fail"),
    )
    HEIGHT = 10**6
    POOL = 8190

    def setup(self) -> Lib:
        lib = Lib(planted=True)
        # warm-up: one verification per family on fixed arguments
        for name, _ in self.FAMILIES:
            fam = lib.registry.family(name)
            lib.registry.verify(name, fam.sample(random.Random(0), 100))
        return lib

    def inputs(self, lib: Lib, seed: int) -> list[Entry]:
        rng = random.Random(f"{self.name}:{seed}")
        entries = []
        for i in range(self.POOL):
            name, verdict = self.FAMILIES[i % len(self.FAMILIES)]
            args = lib.registry.family(name).sample(rng, self.HEIGHT)
            entries.append(Entry(name, args, (verdict,)))
        return entries


# 2^61 - 1, a product of two 31-bit primes, and the least prime above 2^64
MERSENNE_61 = 2**61 - 1
SEMIPRIME_62 = 2147483647 * 2147483629
PRIME_ABOVE_64 = 2**64 + 13


class ExactLarge(_VerifyWorkload):
    name = "exact-large"
    deadline = 0.5
    trace_ops = 303
    HEIGHTS = (("kernel-product", 10**6), ("hilbert-product", 10**12), ("classify", 10**6))
    POOL = 3 + 2043

    @staticmethod
    def adversarial() -> list[Entry]:
        # The norm product of a prime is 1 exactly.  Above 2^64 the documented
        # answer is a DomainError from is_prime; ExactPass is also right, since
        # extending primality past 2^64 is an allowed fix.
        return [
            Entry("adversarial", (Fraction(MERSENNE_61),), ("ExactPass",)),
            Entry("adversarial", (Fraction(SEMIPRIME_62),), ("ExactPass",)),
            Entry("adversarial", (Fraction(PRIME_ABOVE_64),), ("DomainError", "ExactPass")),
        ]

    def setup(self) -> Lib:
        lib = Lib(planted=False)
        lib.registry.verify("kernel-product", (Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3, 5)))
        lib.registry.verify("hilbert-product", (Fraction(-1), Fraction(-1)))
        lib.dynamics.classify(lib.dynamics.MoebiusMap(2, 0, 1, Fraction(1, 2)))
        return lib

    def inputs(self, lib: Lib, seed: int) -> list[Entry]:
        rng = random.Random(f"{self.name}:{seed}")
        entries = self.adversarial()
        for i in range(self.POOL - len(entries)):
            kind, height = self.HEIGHTS[i % len(self.HEIGHTS)]
            if kind == "classify":
                f = lib.dynamics.random_map_with_rational_fixed_points(rng, height)
                entries.append(Entry(kind, (f,), ("classify",)))
            else:
                args = lib.registry.family(kind).sample(rng, height)
                entries.append(Entry(kind, args, ("ExactPass",)))
        return entries

    def call(self, lib: Lib, entry: Entry):
        if entry.kind == "classify":
            return lib.dynamics.classify(entry.args[0])
        if entry.kind == "adversarial":
            return lib.registry.verify("norm-product", entry.args)
        return lib.registry.verify(entry.kind, entry.args)

    def check(self, lib: Lib, entry: Entry, outcome) -> str | None:
        if entry.kind != "classify" or isinstance(outcome, Raised):
            return _verdict_error(entry, outcome)
        return check_classify(lib, entry.args[0], outcome)

    def render(self, entry: Entry, outcome) -> str:
        if entry.kind != "classify" or isinstance(outcome, Raised):
            return super().render(entry, outcome)
        rows = [
            (str(r.point), str(r.multiplier), [(str(v), label) for v, label in r.per_place],
             [str(v) for v in r.exceptional])
            for r in outcome.reports
        ]
        return repr((rows, str(outcome.irrational_discriminant)))


def _is_prime(n: int) -> bool:
    # Miller-Rabin with the first 12 prime bases: deterministic below 3.3e24
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _valuation(x: Fraction, p: int) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def check_classify(lib: Lib, f, report) -> str | None:
    """Check a classification without the library's factoring or labelling.

    Each point must be fixed, its multiplier the derivative there, each
    listed finite place a prime, each label the sign of |m|_v - 1, and the
    listed primes must account for all of |m| exactly (the product formula),
    so no place with |m|_p != 1 can be missing.
    """
    at_inf = lib.dynamics.AT_INFINITY
    if report.irrational_discriminant is not None or not report.reports:
        return f"{f}: expected rational fixed points"
    for r in report.reports:
        if r.point is at_inf:
            if f.c != 0 or r.multiplier != f.d / f.a:
                return f"{f}: wrong fixed point or multiplier at infinity"
        else:
            denom = f.c * r.point + f.d
            if denom == 0 or (f.a * r.point + f.b) / denom != r.point:
                return f"{f}: {r.point} is not fixed"
            if r.multiplier != 1 / denom**2:
                return f"{f}: multiplier {r.multiplier} is not the derivative at {r.point}"
        m = r.multiplier
        rebuilt = Fraction(1)
        labels = {}
        for place, label in r.per_place:
            if place.is_infinite:
                size = abs(m)
            else:
                p = place.prime
                if not _is_prime(p):
                    return f"{f}: listed place {p} is not prime"
                v = _valuation(m, p)
                rebuilt *= Fraction(p) ** v
                size = Fraction(p) ** (-v)
            want = "attractive" if size < 1 else "repelling" if size > 1 else "indifferent"
            if label != want:
                return f"{f}: label {label} at {place}, expected {want}"
            labels[place] = label
        if rebuilt != abs(m):
            return f"{f}: listed places miss part of the support of {m}"
        if set(r.exceptional) != {v for v, label in labels.items() if label != "indifferent"}:
            return f"{f}: exceptional set {r.exceptional} does not match the labels"
    return None


class Numeric(_VerifyWorkload):
    name = "numeric"
    trace_ops = 2048
    FAMILIES = ("gamma-product", "functional-equation", "beta-product")
    POOL = 1024
    #: every MELLIN_EVERY-th entry is a Mellin point, the grid once per pool
    MELLIN_EVERY = 32
    #: Im s is a nonzero multiple of IM_STEP, at most IM_LEVELS steps from the
    #: real axis.  The zeta term count grows with |Im s|, so the levels spread
    #: the latency distribution over about a factor of five.  There are fewer
    #: levels than the 64 entries of the library's series-coefficient cache,
    #: which setup fills, so no timed call recomputes the coefficients.
    IM_STEP = 2.5
    IM_LEVELS = 47

    def setup(self) -> Lib:
        lib = Lib(planted=False)
        lib.registry.verify("gamma-product", (2.5 + 0.5j,))
        lib.registry.verify("beta-product", (0.3 + 0.2j, 1.7 - 0.4j))
        lib.registry.verify("functional-equation", (2.5 + 0.5j,))
        for level in range(self.IM_LEVELS + 1):
            lib.special.riemann_zeta(complex(2.0, self.IM_STEP * level))
        # fills the prime-table and Moebius caches the Euler product uses
        lib.special.mellin_vacuum(2.0)
        return lib

    def sample(self, rng: random.Random, name: str) -> tuple:
        """Arguments of a numeric family.

        Real parts are uniform in [-4, 4] and Im s is never 0, so no point
        lies near a pole.  The beta-product arguments have imaginary parts of
        opposite sign and different size, so 1 - a - b is on the same levels.
        """
        def point(level: int, sign: int) -> complex:
            return complex(rng.uniform(-4.0, 4.0), sign * self.IM_STEP * level)

        if name != "beta-product":
            return (point(rng.randint(1, self.IM_LEVELS), rng.choice((1, -1))),)
        la, lb = rng.sample(range(1, self.IM_LEVELS + 1), 2)
        sign = rng.choice((1, -1))
        return (point(la, sign), point(lb, -sign))

    def inputs(self, lib: Lib, seed: int) -> list[Entry]:
        rng = random.Random(f"{self.name}:{seed}")
        grid_size = self.POOL // self.MELLIN_EVERY
        grid = [1 + 5 * k / grid_size for k in range(1, grid_size + 1)]
        rng.shuffle(grid)
        entries = []
        for i in range(self.POOL):
            if i % self.MELLIN_EVERY == self.MELLIN_EVERY - 1:
                entries.append(Entry("mellin", (grid.pop(),), ("mellin",)))
                continue
            name = self.FAMILIES[len(entries) % len(self.FAMILIES)]
            entries.append(Entry(name, self.sample(rng, name), ("NumericPass",)))
        return entries

    def call(self, lib: Lib, entry: Entry):
        if entry.kind == "mellin":
            return lib.special.mellin_vacuum(entry.args[0])
        return lib.registry.verify(entry.kind, entry.args)

    def check(self, lib: Lib, entry: Entry, outcome) -> str | None:
        if entry.kind != "mellin" or isinstance(outcome, Raised):
            return _verdict_error(entry, outcome)
        if not outcome.residual <= MELLIN_TOL:
            return f"mellin({entry.args[0]}): residual {outcome.residual} above {MELLIN_TOL}"
        return None

    def render(self, entry: Entry, outcome) -> str:
        if entry.kind != "mellin" or isinstance(outcome, Raised):
            return super().render(entry, outcome)
        return repr((outcome.numeric, outcome.closed, outcome.residual))

    @staticmethod
    def points(entry: Entry) -> list[complex]:
        """The sampled parameters of an entry, where zeta and gamma are checked."""
        return [complex(a) for a in entry.args]


def reference_errors(lib: Lib, entries: list[Entry], indices) -> dict[int, str]:
    """Compare riemann_zeta and complex_gamma against mpmath at every point.

    The error is relative where |value| > 1 and absolute otherwise; the
    tolerance is the library's stated ZetaEvaluator.target_precision.
    """
    import mpmath

    mpmath.mp.dps = 30
    tol = lib.special.ZetaEvaluator.target_precision
    seen: dict[complex, str | None] = {}
    errors = {}
    for index in indices:
        for s in Numeric.points(entries[index]):
            if s not in seen:
                seen[s] = None
                for label, ours, ref in (
                    ("riemann_zeta", lib.special.riemann_zeta, mpmath.zeta),
                    ("complex_gamma", lib.special.complex_gamma, mpmath.gamma),
                ):
                    want = complex(ref(mpmath.mpc(s.real, s.imag)))
                    got = ours(s)
                    err = abs(got - want) / max(1.0, abs(want))
                    if not err <= tol:
                        seen[s] = f"{label}({s}): error {err:.3e} above {tol:g}"
            if seen[s] is not None:
                errors[index] = seen[s]
    return errors


# The commands documented in README.md, run as `python -m adelic.cli ...`.
CLI_COMMANDS = (
    "verify norm-product 12",
    "verify gauss-product 3/4 2/5 --json",
    "verify functional-equation 2.5+0.5i --tol 1e-8",
    "suite lambda-product --trials 1000 --height 1000000 --seed 42",
    "dynamics classify 2 0 1 1/2 --json",
    "dynamics orbit 2 0 1 1/2 --x0 2 --fixed-point 0 --place 2 --steps 5",
    "norm 7/8 2",
    "digits 7/8 2 3",
    "char 7/8 inf",
    "lambda -1 2",
    "gauss 1 0 2",
    "kernel 0 0 0 1 inf",
    "gamma 2 2",
    "zeta 2",
    "mellin 2",
    "wavefn 1/2",
)


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's src and nothing else."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], timeout: float = 120.0) -> CliResult:
    """Run one child interpreter to completion and collect its own rusage.

    A child still running after the timeout is killed; its exit code is then
    negative, which every caller treats as a failure.
    """
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    stop = time.monotonic() + timeout
    killed = False
    # read both pipes as data arrives, so neither can fill up and stall the child
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = stop - time.monotonic()
            if left <= 0 and not killed:
                # os.kill, not proc.kill: Popen would reap the child and lose its rusage
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
            for key, _ in sel.select(max(left, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    # reap with wait4, which also returns the child's own peak RSS
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(
        proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), usage.ru_maxrss
    )


class CliCold(Workload):
    name = "cli-cold"
    trace_ops = len(CLI_COMMANDS)
    CYCLES = 32
    #: about the seconds one cycle of the commands takes
    CYCLE_S = 15.0

    def timed_count(self, seconds: float) -> int:
        """Invocations a timed run makes: whole cycles, at least two.

        Whole cycles time every command equally often, whatever the seed's
        order; a fixed count for given seconds keeps the tail percentile
        fixed.  A run therefore takes about as long as its cycles do, which
        may exceed the seconds asked for.
        """
        return len(CLI_COMMANDS) * max(2, round(seconds / self.CYCLE_S))

    def setup(self):
        # what each invocation pays before its command runs
        import adelic.cli

        with contextlib.redirect_stdout(io.StringIO()):
            adelic.cli.main(["verify", "norm-product", "12"])
        return None

    def inputs(self, lib, seed: int) -> list[Entry]:
        rng = random.Random(f"{self.name}:{seed}")
        entries = []
        for _ in range(self.CYCLES):
            order = list(CLI_COMMANDS)
            rng.shuffle(order)
            entries.extend(Entry("cli", tuple(cmd.split()), ("0",)) for cmd in order)
        return entries

    def call(self, lib, entry: Entry) -> CliResult:
        return run_child([sys.executable, "-m", "adelic.cli", *entry.args], timeout=30.0)

    def check(self, lib, entry: Entry, outcome) -> str | None:
        if isinstance(outcome, Raised):
            return f"{' '.join(entry.args)}: {outcome.exc!r}"
        if outcome.returncode != 0:
            return f"{' '.join(entry.args)}: exit code {outcome.returncode}"
        return None

    def render(self, entry: Entry, outcome) -> str:
        return outcome.stdout.decode()

    def goldens(self, seed: int) -> dict:
        # stdout does not depend on the seed, so every run compares it
        return json.loads((GOLDENS / f"{self.name}.json").read_text())["stdout"]

    def golden_key(self, index: int, entry: Entry):
        return " ".join(entry.args)


WORKLOADS = {w.name: w for w in (ExactSmall(), ExactLarge(), Numeric(), CliCold())}


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
