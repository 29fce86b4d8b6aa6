"""Self-test of the benchmark's own checks: each must be able to fail.

    python3 perfbench/selftest.py

Runs in a few seconds and exits non-zero if a check does not catch what it
is there to catch:

- a deliberately broken exact family (lambda-product without the place 2)
  drives error_rate above 0 on exact-small inputs, where the real family
  scores 0;
- a riemann_zeta perturbed by 1% is caught by the mpmath reference on
  numeric inputs, even where the family's own verdict still passes;
- a wrong golden digest counts as an error;
- an operation that never returns is stopped by the deadline and counted as
  a miss, not as an error;
- the tail percentile keeps at least 10 samples beyond it;
- an operation made of ten reference-kernel calls is scaled to about ten
  times the kernel's nominal time, whatever the machine's speed.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import calibrate
import harness
import workloads

FAILURES = []


def expect(condition: bool, label: str) -> None:
    print(f"[{'PASS' if condition else 'FAIL'}] {label}")
    if not condition:
        FAILURES.append(label)


def broken_exact_family() -> None:
    wl = workloads.WORKLOADS["exact-small"]
    lib = wl.setup()
    entries = [e for e in wl.inputs(lib, 7) if e.kind == "lambda-product"][:100]
    clean = harness.measure(wl, lib, entries, count=len(entries))
    expect(not clean.errors, f"real lambda-product: 0 errors in {len(entries)}")

    places_for = lib.local.places_for
    good = lib.registry.family("lambda-product")
    broken = dataclasses.replace(
        good,
        relevant_places=lambda a: tuple(v for v in places_for(a[0], always=(2,)) if v.prime != 2),
    )
    registry = lib.verifier.Registry()
    for name in lib.registry.names():
        registry.register(broken if name == "lambda-product" else lib.registry.family(name))
    lib.registry = registry
    m = harness.measure(wl, lib, entries, count=len(entries))
    rate = len(m.errors) / len(m.durations)
    expect(rate > 0, f"broken lambda-product: error_rate {rate:.2f} > 0")


def perturbed_zeta() -> None:
    wl = workloads.WORKLOADS["numeric"]
    lib = wl.setup()
    entries = [e for e in wl.inputs(lib, 7) if e.kind != "mellin"][:60]
    indices = range(len(entries))
    expect(not workloads.reference_errors(lib, entries, indices),
           f"real riemann_zeta: 0 reference errors in {len(entries)} inputs")

    original = lib.special.riemann_zeta

    def perturbed(s):
        return original(s) * 1.01

    for module in [m for n, m in sys.modules.items() if n.startswith("adelic")]:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, perturbed)
    try:
        m = harness.measure(wl, lib, entries, count=len(entries))
        errors = workloads.reference_errors(lib, entries, indices)
    finally:
        for module in [m for n, m in sys.modules.items() if n.startswith("adelic")]:
            for name, value in list(vars(module).items()):
                if value is perturbed:
                    setattr(module, name, original)
    passed = len(entries) - len(m.errors)
    expect(len(errors) == len(entries),
           f"zeta off by 1%: {len(errors)} of {len(entries)} inputs fail the reference "
           f"({passed} verdicts still NumericPass)")


def golden_mismatch() -> None:
    wl = workloads.WORKLOADS["exact-small"]
    lib = wl.setup()
    entries = wl.inputs(lib, workloads.DEFAULT_SEED)[:7]
    goldens = wl.goldens(workloads.DEFAULT_SEED)
    clean = harness.measure(wl, lib, entries, count=7, goldens=goldens)
    expect(not clean.errors, "seed-42 outputs match their golden digests")
    wrong = {**goldens, 0: "0" * 16}
    m = harness.measure(wl, lib, entries, count=7, goldens=wrong)
    expect(len(m.errors) == 1, "a wrong golden digest counts as one error")


class _Hang(workloads.Workload):
    name = "hang"
    deadline = 0.05

    def call(self, lib, entry):
        while True:
            pass

    def check(self, lib, entry, outcome):
        return "a hung call returned"


def deadline() -> None:
    m = harness.measure(_Hang(), None, [workloads.Entry("hang", (), ())], count=2)
    expect(len(m.missed) == 2 and not m.errors and max(m.durations) < 1.0,
           f"hung calls stopped at the deadline: {len(m.missed)} misses, "
           f"{max(m.durations) * 1e3:.0f} ms each at most")


def tail_percentile() -> None:
    value, pct, beyond = harness.tail([float(i) for i in range(1000)])
    expect(value == 989.0 and beyond == 10, f"tail of 1000 samples is p{pct:.1f}, 10 beyond")
    value, pct, beyond = harness.tail([float(i) for i in range(25000)])
    expect(value == 24749.0 and pct == 99.0, f"tail of 25000 samples is capped at p{pct:.0f}")
    value, pct, beyond = harness.tail([float(i) for i in range(19)])
    expect(value == 9.0 and pct == 50.0, "tail of 19 samples falls back to the median")


class _TenKernels(workloads.Workload):
    name = "ten-kernels"

    def call(self, lib, entry):
        for _ in range(10):
            calibrate.kernel()

    def check(self, lib, entry, outcome):
        return None


def calibration() -> None:
    cal = calibrate.Calibrator()
    m = harness.measure(_TenKernels(), None, [workloads.Entry("ten", (), ())], count=200,
                        calibrator=cal)
    ratio = sum(m.scaled) / len(m.scaled) / (10 * calibrate.NOMINAL_S)
    expect(abs(ratio - 1) < 0.15,
           f"ten kernel calls scale to {ratio:.3f} x ten nominal kernel times "
           f"(machine speed {cal.speed():.2f})")


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    tail_percentile()
    calibration()
    deadline()
    golden_mismatch()
    broken_exact_family()
    perturbed_zeta()
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
