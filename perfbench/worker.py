"""One measurement worker: a fresh interpreter that sets up and measures a share of a run.

    python3 perfbench/worker.py <workload> <seed> <seconds> <part> <parts>

It times its own set-up (import, registry, warm-up calls), generates the
seed's inputs and runs the closed loop for the given seconds, starting at
input part * len(inputs) // parts.  Reference-kernel bursts before and after
the set-up and between operations scale every time to the nominal machine
(calibrate.py).  It prints one JSON object with the set-up time, every
operation time, raw and scaled, and the checks' findings.  With seconds 0
it only sets up: a set-up probe, which run.py also starts under
``-X importtime`` for the import breakdown.
"""

import json
import sys
import time

import calibrate
import harness
import workloads

#: seconds of reference kernel just before and just after the set-up
SETUP_BURST_S = 0.04


def main() -> None:
    name, seed, seconds, part, parts = sys.argv[1:6]
    wl = workloads.WORKLOADS[name]
    cal = calibrate.Calibrator()
    cal.burst(SETUP_BURST_S)
    start = time.perf_counter()
    lib = wl.setup()
    end = time.perf_counter()
    cal.burst(SETUP_BURST_S)
    result = {"setup_s": cal.scale([(start, end)])[0], "setup_raw_s": end - start}
    if float(seconds) > 0:
        entries = wl.inputs(lib, int(seed))
        m = harness.measure(
            wl, lib, entries, seconds=float(seconds),
            start=int(part) * len(entries) // int(parts), goldens=wl.goldens(int(seed)),
            calibrator=cal,
        )
        result.update(
            peak_rss_kb=workloads.peak_rss_kb(),
            durations=m.durations,
            scaled=m.scaled,
            speed=cal.speed(),
            completed=m.completed,
            missed=[str(entries[i].args) for i in m.missed],
            errors=m.errors,
            attempts=sorted(m.attempts.items()),
            error_attempts=sorted(m.error_attempts.items()),
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
