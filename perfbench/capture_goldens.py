"""Capture the golden digests the benchmark compares against.

    python3 perfbench/capture_goldens.py

Run this only on the code whose output is to be pinned.  For each library
workload it records, for the first GOLDEN_COUNT inputs of seed 42, the
SHA-256 digest of the canonical output (VerificationReport.to_json() for a
verification); an input that misses its deadline gets null and is checked by
its known answer only.  For cli-cold it records the digest of the stdout of
each documented command.
"""

import json
import sys

import harness
import workloads

GOLDEN_COUNT = 2100


def main() -> None:
    sys.path.insert(0, str(workloads.SRC))
    workloads.GOLDENS.mkdir(exist_ok=True)
    for wl in workloads.WORKLOADS.values():
        if wl.name == "cli-cold":
            stdout = {}
            for command in workloads.CLI_COMMANDS:
                result = wl.call(None, workloads.Entry("cli", tuple(command.split()), ("0",)))
                if result.returncode != 0:
                    raise SystemExit(f"{command}: exit code {result.returncode}")
                stdout[command] = workloads.digest(wl.render(None, result))
            data = {"stdout": stdout}
        else:
            lib = wl.setup()
            entries = wl.inputs(lib, workloads.DEFAULT_SEED)[:GOLDEN_COUNT]
            digests = []
            for entry in entries:
                m = harness.measure(wl, lib, [entry], count=1, keep=True)
                if m.errors:
                    raise SystemExit(f"{wl.name}: {m.errors[0][1]}")
                digests.append(workloads.digest(wl.render(entry, m.outcomes[0])) if m.outcomes else None)
            data = {"seed": workloads.DEFAULT_SEED, "digests": digests}
        path = workloads.GOLDENS / f"{wl.name}.json"
        path.write_text(json.dumps(data, indent=0) + "\n")
        print(f"{path.name}: {len(data.get('digests', data.get('stdout')))} digests")


if __name__ == "__main__":
    main()
