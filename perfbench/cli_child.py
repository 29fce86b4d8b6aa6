"""One traced CLI invocation: ``adelic.cli.main(argv)`` with spans recorded.

    python3 -X importtime perfbench/cli_child.py [--plain] <cli arguments>

Stdout is the command's own output.  After the command returns, the spans
are written to stderr as one line that starts with SPANS_PREFIX.  With
--plain the tracer is not installed and no spans are written: the same
program, untraced, as the baseline of the tracing overhead.
"""

import json
import sys

import tracer

SPANS_PREFIX = "perfbench-spans "
PLAIN = "--plain"


def main() -> int:
    import adelic.cli

    if sys.argv[1:2] == [PLAIN]:
        return adelic.cli.main(sys.argv[2:])
    t = tracer.Tracer()
    t.install()
    t.op_id = 0
    try:
        return adelic.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(SPANS_PREFIX + json.dumps(t.export()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
