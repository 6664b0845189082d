"""Run one grafclifford CLI invocation with a span around every layer call.

Usage: python3 bench/traced_cli.py SPANS_PATH RUN_ID CLI_ARG...

The report goes to standard output exactly as the untraced CLI writes it;
the spans and counters are written to SPANS_PATH when the invocation ends.
"""

import sys

from spans import Tracer


def main() -> int:
    path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    from grafclifford import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
