"""Run one entfarm CLI op with every public package function traced.

Usage: python3 bench/traced_op.py TRACE_FILE OP_ID -- CLI_ARGS...

The op runs exactly as `python3 -m entfarm.cli CLI_ARGS...` would, inside a
root span named `cli.main`; its spans and counters go to TRACE_FILE when the
op ends, whatever its exit code.
"""

import sys

from tracer import Tracer


def main() -> int:
    trace_path, op_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: traced_op.py TRACE_FILE OP_ID -- CLI_ARGS...")
    import entfarm
    from entfarm import cli

    tracer = Tracer()
    tracer.install(entfarm)
    try:
        return tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        tracer.dump(trace_path, op_id)


if __name__ == "__main__":
    sys.exit(main())
