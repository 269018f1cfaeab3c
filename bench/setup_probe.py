"""Set-up time of one entfarm CLI op in a fresh process.

Usage: python3 bench/setup_probe.py CLI_ARGS...

Prints the seconds from just before `import entfarm` to the return of the
op's first `dynamics.propagator_for` call (imports, argument parsing, config
resolution and the first propagator), then stops the op there.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


class FirstPropagator(BaseException):
    """Stops the op once set-up is done.

    A BaseException so that no numerical-error handler in the CLI swallows it.
    """


def main() -> int:
    from entfarm import cli, dynamics

    original = dynamics.propagator_for

    def first_propagator(config):
        original(config)
        raise FirstPropagator(time.perf_counter() - T0)

    dynamics.propagator_for = first_propagator
    try:
        code = cli.main(sys.argv[1:])
    except FirstPropagator as done:
        print(repr(done.args[0]))
        return 0
    print(f"error: the op exited with {code} before building a propagator", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
