"""Run one dualfrac CLI invocation in this fresh interpreter and record its cost.

Usage::

    python3 bench/operation.py RESULT_JSON TRACE OP_ID -- SUBCOMMAND [CLI ARGS...]

The package is imported from ``src/`` of the checkout this file sits in, and
``dualfrac.cli.run_command`` is called once, as the ``dualfrac`` script
does.  RESULT_JSON receives the exit code, the set-up time (interpreter
ready to handler entry: ``import dualfrac``, argument parsing, config load,
``ProblemSpec``/``Grid3`` construction), the time spent inside
``run_command``, the peak resident set size, and with TRACE=1 the spans.
Exit code 3 means the tracer could not wrap everything it must.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXIT_TRACE_INCOMPLETE = 3


def main(argv: list[str]) -> int:
    result_path, traced, op_id = Path(argv[0]), argv[1] == "1", int(argv[2])
    if argv[3] != "--":
        raise SystemExit("usage: operation.py RESULT_JSON TRACE OP_ID -- SUBCOMMAND [ARGS...]")
    cli_argv = argv[4:]
    sys.path.insert(0, str(ROOT / "src"))

    import dualfrac.cli as cli

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(op_id)
        tracer.install()
        missing = tracer.unwrapped()
        if missing:
            print("tracer left originals in place: " + ", ".join(missing), file=sys.stderr)
            return EXIT_TRACE_INCOMPLETE

    entered = []
    handler = cli._HANDLERS[cli_argv[0]]

    def mark_entry(*args, **kwargs):
        entered.append(time.perf_counter())
        return handler(*args, **kwargs)

    cli._HANDLERS[cli_argv[0]] = mark_entry
    call = time.perf_counter()
    code = cli.run_command(cli_argv)
    done = time.perf_counter()

    out = {
        "exit": code,
        "setup_s": entered[0] - START if entered else None,
        "op_s": done - call,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.finish()
        if out["trace"]["unwrapped"]:
            print("tracer left originals in place: " + ", ".join(out["trace"]["unwrapped"]),
                  file=sys.stderr)
            return EXIT_TRACE_INCOMPLETE
    result_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
