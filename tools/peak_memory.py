"""Peak memory of each dualfrac subcommand on the bundled demo problem.

Usage::

    python3 tools/peak_memory.py [--grid N] [SUBCOMMAND ...]

Each subcommand (default: all seven) runs with its default options on the
demo at ``--grid N`` (default 96), twice, each time in a fresh interpreter
that imports ``dualfrac`` from this checkout's ``src/``: once plain, for
the peak resident set size (``ru_maxrss``), and once under tracemalloc,
started before the import, so that its peak covers the whole process,
imports and plan build included.  tracemalloc's own bookkeeping would
inflate the resident peak, hence the two runs.  ``FRAC_THREADS`` is 1 and
every BLAS/OpenMP pool is pinned to one thread.  One line per subcommand
gives the exit code, the resident peak in MB and the tracemalloc peak in
n^3 float64 arrays (8 n^3 bytes each).  Uses only the standard library
and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from dualfrac.cli import SUBCOMMANDS  # noqa: E402

# Runs in the child interpreter: argv[1] is "1" to trace, argv[2] the src/
# directory, argv[3:] the CLI arguments; prints one JSON object.
CHILD = """
import sys, tracemalloc
if sys.argv[1] == "1":
    tracemalloc.start()
import json, resource
sys.path.insert(0, sys.argv[2])
import dualfrac.cli as cli
code = cli.run_command(sys.argv[3:])
peak = tracemalloc.get_traced_memory()[1]
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"exit": code, "traced_peak_bytes": peak, "maxrss_kb": rss_kb}))
"""


def run_child(traced: bool, subcommand: str, grid: int, out_dir: Path) -> dict:
    """Run one subcommand in a fresh interpreter and return what it printed."""
    env = dict(os.environ, FRAC_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [subcommand, "--config", "demo", "--grid", str(grid), "--out", str(out_dir)]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "1" if traced else "0", str(ROOT / "src"), *argv],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0 and not proc.stdout.strip():
        raise SystemExit(f"{subcommand}: interpreter exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(subcommand: str, grid: int, out_dir: Path) -> dict:
    """Exit code and resident peak of a plain run, and the tracemalloc peak of a traced one."""
    plain = run_child(False, subcommand, grid, out_dir)
    traced = run_child(True, subcommand, grid, out_dir)
    return dict(plain, exit=max(plain["exit"], traced["exit"]), traced_peak_bytes=traced["traced_peak_bytes"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid", type=int, default=96, help="points per axis (default 96)")
    parser.add_argument("subcommands", nargs="*", metavar="SUBCOMMAND", help="default: all seven")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.subcommands) - set(SUBCOMMANDS))
    if unknown:
        parser.error(f"unknown subcommands {unknown}; choose from {list(SUBCOMMANDS)}")
    array_bytes = 8 * args.grid**3
    failed = False
    print(f"{'subcommand':<14} {'exit':>4} {'maxrss_MB':>10} {'peak_arrays':>12}")
    with tempfile.TemporaryDirectory() as tmp:
        for sub in args.subcommands or SUBCOMMANDS:
            r = measure(sub, args.grid, Path(tmp) / sub)
            failed |= r["exit"] != 0
            print(f"{sub:<14} {r['exit']:>4} {r['maxrss_kb'] / 1024:>10.2f} {r['traced_peak_bytes'] / array_bytes:>12.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
