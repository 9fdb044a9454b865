"""Benchmark launcher: pins the environment, builds references, measures.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

BLAS and OpenMP are pinned to one thread (the models are 2x128 LSTMs,
far too small for threaded GEMV to pay, and threads would contend with
the shard workers on small hosts) and string hashing is fixed, so every
process of every run sees the same environment.  The all-DES reference
of the workload is built first, in its own process, so its memory and
time stay out of the measured run; then the measured run prints the
result, whose last line is the JSON summary.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent / "bench.py"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run(args: list[str], timeout_s: float) -> int:
    """Run ``bench.py`` in its own session; kill the session on timeout."""
    env = {**os.environ, **PINNED}
    process = subprocess.Popen(
        [sys.executable, str(BENCH), *args], env=env, start_new_session=True
    )
    try:
        return process.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print(f"benchmark timed out after {timeout_s} s", file=sys.stderr)
        return 124


def main(argv: list[str]) -> int:
    if "--help" in argv or "-h" in argv:
        return run(argv, RUN_TIMEOUT_S)
    code = run([*argv, "--build-references"], BUILD_TIMEOUT_S)
    if code != 0:
        return code
    return run(argv, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
