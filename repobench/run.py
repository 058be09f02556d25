#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 repobench/run.py --workload <t2mix_paella|t2mix_cudams|chain64> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `repobench` package (a
workspace of its own, with path dependencies on the crates under `crates/`)
in release mode into `$CARGO_TARGET_DIR`, or `repobench/target` when that is
unset, then runs it with the same arguments. Build output goes to standard
error; the benchmark's report goes to standard output, whose last line is the
result object. The exit code is the benchmark's, or 1 if the build fails or
the run overruns its time limit.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run measures for --seconds and then replays a traced prefix; this caps a
# run that hangs.
RUN_LIMIT_S = 170


def main() -> int:
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("repobench: build failed", file=sys.stderr)
        return 1
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    binary = target.resolve() / "release" / "repobench"
    try:
        return subprocess.run([str(binary), *sys.argv[1:]], timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"repobench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
