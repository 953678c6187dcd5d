"""Print every end-to-end metric of every workload in one table.

Usage, from the root of a checkout:

    python3 perfbench/report.py --seed 0 --seconds 30

Runs run.py on each workload in turn and adds error_rate, the failed
children over the attempted ones. Exits non-zero if any run failed or
reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads
from run import END_TO_END

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    columns = list(END_TO_END) + [("error_rate", "ratio")]
    print(f"{'workload':<16s}" + "".join(f"{f'{n} ({u})':>22s}" for n, u in columns))
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:<16s} run failed: {proc.stderr.strip()[-300:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values["error_rate"] = result["failed"] / result["attempted"]
        status |= not result["correct"]
        print(f"{workload:<16s}" + "".join(f"{values[n]:>22.6g}" for n, _ in columns))
    return status


if __name__ == "__main__":
    sys.exit(main())
