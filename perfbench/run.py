"""oscrenorm benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flow-1d --seed 0 --seconds 30 --trace 0

The run generates the workload's config from the seed, computes its
reference values, then starts fresh child processes one after another (a
closed loop with one client) until the measuring time is used up. Each
child runs one CLI command; see child.py. The children import oscrenorm
from ./src with BLAS and OpenMP pinned to one thread and a fixed hash seed.

A child fails when it exits non-zero, when its output is not byte-identical
to every other output of the same source tree, workload and seed (also
across runs, through a digest file under .perfbench_out/), or when the
output is malformed, reports a failed check, or is less accurate than the
workload's limit against the reference.

With --trace 0 the last line reports the end-to-end metrics, medians over
the children: setup_s, run_s, peak_rss_mb and max_rel_err. setup_s and
run_s are rescaled to a reference speed of the host, measured by a
calibration loop sampled while each child runs (see child.py). With --trace 1
children alternate between untraced and traced, and the last line reports
the per-layer metrics, medians over the traced children, with
trace.overhead_frac the traced over the untraced median run_s. Lines above
the last one describe the run for a reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import reference
import workloads
from tracing import PER_LAYER

STARTED = time.monotonic()

OUT_DIR = ".perfbench_out"

#: The whole run, children included, ends within this many seconds.
TIME_LIMIT = 170.0

#: Children run even when the measuring time is shorter.
MIN_CHILDREN = 3

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("max_rel_err", "ratio"),
)

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.join(root, "src"),
    )
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def source_digest(root: str) -> str:
    """Digest of the program's source tree, standing for its commit."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    h.update(handle.read() + b"\0")
    return h.hexdigest()


class OutputDigests:
    """Expected output digest per (source tree, workload, seed), kept on
    disk so that later runs compare against earlier ones."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, encoding="utf-8") as handle:
                self.known = json.load(handle)
        except (OSError, ValueError):
            self.known = {}

    def matches(self, key: str, digest: str) -> bool:
        if key not in self.known:
            self.known[key] = digest
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.known, handle, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        return self.known[key] == digest


def run_child(root, workdir, workload, seed, config_path, traced, timeout) -> dict:
    out_path = os.path.join(workdir, "output")
    result_path = os.path.join(workdir, "result.json")
    for path in (out_path, result_path):
        if os.path.exists(path):
            os.remove(path)
    argv = [
        sys.executable, CHILD, workload, str(seed), config_path or "-",
        out_path, result_path, "1" if traced else "0",
    ]
    log_path = os.path.join(workdir, "child.log")
    t0 = time.monotonic()
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                argv, cwd=root, env=child_env(root), stdout=log,
                stderr=subprocess.STDOUT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"traced": traced, "wall": time.monotonic() - t0,
                    "error": f"timed out after {timeout:.0f} s"}
    record = {"traced": traced, "wall": time.monotonic() - t0}
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-400:].strip().replace("\n", " | ")
        record["error"] = f"exit code {proc.returncode}: {tail}"
        return record
    with open(result_path, encoding="utf-8") as handle:
        record.update(json.load(handle))
    with open(out_path, "rb") as handle:
        record["output"] = handle.read()
    return record


def check(record, workload, ref, digests, key) -> None:
    """Mark the record failed unless its output is identical to the other
    outputs of this key and accurate against the reference."""
    if "error" in record:
        return
    output = record.pop("output")
    if not digests.matches(key, hashlib.sha256(output).hexdigest()):
        record["error"] = "output differs from earlier runs of the same code and seed"
        return
    try:
        record["max_rel_err"] = reference.max_rel_err(workload, output.decode(), ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        record["error"] = f"output rejected: {exc}"
        return
    layers = record.get("layers")
    # Self times partition the run exactly; allow for rounding of the sum.
    if layers is not None and layers["trace.self_sum_s"] > layers["trace.run_s"] * (1 + 1e-9):
        record["error"] = "per-layer self times exceed the traced run time"


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Run the workload's children one after another for ``seconds``."""
    workdir = os.path.join(root, OUT_DIR, f"{workload}-{seed}-trace{int(trace)}")
    os.makedirs(workdir, exist_ok=True)
    config_path = workloads.write_config(workload, seed, workdir)
    ref = reference.expected(workload, workloads.make_config(workload, seed))
    digests = OutputDigests(os.path.join(root, OUT_DIR, "digests.json"))
    key = f"{source_digest(root)}/{workload}/{seed}"

    def remaining():
        return TIME_LIMIT - (time.monotonic() - STARTED)

    # Fill the page cache and write bytecode before timing anything.
    subprocess.run(
        [sys.executable, "-c", "import oscrenorm.cli"], cwd=root,
        env=child_env(root), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=max(remaining(), 1.0), check=False,
    )
    records = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(records) >= MIN_CHILDREN * (1 + trace):
            estimate = statistics.median(r["wall"] for r in records)
            if elapsed + estimate > seconds:
                break
        if remaining() < 5.0:
            break
        traced = trace and len(records) % 2 == 1
        record = run_child(
            root, workdir, workload, seed, config_path, traced, remaining()
        )
        check(record, workload, ref, digests, key)
        records.append(record)
    return {"records": records, "elapsed": time.monotonic() - start}


def summarize(workload: str, trace: bool, measured: dict) -> tuple[dict, list]:
    """(metrics, lines for the reader)."""
    records = measured["records"]
    ok = [r for r in records if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    lines = [
        f"workload {workload}: {len(records)} children in "
        f"{measured['elapsed']:.1f} s, {len(records) - len(ok)} failed, "
        f"error_rate {(len(records) - len(ok)) / max(len(records), 1):.4f}"
    ]
    lines += [f"  failed: {r['error']}" for r in records if "error" in r]
    if not plain or (trace and not traced):
        return {}, lines
    metrics = {}
    if not trace:
        for name, unit in END_TO_END:
            values = [r[name] for r in plain]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(
                f"  {name:<12s} {statistics.median(values):.6g} {unit}  "
                f"(median of {len(values)}; min {min(values):.6g}, "
                f"max {max(values):.6g})"
            )
        for name in ("setup_wall_s", "run_wall_s"):
            values = [r[name] for r in plain]
            lines.append(
                f"  {name:<12s} {statistics.median(values):.6g} s  "
                f"(median of {len(values)}; not rescaled)"
            )
        share = statistics.median(
            r["cal_spent_s"] / (r["setup_wall_s"] + r["run_wall_s"]) for r in plain
        )
        lines.append(
            f"  calibration loops: median {statistics.median(r['cal_samples'] for r in plain)}"
            f" per child, {share:.3f} of the program's own time"
        )
        return metrics, lines
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_frac":
            value = statistics.median(r["run_s"] for r in traced) / statistics.median(
                r["run_s"] for r in plain
            )
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<36s} {value:.6g} {unit}")
    lines.append(
        f"  (medians of {len(traced)} traced children; overhead against "
        f"{len(plain)} untraced)"
    )
    lines.append(
        "  no per-layer wait metric: the program is one process with no queues"
    )
    missing = sorted({m for r in traced for m in r.get("missing", ())})
    if missing:
        lines.append(f"  not traced, absent from the program: {', '.join(missing)}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oscrenorm", "cli.py")):
        print("error: no src/oscrenorm here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = environment()
    measured = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    metrics, lines = summarize(args.workload, bool(args.trace), measured)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print("\n".join(lines))
    if not metrics:
        print("error: no successful child to report on", file=sys.stderr)
        return 1
    records = measured["records"]
    failed = sum("error" in r for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(root, OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(
        root, OUT_DIR, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            dict(result, environment=env, seconds=args.seconds, children=[
                {k: v for k, v in r.items() if k != "layers"} for r in records
            ]),
            handle, indent=1, sort_keys=True,
        )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
