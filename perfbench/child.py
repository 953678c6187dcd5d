"""One measured CLI run, in a fresh process.

Usage: python3 perfbench/child.py WORKLOAD SEED CONFIG OUT RESULT TRACE

Imports oscrenorm from ./src, loads the generated config through
``cli.load_config`` and runs the workload's ``cli.cmd_*`` entry point,
which writes OUT. Writes its timings, peak memory and (with TRACE = 1)
the per-layer metrics to RESULT as JSON.

The speed of a shared host drifts by tens of percent within seconds and
within minutes, so the child measures it while the program runs: a
``SpeedSampler`` times a short fixed loop (``calibrate``) every
``SAMPLE_INTERVAL_S`` from a SIGALRM handler. ``setup_s`` and ``run_s``
are the program's own time in a phase (the loops taken out) times
``CAL_REF_S`` over the mean loop time in that phase: the time the phase
would take at the speed at which the loop takes ``CAL_REF_S``. The
unscaled times are kept as ``setup_wall_s`` and ``run_wall_s``.
"""

import signal
import time

#: Calibration loop time, in seconds, that defines the reference speed.
CAL_REF_S = 0.0025

#: Iterations of the calibration loop; about CAL_REF_S on the 2-vCPU Xeon
#: virtual machine of the baseline in README.md.
CAL_ITERATIONS = 10_000

#: Wall time between the end of one calibration loop and the next.
SAMPLE_INTERVAL_S = 0.05


def calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Wall seconds of a fixed loop of interpreter work: float arithmetic,
    integer arithmetic and dict stores, like the program's own Python code.
    It allocates no container, so the garbage collector never runs in it."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(iterations):
        x = (i % 97) * 0.01
        acc += x * x - acc * 1e-3
        table[i & 255] = acc
    return time.perf_counter() - t0


class SpeedSampler:
    """Calibration loops taken at intervals while the program runs.

    ``clock()`` is ``time.perf_counter()`` without the time spent in the
    loops, so the program's own time excludes them. ``mark()`` and
    ``scaled(start, end)`` give a phase's own and rescaled time."""

    def __init__(self):
        self.spent = 0.0
        self.samples = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        took = calibrate()
        self.samples.append(took)
        self.spent += took
        # Re-armed only here, so that loops never overlap.
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no loop ran in between
                return now - spent

    def mark(self) -> tuple:
        return self.clock(), len(self.samples)

    def scaled(self, start: tuple, end: tuple) -> tuple:
        """(own seconds, rescaled seconds) between two marks."""
        own = end[0] - start[0]
        # A phase shorter than the interval uses the last earlier loop.
        samples = self.samples[start[1]:end[1]] or self.samples[:end[1]][-1:]
        if not samples:
            samples = [calibrate()]
        return own, own * CAL_REF_S * len(samples) / sum(samples)


_SAMPLER = SpeedSampler()
if __name__ == "__main__":
    _SAMPLER.start()
_T0 = _SAMPLER.mark()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    workload, seed, config_path, out_path, result_path, trace = argv
    seed, trace = int(seed), trace == "1"

    import oscrenorm
    import oscrenorm.cli as cli

    import_s = _SAMPLER.clock() - _T0[0]
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(oscrenorm.__file__).startswith(src + os.sep):
        raise SystemExit(f"oscrenorm imported from {oscrenorm.__file__}, not {src}")

    def load():
        return None if workload == "verify-all" else cli.load_config(config_path)

    def run(config):
        if workload == "verify-all":
            with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
                return cli.cmd_verify("all", seed, stream=handle)
        if workload == "wtilde-4d":
            return cli.cmd_wtilde(config, out_path)
        return cli.cmd_flow(config, seed, out_path)

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(clock=_SAMPLER.clock)
        tracing.install(tracer)
        load = tracer.wrap("cli.load_config", load)

    config = load()
    t1 = _SAMPLER.mark()
    if tracer is None:
        rc = run(config)
    else:
        cmd_span = len(tracer.names)
        rc = tracer.wrap("cli.cmd", run)(config)
    t2 = _SAMPLER.mark()
    _SAMPLER.stop()

    setup_wall_s, setup_s = _SAMPLER.scaled(_T0, t1)
    run_wall_s, run_s = _SAMPLER.scaled(t1, t2)
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "run_s": run_s,
        "setup_wall_s": setup_wall_s,
        "run_wall_s": run_wall_s,
        "cal_samples": len(_SAMPLER.samples),
        "cal_spent_s": _SAMPLER.spent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(import_s, cmd_span)
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
