"""One cold benchmark process: import locsol, make inputs, run, report.

Usage: python3 bench/worker.py '<json spec>'.  The spec names the mode
("setup", "rep" or "probe"), the workload, the seed, the run directory,
whether to trace, and "spawned", the CLOCK_MONOTONIC reading taken just
before this process was started, so that setup time includes interpreter
start.  The result is one JSON line on standard output.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import shutil
import signal
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))


class Deadline(Exception):
    """The per-operation deadline of a frontier probe expired."""


class HostSpeed:
    """Samples how fast this host runs a fixed reference task.

    Other tenants of a shared machine slow it down by tens of percent for
    seconds at a time.  The task runs every PERIOD_S in a SIGALRM handler,
    in the same thread as the operations, so it is slowed down with them.
    rescale() turns a measured duration into seconds at the speed at which
    the task takes REFERENCE_S.  The task allocates no containers, so it
    cannot trigger a garbage collection of the workload's objects.
    """

    PERIOD_S = 0.05
    WINDOW_S = 0.5
    REFERENCE_S = 0.0005

    def __init__(self):
        self.times = array("d")
        self.spans = array("d")
        self.spent = 0.0
        self._table = {i: i * 7919 % 1009 for i in range(1009)}

    def _task(self) -> int:
        table, big, total = self._table, 1 << 70, 0
        for i in range(3000):
            total += table[i % 1009] * big // 12345
        return total

    def sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        self._task()
        took = time.perf_counter() - t
        self.times.append(t)
        self.spans.append(took)
        self.spent += took

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def rescale(self, seconds: float, start: float, end: float) -> float:
        """seconds, measured between start and end, at reference speed."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        near = self.spans[lo:hi] or self.spans
        return seconds * self.REFERENCE_S * len(near) / sum(near)


def _timed(speed: HostSpeed, call):
    """(kind, raw seconds, output, start, end) of one operation."""
    spent = speed.spent
    start = time.perf_counter()
    try:
        out, kind = call(), "ok"
    except Exception as exc:
        out, kind = None, exc
    end = time.perf_counter()
    return kind, end - start - (speed.spent - spent), out, start, end


def _failure_kind(exc: BaseException, locsol) -> str:
    if isinstance(exc, Deadline):
        return "timeout"
    if isinstance(exc, MemoryError):
        return "oom"
    if isinstance(exc, locsol.ResourceBound):
        return "refused"
    return "error"


def _verdict(v) -> dict:
    return {"status": v.status,
            "witness": None if v.witness is None else list(v.witness),
            "form": None if v.witness_form is None else list(v.witness_form),
            "level": v.certificate_level}


def _run_survey(locsol, inputs, tracer, speed):
    if tracer:
        tracer.current_op = 0
    return [_timed(speed, lambda: locsol.survey_box(
        inputs["n"], inputs["k"], inputs["height"], mode="sample",
        sample_count=inputs["draws"], seed=inputs["seed"]).soluble)]


def _run_intervals(locsol, inputs, tracer, speed):
    from checks import interval_digest

    def interval(n, k, cutoff):
        r = locsol.rho_loc_interval(n, k, cutoff)
        return interval_digest(r.lo, r.hi)

    ops = []
    for i, args in enumerate(inputs):
        if tracer:
            tracer.current_op = i
        ops.append(_timed(speed, lambda: interval(*args)))
    return ops


def _run_decisions(locsol, inputs, tracer, speed, store_dir: Path):
    """SESSIONS runs of `locsol decide --cache-dir` without process start."""
    from workloads import SESSIONS
    solubility, cache = locsol.solubility, locsol.cache
    store = cache.CacheStore(store_dir)
    per_session = len(inputs) // SESSIONS
    ops = []
    for s in range(SESSIONS):
        solubility.clear_caches()
        solubility.load_verdicts(cache.load_verdicts(store))
        for i in range(s * per_session, (s + 1) * per_session):
            entries, k, p = inputs[i]
            if tracer:
                tracer.current_op = i
            ops.append(_timed(speed, lambda: _verdict(locsol.decide_qp(
                locsol.CoefficientVector(entries, k), p, with_witness=True))))
        cache.save_verdicts(store, solubility.dump_verdicts())
    return ops


def _probe(locsol, spec) -> dict:
    def expire(signum, frame):
        raise Deadline()

    signal.signal(signal.SIGALRM, expire)
    vec = locsol.CoefficientVector(tuple(spec["entries"]), spec["k"])
    t = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, spec["deadline"])
    try:
        out, kind = _verdict(locsol.decide_qp(vec, spec["p"],
                                              with_witness=True)), "ok"
    except Exception as exc:
        out, kind = None, _failure_kind(exc, locsol)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"kind": kind, "latency_s": time.perf_counter() - t, "out": out}


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(BENCH.parent / "src"))
    import locsol
    import locsol.cache  # noqa: F401  (not imported by the package itself)
    from workloads import make_inputs
    mode, workload = spec["mode"], spec["workload"]
    inputs = make_inputs(workload, spec["seed"]) if mode != "probe" else None
    result = {"setup_s": time.monotonic() - spec["spawned"]}
    if mode == "probe":
        result.update(_probe(locsol, spec))
    elif mode == "rep":
        tracer = None
        if spec["trace"]:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        run_dir = Path(spec["run_dir"])
        store_dir = run_dir / f"store-{os.getpid()}"
        with HostSpeed() as speed:
            spent = speed.spent
            start = time.perf_counter()
            if workload == "decide-witness":
                try:
                    ops = _run_decisions(locsol, inputs, tracer, speed,
                                         store_dir)
                finally:
                    shutil.rmtree(store_dir, ignore_errors=True)
            elif workload.startswith("loc-"):
                ops = _run_intervals(locsol, inputs, tracer, speed)
            else:
                ops = _run_survey(locsol, inputs, tracer, speed)
            end = time.perf_counter()
            spent = speed.spent - spent
        raw = end - start - spent
        result["wall_raw_s"] = raw
        result["wall_s"] = speed.rescale(raw, start, end)
        result["reference_s"] = sum(speed.spans) / len(speed.spans)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        result["ops"] = [
            (kind if kind == "ok" else _failure_kind(kind, locsol),
             speed.rescale(took, op_start, op_end), out)
            for kind, took, out, op_start, op_end in ops]
        if tracer:
            from spans import layer_metrics
            from workloads import expected_trace_counts
            layers, calls = layer_metrics(tracer)
            result["layers"] = layers
            result["calls"] = {name: calls[name.rsplit(".", 1)[0]]
                               for name in expected_trace_counts(
                                   workload, inputs)}
            result["missed"] = tracer.missed
            tracer.write(run_dir / f"spans-{workload}.bin")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
