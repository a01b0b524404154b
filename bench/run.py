"""locsol benchmark: cold-process workloads, checked outputs, metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all

Each repetition of a workload runs in a fresh worker process (see
worker.py) under a wall-time limit and an RLIMIT_AS cap, one at a time,
in a closed loop with one client, until about --seconds have passed.
Every output is checked (workloads.check_outputs).  With --trace 0 the
last line holds the end-to-end metrics; with --trace 1 traced and
untraced repetitions alternate and the last line holds the per-layer
metrics.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
from spans import LAYER_UNITS  # noqa: E402
from workloads import (FRONTIER, FRONTIER_DEADLINE_S, NAMES,  # noqa: E402
                       expected_survey_count, expected_trace_counts,
                       check_outputs, frontier_ok, make_inputs, op_weights,
                       vectors_decided)

RUN_DIR = ROOT / ".bench_run"
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 2
REP_LIMIT_S = 60.0
SETUP_LIMIT_S = 20.0
GIB = 1 << 30
# Address-space caps, well above the seed commit's peaks (survey-wide
# peaks near 1 GB because of its unbounded class tables).
MEMORY_CAP = {"survey-wide": 2 * GIB}
DEFAULT_MEMORY_CAP = GIB
FAILURE_KINDS = ("timeout", "oom", "refused", "error", "wrong")

UNITS = {"setup_s": "s", "wall_s": "s", "vectors_per_s": "1/s",
         "decide_p50_ms": "ms", "decide_p99_ms": "ms", "peak_rss_mb": "MB",
         **LAYER_UNITS, "trace.overhead_frac": "ratio",
         "trace.complete": "bool", "frontier.timeouts": "count",
         "frontier.refusals": "count"}


def spawn(spec: dict, limit: float, cap: int
          ) -> tuple[dict | None, str, float]:
    """Run one worker; returns (result, failure kind or "ok", elapsed)."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    spec = dict(spec, run_dir=str(RUN_DIR), spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=limit_memory)
    try:
        out, err = proc.communicate(timeout=limit)
    except BaseException as exc:
        proc.kill()
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return None, "timeout", time.monotonic() - spec["spawned"]
    elapsed = time.monotonic() - spec["spawned"]
    if proc.returncode != 0:
        kind = "oom" if "MemoryError" in err else "error"
        sys.stderr.write(err[-2000:])
        return None, kind, elapsed
    return json.loads(out.strip().splitlines()[-1]), "ok", elapsed


class Tally:
    """Operations attempted and failed, by kind, weighted by vectors."""

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()

    def add(self, weight: int, kind: str) -> None:
        self.attempted += weight
        if kind != "ok":
            self.failed[kind] += weight

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


def run_rep(base: dict, traced: bool, cap: int, inputs, weights, expected,
            survey_count, tally: Tally) -> dict:
    """One repetition in a fresh worker; checks its outputs, tallies them."""
    workload, seed = base["workload"], base["seed"]
    result, kind, elapsed = spawn(dict(base, mode="rep", trace=traced),
                                  REP_LIMIT_S, cap)
    rep = {"wall_s": elapsed, "rss": cap / 2**20 if kind == "oom" else None,
           "result": result}
    if result is None:
        outcomes = [kind] * len(weights)
        latencies = [(float("inf"), w) for w in weights]
    else:
        rep.update(wall_s=result["wall_s"], rss=result["peak_rss_mb"],
                   wall_raw_s=result["wall_raw_s"],
                   reference_s=result["reference_s"])
        ops = result["ops"]
        flags = check_outputs(workload, seed, inputs,
                              [out for _, _, out in ops], expected,
                              survey_count)
        outcomes = [k if k != "ok" else ("ok" if flag else "wrong")
                    for (k, _, _), flag in zip(ops, flags)]
        latencies = [(lat / w if k == "ok" else float("inf"), w)
                     for (_, lat, _), k, w in zip(ops, outcomes, weights)]
    for w, k in zip(weights, outcomes):
        tally.add(w, k)
    limit_ms = REP_LIMIT_S * 1e3
    rep["p50_ms"] = min(stats.p50(latencies) * 1e3, limit_ms)
    rep["p99_ms"] = min(stats.tail(latencies)[0] * 1e3, limit_ms)
    return rep


def run_frontier(base: dict, cap: int) -> Counter:
    """Each frontier operation in its own process, under its deadline."""
    kinds = Counter()
    for entries, k, p in FRONTIER:
        result, kind, _ = spawn(
            dict(base, mode="probe", entries=entries, k=k, p=p,
                 deadline=FRONTIER_DEADLINE_S),
            FRONTIER_DEADLINE_S + SETUP_LIMIT_S, cap)
        if result is not None:
            kind = result["kind"]
            if kind == "ok" and not frontier_ok(entries, k, p, result["out"]):
                kind = "wrong"
        kinds[kind] += 1
    return kinds


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict) -> dict:
    """Repetitions while the next one is expected to end less than half
    a repetition past `seconds`.

    SETUP_SAMPLES setup-only processes precede every repetition, so that
    set-up is sampled across the whole run.
    """
    cap = MEMORY_CAP.get(workload, DEFAULT_MEMORY_CAP)
    inputs = make_inputs(workload, seed)
    weights = op_weights(workload, inputs)
    survey_count = (expected_survey_count(inputs)
                    if workload.startswith("survey") else None)
    base = {"workload": workload, "seed": seed}
    spawn(dict(base, mode="setup"), SETUP_LIMIT_S, cap)  # writes bytecode
    setups = []
    tally = Tally()
    reps = {False: [], True: []}
    started = time.monotonic()
    last = 0.0
    while not reps[False] or time.monotonic() - started + last / 2 < seconds:
        begun = time.monotonic()
        for _ in range(SETUP_SAMPLES):
            result, _, _ = spawn(dict(base, mode="setup"), SETUP_LIMIT_S, cap)
            if result:
                setups.append(result["setup_s"])
        for traced in ((False, True) if trace else (False,)):
            rep = run_rep(base, traced, cap, inputs, weights, expected,
                          survey_count, tally)
            if rep["result"]:
                setups.append(rep["result"]["setup_s"])
            reps[traced].append(rep)
        last = time.monotonic() - begun
    frontier = (run_frontier(base, cap) if workload == "decide-witness"
                else Counter())
    if trace:
        metrics = per_layer(workload, inputs, reps, frontier)
    else:
        metrics = end_to_end(workload, inputs, setups, reps[False], cap)
    measured = [r for r in reps[False] if r["result"]]
    host = (statistics.median([r["wall_raw_s"] for r in measured]),
            statistics.median([r["reference_s"] for r in measured])
            ) if measured else None
    return {"workload": workload, "seed": seed, "tally": tally,
            "frontier": frontier, "reps": len(reps[False]) + len(reps[True]),
            "setup_samples": len(setups), "metrics": metrics, "host": host}


def end_to_end(workload, inputs, setups, reps, cap) -> dict:
    """Medians over the run's repetitions (latency percentiles per rep)."""
    walls = [r["wall_s"] for r in reps]
    rss = [r["rss"] for r in reps if r["rss"] is not None]
    vectors = vectors_decided(workload, inputs)
    return {
        "setup_s": statistics.median(setups) if setups else SETUP_LIMIT_S,
        "wall_s": statistics.median(walls),
        "vectors_per_s": statistics.median([vectors / w for w in walls]),
        "decide_p50_ms": statistics.median([r["p50_ms"] for r in reps]),
        "decide_p99_ms": statistics.median([r["p99_ms"] for r in reps]),
        "peak_rss_mb": statistics.median(rss) if rss else cap / 2**20,
    }


def per_layer(workload, inputs, reps, frontier) -> dict:
    traced = [r["result"] for r in reps[True] if r["result"]]
    out = {name: (statistics.median([t["layers"][name] for t in traced])
                  if traced else 0.0) for name in LAYER_UNITS}
    plain = statistics.median([r["wall_s"] for r in reps[False]])
    out["trace.overhead_frac"] = (
        statistics.median([t["wall_s"] for t in traced]) / plain - 1
        if traced else 0.0)
    want = expected_trace_counts(workload, inputs)
    complete = bool(traced) and all(
        not t["missed"] and t["calls"] == want for t in traced)
    out["trace.complete"] = 1.0 if complete else 0.0
    out["frontier.timeouts"] = float(frontier["timeout"])
    out["frontier.refusals"] = float(frontier["refused"])
    if not complete:
        for t in traced:
            print(f"  trace incomplete: missed {t['missed']}, calls "
                  f"{t['calls']}, expected {want}")
    return out


def report(run: dict, trace: bool) -> dict:
    tally, frontier = run["tally"], run["frontier"]
    print(f"workload {run['workload']}  seed {run['seed']}  "
          f"repetitions {run['reps']}  setup samples {run['setup_samples']}"
          f"  trace {int(trace)}")
    for name, value in run["metrics"].items():
        print(f"  {name:44s} {value:16.6g} {UNITS[name]}")
    if run["host"]:
        raw, ref = run["host"]
        print(f"  host: raw wall_s {raw:.6g} s, mean reference task "
              f"{ref * 1e3:.4g} ms")
    kinds = ", ".join(f"{k} {tally.failed[k]}" for k in FAILURE_KINDS)
    frac = tally.failures / tally.attempted if tally.attempted else 0.0
    print(f"  fail_frac {frac:.6g} ({tally.failures} of {tally.attempted} "
          f"attempted; {kinds})")
    if frontier:
        probes = sum(frontier.values())
        kinds = ", ".join(f"{k} {v}" for k, v in sorted(frontier.items()))
        total = tally.attempted + probes
        bad = tally.failures + probes - frontier["ok"]
        print(f"  frontier probes {probes} ({kinds}); fail_frac with "
              f"probes {bad / total:.6g} ({bad} of {total})")
    return {"correct": tally.failed["wrong"] == 0,
            "attempted": tally.attempted, "failed": tally.failures,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in run["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "locsol" / "__init__.py").is_file():
        print(f"error: no locsol sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    expected = json.loads((BENCH / "expected.json").read_text())
    names = NAMES if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           expected)
        lines.append(report(run, bool(args.trace)))
        if len(names) > 1:
            print(json.dumps(lines[-1]))
    if len(names) > 1:
        lines = [{"correct": all(x["correct"] for x in lines),
                  "attempted": sum(x["attempted"] for x in lines),
                  "failed": sum(x["failed"] for x in lines),
                  "metrics": {f"{n}.{m}": v for n, x in zip(names, lines)
                              for m, v in x["metrics"].items()}}]
    print(json.dumps(lines[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
