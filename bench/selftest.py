"""Tests of the benchmark itself (not part of the package's test suite).

Run with:  python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
from checks import (  # noqa: E402
    enumeration_cells, quadratic_everywhere_soluble, quadratic_isotropic,
    witness_ok)
from spans import Tracer, self_times  # noqa: E402
from workloads import (FRONTIER, decide_inputs, make_inputs,  # noqa: E402
                       survey_draws)


# --- self time ---------------------------------------------------------------


def test_self_time_subtracts_children_but_not_grandchildren():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6]
    start = array("d", [0, 1, 2, 5])
    end = array("d", [10, 4, 3, 6])
    parent = array("l", [-1, 0, 1, 0])
    assert list(self_times(start, end, parent)) == [6, 2, 1, 1]


def test_self_time_clips_a_child_to_its_parent():
    start = array("d", [0, 8])
    end = array("d", [10, 12])
    parent = array("l", [-1, 0])
    assert list(self_times(start, end, parent)) == [8, 4]


def test_wrapped_calls_record_nested_spans():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer._wrap("padic.leaf", leaf)

    def outer(x):
        return traced_leaf(traced_leaf(x))

    traced_outer = tracer._wrap("padic.outer", outer)
    tracer.current_op = 7
    assert traced_outer(1) == 3
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["padic.outer", "padic.leaf", "padic.leaf"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.op) == [7, 7, 7]
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    outer_span = tracer.end[0] - tracer.start[0]
    leaves = sum(tracer.end[i] - tracer.start[i] for i in (1, 2))
    assert abs(selfs[0] - (outer_span - leaves)) < 1e-12


def test_install_reaches_every_importing_namespace():
    code = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import locsol, locsol.cache
from spans import Tracer, layer_metrics
from checks import enumeration_cells
tracer = Tracer()
tracer.install()
assert tracer.missed == [], tracer.missed
assert locsol.density.decide_qp is locsol.solubility.decide_qp
assert locsol.density.decide_qp.__wrapped__ is not None
locsol.rho_p_exact(2, 2, 2)
_, calls = layer_metrics(tracer)
assert calls["solubility.decide_qp"] == enumeration_cells(2, 2), calls
assert calls["density.rho_p_exact"] == 1
"""
    code = code.format(bench=str(BENCH), src=str(BENCH.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# --- percentiles -------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    samples = [(float(i), 1) for i in range(1, 3001)]
    value, q = stats.tail(samples)
    assert q == 0.99 and value == 2970.0
    beyond = sum(1 for v, _ in samples if v > value)
    assert beyond >= 10


def test_short_samples_fall_back_to_the_highest_valid_quantile():
    samples = [(float(i), 1) for i in range(1, 501)]
    value, q = stats.tail(samples)
    assert value == 490.0 and q == 0.98
    assert stats.tail([(3.0, 1), (1.0, 1), (2.0, 1)]) == (3.0, 1.0)


def test_failed_operations_lie_beyond_any_limit():
    samples = [(1.0, 1)] * 985 + [(float("inf"), 1)] * 15
    assert stats.tail(samples)[0] == float("inf")
    assert stats.p50(samples) == 1.0


def test_weights_count_as_samples():
    samples = [(2.0, 30_000), (1.0, 30_000)]
    assert stats.p50(samples) == 1.5
    assert stats.p50([(2.0, 1), (1.0, 2)]) == 1.0
    assert stats.tail(samples) == (2.0, 0.99)


# --- host speed --------------------------------------------------------------


def test_host_speed_rescales_by_the_reference_samples_near_an_operation():
    speed = worker.HostSpeed()
    speed.times = array("d", [0.0, 1.0, 10.0])
    speed.spans = array("d", [0.001, 0.001, 0.004])
    ref = worker.HostSpeed.REFERENCE_S
    assert speed.rescale(2.0, 0.2, 0.8) == 2.0 * ref / 0.001
    assert speed.rescale(2.0, 9.8, 9.9) == 2.0 * ref / 0.004
    assert speed.rescale(2.0, 5.0, 5.1) == 2.0 * ref * 3 / 0.006


def test_host_speed_samples_while_the_operations_run():
    with worker.HostSpeed() as speed:
        deadline = worker.time.perf_counter() + 0.3
        while worker.time.perf_counter() < deadline:
            pass
    assert len(speed.spans) >= 5
    assert speed.spent == sum(speed.spans)


# --- inputs ------------------------------------------------------------------


def test_inputs_are_deterministic_per_seed():
    assert decide_inputs(5) == decide_inputs(5)
    assert decide_inputs(5) != decide_inputs(6)
    assert survey_draws(3, 200, 5, 25_000) == survey_draws(3, 200, 5, 25_000)
    assert survey_draws(3, 200, 5, 100) != survey_draws(3, 200, 6, 100)
    assert make_inputs("loc-enum", 1) == make_inputs("loc-enum", 2)


def test_survey_draws_and_hilbert_count_match_the_package():
    import locsol
    for seed in (1, 9):
        report = locsol.survey_box(3, 2, 50, mode="sample",
                                   sample_count=12_000, seed=seed)
        draws = survey_draws(3, 50, seed, 12_000)
        assert report.soluble == sum(quadratic_everywhere_soluble(v)
                                     for v in draws)


# --- independent checks ------------------------------------------------------


def test_quadratic_isotropy_matches_the_package():
    import locsol
    rng = Random(3)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 60)
                        for _ in range(rng.choice((3, 4, 5))))
        verdict = locsol.decide_qp(locsol.CoefficientVector(entries, 2), p)
        assert verdict.is_soluble == quadratic_isotropic(entries, p), \
            (entries, p)


def test_witness_check_accepts_package_witnesses_and_rejects_forgeries():
    import locsol
    entries, k, p = (1, 2, 3, 4), 3, 3
    v = locsol.decide_qp(locsol.CoefficientVector(entries, k), p,
                         with_witness=True)
    assert witness_ok(entries, k, p, v.witness, v.witness_form,
                      v.certificate_level)
    bad = list(v.witness)
    bad[0] += 1
    assert not witness_ok(entries, k, p, bad, v.witness_form,
                          v.certificate_level)
    no_unit = [w * p for w in v.witness]
    assert not witness_ok(entries, k, p, no_unit, v.witness_form,
                          v.certificate_level)
    assert not witness_ok(entries, k, p, v.witness, v.witness_form, 1)


def test_enumeration_cells():
    assert enumeration_cells(4, 3) == 1287
    assert enumeration_cells(5, 3) == 3003
    assert enumeration_cells(3, 2) == 330


# --- frontier probes ---------------------------------------------------------


def test_frontier_probes_are_classified_not_dropped():
    run.RUN_DIR.mkdir(exist_ok=True)
    kinds = []
    for entries, k, p in FRONTIER:
        result, kind, _ = run.spawn(
            {"workload": "decide-witness", "seed": 1, "mode": "probe",
             "entries": entries, "k": k, "p": p, "deadline": 0.5},
            30.0, run.DEFAULT_MEMORY_CAP)
        kinds.append(result["kind"] if result else kind)
    assert kinds == ["timeout", "timeout", "refused", "refused"]


def test_a_repetition_past_its_wall_time_limit_is_a_timeout():
    run.RUN_DIR.mkdir(exist_ok=True)
    result, kind, elapsed = run.spawn(
        {"workload": "loc-enum", "seed": 1, "mode": "rep", "trace": False},
        0.5, run.DEFAULT_MEMORY_CAP)
    assert (result, kind) == (None, "timeout") and elapsed < 5


def test_report_counts_frontier_probes_in_the_failure_fraction(capsys):
    tally = run.Tally()
    tally.add(3000, "ok")
    line = run.report({"workload": "decide-witness", "seed": 1, "reps": 1,
                       "setup_samples": 1, "tally": tally,
                       "frontier": Counter(timeout=2, refused=2),
                       "metrics": {"wall_s": 1.0}, "host": None}, trace=False)
    out = capsys.readouterr().out
    assert "frontier probes 4 (refused 2, timeout 2)" in out
    assert "(4 of 3004)" in out
    assert line["attempted"] == 3000 and line["correct"]
