"""Workload definitions: inputs made from the seed, and output checks.

Nothing here imports locsol; worker.py runs the operations and this
module judges what they returned.  Every input is a pure function of the
seed, so the parent process and each worker make the same inputs.
"""

from __future__ import annotations

from random import Random

from checks import (digest, enumeration_cells, pathological_primes,
                    quadratic_everywhere_soluble, quadratic_isotropic,
                    witness_ok)

# survey_box draws chunk c from Random(seed * 1_000_003 + c) in chunks of
# this size (the documented reproducibility contract of locsol.survey).
SAMPLE_CHUNK = 10_000

SURVEYS = {
    "survey-dense": {"n": 3, "k": 2, "height": 200, "draws": 30_000},
    "survey-wide": {"n": 3, "k": 2, "height": 10**5, "draws": 300},
}

INTERVALS = {
    "loc-enum": ((4, 3, 10**4), (5, 3, 10**4)),
    "loc-deep": ((3, 2, 10**5), (3, 3, 10**5)),
}

# (p, k) pairs the decisions rotate over: p | k walks first, then p not
# dividing k at small p and at p near 10^4.
DECIDE_PAIRS = (
    (2, 2), (3, 3), (2, 4),
    (3, 2), (5, 2), (7, 3), (13, 3), (5, 4), (13, 4),
    (7919, 2), (9973, 3), (9973, 4),
)
DECISIONS = 3000
SESSIONS = 10

# Operations at the edge of what the seed commit can do, each run in its
# own process under FRONTIER_DEADLINE_S: the quintic walk mod 5^11 does
# not finish, and the septic walk mod 7^15 is refused at once.  All four
# forms are soluble (locsol.oracle's lifting search finds zeros mod p^3),
# so an answer counts as correct only with a witness that checks.
FRONTIER = (
    ((1, 2, 3, 4, 6), 5, 5),
    ((1, 1, 2, 3, 7), 5, 5),
    ((1, 2, 3, 4, 5, 6), 7, 7),
    ((1, 1, 2, 3, 4), 7, 7),
)
FRONTIER_DEADLINE_S = 1.0

NAMES = ("survey-dense", "survey-wide", "decide-witness", "loc-enum",
         "loc-deep")


def survey_draws(n: int, height: int, seed: int, count: int):
    """The vectors survey_box(mode="sample") draws for this seed."""
    lo, hi = -(height - 1), height - 1
    out = []
    chunk = 0
    while len(out) < count:
        rng = Random(seed * 1_000_003 + chunk)
        size = min(SAMPLE_CHUNK, count - len(out))
        out.extend(tuple(rng.randint(lo, hi) for _ in range(n + 1))
                   for _ in range(size))
        chunk += 1
    return out


def _coefficient(rng: Random, p: int, k: int) -> int:
    e = 0 if rng.random() < 0.5 else rng.randint(1, k + 1)
    u = rng.randrange(1, 10**4)
    while u % p == 0:
        u = rng.randrange(1, 10**4)
    return rng.choice((-1, 1)) * p**e * u


def decide_inputs(seed: int) -> list[tuple[tuple[int, ...], int, int]]:
    """DECISIONS (entries, k, p) triples with n in {2, 3, 4}."""
    rng = Random(seed)
    out = []
    for i in range(DECISIONS):
        p, k = DECIDE_PAIRS[i % len(DECIDE_PAIRS)]
        n = rng.choice((2, 3, 4))
        out.append((tuple(_coefficient(rng, p, k) for _ in range(n + 1)),
                    k, p))
    return out


def make_inputs(workload: str, seed: int):
    if workload in SURVEYS:
        return dict(SURVEYS[workload], seed=seed)
    if workload in INTERVALS:
        return INTERVALS[workload]
    if workload == "decide-witness":
        return decide_inputs(seed)
    raise ValueError(f"unknown workload: {workload}")


def op_weights(workload: str, inputs) -> list[int]:
    """Operations of one repetition; a survey call weighs its vectors."""
    if workload in SURVEYS:
        return [inputs["draws"]]
    return [1] * len(inputs)


# --- checks ------------------------------------------------------------------


def expected_survey_count(inputs) -> int:
    """Soluble count of the drawn (k = 2) vectors by Hilbert symbols."""
    draws = survey_draws(inputs["n"], inputs["height"], inputs["seed"],
                         inputs["draws"])
    return sum(quadratic_everywhere_soluble(v) for v in draws)


def check_outputs(workload: str, seed: int, inputs, outputs, expected,
                  survey_count: int | None) -> list[bool]:
    """One flag per operation that produced an output: True if correct.

    outputs has None for an operation that failed; its flag is None too.
    survey_count is expected_survey_count(inputs) for the surveys, made
    once per run because the draws are the same in every repetition.
    """
    recorded = expected["seeds"].get(str(seed), {}).get(workload)
    if workload in SURVEYS:
        (out,) = outputs
        if out is None:
            return [None]
        return [out == survey_count and recorded in (None, out)]
    if workload in INTERVALS:
        return [None if out is None
                else out == expected["intervals"][f"{n},{k},{cutoff}"]
                for (n, k, cutoff), out in zip(inputs, outputs)]
    flags = [None if out is None else _decision_ok(entries, k, p, out)
             for (entries, k, p), out in zip(inputs, outputs)]
    if recorded is not None and all(out is not None for out in outputs):
        if status_digest(outputs) != recorded:
            flags = [False] * len(flags)
    return flags


def _decision_ok(entries, k: int, p: int, out) -> bool:
    soluble = out["status"] != "insoluble"
    if k == 2 and soluble != quadratic_isotropic(entries, p):
        return False
    if soluble and out["witness"] is not None:
        return witness_ok(entries, k, p, out["witness"], out["form"],
                          out["level"])
    return True


def status_digest(outputs) -> str:
    return digest(out["status"] for out in outputs)


def frontier_ok(entries, k: int, p: int, out) -> bool:
    """A frontier answer counts as correct only with a checked witness."""
    return out["status"] != "insoluble" and witness_ok(
        entries, k, p, out["witness"], out["form"], out["level"])


def expected_trace_counts(workload: str, inputs) -> dict[str, int]:
    """Call counts a complete trace must show, derived from the inputs."""
    if workload in SURVEYS:
        return {"survey.survey_box.calls": 1,
                "survey.is_everywhere_soluble.calls": inputs["draws"]}
    if workload in INTERVALS:
        return {"product.rho_loc_interval.calls": len(inputs),
                "density.rho_p_exact.calls": sum(
                    len(pathological_primes(k)) for _, k, _ in inputs),
                "solubility.decide_qp.calls": sum(
                    enumeration_cells(n, k) for n, k, _ in inputs)}
    return {"solubility.decide_qp.calls": len(inputs),
            "cache.load_verdicts.calls": SESSIONS,
            "cache.save_verdicts.calls": SESSIONS}


def vectors_decided(workload: str, inputs) -> int:
    """Vectors one repetition decides: draws, decisions, or cells."""
    if workload in SURVEYS:
        return inputs["draws"]
    if workload in INTERVALS:
        return sum(enumeration_cells(n, k) for n, k, _ in inputs)
    return len(inputs)
