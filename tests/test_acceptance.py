"""Acceptance gate: each criterion prints one PASS/FAIL line and asserts.

Run with -s to see the lines as they complete; the same registry backs
`locsol verify-paper`, so this file and the CLI can never disagree.
"""

from time import perf_counter

from locsol.verification import CRITERIA

_BY_NAME = dict(CRITERIA)


def _run(number: int, name: str) -> str:
    start = perf_counter()
    passed, detail = _BY_NAME[name]()
    elapsed = perf_counter() - start
    flag = "PASS" if passed else "FAIL"
    print(f"criterion-{number} {name}: {flag} ({elapsed:.1f}s): {detail}")
    assert passed, f"{name}: {detail}"
    return detail


def test_criterion_1_pathological_densities():
    _run(1, "pathological-densities")


def test_criterion_2_route_agreement():
    _run(2, "route-agreement")


def test_criterion_3_classification_catalogue():
    # the cell counts of every regime, each cell decided on its
    # representative (verification.cell_representative)
    assert _run(3, "classification-catalogue") == (
        "(p=2,k=2,n=2): 120 cells; (p=2,k=2,n=3): 330 cells; "
        "(p=2,k=2,n=4): 792 cells; (p=3,k=3,n=2): 165 cells; "
        "(p=3,k=3,n=3): 495 cells; (p=3,k=3,n=4): 1287 cells")


def test_criterion_4_certified_intervals():
    _run(4, "certified-intervals")


def test_criterion_5_lifting_oracle_agreement():
    # the instance stream is seeded, so the overflow count pins the
    # oracle's node budget behaviour as well as its verdicts
    assert _run(5, "lifting-oracle-agreement") == (
        "2000 random instances agreed (1 lifting overflows resampled)")


def test_criterion_6_measure_normalization():
    # verification.cell_measure and verification.kappa, on every grid point
    assert _run(6, "measure-normalization") == (
        "7 cell systems sum to 1; 3 normalizers exact")


def test_criterion_7_survey_midpoint():
    _run(7, "survey-midpoint")
