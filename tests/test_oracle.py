import hashlib
import random
from collections import Counter

import pytest

from locsol.errors import (DegenerateInput, OracleOverflow,
                           PreconditionViolated)
from locsol.oracle import decide_by_lifting


def test_hand_checked_instances():
    # three odd squares sum to 3 mod 8, so no primitive zero at 2
    assert decide_by_lifting((1, 1, 1), 2, 2) is False
    assert decide_by_lifting((1, 1, 1, 1), 2, 2) is False
    # 1*25 + 5*1 + 2*1 = 32
    assert decide_by_lifting((1, 5, 2), 2, 2) is True
    # all-units cubic obstruction at 3: cubes are +-1 mod 9
    assert decide_by_lifting((1, 2, 4), 3, 3) is False
    assert decide_by_lifting((1, 1, 1), 3, 3) is True
    # nonsingular point exists mod 7
    assert decide_by_lifting((1, 1, 1), 2, 7) is True
    # x^2 = 3 y^2 over Z_5: 3 is not a square mod 5
    assert decide_by_lifting((1, -3), 2, 5) is False
    assert decide_by_lifting((1, -4), 2, 5) is True


def test_zero_coefficient_is_a_coordinate_axis():
    assert decide_by_lifting((0, 7, 7), 2, 7) is True


def test_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        decide_by_lifting((0, 0, 0), 2, 3)
    with pytest.raises(DegenerateInput):
        decide_by_lifting((5,), 2, 3)


def test_deep_valuations_terminate():
    # coefficients with high 2-adic valuation force several lift levels
    assert decide_by_lifting((32, -32, 48), 2, 2) is True
    assert decide_by_lifting((8, 8, 8), 2, 2) is False
    # a fully even insoluble quadruple branches too hard for the default budget
    with pytest.raises(OracleOverflow):
        decide_by_lifting((16, 16, 16, 16), 2, 2)


def test_overflow_guard():
    with pytest.raises(OracleOverflow):
        decide_by_lifting((32, 32, 32, 48), 2, 2, max_nodes=10)


def _outcome(entries, k, p, budget):
    """T or F for a verdict, O for an overflow at this node budget."""
    try:
        return "T" if decide_by_lifting(entries, k, p,
                                        max_nodes=budget) else "F"
    except OracleOverflow:
        return "O"


@pytest.mark.parametrize("entries, k, p, least", [
    ((8, 8, 8), 2, 2, 2_047),
    ((1, 1, 1), 3, 3, 170),
    ((1, 2, 4), 3, 3, 8),
])
def test_least_deciding_budget_is_pinned(entries, k, p, least):
    # the node count of the whole search tree: any change to which
    # nodes are built, or in what order, moves these
    assert _outcome(entries, k, p, least) != "O"
    assert _outcome(entries, k, p, least - 1) == "O"


def test_outcomes_over_random_instances_are_pinned():
    rng = random.Random(26)
    rows = []
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        k = rng.randint(2, 5)
        entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 60)
                        for _ in range(rng.randint(2, 4)))
        rows.append("".join(_outcome(entries, k, p, budget)
                            for budget in (30, 1_000, 20_000)))
    assert [Counter(row[i] for row in rows) for i in range(3)] == [
        {"T": 118, "F": 49, "O": 33},
        {"T": 132, "F": 67, "O": 1},
        {"T": 132, "F": 68}]
    assert hashlib.sha256(" ".join(rows).encode()).hexdigest() == (
        "03ebbde581e06aab1c3d01d29a68daad89333d038356da86565f18553d9fe655")


@pytest.mark.parametrize("entries, k, p", [
    ((1.5, -1), 2, 5),
    (("4", "-1"), 2, 5),
    ((1, -1), 2.5, 5),
    ((1, -1), 2, 5.0),
    ((1, -1), "2", 5),
])
def test_non_integers_are_refused(entries, k, p):
    with pytest.raises(PreconditionViolated):
        decide_by_lifting(entries, k, p)
