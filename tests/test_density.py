import hashlib
from fractions import Fraction
from math import comb, gcd
from time import perf_counter

import pytest

from locsol import density
from locsol.density import generic_sum, rho_infinity, rho_p, rho_p_exact
from locsol.errors import (DegenerateInput, PreconditionViolated,
                           ResourceBound, UnsupportedPair)
from locsol.padic import (CoefficientVector, all_cells, class_count,
                          valuation)
from locsol.primes import primes_below
from locsol.product import decimalize, rho_loc_interval, tail_hypothesis
from locsol.solubility import (clear_caches, decide_qp, dump_verdicts,
                               pathological_primes)
from locsol.survey import survey_box
from locsol.verification import (cell_measure, kappa, power_ratio,
                                 rho_p_closed_form)

F = Fraction

# every value below was recomputed away from the library before freezing:
# the p | k entries by exhaustive cell enumeration, the rest by hand from
# q = (p-1) p^(k-1) / (p^k - 1)
FROZEN = {
    (2, 2, 2): F(7, 12),
    (3, 2, 2): F(1231, 1296),
    (2, 2, 3): F(23, 32),
    (2, 2, 5): F(19, 24),
    (3, 2, 3): F(485, 512),
    (2, 3, 3): F(13831, 19773),
    (3, 3, 3): F(6391, 6591),
    (2, 3, 2): F(295, 343),
    (2, 3, 5): F(29041, 29791),
    (2, 3, 7): F(43, 57),
    (3, 3, 7): F(530491, 555579),
}


def test_closed_form_frozen_values():
    for (n, k, p), want in FROZEN.items():
        got = rho_p_closed_form(n, k, p)
        assert got.value == want, (n, k, p)
        assert got.route == "closed-form"
        # the name the benchmark's trace looks up in density
        assert density.rho_p_closed_form(n, k, p) == got


def test_exact_enumeration_reproduces_pathological_values():
    for n, k, p in ((2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 3)):
        d = rho_p_exact(n, k, p)
        assert d.value == FROZEN[(n, k, p)]
        assert d.route == "enumeration"


def test_closed_form_at_p_dividing_k_matches_enumeration():
    # for n >= 4 the formula, enumeration and rho_p's saturation rule
    # all read 1
    for k, p in ((3, 3), (2, 2)):
        for n in (4, 5, 6):
            assert rho_p_closed_form(n, k, p).value == 1
            assert rho_p_exact(n, k, p).value == 1, (n, k, p)
            assert rho_p(n, k, p).value == 1, (n, k, p)


def test_rho_p_is_exact_at_every_small_prime():
    # the pathological p such as (2,4,13) and (2,6,31) included
    for n in (1, 2):
        for k in (4, 6):
            for p in primes_below(32):
                got = rho_p(n, k, p)
                assert got.value == rho_p_exact(n, k, p).value, (n, k, p)
                assert got.route == ("enumeration" if k % p == 0
                                     else "generic-sum"), (n, k, p)


def test_rho_p_route_order():
    assert rho_p(2, 3, 3).route == "enumeration"
    assert rho_p(3, 2, 2).route == "enumeration"
    assert rho_p(4, 2, 2).route == "saturated"
    assert rho_p(6, 3, 3).route == "saturated"
    assert rho_p(4, 2, 3).route == "generic-sum"
    assert rho_p(2, 3, 7).route == "generic-sum"
    assert rho_p(3, 4, 7).route == "generic-sum"
    assert rho_p(1, 2, 3).route == "generic-sum"
    assert rho_p(1, 2, 2).route == "enumeration"
    with pytest.raises(PreconditionViolated):
        rho_p(2, 4, 9)


def test_rho_p_proves_primality_once(monkeypatch):
    calls = []
    is_prime = density.is_prime

    def counting(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(density, "is_prime", counting)
    for n, k, p in ((3, 4, 13), (3, 4, 2)):   # generic sum, enumeration
        calls.clear()
        rho_p(n, k, p)
        assert calls == [p], (n, k, p)


def test_non_integer_numbers_are_refused():
    # each used to end in a bare TypeError deep inside, or to answer
    # (rho_infinity(3, 2.0) read 7/8, tail_hypothesis(3.0, 2) a bound)
    iv = rho_loc_interval(3, 2, 100)
    probes = (lambda: rho_p(3, 2, 5.0),
              lambda: rho_p(2.0, 2, 3),
              lambda: generic_sum(3, 2.0, 5),
              lambda: rho_p_exact(3, 2, 2.0),
              lambda: rho_loc_interval(3, 2, 1e4),
              lambda: rho_loc_interval(3.0, 2, 100),
              lambda: survey_box(3, 2, 10.5),
              lambda: survey_box(3, 2, 50, mode="sample", sample_count=10.0,
                                 seed=1),
              lambda: rho_infinity(3, 2.0),
              lambda: tail_hypothesis(3.0, 2),
              lambda: kappa(3, 2, 2.0),
              # a bare ValueError from a format spec, an answer of 0, and
              # a bare TypeError
              lambda: decimalize(iv, 2.5),
              lambda: valuation(7.5, 5),
              lambda: valuation("10", 5))
    for i, probe in enumerate(probes):
        with pytest.raises(PreconditionViolated):
            probe()
            pytest.fail(f"probe {i} answered")
    # a bool is an int, as in _integers everywhere else
    assert decimalize(iv, True) == decimalize(iv, 1)


def test_rho_p_input_errors():
    for k in (2, 4):
        for p in (0, 1, -3, 4, 9):
            with pytest.raises(PreconditionViolated):
                rho_p(3, k, p)
        with pytest.raises(DegenerateInput):
            rho_p(0, k, 5)
    with pytest.raises(DegenerateInput):
        rho_p(3, 1, 5)


def test_rho_p_never_enumerates_away_from_p_dividing_k(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"enumerated at {args}")

    monkeypatch.setattr(density, "rho_p_exact", refuse)
    for n, k, p in ((2, 4, 13), (2, 6, 31), (3, 5, 11), (1, 4, 5)):
        assert rho_p(n, k, p).route == "generic-sum", (n, k, p)


def test_saturated_dimensions_give_one():
    assert rho_p_closed_form(4, 2, 5).value == 1
    assert rho_p_closed_form(7, 2, 3).value == 1
    assert rho_p_closed_form(6, 3, 7).value == 1
    assert rho_p_closed_form(9, 3, 13).value == 1


def test_rho_p_matches_the_paper_grid():
    # the paper's formulas at every p < 3000 not dividing k, and
    # enumeration at p = k, where n >= 4 takes the saturation rule
    for k in (2, 3):
        for p in primes_below(3000):
            if p == k:
                continue
            for n in range(2, 9):
                got = rho_p(n, k, p)
                assert got.route == "generic-sum", (n, k, p)
                assert got.value == rho_p_closed_form(n, k, p).value, \
                    (n, k, p)
        for n in range(2, 6):
            assert rho_p(n, k, k).value == rho_p_exact(n, k, k).value, (n, k)


def test_three_routes_agree_on_small_grid():
    for n, k, p in ((2, 2, 3), (2, 2, 5), (3, 2, 3), (2, 3, 2),
                    (2, 3, 7), (3, 3, 2)):
        exact = rho_p_exact(n, k, p).value
        closed = rho_p_closed_form(n, k, p).value
        generic = generic_sum(n, k, p).value
        assert exact == closed == generic, (n, k, p)


def test_generic_sum_exact_at_pathological_primes():
    # at these p three units on one layer can lack a zero (x^4 + y^4 +
    # 2z^4 has none mod 13), so the layer chances come from deciding
    # class multisets
    cases = [(n, k, p) for k in (4, 5) for p in pathological_primes(k)
             if k % p for n in (1, 2)]
    cases += [(n, 6, p) for p in pathological_primes(6)
              if 6 % p and p < 100 for n in (1, 2)]
    cases += [(3, 4, 13), (3, 4, 17), (3, 4, 29), (3, 5, 11)]
    for n, k, p in cases:
        assert generic_sum(n, k, p).value == rho_p_exact(n, k, p).value, \
            (n, k, p)
    # at p = 3 (d = 2) and p = 7 (d = 2) no layer chance past 2 is needed
    assert generic_sum(3, 4, 3).value == rho_p_exact(3, 4, 3).value
    assert generic_sum(3, 4, 7).value == rho_p_exact(3, 4, 7).value


def test_generic_sum_requires_coprime_prime():
    with pytest.raises(PreconditionViolated):
        generic_sum(2, 2, 2)
    with pytest.raises(PreconditionViolated):
        generic_sum(2, 3, 3)
    with pytest.raises(PreconditionViolated):
        generic_sum(2, 2, 9)


def test_power_ratio_and_kappa():
    assert power_ratio(2, 2) == F(2, 3)
    assert power_ratio(3, 2) == F(3, 4)
    assert power_ratio(2, 3) == F(4, 7)
    assert kappa(2, 2, 2) == F(64, 27)
    assert kappa(3, 2, 2) == F(256, 81)
    assert kappa(2, 3, 3) == F(27, 26)**3


def test_density_calls_leave_the_verdict_cache_alone(monkeypatch):
    # enumeration decides each signature once and stores nothing, so a
    # density never evicts what decisions and surveys cached
    clear_caches()
    for entries, k, p in (((1, 1, 3), 2, 2), ((1, 2, 4), 3, 3),
                          ((1, 3, 9, 6), 3, 3)):
        decide_qp(CoefficientVector(entries, k), p)
    cached = dump_verdicts()
    assert len(cached) == 3
    calls = []
    decide = density._decide_layers

    def counting(*args):
        calls.append(args)
        return decide(*args)

    monkeypatch.setattr(density, "_decide_layers", counting)
    for (n, k, p), want in (((3, 2, 2), 295), ((3, 3, 3), 369),
                            ((2, 3, 3), 109)):
        calls.clear()
        assert rho_p_exact(n, k, p).value == FROZEN[(n, k, p)]
        assert len(calls) == want, (n, k, p)
        # the cells with least exponent 0, one distinct signature each
        signatures = {tuple(zip(exps, units)) for _, _, exps, units, _
                      in calls}
        assert len(signatures) == want, (n, k, p)
    calls.clear()
    rho_p(3, 4, 13)   # the pathological layer counts
    assert calls
    rho_loc_interval(3, 2, cutoff=100)
    assert dump_verdicts() == cached
    clear_caches()


# sha256 of "n k p num/den\n" over every rho_p_exact(n, k, p) with n <= 4,
# k <= 6, p in (2, 3, 5, 7, 11, 13) and at most 60,000 cells (110 of
# them), recorded when each cell was still decided through a vector and
# the verdict cache
ENUMERATION_GRID_DIGEST = (
    "f7c4bedfbd1c79e9dbdb47c93ebbf7686402173eca6aa1b88b10a292e6332efd")


def test_enumeration_values_are_pinned():
    lines = []
    for n in range(1, 5):
        for k in range(2, 7):
            for p in (2, 3, 5, 7, 11, 13):
                if comb(k * class_count(p, k) + n, n + 1) <= 60_000:
                    v = rho_p_exact(n, k, p).value
                    lines.append(f"{n} {k} {p} {v.numerator}/"
                                 f"{v.denominator}\n")
    assert len(lines) == 110
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == ENUMERATION_GRID_DIGEST


# the same digest over rho_p_exact at (2, 7, 7) and (2, 9, 3), whose walks
# mod 7^3 and 3^5 are larger than any of the grid above (moduli up to
# 125), recorded while their value sets were rebuilt for every walk with
# one pow per residue
REBUILT_SETS_DIGEST = (
    "d0f903e89b62301a6ed34e7d28ee88a3da6c90090f8cadacd5166a4d12c0a073")


def test_enumeration_through_rebuilt_value_sets_is_pinned():
    lines = []
    for n, k, p in ((2, 7, 7), (2, 9, 3)):
        v = rho_p_exact(n, k, p).value
        lines.append(f"{n} {k} {p} {v.numerator}/{v.denominator}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == REBUILT_SETS_DIGEST


# the layer chances of n = 3, k = 8 at its 65 pathological primes not
# dividing 8, walked mod p (56 of the primes above 128, the largest 1,753)
K8_LAYER_CHANCES_DIGEST = (
    "c8f76c87a9e80a9d7f8c5cd4b9db46b73d36642a8ecd5362d7180f45f7c8671f")


def test_layer_chances_at_the_pathological_primes_of_8_are_pinned():
    primes = [p for p in pathological_primes(8) if 8 % p]
    assert len(primes) == 65 and max(primes) == 1753
    lines = "".join(
        f"{p} {density._insoluble_counts(3, 8, p, gcd(p - 1, 8))}\n"
        for p in primes)
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == K8_LAYER_CHANCES_DIGEST


def test_cell_measures_sum_to_one():
    for p, k, n in ((3, 2, 2), (2, 3, 2), (5, 2, 3)):
        total = sum(cell_measure(c, p, k) for c in all_cells(p, k, n))
        assert total == 1


def test_rho_infinity():
    assert rho_infinity(2, 3).value == 1
    assert rho_infinity(5, 7).value == 1
    assert rho_infinity(2, 2).value == F(3, 4)
    assert rho_infinity(3, 2).value == F(7, 8)
    assert rho_infinity(5, 4).value == F(31, 32)
    assert rho_infinity(3, 2).place == "infinity"


def test_record_shape():
    rec = rho_p(2, 2, 5).to_record()
    assert rec == {"n": 2, "k": 2, "p": 5, "numerator": 19,
                   "denominator": 24, "route": "generic-sum"}


def test_unsupported_and_invalid_inputs():
    with pytest.raises(UnsupportedPair):
        rho_p_closed_form(2, 5, 7)
    with pytest.raises(UnsupportedPair):
        rho_p_closed_form(1, 2, 7)
    with pytest.raises(PreconditionViolated):
        rho_p_closed_form(2, 2, 6)
    with pytest.raises(DegenerateInput):
        rho_p_exact(0, 2, 3)
    with pytest.raises(DegenerateInput):
        rho_p_closed_form(2, 1, 3)


def test_enumeration_cell_cap():
    with pytest.raises(ResourceBound) as info:
        rho_p_exact(4, 12, 13)
    assert info.value.required > 10**7
    # the layer chances at a pathological prime count class multisets
    with pytest.raises(ResourceBound) as info:
        generic_sum(15, 12, 13)
    assert info.value.required > 10**7


def test_layer_sum_is_refused_before_it_runs():
    # the layer sum grows as k^2: k = 10^5 used to run for hours
    start = perf_counter()
    with pytest.raises(ResourceBound) as info:
        rho_p(2, 10**5, 3)
    assert perf_counter() - start < 1
    assert info.value.required > 10**7
