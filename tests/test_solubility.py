import hashlib
from random import Random
from time import perf_counter

import pytest

from locsol.errors import (DegenerateInput, OracleOverflow,
                           PreconditionViolated, ResourceBound)
from locsol.oracle import decide_by_lifting
from locsol.padic import CoefficientVector, classify_type, normalize
from locsol.solubility import (clear_caches, decide_everywhere_local,
                               decide_qp, decide_real, dump_verdicts,
                               pathological_primes, relevant_primes,
                               verify_classification)


def vec(entries, k=2):
    return CoefficientVector(tuple(entries), k)


def check_witness(verdict, p, k):
    assert verdict.witness is not None
    modulus = p**verdict.certificate_level
    total = sum(a * pow(w, k, modulus)
                for a, w in zip(verdict.witness_form, verdict.witness))
    assert total % modulus == 0
    assert any(w % p for w in verdict.witness)


def test_catalogue_spot_checks():
    assert not decide_qp(vec((1, 1, 1)), 2).is_soluble
    assert decide_qp(vec((1, 1, 3)), 2).is_soluble
    assert decide_qp(vec((1, 5, 2)), 2).is_soluble
    assert not decide_qp(vec((1, 1, 1, 1)), 2).is_soluble
    assert decide_qp(vec((1, 1, 1, 3)), 2).is_soluble
    assert not decide_qp(vec((1, 2, 4), 3), 3).is_soluble
    assert decide_qp(vec((1, 1, 1), 3), 3).is_soluble
    assert not decide_qp(vec((1, -2, 5)), 5).is_soluble
    assert decide_qp(vec((1, -4, 10)), 5).is_soluble


def test_witnesses_satisfy_their_certificates():
    cases = [((1, 5, 2), 2, 2), ((1, 1, 3), 2, 2), ((1, 1, 1), 3, 3),
             ((1, -4, 10), 2, 5), ((3, 5, 7, 11), 2, 7),
             ((1, 1, 1), 2, 3079), ((2, 9, 6, 12), 3, 3),
             # quintic and septic forms at p = k, walked mod p^3
             ((1, 2, 3, 4, 6), 5, 5), ((1, 1, 2, 3, 7), 5, 5),
             ((1, 2, 3, 4, 5, 6), 7, 7), ((1, 1, 2, 3, 4), 7, 7)]
    for entries, k, p in cases:
        verdict = decide_qp(vec(entries, k), p, with_witness=True)
        assert verdict.is_soluble
        check_witness(verdict, p, k)


def test_no_class_table_in_the_decision_path():
    from locsol.density import generic_sum, rho_p_exact
    from locsol.padic import build_unit_class_table, cell_orbit
    a = vec((3, -5, 7, 10_007 * 11))
    build_unit_class_table.cache_clear()
    normalize(a, 10_007)
    classify_type(a, 10_007)
    clear_caches()
    decide_qp(a, 10_007)
    clear_caches()
    decide_qp(a, 10_007, with_witness=True)
    # cells away from p | k carry power-residue labels too
    rho_p_exact(2, 4, 13)
    generic_sum(3, 4, 13)
    assert len(cell_orbit(((0, 1), (1, 12)), 13, 4)) == 16
    assert build_unit_class_table.cache_info().misses == 0


def test_no_kth_root_without_a_witness(monkeypatch):
    from locsol import solubility

    class RootTaken(Exception):
        pass

    def refuse(value, k, p):
        raise RootTaken((value, k, p))

    p = 9973
    g = next(g for g in range(2, p) if pow(g, (p - 1) // 3, p) != 1)
    cases = [((1, -4, 5), 2, 13),             # pair -(-4)/1 = 2^2
             ((1, g, g * g % p), 3, p)]       # no pair; curve count decides
    monkeypatch.setattr(solubility, "_kth_root_mod", refuse)
    for entries, k, q in cases:
        clear_caches()
        verdict = decide_qp(vec(entries, k), q)
        assert verdict.status == "soluble" and verdict.witness is None
        clear_caches()
        with pytest.raises(RootTaken):
            decide_qp(vec(entries, k), q, with_witness=True)
    monkeypatch.undo()
    for entries, k, q in cases:
        clear_caches()
        verdict = decide_qp(vec(entries, k), q, with_witness=True)
        assert verdict.status == "soluble"
        check_witness(verdict, q, k)


def test_memo_caches_are_bounded(monkeypatch):
    from locsol import solubility
    from locsol.density import layer_terms
    from locsol.padic import build_unit_class_table, class_reps
    from locsol.primes import factor
    from locsol.solubility import _value_count, _value_sets, load_verdicts
    assert factor.cache_info().maxsize is not None
    assert build_unit_class_table.cache_info().maxsize is not None
    assert class_reps.cache_info().maxsize is not None
    assert pathological_primes.cache_info().maxsize is not None
    assert _value_sets.cache_info().maxsize is not None
    assert _value_count.cache_info().maxsize is not None
    assert layer_terms.cache_info().maxsize is not None
    clear_caches()
    bound = solubility.VERDICT_CACHE_SIZE
    load_verdicts({(2, 2, ((0, i),)): "soluble" for i in range(bound + 10)})
    stored = dump_verdicts()
    assert len(stored) == bound
    assert (2, 2, ((0, 0),)) not in stored          # oldest went first
    assert (2, 2, ((0, bound + 9),)) in stored
    monkeypatch.setattr(solubility, "VERDICT_CACHE_SIZE", 3)
    clear_caches()
    for entries in ((1, 1, 1), (1, 1, 3), (1, 5, 2), (1, 2, 3), (1, 3, 7)):
        decide_qp(vec(entries), 2)
        assert len(dump_verdicts()) <= 3
    assert len(dump_verdicts()) == 3
    clear_caches()
    # a walk mod 673 (above VALUE_SETS_MEMO_MODULUS) rebuilds its sets
    decide_qp(vec((1, 1, 1)), 673, route="dp")
    assert _value_sets.cache_info().currsize == 0
    clear_caches()
    decide_qp(vec((1, 1, 1)), 2, route="dp")
    assert _value_sets.cache_info().currsize > 0


def test_primality_checked_once_per_decision(monkeypatch):
    from locsol import density, padic, solubility
    from locsol.density import rho_p_exact
    from locsol.primes import is_prime
    calls = []

    def counting(p):
        calls.append(p)
        return is_prime(p)

    cases = [((1, 1, 1), 2, 2), ((1, 2, 3), 2, 5), ((1, 2, 4), 3, 3),
             ((3, 5, 7, 11), 2, 7)]
    for entries, k, p in cases:              # build the class tables first
        clear_caches()
        decide_qp(vec(entries, k), p)
    monkeypatch.setattr(solubility, "is_prime", counting)
    monkeypatch.setattr(padic, "is_prime", counting)
    monkeypatch.setattr(density, "is_prime", counting)
    for entries, k, p in cases:
        clear_caches()
        calls.clear()
        decide_qp(vec(entries, k), p, with_witness=True)
        assert calls == [p], (entries, k, p)
    # one check for the whole enumeration, not one per cell
    calls.clear()
    rho_p_exact(2, 2, 2)
    assert calls == [2]
    with pytest.raises(PreconditionViolated):
        normalize(vec((1, 1, 1)), 9)


def test_route_is_validated_before_the_zero_shortcut():
    for entries in ((1, 0, 1), (1, 1, 1)):
        with pytest.raises(PreconditionViolated):
            decide_qp(vec(entries), 2, route="nonsense")
        with pytest.raises(PreconditionViolated):
            decide_qp(vec(entries), 2, route="scale")
    assert decide_qp(vec((1, 0, 1)), 3, route="scale").route == "trivial"


def test_decisions_build_no_normal_form(monkeypatch):
    from locsol import padic
    from locsol.density import rho_p_exact
    from locsol.survey import survey_box

    def refuse(*args, **kwargs):
        raise AssertionError("a NormalForm was built")

    monkeypatch.setattr(padic, "NormalForm", refuse)
    clear_caches()
    for entries, k, p in (((1, 5, 2), 2, 2), ((1, 1, 1), 3, 3),
                          ((1, 2, 3, 4, 6), 5, 5), ((1, -8, 5), 3, 13)):
        a = vec(entries, k)
        assert decide_qp(a, p).is_soluble
        check_witness(decide_qp(a, p, with_witness=True), p, k)
        classify_type(a, p)
    survey_box(2, 2, 4)
    rho_p_exact(2, 2, 2)
    verify_classification(2, 2, 2)
    decide_everywhere_local(vec((1, 1, -3, 1)))
    with pytest.raises(AssertionError):
        normalize(vec((1, 5, 2)), 2)


def test_pinned_witnesses():
    # recorded before the decisions moved onto the single reduction pass
    v = decide_qp(vec((1, 1, 3)), 2, with_witness=True)
    assert (v.witness, v.witness_form, v.certificate_level) == \
        ((21, 2, 1), (1, 1, 3), 5)
    rng = Random(20261018)
    rows = []
    for _ in range(150):
        k = rng.choice((2, 3, 4, 5))
        p = rng.choice((2, 3, 5, 7, 13, 31))
        n = rng.choice((2, 3, 4))
        entries = tuple(rng.choice((-1, 1)) * p**rng.choice((0, 0, 1, 2))
                        * rng.randint(1, 90) for _ in range(n + 1))
        v = decide_qp(vec(entries, k), p, with_witness=True)
        rows.append((v.status, v.witness, v.witness_form,
                     v.certificate_level))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "ad2daee045d993c1a11be4e7e0822b43ec87d4c116349fe30057a9cfe0b7b92c")


def test_trivial_zero_coefficient():
    verdict = decide_qp(vec((1, 0, 3)), 5)
    assert verdict.status == "soluble-trivially"
    assert verdict.witness == (0, 1, 0)
    with pytest.raises(DegenerateInput):
        decide_qp(vec((0, 0, 0)), 5)


def test_route_validation():
    with pytest.raises(PreconditionViolated):
        decide_qp(vec((1, 1, 1)), 2, route="scale")
    with pytest.raises(PreconditionViolated):
        decide_qp(vec((1, 1, 1)), 2, route="nonsense")
    with pytest.raises(PreconditionViolated):
        decide_qp(vec((1, 1, 1)), 6)
    # the walk at p not dividing k is mod p, so p = 673 is now cheap; a
    # walk mod 100,003 is refused from its work estimate before any work
    from locsol.solubility import WALK_WORK_CAP
    clear_caches()
    start = perf_counter()
    with pytest.raises(ResourceBound) as info:
        decide_qp(vec((1, 1, 1)), 100_003, route="dp")
    assert perf_counter() - start < 1.0
    assert info.value.required > WALK_WORK_CAP
    clear_caches()
    assert decide_qp(vec((1, 1, 1)), 673, route="dp").is_soluble


def test_walk_work_estimate_counts_value_sets():
    from locsol.padic import valuation
    from locsol.solubility import _value_count, _value_sets
    for p in (2, 3, 5, 7):
        for k in range(2, 10):
            for level in (1, 3, 5, 7):
                if p**level > 3000:
                    continue
                for c in (1, p, p * p, 2 if p == 3 else 3):
                    if c % p**level:
                        room = level - valuation(c, p)
                        assert (_value_count(p, k, room)
                                == len(_value_sets(p, k, level, c)[2]))


def test_routes_agree_randomized():
    # forcing the walk route at k = 3 needs a small modulus to stay quick,
    # so cubic comparisons stick to p in {5, 7}
    rng = Random(11)
    for _ in range(150):
        k = rng.choice((2, 3))
        p = rng.choice((5, 7, 11, 13)) if k == 2 else rng.choice((5, 7))
        n = rng.choice((1, 2, 3))
        entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 60)
                        for _ in range(n + 1))
        a = vec(entries, k)
        clear_caches()
        dp = decide_qp(a, p, route="dp")
        clear_caches()
        scale = decide_qp(a, p, route="scale")
        assert (dp.route, scale.route) == ("dp", "scale")
        dp, scale = dp.status, scale.status
        assert dp == scale, (entries, k, p)


def test_projective_and_permutation_invariance():
    rng = Random(5)
    for _ in range(80):
        k = rng.choice((2, 3))
        p = rng.choice((2, 3, 5))
        entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 40)
                        for _ in range(3))
        base = decide_qp(vec(entries, k), p).status
        scaled = tuple(x * p**k for x in entries)
        assert decide_qp(vec(scaled, k), p).status == base
        unit_scaled = tuple(x * 3**k for x in entries)
        assert decide_qp(vec(unit_scaled, k), p).status == base
        flipped = tuple(-x for x in entries)
        assert decide_qp(vec(flipped, k), p).status == base
        shuffled = list(entries)
        rng.shuffle(shuffled)
        assert decide_qp(vec(tuple(shuffled), k), p).status == base


def test_signature_determines_verdict():
    rng = Random(13)
    for _ in range(60):
        k = rng.choice((2, 3))
        p = rng.choice((2, 3, 5, 7))
        entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 50)
                        for _ in range(3))
        a = vec(entries, k)
        # same signature via coordinate k-th power twists
        twisted = tuple(x * rng.choice((1, 2**k, 3**k)) * p**(k * rng.randint(0, 2))
                        for x in entries)
        b = vec(twisted, k)
        sig_a = normalize(a, p).signature
        sig_b = normalize(b, p).signature
        if sig_a == sig_b:
            assert decide_qp(a, p).status == decide_qp(b, p).status


def test_cell_orbits_share_a_verdict_away_from_p_dividing_k():
    # global exponent shifts and class rescaling preserve solubility, so
    # each orbit of cells can be decided once
    from locsol.padic import all_cells, cell_orbit, cell_representative
    from locsol.solubility import _soluble_at
    for k in (3, 4, 6):
        for p in (5, 7, 11, 13, 17, 19, 23, 29):
            if k % p == 0:
                continue
            decided = {cell: _soluble_at(cell_representative(cell, p, k),
                                         p, k)
                       for cell in all_cells(p, k, 2)}
            seen = set()
            for cell, soluble in decided.items():
                if cell not in seen:
                    orbit = cell_orbit(cell, p, k)
                    seen |= orbit
                    assert {decided[c] for c in orbit} == {soluble}, \
                        (p, k, cell)


def test_pattern_tags_predict_solubility():
    # away from p | k and below-threshold primes, the tag decides
    rng = Random(3)
    for _ in range(200):
        k = rng.choice((2, 3))
        p = rng.choice((5, 7, 11, 13))
        n = rng.choice((2, 3, 4))
        entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 60)
                        for _ in range(n + 1))
        a = vec(entries, k)
        tag = classify_type(a, p)
        verdict = decide_qp(a, p)
        if tag == "II":
            assert verdict.is_soluble, (entries, k, p)
        elif tag == "III":
            assert not verdict.is_soluble, (entries, k, p)
        elif tag == "I" and (p >= (k - 1) * (k - 2) or (p - 1) % k):
            assert verdict.is_soluble, (entries, k, p)


def test_high_dimension_cubics_always_soluble():
    rng = Random(17)
    for p in (2, 3, 7, 13):
        for _ in range(40):
            entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 99)
                            for _ in range(7))
            assert decide_qp(vec(entries, 3), p).is_soluble


def test_verdict_cache_roundtrip():
    clear_caches()
    decide_qp(vec((1, 1, 3)), 2)
    stored = dump_verdicts()
    assert len(stored) == 1
    ((p, k, sig),) = stored.keys()
    assert (p, k) == (2, 2)
    assert stored[(p, k, sig)] == "soluble"


def test_decide_real():
    assert decide_real(vec((1, 2, 3))).status == "insoluble"
    assert decide_real(vec((1, -2, 3))).status == "soluble"
    assert decide_real(vec((1, 2, 3), 3)).status == "soluble"
    assert decide_real(vec((1, 0, 3))).status == "soluble-trivially"
    assert decide_real(vec((-1, -1))).status == "insoluble"


def test_relevant_primes_worked_examples():
    assert relevant_primes(vec((1, 1, 1))) == [2]
    assert relevant_primes(vec((1, 2, 3))) == [2, 3]
    # quartics: p in {5, 13, 17, 29} all collapse k-th powers too far
    # for the curve count to help, e.g. fourth powers mod 5 are {0, 1}
    assert relevant_primes(vec((1, 1, 5), 4)) == [2, 5, 13, 17, 29]
    # two coefficients: the divisors of the data are complete too
    assert relevant_primes(vec((1, 2))) == [2]
    assert relevant_primes(vec((3, -5), 3)) == [3, 5]
    with pytest.raises(DegenerateInput):
        relevant_primes(vec((1, 0, 2)))


def test_quartic_obstruction_at_thirteen():
    # fourth powers mod 13 are {0, 1, 3, 9}, and no a + b + 2c with a, b,
    # c among them vanishes unless all three do: x^4 + y^4 + 2z^4 has no
    # nontrivial zero over Q_13, which p < (k-1)(k-2) would miss
    assert decide_qp(vec((1, 1, 2), 4), 13).status == "insoluble"
    assert 13 in pathological_primes(4)


def test_relevant_primes_complete_against_scan():
    # primes outside the set never obstruct: scan a band beyond it
    rng = Random(23)
    from locsol.primes import primes_below
    for _ in range(25):
        k = rng.choice((2, 3, 4))
        entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 30)
                        for _ in range(3))
        a = vec(entries, k)
        listed = set(relevant_primes(a))
        for p in primes_below(60):
            if p not in listed:
                assert decide_qp(a, p).is_soluble, (entries, k, p)


def test_everywhere_local_reports():
    report = decide_everywhere_local(vec((1, 1, 1, 1)))
    assert not report.overall
    assert report.tested_primes == (2,)
    statuses = {v.place: v.status for v in report.verdicts}
    assert statuses["real"] == "insoluble"

    report = decide_everywhere_local(vec((1, 1, -3, 1)))
    assert report.overall

    report = decide_everywhere_local(vec((1, 0, 3)))
    assert report.overall and report.tested_primes == ()

    # two coefficients test the same finite set as three
    report = decide_everywhere_local(vec((1, -3)))
    assert not report.overall
    assert report.tested_primes == (2, 3)
    report = decide_everywhere_local(vec((1, -4)))
    assert report.overall


def test_everywhere_local_matches_oracle_on_small_vectors():
    rng = Random(31)
    for _ in range(40):
        entries = tuple(rng.choice((-1, 1)) * rng.randint(1, 20)
                        for _ in range(3))
        k = rng.choice((2, 3))
        a = vec(entries, k)
        report = decide_everywhere_local(a)
        for v in report.verdicts:
            if v.place == "real":
                continue
            assert decide_by_lifting(entries, k, v.place) == v.is_soluble
    # p | k beyond the catalogued cubics (quartics at 2, quintics at 5),
    # and pathological p not dividing k
    for k, p in ((4, 2), (5, 5), (4, 13), (5, 11), (6, 7)):
        checked = 0
        while checked < 25:
            entries = tuple(rng.choice((-1, 1)) * p**rng.choice((0, 0, 1))
                            * rng.randint(1, 9) for _ in range(3))
            try:
                reference = decide_by_lifting(entries, k, p)
            except OracleOverflow:
                continue
            clear_caches()
            verdict = decide_qp(vec(entries, k), p, with_witness=True)
            assert verdict.is_soluble == reference, (entries, k, p)
            if reference:
                check_witness(verdict, p, k)
            checked += 1


def test_verify_classification_requires_known_regime():
    with pytest.raises(PreconditionViolated):
        verify_classification(5, 2, 2)
    with pytest.raises(PreconditionViolated):
        verify_classification(3, 3, 1)
