import hashlib
from random import Random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locsol import solubility
from locsol.errors import (ClassificationMismatch, DegenerateInput,
                           OracleOverflow, PreconditionViolated,
                           ResourceBound)
from locsol.oracle import decide_by_lifting
from locsol.padic import (CoefficientVector, all_cells, classify_type,
                          orbit_record, signature)
from locsol.primes import factor
from locsol.solubility import (clear_caches, decide_everywhere_local,
                               decide_qp, decide_real, dump_verdicts,
                               pathological_primes, relevant_primes)
from locsol.verification import (cell_orbit, cell_representative,
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
    from locsol.padic import class_reps
    a = vec((3, -5, 7, 10_007 * 11))
    class_reps.cache_clear()
    orbit_record(a, 10_007)
    classify_type(a, 10_007)
    clear_caches()
    decide_qp(a, 10_007)
    clear_caches()
    decide_qp(a, 10_007, with_witness=True)
    # decisions label units by formula; only cells look up class reps
    assert class_reps.cache_info().misses == 0
    # cells away from p | k carry power-residue labels too
    rho_p_exact(2, 4, 13)
    generic_sum(3, 4, 13)
    assert len(cell_orbit(((0, 1), (1, 12)), 13, 4)) == 16


def test_large_p_dividing_k_labels_and_decides():
    # at (61, 61) the classes live mod 61^3 = 226,981; the label formula
    # needs no list of them
    from locsol.padic import (certificate_exponent, class_count,
                              class_label, class_reps, signature)
    p = k = 61
    assert len(class_reps(p, k)) == class_count(p, k) == 61
    one, other = class_label(1, p, k), class_label(62, p, k)
    assert one != other
    # 2^61 is a 61st power, and so is 1 + 61^2 = (1 + 61 t)^61 for some t
    assert signature((62, 1 + 61**2, 2**61, 61 * 62), p, k) == tuple(
        sorted([(0, other), (0, one), (0, one), (1, other)]))
    clear_caches()
    verdict = decide_qp(vec((1, 2, 3), k), p, with_witness=True)
    assert verdict.status == "soluble"
    assert verdict.certificate_level == certificate_exponent(p, k)
    check_witness(verdict, p, k)


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


def test_no_walk_for_a_verdict_at_a_non_pathological_prime(monkeypatch):
    from locsol import solubility

    def refuse(*args):
        raise AssertionError("walked")

    # -1 is not a square mod 7, so no pair decides; 7 is not pathological
    # for k = 2, so three units always have a zero
    monkeypatch.setattr(solubility, "_walk", refuse)
    clear_caches()
    assert decide_qp(vec((1, 1, 1)), 7).status == "soluble"
    with pytest.raises(AssertionError):
        decide_qp(vec((1, 1, 1)), 7, with_witness=True)
    monkeypatch.undo()
    clear_caches()
    check_witness(decide_qp(vec((1, 1, 1)), 7, with_witness=True), 7, 2)


@given(st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8),
                        (3, 2), (3, 3), (3, 4), (3, 6), (5, 2), (5, 3),
                        (5, 5), (7, 2), (7, 3), (7, 7), (13, 2), (13, 4),
                        (13, 6)]),
       st.lists(st.tuples(st.sampled_from([-1, 1]),
                          st.integers(min_value=0, max_value=17),
                          st.integers(min_value=1, max_value=10**5)),
                min_size=2, max_size=6))
@settings(max_examples=300, deadline=None)
def test_settle_keys_the_cache_by_signature(pk, parts):
    # n = 1..5 nonzero entries; p | k at p = 2 with k in {2, 4, 6, 8}, and
    # at (3, 3), (3, 6), (5, 5), (7, 7).  A miss stores the key, the
    # signature, that the next call finds.
    from locsol.solubility import _settle
    p, k = pk
    entries = tuple(s * p**e * u for s, e, u in parts)
    clear_caches()
    status = _settle(entries, p, k)[0]
    assert dump_verdicts() == {(p, k, signature(entries, p, k)): status}
    assert _settle(entries, p, k)[:2] == (status, "cache")


def test_memo_caches_are_bounded(monkeypatch):
    from locsol import solubility
    from locsol.density import layer_terms
    from locsol.padic import _labeller, class_reps
    from locsol.primes import factor
    from locsol.solubility import _WALK_TABLES, load_verdicts
    assert factor.cache_info().maxsize is not None
    assert _labeller.cache_info().maxsize is not None
    assert class_reps.cache_info().maxsize is not None
    assert pathological_primes.cache_info().maxsize is not None
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
    # the walks mod 7^3 at k = p = 7 and mod 8 at k = p = 2 both keep
    # their power table and value sets in the one walk memo
    for p in (7, 2):
        clear_caches()
        assert len(_WALK_TABLES) == _WALK_TABLES.entries == 0
        assert decide_qp(vec((1, 1, 1), p), p).route == "dp"
        assert (p, p, 3) in _WALK_TABLES and (p, p, 3, 1) in _WALK_TABLES
        assert walk_items(_WALK_TABLES) == _WALK_TABLES.entries
        assert _WALK_TABLES.entries <= solubility.WALK_TABLES_SIZE
    clear_caches()
    assert len(_WALK_TABLES) == _WALK_TABLES.entries == 0


def walk_items(tables):
    """Dict items the walk tables hold, over every key."""
    return sum(len(table) for value in tables.values() for table in value)


def test_walk_tables_hold_at_most_their_bound(monkeypatch):
    # witnesses at p = 683 (not pathological for k = 2, so three units
    # with no pair are walked mod p): the power table holds 342 items and
    # each value-set triple 684, so under a bound of 6,000 the memo fills
    # and is dropped
    rng = Random(5)
    forms = [vec(tuple(rng.choice((-1, 1)) * rng.randint(1, 682)
                       for _ in range(3))) for _ in range(60)]
    clear_caches()
    expected = [decide_qp(form, 683, with_witness=True) for form in forms]
    assert sum(v.witness is not None for v in expected) > 40
    tables = solubility._WALK_TABLES
    assert 0 < walk_items(tables) == tables.entries
    assert tables.entries <= solubility.WALK_TABLES_SIZE
    monkeypatch.setattr(solubility, "WALK_TABLES_SIZE", 6000)
    clear_caches()
    seen = set()
    for form, verdict in zip(forms, expected):
        assert decide_qp(form, 683, with_witness=True) == verdict
        assert walk_items(tables) == tables.entries <= 6000
        seen.add(tables.entries)
    assert max(seen) > 4000 and 0 in seen    # filled up and dropped


@pytest.mark.parametrize("held", [0, 3, 8])
@pytest.mark.parametrize("loaded", [0, 4, 5, 9, 14])
def test_loading_verdicts_evicts_as_one_row_at_a_time(monkeypatch, held,
                                                      loaded):
    from collections import OrderedDict

    from locsol import solubility
    bound = 8
    monkeypatch.setattr(solubility, "VERDICT_CACHE_SIZE", bound)
    old = {(2, 2, ((0, i),)): "soluble" for i in range(held)}
    # half the loaded keys are already held, some with another status
    new = {(2, 2, ((0, i),)): ("insoluble" if i % 3 else "soluble")
           for i in range(held // 2, held // 2 + loaded)}
    expected = OrderedDict(old)
    for key, status in new.items():
        if key not in expected and len(expected) >= bound:
            expected.popitem(last=False)
        expected[key] = status
    clear_caches()
    solubility.load_verdicts(old)
    solubility.load_verdicts(new)
    assert list(dump_verdicts().items()) == list(expected.items())
    clear_caches()


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
    for entries, k, p in cases:              # fill the memo caches first
        clear_caches()
        decide_qp(vec(entries, k), p)
    padic.class_reps(2, 2)
    # solubility imports no is_prime: a call through one re-added counts
    monkeypatch.setattr(solubility, "is_prime", counting, raising=False)
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
        orbit_record(vec((1, 1, 1)), 9)


def test_decisions_build_no_normal_form(monkeypatch):
    from locsol import cli, padic
    from locsol.density import rho_p_exact
    from locsol.survey import survey_box

    def refuse(*args, **kwargs):
        raise AssertionError("an orbit record was built")

    monkeypatch.setattr(padic, "orbit_record", refuse)
    monkeypatch.setattr(cli, "orbit_record", refuse)
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
    # the one command that builds it does trip the patch
    with pytest.raises(AssertionError):
        cli.main(["orbit", "-k", "2", "-p", "2", "1", "5", "2"])


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


def test_pinned_witnesses_above_the_scan_limit(monkeypatch):
    # recorded while sympy's nthroot_mod (the least root) took the k-th
    # roots above _ROOT_SCAN_LIMIT; both the pair and the curve point
    # take one
    from locsol import solubility
    curve_points = []
    curve = solubility._group_curve_solution
    monkeypatch.setattr(solubility, "_group_curve_solution",
                        lambda *args: curve_points.append(1) or curve(*args))
    clear_caches()
    rng = Random(20261019)
    rows = []
    for _ in range(150):
        p = rng.choice((3001, 7919, 9973, 10007, 65537, 998244353))
        k = rng.randint(2, 8)
        n = rng.choice((2, 2, 3, 4))
        entries = tuple(rng.choice((-1, 1)) * p**rng.choice((0, 0, 0, 1))
                        * rng.randint(1, 10**6) for _ in range(n + 1))
        v = decide_qp(vec(entries, k), p, with_witness=True)
        rows.append((v.status, v.witness, v.witness_form,
                     v.certificate_level))
    assert len(curve_points) == 14
    assert sum(row[0] == "soluble" for row in rows) == 123
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "c9cecc61d0e84a0451eb86b6be29ad883b5a6a38f12f89d4c6f2b811763d8b75")


def test_kth_root_is_the_least_root():
    # every k-th power unit at primes above the scan limit, p - 1 with
    # small factors of several kinds
    from locsol.solubility import _ROOT_SCAN_LIMIT, _kth_root_mod
    for p in (3001, 3889, 7681):     # 2^3 3 5^3, 2^4 3^5, 2^9 3 5
        assert p > _ROOT_SCAN_LIMIT
        for k in range(2, 13):
            least = {}
            for y in range(1, p):
                least.setdefault(pow(y, k, p), y)
            assert all(_kth_root_mod(v, k, p) == y for v, y in least.items())
    with pytest.raises(PreconditionViolated):
        _kth_root_mod(7, 2, 3001)    # 7 is no square mod 3001


@pytest.mark.parametrize("p", [3001, 7919, 9973])
@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_kth_root_is_the_least_root_cold_and_warm(p, k):
    # the first root at (p, k) builds the Sylow set-up, every later one
    # reuses it; each is checked against a brute scan
    from locsol.solubility import _ROOT_SCAN_LIMIT, _kth_root_mod, _root_setup
    assert p > _ROOT_SCAN_LIMIT
    least = {}
    for y in range(1, p):
        least.setdefault(pow(y, k, p), y)
    values = list(least)
    Random(p * k).shuffle(values)
    clear_caches()
    assert _root_setup.cache_info().currsize == 0
    assert _kth_root_mod(values[0], k, p) == least[values[0]]    # cold
    info = _root_setup.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    assert all(_kth_root_mod(v, k, p) == least[v] for v in values)
    assert _root_setup.cache_info().misses == 1                  # warm
    if len(least) < p - 1:
        missing = next(v for v in range(2, p) if v not in least)
        with pytest.raises(PreconditionViolated):
            _kth_root_mod(missing, k, p)


def test_clear_caches_empties_the_prime_and_root_memos():
    from locsol.padic import _proved_prime
    from locsol.solubility import _root_setup
    clear_caches()
    # -1 is a cube, so the pair (1, 1) gives the witness, a cube root
    verdict = decide_qp(vec((1, 1, 5), 3), 9973, with_witness=True)
    check_witness(verdict, 9973, 3)
    assert _proved_prime.cache_info().currsize == 1
    assert _root_setup.cache_info().currsize == 1
    clear_caches()
    assert _proved_prime.cache_info().currsize == 0
    assert _root_setup.cache_info().currsize == 0


@pytest.mark.parametrize("bound", [None, 5, 6])
def test_loaded_verdicts_dump_in_their_order(monkeypatch, bound):
    # into a cleared memo a load keeps the table's own key order, up to
    # a full memo; the next new key then evicts the first loaded one
    from locsol.solubility import _remember, load_verdicts
    if bound is not None:
        monkeypatch.setattr(solubility, "VERDICT_CACHE_SIZE", bound)
    table = {(p, 2, ((0, 1), (e, 3))): ("soluble" if e % 2 else "insoluble")
             for p, e in ((7, 1), (3, 0), (5, 1), (2, 1), (11, 0))}
    clear_caches()
    load_verdicts(table)
    dumped = dump_verdicts()
    assert list(dumped.items()) == list(table.items())
    assert dumped is not table
    _remember((13, 2, ((0, 1),)), "soluble")
    keys = list(dump_verdicts())
    assert keys[:-1] == list(table)[(bound == 5):]
    clear_caches()


STATUS = st.sampled_from(("soluble", "insoluble"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.dictionaries(st.integers(0, 12), STATUS, max_size=8),
    st.tuples(st.integers(0, 12), STATUS)), max_size=12))
def test_the_verdict_memo_evicts_like_an_ordered_dict(steps):
    # loads (into an empty or a held memo, evicting or not) and single
    # verdicts under a bound of 6; the memo, and the key queue behind
    # its eviction, must match an OrderedDict that pops its oldest key
    from collections import OrderedDict

    from locsol.solubility import _remember, load_verdicts
    bound, saved = 6, solubility.VERDICT_CACHE_SIZE
    solubility.VERDICT_CACHE_SIZE = bound
    try:
        clear_caches()
        model = OrderedDict()
        for step in steps:
            items = ({(2, 2, ((0, i),)): v for i, v in step.items()}
                     if isinstance(step, dict)
                     else {(2, 2, ((0, step[0]),)): step[1]})
            for key, status in items.items():
                if key not in model and len(model) >= bound:
                    model.popitem(last=False)
                model[key] = status
            if isinstance(step, dict):
                load_verdicts(items)
            else:
                _remember(*items.popitem())
            assert list(dump_verdicts().items()) == list(model.items())
            assert list(solubility._ORDER) == list(model)
    finally:
        solubility.VERDICT_CACHE_SIZE = saved
        clear_caches()


def test_kth_root_matches_sympy():
    from sympy.ntheory.residue_ntheory import nthroot_mod

    from locsol.solubility import _kth_root_mod
    rng = Random(5)
    # p - 1 = 2^16, 7 17 2^23, 2^12 3, 2^3 3^8, 2 3^9, and 2^61 - 2
    for p in (65537, 998244353, 12289, 52489, 39367, 2**61 - 1):
        for k in range(2, 13):
            for _ in range(12):
                v = pow(rng.randrange(1, p), k, p)
                assert _kth_root_mod(v, k, p) == nthroot_mod(v, k, p)


def test_trivial_zero_coefficient():
    verdict = decide_qp(vec((1, 0, 3)), 5)
    assert verdict.status == "soluble-trivially"
    assert verdict.witness == (0, 1, 0)
    assert decide_qp(vec((1, 0, 1)), 3).route == "trivial"
    with pytest.raises(DegenerateInput):
        decide_qp(vec((0, 0, 0)), 5)


def test_composite_place_and_walk_work_cap():
    with pytest.raises(PreconditionViolated):
        decide_qp(vec((1, 1, 1)), 6)
    # the walk at p not dividing k is mod p, so a witness at p = 683
    # (-1 is no square, so no pair shortcut) is cheap; the walk mod
    # 101^3 at k = p = 101 is refused from its work estimate before any
    # work
    from locsol.solubility import WALK_WORK_CAP
    clear_caches()
    start = perf_counter()
    with pytest.raises(ResourceBound) as info:
        decide_qp(vec((1, 1, 1), 101), 101)
    assert perf_counter() - start < 1.0
    assert info.value.required > WALK_WORK_CAP
    clear_caches()
    verdict = decide_qp(vec((1, 1, 1)), 683, with_witness=True)
    assert verdict.route == "scale"
    check_witness(verdict, 683, 2)


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


def test_value_sets_match_one_pow_per_residue_in_order():
    # the walk's witness recovery reads the dicts in insertion order, so
    # the order is checked as well as the content, of a cold build (the
    # walk memo emptied first) and of a warm read from the memo
    from locsol.solubility import _value_sets
    for p in (2, 3, 5, 7, 11, 13):
        # a unit that is not a square (mod 8 for p = 2)
        nonresidue = 3 if p == 2 else next(
            c for c in range(2, p) if pow(c, (p - 1) // 2, p) != 1)
        for k in range(2, 10):
            level = 1
            while p**level <= 3000:
                q = p**level
                for c in {1, p, p * p, nonresidue, q - 1}:
                    c %= q
                    if not c:
                        continue
                    unit, nonunit = {}, {}
                    for t in range(q):
                        (nonunit if t % p == 0 else unit).setdefault(
                            c * pow(t, k, q) % q, t)
                    want = [list(unit.items()), list(nonunit.items()),
                            list((nonunit | unit).items())]
                    clear_caches()
                    for _ in range(2):
                        got = [list(d.items())
                               for d in _value_sets(p, k, level, c)]
                        assert got == want, (p, k, level, c)
                level += 1


def test_walk_at_pathological_primes_agrees_with_lifting(monkeypatch):
    # at a pathological p not dividing k a unit layer with no k-th power
    # pair, or any layer of three when a witness is wanted, is walked
    from locsol import solubility
    walked = []
    walk = solubility._walk

    def counting(*args):
        walked.append(args[:2])
        return walk(*args)

    monkeypatch.setattr(solubility, "_walk", counting)
    rng = Random(11)
    for _ in range(40):
        k, p = rng.choice(((4, 5), (4, 13), (5, 11), (6, 7), (6, 13)))
        entries = tuple(rng.choice((-1, 1)) * rng.randint(1, p - 1)
                        for _ in range(rng.choice((3, 4))))
        clear_caches()
        verdict = decide_qp(vec(entries, k), p, with_witness=True)
        assert verdict.route == "scale"
        assert verdict.is_soluble == decide_by_lifting(entries, k, p), \
            (entries, k, p)
        if verdict.is_soluble:
            check_witness(verdict, p, k)
    assert len(walked) >= 10


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
        sig_a = signature(a.entries, p, k)
        sig_b = signature(b.entries, p, k)
        if sig_a == sig_b:
            assert decide_qp(a, p).status == decide_qp(b, p).status


def test_cell_orbits_share_a_verdict_away_from_p_dividing_k():
    # global exponent shifts and class rescaling preserve solubility, so
    # each orbit of cells can be decided once
    for k in (3, 4, 6):
        for p in (5, 7, 11, 13, 17, 19, 23, 29):
            if k % p == 0:
                continue
            decided = {cell: decide_qp(CoefficientVector(
                           cell_representative(cell, p, k), k), p).is_soluble
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
    # 1, 1, 1 are three units at p = 3, which is not pathological for k = 2
    assert relevant_primes(vec((1, 1, -3, 1))) == [2]
    # five entries put three in one class of v_p mod 2 at every prime
    assert relevant_primes(vec((3, 15, -35, 77, 6))) == [2]
    assert relevant_primes(vec((7**3, -11, 13 * 17, 19, 23**2))) == [2]
    # three entries in one class at a pathological prime keep it
    assert relevant_primes(vec((13, 26, 39, 1), 4)) == [2, 5, 13, 17, 29]
    with pytest.raises(DegenerateInput):
        relevant_primes(vec((1, 0, 2)))


def test_quartic_obstruction_at_thirteen():
    # fourth powers mod 13 are {0, 1, 3, 9}, and no a + b + 2c with a, b,
    # c among them vanishes unless all three do: x^4 + y^4 + 2z^4 has no
    # nontrivial zero over Q_13, which p < (k-1)(k-2) would miss
    assert decide_qp(vec((1, 1, 2), 4), 13).status == "insoluble"
    assert 13 in pathological_primes(4)


def test_relevant_primes_complete_against_scan():
    # primes outside the set never obstruct: every divisor the set leaves
    # out, and a band beyond it.  Entries +-q^e*u over small q often put
    # three in one class of v_q mod k, which is what drops q.
    rng = Random(23)
    from locsol.primes import prime_divisors, primes_below
    dropped = 0
    for _ in range(300):
        k = rng.randint(2, 6)
        n = rng.randint(2, 5)
        entries = tuple(rng.choice((-1, 1)) * rng.choice((2, 3, 5, 7))
                        ** rng.randint(0, 2 * k) * rng.randint(1, 30)
                        for _ in range(n + 1))
        a = vec(entries, k)
        listed = set(relevant_primes(a))
        divisors = set().union(*map(prime_divisors, entries))
        assert set(pathological_primes(k)) <= listed
        assert listed <= divisors | set(pathological_primes(k))
        dropped += len(divisors - listed)
        for p in divisors | set(primes_below(60)):
            if p not in listed:
                assert decide_qp(a, p).is_soluble, (entries, k, p)
    assert dropped > 300


# primes above 10^6 planted as shared divisors, so that a large prime
# can divide enough entries to be tested
PLANTED = (1_000_003, 1_000_033, 1_000_037, 1_000_039)


def planted_entries(rng, m, bound=10**15):
    """m nonzero entries of both signs, |x| <= bound, most of them
    carrying powers of one or two shared primes, small or planted."""
    shared = rng.sample(PLANTED + (2, 3, 5, 7, 13), rng.randint(1, 2))
    entries = []
    for _ in range(m):
        x = 1
        for q in shared:
            power = q ** rng.randint(1, 3)
            if rng.random() < 0.8 and x * power <= bound:
                x *= power
        x *= rng.randint(1, bound // x)
        entries.append(rng.choice((-1, 1)) * x)
    return tuple(entries)


def reference_tested_primes(entries, k):
    """The class rule on a full factorization of every entry by sympy:
    the pathological primes of k and every prime divisor whose classes
    of v_p mod k hold at most two entries."""
    from sympy import factorint
    valuations = {}
    for i, x in enumerate(entries):
        for p, e in factorint(abs(x)).items():
            valuations.setdefault(int(p), [0] * len(entries))[i] = e
    tested = set(pathological_primes(k))
    for p, es in valuations.items():
        rs = [e % k for e in es]
        if max(map(rs.count, rs)) <= 2:
            tested.add(p)
    return sorted(tested)


def test_tested_primes_match_a_full_factorization():
    rng = Random(24)
    planted = beyond = 0
    for m in range(2, 8):
        for k in range(2, 9):
            for _ in range(6):
                entries = planted_entries(rng, m)
                got = solubility._tested_primes(entries, k)
                assert got == reference_tested_primes(entries, k), (
                    entries, k)
                planted += m > 3 and any(p in PLANTED for p in got)
                beyond += m > 2 * k
    # from four entries on planted primes are tested, and the pigeonhole
    # case is met
    assert planted > 10 and beyond > 10


def test_tested_primes_factor_only_shared_divisors(monkeypatch):
    # from four entries on a tested prime divides two of them, so only
    # pairwise gcds are factored; past 2k entries nothing is
    calls = []

    def recording(c):
        calls.append(c)
        return factor(c)

    monkeypatch.setattr(solubility, "factor", recording)
    rng = Random(25)
    shared = 0
    for m in range(4, 8):
        for k in range(2, 9):
            for _ in range(4):
                entries = planted_entries(rng, m)
                calls.clear()
                solubility._tested_primes(entries, k)
                if m > 2 * k:
                    assert calls == [], (entries, k)
                for c in calls:
                    assert sum(x % c == 0 for x in entries) >= 2, (
                        entries, c)
                shared += len(calls)
    assert shared > 50


def test_everywhere_local_reports():
    report = decide_everywhere_local(vec((1, 1, 1, 1)))
    assert not report.overall
    assert report.tested_primes == (2,)
    statuses = {v.place: v.status for v in report.verdicts}
    assert statuses["real"] == "insoluble"

    report = decide_everywhere_local(vec((1, 1, -3, 1)))
    assert report.overall
    assert report.tested_primes == (2,)
    assert [v.place for v in report.verdicts] == ["real", 2]

    # p = 13 is pathological for k = 4, so three entries in one class of
    # v_13 mod 4 do not settle it
    report = decide_everywhere_local(vec((13, 26, 39, 1), 4))
    assert 13 in report.tested_primes

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


@pytest.mark.parametrize("p, k, n", [(2, 2, 2), (2, 2, 3), (2, 2, 4),
                                     (3, 3, 2), (3, 3, 3), (3, 3, 4)])
@pytest.mark.parametrize("end", [0, -1])
def test_a_wrong_decision_trips_the_catalogue_check(monkeypatch, p, k, n,
                                                    end):
    # every catalogue decision goes through _settle: flip the status of
    # one signature there, and the check must name a cell with it
    from locsol import solubility
    cell = list(all_cells(p, k, n))[end]
    flipped = signature(cell_representative(cell, p, k), p, k)
    settle = solubility._settle

    def wrong(entries, q, degree, *args, **kwargs):
        status, *rest = settle(entries, q, degree, *args, **kwargs)
        if (q, degree) == (p, k) and signature(entries, q, k) == flipped:
            status = "soluble" if status == "insoluble" else "insoluble"
        return (status, *rest)

    monkeypatch.setattr(solubility, "_settle", wrong)
    clear_caches()
    with pytest.raises(ClassificationMismatch) as caught:
        verify_classification(p, k, n)
    bad = caught.value.cell
    assert signature(cell_representative(bad, p, k), p, k) == flipped
    clear_caches()
