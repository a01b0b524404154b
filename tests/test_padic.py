import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locsol.errors import DegenerateInput, PreconditionViolated
from locsol import padic
from locsol.padic import (CoefficientVector, _split, all_cells,
                          certificate_exponent, class_count, class_label,
                          class_precision, class_reps, classify_type,
                          orbit_record, signature, symbol_alphabet,
                          valuation)
from locsol.primes import primes_below
from locsol.solubility import clear_caches, decide_qp, load_verdicts
from locsol.verification import cell_orbit, cell_representative


def test_valuation_basics():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(-250, 5) == 3
    assert valuation(7, 11) == 0
    with pytest.raises(DegenerateInput):
        valuation(0, 3)


@given(st.integers(min_value=1, max_value=10**9),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_valuation_splits_exactly(x, p):
    v = valuation(x, p)
    assert x % p**v == 0 and (x // p**v) % p != 0


def test_certificate_exponent():
    assert certificate_exponent(2, 2) == 5
    assert certificate_exponent(3, 3) == 7
    assert certificate_exponent(5, 2) == 3
    assert certificate_exponent(7, 3) == 5
    assert class_precision(2, 2) == 3
    assert class_precision(3, 3) == 3
    assert class_precision(5, 3) == 1


def _kth_power_cosets(p, k):
    """Brute force: the cosets of the k-th powers among the units mod
    p^c, c = class_precision(p, k)."""
    modulus = p**class_precision(p, k)
    units = [u for u in range(1, modulus) if u % p]
    powers = {pow(t, k, modulus) for t in units}
    return modulus, {frozenset(u * q % modulus for q in powers)
                     for u in units}


def test_unit_classes_mod_8():
    # the squares of units are 1 + 8Z_2, so each unit mod 8 is a class
    assert class_count(2, 2) == 4
    assert dict(class_reps(2, 2)) == {1: 1, 3: 3, 5: 5, 7: 7}
    assert class_label(-1, 2, 2) == 7 and class_label(17, 2, 2) == 1
    # the count at any level c matches the brute-force index
    for k in range(2, 13):
        for c in range(1, 8):
            units = range(1, 2**c, 2)
            powers = {pow(t, k, 2**c) for t in units}
            assert class_count(2, k, c) == len(units) // len(powers), (k, c)


def test_unit_classes_mod_27():
    modulus, cosets = _kth_power_cosets(3, 3)
    assert modulus == 27
    assert cosets == {frozenset({1, 8, 10, 17, 19, 26}),
                      frozenset({2, 7, 11, 16, 20, 25}),
                      frozenset({4, 5, 13, 14, 22, 23})}
    assert class_count(3, 3) == 3
    # labels pow(u, 6, 27); the smallest units of the classes are 1, 2, 4
    assert dict(class_reps(3, 3)) == {1: 1, 10: 2, 19: 4}
    for coset in cosets:
        assert len({class_label(u, 3, 3) for u in coset}) == 1
    # cube classes are already determined mod 9
    units = [u for u in range(1, 27) if u % 3]
    for u in units:
        for w in units:
            if (u - w) % 9 == 0:
                assert class_label(u, 3, 3) == class_label(w, 3, 3)


def test_unit_classes_mod_5_squares():
    assert class_count(5, 2) == 2
    assert dict(class_reps(5, 2)) == {1: 1, 4: 2}
    square = class_label(1, 5, 2)
    assert class_label(4, 5, 2) == square and class_label(-1, 5, 2) == square
    assert class_label(2, 5, 2) != square and class_label(3, 5, 2) != square


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_class_count_formula_odd_p(p, k):
    from math import gcd
    v = valuation(k, p) if k % p == 0 else 0
    assert class_count(p, k) == gcd(k, p - 1) * p**v
    # at every level c the count is the brute-force index
    for c in (1, 2, 3):
        units = [u for u in range(1, p**c) if u % p]
        powers = {pow(t, k, p**c) for t in units}
        assert class_count(p, k, c) == len(units) // len(powers), c


@pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (11, 3), (13, 3), (7, 4)])
def test_power_detection_matches_sympy(p, k):
    from sympy.ntheory.residue_ntheory import nthroot_mod
    for u in range(1, p):
        direct = nthroot_mod(u, k, p) is not None
        assert (class_label(u, p, k) == class_label(1, p, k)) == direct


def test_class_label_large_prime_path():
    # the power-residue label needs no stored state, whatever the size of p
    p = 1_000_003
    assert class_label(1, p, 2) == 1
    assert class_label(4, p, 2) == 1
    squares = {class_label(u, p, 2) for u in (1, 4, 9, 16, 25)}
    assert squares == {1}
    assert class_count(p, 2) == 2


def test_power_residue_labels_agree_with_tables():
    # the reference partition is brute force, the cosets of the set of
    # k-th powers mod p^c, at every p < 60 and 2 <= k <= 12, p | k too;
    # u - p^c and u + 3p^c check negative units and units above p^c
    for p in primes_below(60):
        for k in range(2, 13):
            modulus, cosets = _kth_power_cosets(p, k)
            labels = set()
            for coset in cosets:
                found = {class_label(u + j * modulus, p, k)
                         for u in coset for j in (-1, 0, 3)}
                assert len(found) == 1, (p, k, sorted(coset))
                labels |= found
                assert (class_label(min(coset), p, k)
                        == class_label(1, p, k)) == (1 in coset)
            assert len(labels) == len(cosets), (p, k)
            assert class_count(p, k) == len(class_reps(p, k)) \
                == len(cosets), (p, k)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 6), (2, 8),
                                 (3, 2), (3, 3), (3, 6), (5, 2), (5, 4),
                                 (5, 5), (7, 3), (7, 7), (13, 4), (13, 6)])
def test_class_label_is_the_closed_formula(p, k):
    # the formula as written before labels became (exponent, modulus)
    # pairs: u mod 2^(tau+2) at p = 2 with k even, else u^(N/g) mod p^c
    c = class_precision(p, k)
    if p == 2 and k % 2 == 0:
        def formula(u):
            return u % 2**(c // 2 + 2)
    else:
        exponent = p**(c - 1) * (p - 1) // class_count(p, k)

        def formula(u):
            return pow(u, exponent, p**c)
    for u in range(1, p**c):
        if u % p:
            for w in (u, -u, u + 5 * p**c):
                assert class_label(w, p, k) == formula(w), (w, p, k)


def test_coefficient_vector_validation():
    with pytest.raises(DegenerateInput):
        CoefficientVector((1,), 2)
    with pytest.raises(DegenerateInput):
        CoefficientVector((1, 2), 1)
    v = CoefficientVector((0, 0, 0), 2)
    assert v.is_zero and v.has_zero_entry
    assert CoefficientVector((1, -2, 3), 2).n == 2


def test_coefficient_vector_refuses_non_integers():
    # int() used to truncate these: (1.5, 2.5, -3.9) became (1, 2, -3),
    # which decide_qp at p = 3 then answered soluble
    for entries in ((1.5, 2.5, -3.9), ("3", 2), (1, 2.0), (1, None)):
        with pytest.raises(PreconditionViolated):
            CoefficientVector(entries, 2)
    # a float degree used to pass and end in a bare TypeError later
    for k in (2.0, "2", None):
        with pytest.raises(PreconditionViolated):
            CoefficientVector((1, 2, 3), k)
    assert CoefficientVector((True, 2), 2).entries == (1, 2)


def test_a_prime_argument_that_is_not_an_int_is_refused():
    # each of these used to end in a bare TypeError, past is_prime(5.0)
    a = CoefficientVector((1, 2, 3), 2)
    probes = (lambda: decide_qp(a, 5.0), lambda: class_reps(5.0, 2),
              lambda: class_label(2, 5.0, 2),
              lambda: signature((1, 2, 3), 5.0, 2),
              lambda: classify_type(a, 5.0), lambda: orbit_record(a, 5.0),
              lambda: decide_qp(a, "5"),
              # a unit or degree that is not an int: a bare TypeError
              # from pow, a label 4 from the entry of k = 2, a TypeError
              lambda: class_label(3.0, 5, 2), lambda: class_label(3, 5, 2.0),
              lambda: class_reps(5, 2.0))
    for probe in probes:
        with pytest.raises(PreconditionViolated):
            probe()


def test_normalize_reduces_and_sorts():
    rec = orbit_record(CoefficientVector((50, 1, -4), 2), 5)
    assert rec["exponents"] == [0, 0, 0]
    assert rec["reduced_entries"] == [2, 1, -4]
    assert rec["witness"]["power_shifts"] == [1, 0, 0]
    assert rec["witness"]["scalar_exponent"] == 0
    assert rec["exponents"] == sorted(rec["exponents"])


def test_normalize_global_scalar_shift():
    # all valuations odd: the scalar strips one factor of p
    rec = orbit_record(CoefficientVector((5, 125, 10), 2), 5)
    assert rec["witness"]["scalar_exponent"] == 1
    assert sorted(rec["witness"]["power_shifts"]) == [0, 0, 1]
    assert rec["reduced_entries"] == [1, 1, 2]
    assert sorted(rec["exponents"]) == [0, 0, 0]


def test_normalize_witness_recovers_source():
    vectors = [(50, 1, -4), (8, -24, 40, 3), (9, 27, -81), (7, 11, 13)]
    for entries in vectors:
        for p in (2, 3, 5):
            rec = orbit_record(CoefficientVector(entries, 3), p)
            w = rec["witness"]
            for i, x in enumerate(entries):
                assert x == p**(3 * w["power_shifts"][i]
                                + w["scalar_exponent"]) \
                    * rec["reduced_entries"][i]
            # the permutation lines the sorted view up with source order
            for slot, i in enumerate(w["permutation"]):
                e = valuation(rec["reduced_entries"][i], p)
                assert rec["exponents"][slot] == e


def test_normalize_idempotent_on_reduced_input():
    rec = orbit_record(CoefficientVector((1, 3, 10), 2), 5)
    again = orbit_record(CoefficientVector(rec["reduced_entries"], 2), 5)
    assert again["witness"]["scalar_exponent"] == 0
    assert again["witness"]["power_shifts"] == [0, 0, 0]
    assert (again["exponents"], again["class_ids"]) == \
        (rec["exponents"], rec["class_ids"])


@given(st.lists(st.integers(min_value=-200, max_value=200).filter(bool),
                min_size=2, max_size=5),
       st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=60, deadline=None)
def test_normalize_signature_is_projective(entries, p):
    base = signature(entries, p, 2)
    assert signature([x * p**2 for x in entries], p, 2) == base
    assert signature(list(reversed(entries)), p, 2) == base


@given(st.one_of(st.sampled_from([2, 3, 5]),
                 st.sampled_from(primes_below(10_008))),
       st.integers(min_value=2, max_value=6),
       st.lists(st.tuples(st.sampled_from([-1, 1]),
                          st.integers(min_value=0, max_value=9),
                          st.integers(min_value=1, max_value=10**6)),
                min_size=2, max_size=6))
@settings(max_examples=300, deadline=None)
def test_signature_equals_normal_form_signature(p, k, parts):
    # p in {2, 3, 5} with k in 2..6 covers p | k; the rest are power
    # residues at p not dividing k, up to 10,007
    entries = tuple(s * p**e * u for s, e, u in parts)
    a = CoefficientVector(entries, k)
    rec = orbit_record(a, p)
    pairs = tuple(zip(rec["exponents"], rec["class_ids"]))
    assert signature(entries, p, k) == pairs
    # the decisions key the verdict cache by the same signature
    clear_caches()
    load_verdicts({(p, k, pairs): "insoluble"})
    assert decide_qp(a, p).route == "cache"


def test_signature_rejects_bad_input():
    with pytest.raises(PreconditionViolated):
        signature((1, 2, 3), 4, 2)
    with pytest.raises(DegenerateInput):
        signature((1, 0, 3), 5, 2)
    with pytest.raises(DegenerateInput):
        signature((1, 2, 3), 5, 1)
    with pytest.raises(DegenerateInput):
        signature((3,), 5, 2)


def test_normalize_rejects_bad_input():
    with pytest.raises(PreconditionViolated):
        orbit_record(CoefficientVector((1, 2, 3), 2), 4)
    with pytest.raises(DegenerateInput):
        orbit_record(CoefficientVector((1, 0, 3), 2), 5)


def test_classify_type_worked_examples():
    assert classify_type(CoefficientVector((1, 2, 3, 5), 2), 5) == "I"
    assert classify_type(CoefficientVector((1, -4, 10), 2), 5) == "II"
    assert classify_type(CoefficientVector((1, -2, 5), 2), 5) == "III"


def test_classify_type_priority():
    # three units at one level beats a power pair elsewhere
    assert classify_type(CoefficientVector((1, 2, 3, 5, -125), 2), 5) == "I"
    # a pair summing to zero at level one, singleton at level zero
    assert classify_type(CoefficientVector((1, 5, -5), 2), 5) == "II"


def test_cells_and_orbits():
    assert len(symbol_alphabet(2, 2)) == 8
    assert len(symbol_alphabet(3, 3)) == 9
    cell = signature((1, 5, 2), 2, 2)
    assert cell == tuple(sorted([(0, class_label(1, 2, 2)),
                                 (0, class_label(5, 2, 2)),
                                 (1, class_label(1, 2, 2))]))
    rep = cell_representative(cell, 2, 2)
    assert signature(rep, 2, 2) == cell
    orb = cell_orbit(cell, 2, 2)
    assert cell in orb
    assert all(cell_orbit(c, 2, 2) == orb for c in orb)


def test_class_labels_reject_non_primes():
    with pytest.raises(PreconditionViolated):
        class_label(1, 0, 2)
    with pytest.raises(PreconditionViolated):
        class_label(3, 9, 2)
    with pytest.raises(PreconditionViolated):
        class_label(4, 15, 2) == class_label(1, 15, 2)
    with pytest.raises(DegenerateInput):
        class_label(2, 5, 1)
    with pytest.raises(DegenerateInput):
        class_label(2, 5, 1) == class_label(1, 5, 1)
    with pytest.raises(PreconditionViolated):
        class_reps(9, 2)
    with pytest.raises(DegenerateInput):
        class_reps(5, 1)
    with pytest.raises(PreconditionViolated):
        symbol_alphabet(9, 2)
    with pytest.raises(PreconditionViolated):
        cell_orbit(((0, 1),), 1, 2)


def test_cells_carry_signature_labels():
    # one label scheme: class_reps holds the smallest unit of each
    # class_label, and a cell's representative has the cell as signature
    from locsol.density import generic_sum, rho_p_exact
    for p in primes_below(60):
        for k in range(2, 7):
            smallest = {}
            for u in range(1, p**class_precision(p, k)):
                if u % p:
                    smallest.setdefault(class_label(u, p, k), u)
            assert dict(class_reps(p, k)) == smallest, (p, k)
            assert list(class_reps(p, k)) == sorted(smallest)
            for n in (1, 2):
                for cell in all_cells(p, k, n):
                    low = cell[0][0]
                    shifted = tuple((e - low, c) for e, c in cell)
                    rep = cell_representative(cell, p, k)
                    assert signature(rep, p, k) == shifted, (p, k, cell)
    # at p not dividing k no table is needed, whatever the size of p
    for n, k, p in [(2, 4, 1_000_003), (2, 6, 300_007)]:
        assert rho_p_exact(n, k, p).value == generic_sum(n, k, p).value


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3),
                        (3, 6), (5, 5), (7, 2), (13, 4)]),
       st.lists(st.tuples(st.integers(-10**6, 10**6).filter(bool),
                          st.integers(0, 9)), min_size=2, max_size=6),
       st.lists(st.tuples(st.integers(-10**6, 10**6).filter(bool),
                          st.integers(0, 9)), min_size=0, max_size=4))
def test_split_from_a_warm_table_equals_a_cold_pass(pk, first, more):
    # negative entries, p | k and p = 2 with even k; the second pass
    # reads the entries of the first from the (p, k) table
    p, k = pk
    first = [x * p**e for x, e in first]
    entries = first + [x * p**e for x, e in more] + first[:1]
    clear_caches()
    _split(first, p, k)
    warm = _split(entries, p, k)
    clear_caches()
    cold = _split(entries, p, k)
    assert warm == cold
    vals = [valuation(x, p) for x in entries]
    low = min(v % k for v in vals)
    units = [x // p**v for x, v in zip(entries, vals)]
    assert cold == ([(v % k - low, class_label(u, p, k))
                     for u, v in zip(units, vals)], units)


def test_a_zero_entry_is_refused_by_a_warm_table():
    clear_caches()
    _split((3, 5, 7), 5, 2)
    for entries in ((3, 0, 5), (0, 3), (11, 3, 0)):
        with pytest.raises(DegenerateInput):
            _split(entries, 5, 2)
    with pytest.raises(DegenerateInput):
        signature((3, 0, 5), 5, 2)
    # 11 was reduced and stored before the zero was met, and counted
    assert padic._BOX_TABLES.entries == 4
    assert sorted(padic._BOX_TABLES[5, 2][0]) == [3, 5, 7, 11]


def test_a_value_is_kept_from_its_second_time_on():
    # a value met once leaves a marker; the second time stores its symbol
    # and unit, and the third reads them
    clear_caches()
    table = None
    for seen in range(3):
        assert _split((75, -3, 2), 5, 2) == ([(0, 4), (0, 4), (0, 4)],
                                             [3, -3, 2])
        table = table or padic._BOX_TABLES[5, 2][0]
        if seen == 0:
            assert set(table.values()) == {False}
        else:
            assert table[75] == ((0, 4), 3)
    assert padic._BOX_TABLES.entries == 3
