import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locsol.errors import DegenerateInput, PreconditionViolated, ResourceBound
from locsol.padic import (CoefficientVector, all_cells,
                          build_unit_class_table, cell_orbit,
                          cell_representative, certificate_exponent,
                          class_label, class_precision, class_reps,
                          classify_type, is_kth_power_unit, normalize,
                          signature, symbol_alphabet, valuation)
from locsol.primes import primes_below
from locsol.solubility import clear_caches, decide_qp, load_verdicts


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


def test_unit_classes_mod_8():
    t = build_unit_class_table(2, 2)
    assert t.modulus == 8
    assert t.class_count == 4
    assert t.class_reps == (1, 3, 5, 7)
    assert t.classes == tuple(frozenset({u}) for u in (1, 3, 5, 7))


def test_unit_classes_mod_27():
    t = build_unit_class_table(3, 3)
    assert t.modulus == 27
    assert t.class_count == 3
    assert t.class_reps == (1, 2, 4)
    assert t.classes[0] == frozenset({1, 8, 10, 17, 19, 26})
    assert t.classes[1] == frozenset({2, 7, 11, 16, 20, 25})
    assert t.classes[2] == frozenset({4, 5, 13, 14, 22, 23})
    # cube classes are already determined mod 9
    units = [u for u in range(1, 27) if u % 3]
    for u in units:
        for w in units:
            if (u - w) % 9 == 0:
                assert t.class_of(u) == t.class_of(w)


def test_unit_classes_mod_5_squares():
    t = build_unit_class_table(5, 2)
    assert t.class_count == 2
    assert t.class_reps == (1, 2)
    assert t.is_kth_power(4) and t.is_kth_power(-1)
    assert not t.is_kth_power(2) and not t.is_kth_power(3)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_class_count_formula_odd_p(p, k):
    from math import gcd
    t = build_unit_class_table(p, k)
    v = valuation(k, p) if k % p == 0 else 0
    assert t.class_count == gcd(k, p - 1) * p**v
    sizes = {len(c) for c in t.classes}
    assert len(sizes) == 1  # cosets of one subgroup


@pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (11, 3), (13, 3), (7, 4)])
def test_power_detection_matches_sympy(p, k):
    from sympy.ntheory.residue_ntheory import nthroot_mod
    for u in range(1, p):
        direct = nthroot_mod(u, k, p) is not None
        assert is_kth_power_unit(u, p, k) == direct


def test_class_label_large_prime_path():
    # the power-residue label needs no table, even above the table limit
    p = 1_000_003
    assert class_label(1, p, 2) == 1
    assert class_label(4, p, 2) == 1
    squares = {class_label(u, p, 2) for u in (1, 4, 9, 16, 25)}
    assert squares == {1}
    with pytest.raises(ResourceBound):
        build_unit_class_table(p, 2)


def test_power_residue_labels_agree_with_tables():
    # the explicit coset table is the reference partition for p not | k
    from locsol.primes import primes_below
    for p in primes_below(60):
        for k in range(2, 7):
            if k % p == 0:
                continue
            table = build_unit_class_table(p, k)
            units = [u for u in range(1, table.modulus) if u % p]
            labels = {u: class_label(u, p, k) for u in units}
            for u in units:
                assert is_kth_power_unit(u, p, k) == table.is_kth_power(u)
                for w in units:
                    assert ((labels[u] == labels[w])
                            == (table.class_of(u) == table.class_of(w))), \
                        (p, k, u, w)


def test_coefficient_vector_validation():
    with pytest.raises(DegenerateInput):
        CoefficientVector((1,), 2)
    with pytest.raises(DegenerateInput):
        CoefficientVector((1, 2), 1)
    v = CoefficientVector((0, 0, 0), 2)
    assert v.is_zero and v.has_zero_entry
    assert CoefficientVector((1, -2, 3), 2).n == 2
    assert CoefficientVector((1, -2, 3), 2).max_norm == 3


def test_normalize_reduces_and_sorts():
    nf = normalize(CoefficientVector((50, 1, -4), 2), 5)
    assert nf.exponents == (0, 0, 0)
    assert nf.reduced_entries == (2, 1, -4)
    assert nf.witness.power_shifts == (1, 0, 0)
    assert nf.witness.scalar_exponent == 0
    assert list(nf.exponents) == sorted(nf.exponents)


def test_normalize_global_scalar_shift():
    # all valuations odd: the scalar strips one factor of p
    nf = normalize(CoefficientVector((5, 125, 10), 2), 5)
    assert nf.witness.scalar_exponent == 1
    assert sorted(nf.witness.power_shifts) == [0, 0, 1]
    assert nf.reduced_entries == (1, 1, 2)
    assert sorted(nf.exponents) == [0, 0, 0]


def test_normalize_witness_recovers_source():
    vectors = [(50, 1, -4), (8, -24, 40, 3), (9, 27, -81), (7, 11, 13)]
    for entries in vectors:
        for p in (2, 3, 5):
            a = CoefficientVector(entries, 3)
            nf = normalize(a, p)
            w = nf.witness
            for i, x in enumerate(entries):
                assert x == p**(3 * w.power_shifts[i]
                                + w.scalar_exponent) * nf.reduced_entries[i]
            # the permutation lines the sorted view up with source order
            for slot, i in enumerate(w.permutation):
                e = valuation(nf.reduced_entries[i], p)
                assert nf.exponents[slot] == e


def test_normalize_idempotent_on_reduced_input():
    nf = normalize(CoefficientVector((1, 3, 10), 2), 5)
    again = normalize(CoefficientVector(nf.reduced_entries, 2), 5)
    assert again.witness.scalar_exponent == 0
    assert again.witness.power_shifts == (0, 0, 0)
    assert again.signature == nf.signature


@given(st.lists(st.integers(min_value=-200, max_value=200).filter(bool),
                min_size=2, max_size=5),
       st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=60, deadline=None)
def test_normalize_signature_is_projective(entries, p):
    a = CoefficientVector(tuple(entries), 2)
    base = normalize(a, p).signature
    scaled = CoefficientVector(tuple(x * p**2 for x in entries), 2)
    assert normalize(scaled, p).signature == base
    flipped = CoefficientVector(tuple(reversed(entries)), 2)
    assert normalize(flipped, p).signature == base


@given(st.one_of(st.sampled_from([2, 3, 5]),
                 st.sampled_from(primes_below(10_008))),
       st.integers(min_value=2, max_value=6),
       st.lists(st.tuples(st.sampled_from([-1, 1]),
                          st.integers(min_value=0, max_value=9),
                          st.integers(min_value=1, max_value=10**6)),
                min_size=2, max_size=6))
@settings(max_examples=300, deadline=None)
def test_signature_equals_normal_form_signature(p, k, parts):
    # p in {2, 3, 5} with k in 2..6 covers the p | k coset tables; the
    # rest are power residues at p not dividing k, up to 10,007
    entries = tuple(s * p**e * u for s, e, u in parts)
    nf = normalize(CoefficientVector(entries, k), p)
    assert signature(entries, p, k) == nf.signature
    # the decisions key the verdict cache by the same signature
    clear_caches()
    load_verdicts({(p, k, nf.signature): "insoluble"})
    assert decide_qp(nf.source, p).route == "cache"


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
        normalize(CoefficientVector((1, 2, 3), 2), 4)
    with pytest.raises(DegenerateInput):
        normalize(CoefficientVector((1, 0, 3), 2), 5)


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
        is_kth_power_unit(4, 15, 2)
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
