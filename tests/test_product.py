import hashlib
import time
from fractions import Fraction
from functools import reduce
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locsol import product
from locsol.density import (_coprime_fraction, _local_factor, rho_infinity,
                            rho_p)
from locsol.errors import (DegenerateInput, DivergentTail,
                           PreconditionViolated, ResourceBound)
from locsol.primes import prime_divisors, primes_below
from locsol.product import (PATHOLOGICAL_WORK_CAP, PRODUCT_BITS_CAP,
                            CertifiedInterval, TailBound, _balanced_product,
                            _join, _product_bits, decimalize,
                            rho_loc_interval, tail_hypothesis)
from locsol.padic import CoefficientVector
from locsol.solubility import decide_everywhere_local, pathological_primes
from locsol.verification import rho_p_closed_form

F = Fraction


def test_stored_tail_constants():
    assert tail_hypothesis(3, 2) == TailBound(F(3, 2), 2, 2)
    assert tail_hypothesis(3, 3) == TailBound(F(8, 3), 2, 2)
    assert tail_hypothesis(4, 3) == TailBound(F(40, 3), 4, 2)
    assert tail_hypothesis(5, 3) == TailBound(F(80, 3), 6, 2)
    # saturated dimensions have no deficit at all
    assert tail_hypothesis(4, 2).constant == 0
    assert tail_hypothesis(7, 2).constant == 0
    assert tail_hypothesis(6, 3).constant == 0
    assert tail_hypothesis(9, 3).constant == 0


def test_tail_constants_audit_against_closed_forms():
    # the claimed 1 - rho_p <= A p^-s must hold at every checked prime
    for (n, k), tail in ((pair, tail_hypothesis(*pair))
                         for pair in ((3, 2), (3, 3), (4, 3), (5, 3))):
        for p in primes_below(1000):
            if p < tail.p_min:
                continue
            deficit = 1 - rho_p_closed_form(n, k, p).value
            assert deficit <= tail.constant * F(1, p**tail.exponent), \
                (n, k, p)


def test_generic_tail_for_quartics():
    # a layer of three units always has a zero only past 29, the last
    # pathological prime, so the tail bound starts at 31
    tail = tail_hypothesis(3, 4)
    assert tail.exponent == 2
    assert tail.p_min == 31
    assert 1 < tail.constant < 40
    tail = tail_hypothesis(4, 4)
    assert tail.exponent == 4
    assert tail.p_min == 31
    assert tail.constant > 0
    for n in (3, 4):
        assert tail_hypothesis(n, 4).p_min > max(pathological_primes(4))


def test_divergent_plane_case():
    with pytest.raises(DivergentTail):
        tail_hypothesis(2, 2)
    with pytest.raises(DivergentTail):
        tail_hypothesis(2, 3)
    with pytest.raises(DegenerateInput):
        tail_hypothesis(1, 2)


def test_pathological_primes():
    assert pathological_primes(2) == (2,)
    assert pathological_primes(3) == (3,)
    # k = 4: p | k and the p = 1 mod 4 with (p+1)^2 <= 36p; 13 is one
    # (x^4 + y^4 + 2z^4 has no zero mod 13)
    assert pathological_primes(4) == (2, 5, 13, 17, 29)
    # k = 6: 2, 3 and the p = 1 mod 3 with (p+1)^2 <= 400p, up to 397
    six = pathological_primes(6)
    assert six[:2] == (2, 3) and six[-1] == 397
    assert all(p % 3 == 1 for p in six[2:])
    assert 31 in six and 5 not in six


def test_interval_nesting_and_positivity():
    ivs = [rho_loc_interval(3, 2, cutoff=c) for c in (300, 1000, 2000)]
    for iv in ivs:
        assert 0 < iv.lo <= iv.hi
    for loose, tight in zip(ivs, ivs[1:]):
        assert loose.lo <= tight.lo
        assert tight.hi <= loose.hi
        assert tight.width < loose.width


def test_exact_points():
    iv = rho_loc_interval(4, 2, cutoff=30)
    assert iv.lo == iv.hi == F(15, 16)
    assert iv.finite_lo == iv.finite_hi == 1
    assert rho_loc_interval(5, 2, cutoff=30).lo == F(31, 32)
    iv = rho_loc_interval(6, 3, cutoff=30)
    assert iv.lo == iv.hi == 1
    iv = rho_loc_interval(2, 2)
    assert iv.lo == iv.hi == 0
    assert iv.real_factor == F(3, 4)
    assert rho_loc_interval(2, 3).hi == 0


def test_real_factor_splits_off_the_finite_product():
    iv = rho_loc_interval(3, 2, cutoff=2000)
    assert iv.hi == F(7, 8) * iv.finite_hi
    assert iv.lo == F(7, 8) * iv.finite_lo
    assert F(82, 100) < iv.finite_lo <= iv.finite_hi < F(83, 100)
    assert F(72, 100) < iv.lo <= iv.hi < F(73, 100)


def test_decimalize_rounds_outward():
    point = rho_loc_interval(4, 2, cutoff=100)
    assert decimalize(point, 4) == ("0.9375", "0.9375")
    stub = CertifiedInterval(n=3, k=2, cutoff=10, lo=F(7, 12), hi=F(7, 12),
                             finite_lo=F(7, 12), finite_hi=F(7, 12),
                             real_factor=F(1), tail=None)
    assert decimalize(stub, 4) == ("0.5833", "0.5834")
    with pytest.raises(PreconditionViolated):
        decimalize(stub, 0)


def test_record_shape():
    rec = rho_loc_interval(4, 2, cutoff=100).to_record(digits=6)
    assert rec["decimal"] == {"lo": "0.937500", "hi": "0.937500"}
    assert rec["lo"] == {"num": 15, "den": 16}
    assert rec["real_factor"] == {"num": 15, "den": 16}
    assert rec["finite"]["hi"] == {"num": 1, "den": 1}
    assert rec["P"] == 100
    assert "local-global" in rec["note"]


def test_sieved_primes_are_not_proved_prime_again(monkeypatch):
    # the sieve makes the factors' primes, and the factors skip the
    # primality proof, so the count does not grow with the cutoff
    import sys
    from locsol import primes
    calls = []
    original = primes.is_prime

    def counting(m):
        calls.append(m)
        return original(m)

    rho_loc_interval(3, 2, 10**3)        # fill the memos first
    for name, module in list(sys.modules.items()):
        if name.startswith("locsol") and \
                getattr(module, "is_prime", None) is original:
            monkeypatch.setattr(module, "is_prime", counting)
    counts = []
    for cutoff in (10**3, 10**4):
        calls.clear()
        rho_loc_interval(3, 2, cutoff)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_cutoff_guards():
    with pytest.raises(PreconditionViolated):
        rho_loc_interval(3, 2, cutoff=2)
    with pytest.raises(PreconditionViolated):
        rho_loc_interval(3, 3, cutoff=3)
    # n < 2 or a degree below 2 has no interval to enclose
    with pytest.raises(DegenerateInput):
        rho_loc_interval(1, 2)
    with pytest.raises(DegenerateInput):
        rho_loc_interval(3, 1)


def test_huge_sieve_bounds_are_refused():
    # every bound here is 10^13 or more: a sieve that far would not fit
    # in memory, so it is refused before anything is allocated
    with pytest.raises(ResourceBound) as caught:
        primes_below(10**13)
    assert caught.value.required == 10**13
    with pytest.raises(ResourceBound):
        rho_loc_interval(3, 2, cutoff=10**13)
    # k = 10^4 sieves to ((k-1)(k-2))^2, about 10^16, for its
    # pathological primes
    with pytest.raises(ResourceBound):
        tail_hypothesis(3, 10**4)
    with pytest.raises(ResourceBound):
        decide_everywhere_local(CoefficientVector((1, 1, 1), 10**4))


def test_a_cutoff_below_2_is_refused_for_every_n():
    # n = 2 is the point [0, 0] at any cutoff, but only once the cutoff
    # is checked
    for n, k in ((2, 2), (2, 3), (3, 2), (4, 3)):
        for cutoff in (-5, 0, 1):
            with pytest.raises(PreconditionViolated):
                rho_loc_interval(n, k, cutoff=cutoff)
    for cutoff in (2, 10**4):
        iv = rho_loc_interval(2, 2, cutoff=cutoff)
        assert iv.lo == iv.hi == 0 and iv.cutoff == cutoff


def _no_sieve(bound):
    raise AssertionError(f"sieved to {bound} before refusing")


def test_a_product_that_cannot_finish_is_refused_at_once(monkeypatch):
    # (3, 2) at cutoff 10^7 would have endpoints of about 48 M bits, and
    # the joins' cost grows as their square; the refusal comes before
    # the sieve, so a broken estimate fails here instead of running
    monkeypatch.setattr(product, "primes_below", _no_sieve)
    start = time.monotonic()
    with pytest.raises(ResourceBound) as caught:
        rho_loc_interval(3, 2, cutoff=10**7)
    assert time.monotonic() - start < 1
    assert caught.value.required > PRODUCT_BITS_CAP


def test_the_product_cap_admits_the_cutoffs_in_use(monkeypatch):
    # the estimate is checked before the sieve, so with no primes sieved
    # each of these answers at once unless it is refused
    monkeypatch.setattr(product, "primes_below", lambda bound: [])
    for n, k, cutoff in ((3, 2, 10**6), (3, 3, 3 * 10**5), (4, 3, 10**4),
                         (5, 3, 10**4), (3, 4, 10**4), (3, 6, 10**4)):
        assert rho_loc_interval(n, k, cutoff).finite_hi == 1
    # a degree whose factors are all 1 past p_min has no large product
    assert rho_loc_interval(4, 2, cutoff=10**7).finite_hi == 1


def test_the_size_estimate_counts_the_factors_other_than_1():
    # (3, 2) keeps the estimate of every factor, (n+1)(k-1) P log2 e
    # bits; at (3, 3) the factors at p = 2 mod 3 are 1, so it is halved
    for cutoff in (10**4, 3 * 10**5, 10**6, 10**7):
        full = int(4 * cutoff * 1.4426950408889634)
        assert _product_bits(3, 2, cutoff) == full
        assert _product_bits(3, 3, cutoff) == int(8 * cutoff
                                                  * 1.4426950408889634) // 2
    assert _product_bits(3, 2, 10**7) > PRODUCT_BITS_CAP
    for n, k in ((3, 2), (3, 3)):
        assert _product_bits(n, k, 1_450_000) <= PRODUCT_BITS_CAP
        assert _product_bits(n, k, 1_460_000) > PRODUCT_BITS_CAP
    # every factor past p_min is 1 exactly where the estimate is 0
    for n, k in ((4, 2), (6, 3)):
        assert _product_bits(n, k, 10**6) == 0
    assert _product_bits(4, 3, 10**6) > 0


@pytest.mark.parametrize("n, k", [(3, 2), (3, 3), (4, 3), (5, 3), (6, 3),
                                  (4, 2), (3, 4), (3, 5), (4, 5), (3, 6)])
def test_a_factor_is_1_exactly_where_its_class_has_no_terms(n, k):
    # the premise of _product_bits: past the pathological primes the
    # factor at p is 1 iff layer_terms at d = gcd(p-1, k) is empty
    from locsol.density import layer_terms
    start = max(pathological_primes(k)) + 1
    for p in primes_below(start + 1500)[len(primes_below(start)):]:
        d = gcd(p - 1, k)
        num, den, _ = _local_factor(n, k, p)
        assert (num == den) == (not layer_terms(n, k, (1, d, d * (d - 1)))), p


def test_walks_at_the_pathological_primes_are_estimated_first(monkeypatch):
    # (3, 12) walks C(d+m-1, m) class multisets mod p at each of its 374
    # pathological primes up to 12,097, for minutes; the estimate
    # refuses it before any prime is decided or sieved
    from locsol import density
    monkeypatch.setattr(product, "primes_below", _no_sieve)
    monkeypatch.setattr(density, "_insoluble_counts", _no_walk)
    start = time.monotonic()
    with pytest.raises(ResourceBound) as caught:
        rho_loc_interval(3, 12, cutoff=12107)
    assert time.monotonic() - start < 1
    assert 8.4e12 < caught.value.required < 8.5e12
    # degrees whose walks take seconds are still admitted
    monkeypatch.setattr(product, "primes_below", lambda bound: [])
    for n, k in ((3, 6), (4, 7), (3, 8), (4, 8), (3, 9)):
        assert rho_loc_interval(n, k, 10**4).finite_hi == 1
    with pytest.raises(ResourceBound):
        rho_loc_interval(3, 10, 10**4)


def _no_walk(*args):
    raise AssertionError(f"walked {args} before refusing")


def test_the_walk_estimate_bounds_the_walks(monkeypatch):
    # every walk _insoluble_counts makes costs the modulus times its
    # steps' value counts, which _insoluble_work must not undercount
    from locsol import solubility
    from locsol.density import _insoluble_counts, _insoluble_work
    spent = []
    walk = solubility._walk

    def counting(p, k, level, coeffs, layer, want_witness):
        q = p**level
        spent.append(q * sum(len(solubility._value_sets(
            p, k, level, c % q)[2]) for c in coeffs if c % q))
        return walk(p, k, level, coeffs, layer, want_witness)

    monkeypatch.setattr(solubility, "_walk", counting)
    for n, k in ((3, 4), (4, 4), (3, 6), (4, 6), (3, 7)):
        for p in pathological_primes(k):
            if k % p and p < 400:
                spent.clear()
                _insoluble_counts(n, k, p, gcd(p - 1, k))
                assert sum(spent) <= _insoluble_work(n, k, p, gcd(p - 1, k))
    assert _insoluble_work(3, 12, 12097, 12) > 0
    assert _insoluble_work(3, 12, 12101, 2) == 0     # not pathological


def _serial_interval(n, k, cutoff):
    """The enclosure as one serial product and one final reduction."""
    num, den = 1, 1
    for p in primes_below(cutoff):
        factor = rho_p(n, k, p).value
        num *= factor.numerator
        den *= factor.denominator
    finite_hi = F(num, den)
    tail = tail_hypothesis(n, k)
    s = tail.exponent
    finite_lo = finite_hi * (1 - tail.constant / ((cutoff - 1)**(s - 1)
                                                   * (s - 1)))
    real = rho_infinity(n, k).value
    return real * finite_lo, real * finite_hi, finite_lo, finite_hi


@pytest.mark.parametrize("n, k", [(3, 2), (3, 3), (4, 3)])
def test_balanced_product_matches_the_serial_product(n, k):
    # the smallest allowed cutoff, then 1, 2, 3, 16 (a power of two),
    # 62 and 303 primes
    smallest = 3 if k == 2 else 4
    cutoffs = sorted({smallest, 4, 5, 6, 54, 300, 2000})
    counts = [len(primes_below(c)) for c in cutoffs]
    assert {c % 2 for c in counts} == {0, 1} and 16 in counts
    with pytest.raises(PreconditionViolated):
        rho_loc_interval(n, k, cutoff=smallest - 1)
    for cutoff in cutoffs:
        iv = rho_loc_interval(n, k, cutoff=cutoff)
        got = (iv.lo, iv.hi, iv.finite_lo, iv.finite_hi)
        assert got == _serial_interval(n, k, cutoff), (n, k, cutoff)


# sha256 of the hex numerators and denominators of (lo, hi, finite_lo,
# finite_hi) at cutoff 10^4, recorded while rho_p still answered k = 2, 3
# from the paper's closed forms
PINNED_ENDPOINTS = {
    (3, 2): "f56a4c2462d587c47a609e22370a1db1d06576e762054ff56bfc6098cae63de6",
    (3, 3): "e64ccf287b837540c439d4e3fc903bd723bccff91c55057d22daf43ddae74a26",
    (4, 3): "6f68a72f6d7c23ad8556a94f86ab2f52ee9619b7632973e7adc6b4a11c9835ef",
    (5, 3): "4f4c080144b7cf674065b583b3daea241eb70cb8a3728d9a5752c6f62835756c",
    (6, 3): "ad4e3b4f0ea93d2cbda4eee0326844788acc8d60c9eebbb2bd01bf47470f986d",
}


@pytest.mark.parametrize("n, k", sorted(PINNED_ENDPOINTS))
def test_endpoints_are_pinned(n, k):
    iv = rho_loc_interval(n, k, cutoff=10**4)
    text = " ".join(f"{v.numerator:x}/{v.denominator:x}"
                    for v in (iv.lo, iv.hi, iv.finite_lo, iv.finite_hi))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PINNED_ENDPOINTS[n, k]


# the same, at cutoff 10^5, recorded before the product tree cancelled
# through the factors' bounds
DEEP_PINNED_ENDPOINTS = {
    (3, 2): "ad51ad149d15eeb3731344329a054a3e1496b6f44236d78fed03f3e2645877f2",
    (3, 3): "ac46e17f98c0a96175630e2aa6c2ad21d839c6be84b1bb5820837d9266e73540",
}


@pytest.mark.parametrize("n, k", sorted(DEEP_PINNED_ENDPOINTS))
def test_deep_endpoints_are_pinned(n, k):
    iv = rho_loc_interval(n, k, cutoff=10**5)
    text = " ".join(f"{v.numerator:x}/{v.denominator:x}"
                    for v in (iv.lo, iv.hi, iv.finite_lo, iv.finite_hi))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        DEEP_PINNED_ENDPOINTS[n, k]


@pytest.mark.parametrize("n, k", [(3, 2), (3, 3), (4, 3), (3, 4), (4, 4),
                                  (3, 5), (3, 6), (2, 7)])
def test_every_factor_bound_covers_its_denominator(n, k):
    # the product cancels each join through the bounds, which is exact
    # only if every prime of den divides bound; p | k and the
    # pathological primes (5 and 13 at k = 4) are included
    for p in primes_below(3000):
        num, den, bound = _local_factor(n, k, p)
        assert gcd(num, den) == 1, (n, k, p)
        assert pow(bound, n + 1, den) == 0, (n, k, p)


def _leaves(monkeypatch, n, k, cutoff):
    """The primes rho_loc_interval(n, k, cutoff) multiplies and its leaf
    function, caught at the product's entry point."""
    caught = []

    def catch(items, factor):
        caught.append((items, factor))
        return F(1)

    with monkeypatch.context() as patched:
        patched.setattr(product, "_balanced_product", catch)
        rho_loc_interval(n, k, cutoff)
    return caught[0]


@pytest.mark.parametrize("n, k", [(3, 2), (3, 3), (4, 3), (3, 4), (3, 5),
                                  (3, 6)])
def test_class_leaves_are_the_local_factors(monkeypatch, n, k):
    # past the last pathological prime a leaf reads its class's terms,
    # never _local_factor, and gives _local_factor's triple
    last = max(pathological_primes(k))
    primes, leaf = _leaves(monkeypatch, n, k, 3000)
    assert list(primes) == primes_below(3000)

    def only_pathological(n_, k_, p):
        assert p <= last, p
        return _local_factor(n_, k_, p)

    monkeypatch.setattr(product, "_local_factor", only_pathological)
    past = [p for p in primes if p > last]
    assert past
    for p in past:
        assert leaf(p) == _local_factor(n, k, p), (n, k, p)


def test_each_factor_is_computed_once_and_ones_pass_through(monkeypatch):
    # (3, 3) at cutoff 2000: the factor at p = 2 mod 3 is 1, and no join
    # sees a side equal to 1, so there is one join fewer than there are
    # factors other than 1
    factors = {}
    joins = []

    def counting(compute):
        def stub(n, k, p, *rest):
            assert p not in factors, p
            factors[p] = compute(n, k, p, *rest)
            return factors[p]
        return stub

    def join(left, right):
        assert left[0] != left[1] and right[0] != right[1]
        joins.append(1)
        return _join(left, right)

    monkeypatch.setattr(product, "_local_factor",
                        counting(product._local_factor))
    monkeypatch.setattr(product, "_terms_factor",
                        counting(product._terms_factor))
    monkeypatch.setattr(product, "_join", join)
    iv = rho_loc_interval(3, 3, cutoff=2000)
    assert sorted(factors) == primes_below(2000)
    others = [f for f in factors.values() if f[0] != f[1]]
    assert [p for p, f in factors.items() if f[0] == f[1]] == \
        [p for p in primes_below(2000) if p % 3 == 2]
    assert len(joins) == len(others) - 1
    assert iv.finite_hi == reduce(mul, (F(num, den) for num, den, _ in others))


_LENGTHS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33)
_EXTRA_PRIMES = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 10007)),
                         max_size=3)
# exponents of 2, 3 and 5 that scale a factor, so that dens and
# numerators share high powers of a few primes that a join's bound holds
# once: its cancel then takes many passes
_SMOOTH = st.tuples(*[st.integers(-40, 40)] * 3)


def _smooth(value, exponents):
    a, b, c = exponents
    return value * F(2)**a * F(3)**b * F(5)**c


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_LENGTHS).flatmap(
    lambda size: st.lists(st.tuples(st.fractions(max_denominator=10**6),
                                    _EXTRA_PRIMES, _SMOOTH),
                          min_size=size, max_size=size)))
@example([(F(1), [], (-40, 40, -40)), (F(1), [], (40, -40, 40))])
def test_balanced_product_is_the_product(drawn):
    # each factor's bound is its den, or the radical of den times up to
    # three extra primes; the third family scales the factors by powers
    # of 2, 3 and 5, and its bound is 30 times the radical of the rest
    families = (
        [(value, value.denominator) for value, _, _ in drawn],
        [(value, prod(prime_divisors(value.denominator)) * prod(extra))
         for value, extra, _ in drawn],
        [(_smooth(value, exponents),
          30 * prod(prime_divisors(value.denominator)))
         for value, _, exponents in drawn],
    )
    for family in families:
        got = _balanced_product(
            family, lambda item: (item[0].numerator, item[0].denominator,
                                  item[1]))
        assert got == reduce(mul, (value for value, _ in family), F(1))
        assert gcd(got.numerator, got.denominator) == 1
        assert got.denominator > 0


@given(st.tuples(st.fractions(max_denominator=10**6), _SMOOTH),
       st.tuples(st.fractions(max_denominator=10**6), _SMOOTH))
@example((F(1), (-40, 40, -40)), (F(1), (40, -40, 40)))
def test_join_is_reduced_and_its_bound_covers_its_den(left, right):
    # a node's bound is the lcm of its sides' bounds: it must still hold
    # every prime of the node's den, each exponent of which is below
    # den's bit length
    triples = []
    for value, exponents in (left, right):
        scaled = _smooth(value, exponents)
        triples.append((scaled.numerator, scaled.denominator,
                        30 * prod(prime_divisors(value.denominator))))
    num, den, bound = _join(*triples)
    assert F(num, den) == _smooth(*left) * _smooth(*right)
    assert gcd(num, den) == 1
    assert den > 0
    assert pow(bound, den.bit_length(), den) == 0


@given(st.fractions())
@example(F(0))
@example(F(-5, 2**61 - 1))      # den a multiple of the hash modulus
@example(F(3**200, 7**150))
def test_coprime_fraction_is_the_fraction(value):
    built = _coprime_fraction(value.numerator, value.denominator)
    assert type(built) is Fraction
    assert built == Fraction(value.numerator, value.denominator)
    assert hash(built) == hash(value)
