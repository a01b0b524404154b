"""Certified enclosures for the product of densities over all places.

The full local density rho_loc(n, k) is the real-place density times the
product of rho_p over every prime.  Truncating at a cutoff P gives an
exact upper bound; a tail hypothesis 1 - rho_p <= A p^-s past the
pathological primes, derived per class d = gcd(p-1, k) for every k
(tail_hypothesis, s >= 2 once n >= 3), turns the truncation into a
certified lower bound via

    prod_{p >= P} rho_p >= 1 - A * sum_{p >= P} p^-s
                        >= 1 - A * (P-1)^(1-s) / (s-1).

The integral majorant uses P-1, not P: sum_{m >= P} m^-s is bounded by
the integral from P-1, and the cruder P^(1-s)/(s-1) would be false
(already at s = 2, P = 2 the sum 0.6449... exceeds 1/2).

For n = 2 the deficits 1 - rho_p decay like 1/p, the product diverges to
zero, and the enclosure is the exact point [0, 0].

The finite product is one recursion over the sieved primes
(_balanced_product).  A range splits at its midpoint, and a leaf
computes its prime's factor only when the recursion reaches it, so no
list of factors is built and about log2 of the partial products are
held at once; a side equal to 1 is passed up without a join.  Past the
last pathological prime of k (every p | k is one) a factor depends on p
only through p and its class d = gcd(p-1, k), so rho_loc_interval reads
density.class_terms once, and such a leaf is one lookup, a Horner sum
and density._factor (density._terms_factor).  Smaller primes
go through density._local_factor, which walks the pathological primes
and enumerates the cells at p | k.

Each factor arrives reduced as (num, den, bound): every prime of den
divides bound.  A node's bound is the lcm of its sides' bounds, so it
holds every small prime of S(p) d once, where their product held it
once per factor: over the upper half of the (3, 2) factors at cutoff
10^5 the bound is 19,704 bits as an lcm against 82,107 as a product.
(3, 3) gains little, as its bounds hold large primes of p^2 + p + 1
that seldom repeat (52,809 against 80,956 bits).  A join cancels each
numerator against the other side's den through that side's bound
(_cancel), so no gcd ever takes two full-size operands, and every join
leaves its node reduced; the result is built with no final gcd.  On a
2-core host (Python 3.11, best of 3 to 5 runs in one process) the (3, 2)
enclosure takes 0.18 s at cutoff 10^5 and 1.06 s at 3 * 10^5, where its
endpoints have about 486 k and 1.45 M bits; at 3 * 10^5 the top joins'
gcds set the time.  Before it sieves, rho_loc_interval refuses a
degree whose walks at the pathological primes pass
PATHOLOGICAL_WORK_CAP, and a cutoff whose estimated endpoints pass
PRODUCT_BITS_CAP.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import e, gcd, lcm, log2

from .density import (_coprime_fraction, _insoluble_work, _local_factor,
                      _terms_factor, class_terms, layer_terms,
                      rho_infinity)
from .errors import (DegenerateInput, DivergentTail, PreconditionViolated,
                     ResourceBound)
from .padic import _integers
from .primes import next_prime, primes_below
from .solubility import pathological_primes

# Largest estimated endpoint size, in bits, that rho_loc_interval forms.
# The joins' gcds grow about as the square of it: (3, 2) at cutoff 10^6
# has endpoints of 4.8 M bits and takes 9.4 s (2-core host, Python
# 3.11), and the cap admits it up to a cutoff of about 1.45 * 10^6.
PRODUCT_BITS_CAP = 2**23
# Most walk work, in bit operations (the unit of
# solubility.WALK_WORK_CAP), that the layer chances at the pathological
# primes not dividing k may cost one interval (density._insoluble_work).
# On a 2-core host (Python 3.11) (3, 8) estimates 1.25 * 10^10 and takes
# 0.46 s, (4, 8) 4.2 * 10^10 and 0.48 s, (3, 9) 6.1 * 10^10 and 1.2 s;
# (3, 12) estimates 8.5 * 10^12, 140 times (3, 9).
PATHOLOGICAL_WORK_CAP = 10**11


@dataclass(frozen=True)
class TailBound:
    """Certificate that 1 - rho_p <= constant * p^-exponent for p >= p_min."""

    constant: Fraction
    exponent: int
    p_min: int


def tail_hypothesis(n: int, k: int) -> TailBound:
    """A proven 1 - rho_p <= constant * p^-exponent from p_min, the
    prime after the last pathological prime of k.

    There the deficit of class d = gcd(p-1, k) is, with x = 1/p,
    sum_w c_w x^w / (d T)^(n+1), T = 1 + x + ... + x^(k-1), c_w from
    density.class_terms.  If c_w <= c_s [x^(w-s)] T^(n+1) for all w,
    (s, c_s) the first term, it is at most c_s / d^(n+1) p^-s, else the
    class is refused.  The exponent is the least s, each constant is
    carried to it at p_min, and no terms at all give the constant 0."""
    _integers((n, k))
    if n < 2 or k < 2:
        raise DegenerateInput(f"need n >= 2 and k >= 2, got ({n}, {k})")
    if n == 2:
        raise DivergentTail("deficits decay like 1/p for n = 2; "
                            "the density product diverges to zero")
    p_min = next_prime(max(pathological_primes(k)))
    # the layer sum at chances all 1 (units never have a zero) is T^(n+1)
    whole = dict(layer_terms(n, k, (1,) * (n + 2)))
    classes = class_terms(n, k)
    leads = {d: terms[0] for d, terms in classes.items() if terms}
    for d, (s, c_s) in leads.items():
        if any(c > c_s * whole[w - s] for w, c in classes[d]):
            raise PreconditionViolated(f"class {d} of ({n}, {k}) has no tail")
    s = min((s_d for s_d, _ in leads.values()), default=2)
    if s < 2:
        raise DivergentTail(f"tail exponent {s} does not converge")
    constant = max((Fraction(c_s, d**(n + 1) * p_min**(s_d - s))
                    for d, (s_d, c_s) in leads.items()), default=Fraction(0))
    return TailBound(constant, s, p_min)


@dataclass(frozen=True)
class CertifiedInterval:
    """Exact rational enclosure of rho_loc, with the finite-prime part
    broken out separately (finite_lo/finite_hi exclude the real place)."""

    n: int
    k: int
    cutoff: int
    lo: Fraction
    hi: Fraction
    finite_lo: Fraction
    finite_hi: Fraction
    real_factor: Fraction
    tail: TailBound | None

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_record(self, digits: int = 6) -> dict:
        dec_lo, dec_hi = decimalize(self, digits)
        return {
            "n": self.n,
            "k": self.k,
            "P": self.cutoff,
            "lo": {"num": self.lo.numerator, "den": self.lo.denominator},
            "hi": {"num": self.hi.numerator, "den": self.hi.denominator},
            "decimal": {"lo": dec_lo, "hi": dec_hi},
            "finite": {
                "lo": {"num": self.finite_lo.numerator,
                       "den": self.finite_lo.denominator},
                "hi": {"num": self.finite_hi.numerator,
                       "den": self.finite_hi.denominator},
            },
            "real_factor": {"num": self.real_factor.numerator,
                            "den": self.real_factor.denominator},
            "note": "density of everywhere-locally-soluble coefficient "
                    "vectors; reading it as a proportion of actual "
                    "rational points assumes the usual local-global "
                    "hypothesis for these hypersurfaces",
        }


def rho_loc_interval(n: int, k: int, cutoff: int = 10**4
                     ) -> CertifiedInterval:
    """Enclose rho_loc(n, k) = rho_infinity * prod_p rho_p exactly.

    Primes below the cutoff contribute exact factors from rho_p; the
    tail past the cutoff is bounded by tail_hypothesis.  Requires
    n >= 2 and a cutoff of at least 2; for n = 2 the result is the exact
    point [0, 0].
    """
    _integers((n, k, cutoff))
    if n < 2 or k < 2:
        raise DegenerateInput(f"need n >= 2 and k >= 2, got ({n}, {k})")
    if cutoff < 2:
        raise PreconditionViolated(
            f"need a cutoff of at least 2, got {cutoff}")
    real = rho_infinity(n, k).value
    if n == 2:
        zero = Fraction(0)
        return CertifiedInterval(n=n, k=k, cutoff=cutoff, lo=zero, hi=zero,
                                 finite_lo=zero, finite_hi=zero,
                                 real_factor=real, tail=None)
    last = max(pathological_primes(k))     # the tail covers p > last
    if cutoff <= last:
        raise PreconditionViolated(
            f"cutoff {cutoff} does not clear the pathological primes")
    tail = tail_hypothesis(n, k)
    penalty = tail.constant * Fraction(
        1, (cutoff - 1)**(tail.exponent - 1) * (tail.exponent - 1))
    if penalty >= 1:
        raise PreconditionViolated(
            f"cutoff {cutoff} is too small for the tail constant")
    # the cutoff clears every pathological prime, so all are walked
    work = sum(_insoluble_work(n, k, p, gcd(p - 1, k))
               for p in pathological_primes(k) if k % p)
    if work > PATHOLOGICAL_WORK_CAP:
        raise ResourceBound(
            f"the layer chances at the pathological primes of {k} need "
            f"about {work} bit operations, past the cap "
            f"{PATHOLOGICAL_WORK_CAP}", required=work)
    bits = _product_bits(n, k, cutoff)
    if bits > PRODUCT_BITS_CAP:
        raise ResourceBound(
            f"the product to cutoff {cutoff} needs about {bits} bits, past "
            f"the cap {PRODUCT_BITS_CAP}", required=bits)
    # the sieve made every p prime, so no factor proves it again
    classes = class_terms(n, k)

    def factor(p: int) -> tuple[int, int, int]:
        if p <= last:
            return _local_factor(n, k, p)
        d = gcd(p - 1, k)
        return _terms_factor(n, k, p, d, classes[d])

    finite_hi = _balanced_product(primes_below(cutoff), factor)
    finite_lo = finite_hi * (1 - penalty)
    return CertifiedInterval(
        n=n, k=k, cutoff=cutoff, lo=real * finite_lo, hi=real * finite_hi,
        finite_lo=finite_lo, finite_hi=finite_hi, real_factor=real,
        tail=tail)


def _product_bits(n: int, k: int, cutoff: int) -> int:
    """Estimated size in bits of the product's endpoints to the cutoff.

    Each factor's den divides s^(n+1), s about p^(k-1) (density._factor),
    and log2 p summed over p < P is about P log2 e.  Only factors other
    than 1 count: past the pathological primes the factor at p = a mod k
    is 1 exactly when class_terms(n, k)[gcd(a-1, k)] is empty, and the
    primes fall evenly on the units a mod k.  So the estimate is scaled
    by the share of units whose class has terms: 1 for (3, 2), 1/2 for
    (3, 3), and 0 when every factor past p_min is 1.
    """
    classes = class_terms(n, k)
    live = [bool(classes[gcd(a - 1, k)]) for a in range(k) if gcd(a, k) == 1]
    return int((n + 1) * (k - 1) * cutoff * log2(e)) * sum(live) // len(live)


def _balanced_product(items: Sequence[int],
                      factor: Callable[[int], tuple[int, int, int]]
                      ) -> Fraction:
    """The product of the reduced triples factor(item) (num, den, bound)
    over items, as a tree that splits each range at its midpoint.

    Every prime of a factor's den divides its bound.  A leaf computes
    its factor only when the recursion reaches it, so at most one leaf
    and one partial product per level, about log2 len(items), are held
    at once.  A node is a reduced triple whose bound is the lcm of its
    factors' bounds, so every prime of its den still divides its bound.
    A side equal to 1 is returned as it is, without a join, and the
    empty product is 1.
    """
    def node(lo: int, hi: int) -> tuple[int, int, int]:
        if hi - lo == 1:
            return factor(items[lo])
        mid = (lo + hi) // 2
        left, right = node(lo, mid), node(mid, hi)
        if left[0] == left[1]:
            return right
        if right[0] == right[1]:
            return left
        return _join(left, right)

    if not items:
        return Fraction(1)
    num, den, _ = node(0, len(items))
    # every join cancelled fully, so the ends are coprime already
    return _coprime_fraction(num, den)


def _join(left: tuple[int, int, int], right: tuple[int, int, int]
          ) -> tuple[int, int, int]:
    """The reduced product of two reduced triples: each numerator
    cancels against the other side's den only, found through that
    side's bound, never by a gcd of two full-size operands.  The bound
    is the lcm of the two: it has the same primes as their product, so
    it still covers the den, at a fraction of the product's bits."""
    num_l, den_l, bound_l = left
    num_r, den_r, bound_r = right
    num_l, den_r = _cancel(num_l, den_r, bound_r)
    num_r, den_l = _cancel(num_r, den_l, bound_l)
    return num_l * num_r, den_l * den_r, lcm(bound_l, bound_r)


def _cancel(num: int, den: int, bound: int) -> tuple[int, int]:
    """num and den divided by their gcd, given that every prime of den
    divides bound.  t starts as gcd(num, bound), which holds every prime
    the two share; each pass divides out what t still has in common
    with den.  t stays a divisor of bound, so every gcd has bound or a
    divisor of it as one operand.  A prime that still divides num and
    den divides t, so the loop ends only with the two coprime, and each
    pass divides den by some t > 1, so it ends.  A node's bound holds a
    shared prime about once, so a den with that prime to a high power
    takes several passes: at most 12 for (3, 2) and 16 for (3, 3) at
    cutoff 10^5, and 19 and 28 at 3 * 10^5, each with a divisor of
    bound as one operand of its gcds."""
    t = gcd(num, bound)
    while (t := gcd(t, den)) > 1:
        num //= t
        den //= t
        t = gcd(num, t)
    return num, den


def _decimal(value: Fraction, digits: int, round_up: bool) -> str:
    scale = 10**digits
    scaled = value.numerator * scale
    if round_up:
        q = -((-scaled) // value.denominator)
    else:
        q = scaled // value.denominator
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // scale}.{q % scale:0{digits}d}"


def decimalize(interval: CertifiedInterval, digits: int) -> tuple[str, str]:
    """Outward-rounded decimal rendering of the enclosure."""
    digits, = _integers((digits,))
    if digits < 1:
        raise PreconditionViolated(f"need at least one digit, got {digits}")
    return (_decimal(interval.lo, digits, round_up=False),
            _decimal(interval.hi, digits, round_up=True))
