"""Exact local solubility densities for random diagonal forms.

The density at p of sum a_i x_i^k = 0 is the Haar measure of the set of
coefficient vectors in Z_p^(n+1) that admit a nontrivial zero, after
conditioning every coordinate to be nonzero (_factor folds in the
normalizer kappa, which lives in verification with the cell measures).
Coefficients matter only through their (valuation mod k, unit class)
symbol, so the density is a finite exact sum of cell measures.

Two exact routes compute it, one rule for each kind of prime and the
same for every k: a sum over valuation layers when p does not divide k,
and direct cell enumeration when p | k.  rho_p dispatches between them.
The paper's closed forms for k = 2, 3 are not used here; they are the
reference in verification that both routes are checked against.

Both routes sum integer weights under one normalisation (_factor).
Enumeration decides signatures, not vectors: the cells of least exponent
0, a prefix of all_cells, are each decided once, and each carries the
weight of its shifts by s = 0 .. k-1-max e.  Neither route reads or
writes the verdict cache.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, takewhile
from math import comb, factorial, gcd

from .errors import DegenerateInput, PreconditionViolated, ResourceBound
from .padic import _integers, all_cells, class_count, class_reps
from .primes import is_prime
from .solubility import _decide_layers, is_pathological

ENUMERATION_CELL_CAP = 10**7
# Memo bound for layer_terms(), one entry per (n, k, count table).
LAYER_TERMS_CACHE_SIZE = 256


@dataclass(frozen=True)
class Density:
    """An exact rational density at one place, tagged with its route."""

    n: int
    k: int
    place: int | str
    value: Fraction
    route: str

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "p": self.place,
            "numerator": self.value.numerator,
            "denominator": self.value.denominator,
            "route": self.route,
        }


def _validate(n: int, k: int, p: int | None = None) -> None:
    _integers((n, k) if p is None else (n, k, p))
    if n < 1:
        raise DegenerateInput(f"need n >= 1, got {n}")
    if k < 2:
        raise DegenerateInput(f"need k >= 2, got {k}")
    if p is not None and not is_prime(p):
        raise PreconditionViolated(f"not a prime: {p}")


def _multinomial(items: tuple) -> int:
    """Orderings of the multiset items: len(items)! / prod(count!)."""
    weight = factorial(len(items))
    for c in Counter(items).values():
        weight //= factorial(c)
    return weight


def rho_p_exact(n: int, k: int, p: int) -> Density:
    """Density at p by deciding each cell's signature once.  Exact.

    all_cells is lexicographic in (e, class), so the cells of least
    exponent 0 are a prefix of it; each is the signature of its shifts
    by s = 0 .. k-1-max e, of weight multinomial * p^(top - sum e -
    (n+1)s) in the normalisation _factor shares with the generic sum,
    and all weights must make mass 1.  Refuses with ResourceBound past
    ENUMERATION_CELL_CAP cells, shifts included.
    """
    _validate(n, k, p)
    d = class_count(p, k)
    cell_count = comb(k * d + n, n + 1)
    if cell_count > ENUMERATION_CELL_CAP:
        raise ResourceBound(
            f"cell enumeration needs {cell_count} cells", required=cell_count)
    reps = class_reps(p, k)
    m, top = n + 1, (k - 1) * (n + 1)
    total = insoluble = 0
    for cell in takewhile(lambda cell: cell[0][0] == 0, all_cells(p, k, n)):
        exps = [e for e, _ in cell]
        low = top - sum(exps)
        weight = _multinomial(cell) * sum(
            p**(low - m * s) for s in range(k - exps[-1]))
        total += weight
        if not _decide_layers(p, k, exps, [reps[c] for _, c in cell],
                              False)[0]:
            insoluble += weight
    # every cell insoluble leaves density 0 exactly when the masses sum to 1
    if _factor(n, k, p, d, total, top)[0]:
        raise PreconditionViolated("cell masses failed to sum to 1")
    return _density(n, k, p, _factor(n, k, p, d, insoluble, top),
                    "enumeration")


def _factor(n: int, k: int, p: int, d: int, insoluble: int, top: int
            ) -> tuple[int, int, int]:
    """1 minus the insoluble integer weight sum_w c_w p^(top-w) in units
    of (q / d)^(n+1) / p^top, q = (p-1) p^(k-1) / (p^k - 1), d the number
    of unit classes: the normalisation both routes share.

    Returns (num, den, bound), num/den reduced.  Both terms of the
    unreduced numerator carry (p-1)^(n+1) p^top (top <= (k-1)(n+1)), so
    they are divided out before any gcd: with s = S d, S = (p^k - 1) /
    (p - 1), the factor is (s^(n+1) - insoluble p^((k-1)(n+1) - top)) /
    s^(n+1).  One gcd reduces it, and bound = gcd(s, den) holds every
    prime of den with den | bound^(n+1): the product cancels through it
    (product._join).  No insoluble weight is the density 1, returned as
    (1, 1, 1) with no big-integer work.
    """
    if not insoluble:
        return 1, 1, 1
    s = (p**k - 1) // (p - 1) * d
    den = s**(n + 1)
    num = den - insoluble * p**((k - 1) * (n + 1) - top)
    g = gcd(num, den)
    den //= g
    return num // g, den, gcd(s, den)


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime num and den > 0, built without the
    gcd the constructor runs: on a deep density product that one gcd of
    the full numerator and denominator costs about as much as the whole
    product tree.  Setting the two slots works on every supported
    Python; Fraction._from_coprime_ints is 3.12 and later only."""
    value = Fraction.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


def _density(n: int, k: int, p: int, factor: tuple[int, int, int],
             route: str) -> Density:
    num, den, _ = factor
    return Density(n=n, k=k, place=p, value=_coprime_fraction(num, den),
                   route=route)


def rho_p_closed_form(n: int, k: int, p: int) -> Density:
    """verification's reference formulas, never called by rho_p; the
    benchmark's trace (bench/spans.py) looks this name up in density."""
    from .verification import rho_p_closed_form as reference
    return reference(n, k, p)


@lru_cache(maxsize=LAYER_TERMS_CACHE_SIZE)
def layer_terms(n: int, k: int, counts: tuple[int, ...]
                ) -> tuple[tuple[int, int], ...]:
    """Pairs (w, C_w), C_w the x^w coefficient of (n+1)! [t^(n+1)]
    prod_{e<k} sum_m counts[m] (t x^e)^m / m!, where counts[m] / d^m (0
    past the end, and then skipped) is the chance that m units on one
    layer have no zero, d their number of unit classes.  Every C_w is
    an integer, and at x = 1/p the sum is d^(n+1) times the insoluble
    mass over q^(n+1).  Refuses with ResourceBound past
    ENUMERATION_CELL_CAP steps: k layers, each over up to k(n+1) terms
    and n + 2 counts, so the cost grows as k^2."""
    steps = k * k * (n + 1) * (n + 2)
    if steps > ENUMERATION_CELL_CAP:
        raise ResourceBound(f"layer sum needs {steps} steps", required=steps)
    poly = {(0, 0): 1}
    for e in range(k):
        grown: dict[tuple[int, int], int] = defaultdict(int)
        for (used, w), c in poly.items():
            for m, count in enumerate(counts[:n + 2 - used]):
                if count:
                    grown[used + m, w + e * m] += c * count * comb(used + m, m)
        poly = grown
    return tuple(sorted((w, c) for (used, w), c in poly.items()
                        if used == n + 1))


def _insoluble_work(n: int, k: int, p: int, d: int) -> int:
    """An upper bound, in bit operations (the unit of
    solubility.WALK_WORK_CAP), of the walks _insoluble_counts(n, k, p, d)
    makes: at a pathological p each of the C(d+m-1, m) class multisets
    of m = 3 .. n+1 units is a walk mod p over m steps of at most
    (p-1)/d + 1 values; elsewhere it walks nothing."""
    if n < 2 or not is_pathological(p, k):
        return 0
    return sum(comb(d + m - 1, m) * p * m * ((p - 1) // d + 1)
               for m in range(3, n + 2))


def _insoluble_counts(n: int, k: int, p: int, d: int) -> tuple[int, ...]:
    """The counts of layer_terms at p not dividing k, d = gcd(p-1, k):
    1, d, d(d-1) (-v/u is a k-th power), and past 2 none unless p is
    pathological for k, where the C(d+m-1, m) class multisets of m units
    are decided (ResourceBound past ENUMERATION_CELL_CAP of them)."""
    counts = [1, d, d * (d - 1)]
    if n < 2 or not is_pathological(p, k):
        return tuple(counts)
    count = sum(comb(d + m - 1, m) for m in range(3, n + 2))
    if count > ENUMERATION_CELL_CAP:
        raise ResourceBound(
            f"layer chances need {count} class multisets", required=count)
    reps = class_reps(p, k).values()
    for m in range(3, n + 2):
        insoluble = 0
        for classes in combinations_with_replacement(reps, m):
            if not _decide_layers(p, k, [0] * m, classes, False)[0]:
                insoluble += _multinomial(classes)
        if not insoluble:
            break  # a zero of every m-multiset is one of every larger one
        counts.append(insoluble)
    return tuple(counts)


def generic_sum(n: int, k: int, p: int) -> Density:
    """Layer-sum density for gcd(p, k) = 1, exact at every such p: a
    form is soluble iff one valuation layer has a zero mod p (the
    contraction in solubility), and layers are independent.  The terms
    are summed in p by Horner over integers, so one Fraction is built."""
    _validate(n, k, p)
    if gcd(p, k) != 1:
        raise PreconditionViolated("generic sum requires gcd(p, k) = 1")
    return _density(n, k, p, _generic_factor(n, k, p), "generic-sum")


def _generic_factor(n: int, k: int, p: int) -> tuple[int, int, int]:
    """generic_sum at a p known to be a prime not dividing k, unchecked,
    as _factor's triple."""
    d = gcd(p - 1, k)
    return _terms_factor(n, k, p, d,
                         layer_terms(n, k, _insoluble_counts(n, k, p, d)))


def _terms_factor(n: int, k: int, p: int, d: int,
                  terms: tuple[tuple[int, int], ...]
                  ) -> tuple[int, int, int]:
    """_factor's triple for layer_terms' pairs at p, d = gcd(p-1, k):
    the insoluble weight sum_w c_w p^(top-w) is summed by Horner over
    integers.  Past the pathological primes the terms depend on p only
    through d (product.rho_loc_interval reads them once per class)."""
    insoluble, top = 0, 0
    for w, c in terms:
        insoluble = insoluble * p**(w - top) + c
        top = w
    return _factor(n, k, p, d, insoluble, top)


def _local_factor(n: int, k: int, p: int) -> tuple[int, int, int]:
    """rho_p(n, k, p) at a p known to be prime, as _factor's reduced
    (num, den, bound).  At p not dividing k the generic sum skips the
    primality proof; at p | k the value comes through rho_p, so the
    benchmark's trace (bench/spans.py) still counts the enumeration, and
    den is its own bound."""
    if k % p:
        return _generic_factor(n, k, p)
    value = rho_p(n, k, p).value
    return value.numerator, value.denominator, value.denominator


def rho_p(n: int, k: int, p: int) -> Density:
    """Exact density at p: the generic sum when p does not divide k,
    else enumeration.  Non-integers are refused first; each route
    validates the rest, so p is proved prime once.  At p = k in {2, 3}
    with n >= 4 the density is 1 with no enumeration: every cell is
    soluble at n = 4 (the classification catalogue decides them all),
    and a zero survives adding a variable."""
    _integers((n, k, p))
    if p == k and k in (2, 3) and n >= 4:
        return Density(n=n, k=k, place=p, value=Fraction(1),
                       route="saturated")
    if p > 1 and k % p == 0:
        return rho_p_exact(n, k, p)
    return generic_sum(n, k, p)


def rho_infinity(n: int, k: int) -> Density:
    """Real-place density: 1 for odd k, 1 - 2^-n for even k."""
    _validate(n, k)
    value = Fraction(1) if k % 2 == 1 else 1 - Fraction(1, 2**n)
    return Density(n=n, k=k, place="infinity", value=value,
                   route="closed-form")
