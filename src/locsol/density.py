"""Exact local solubility densities for random diagonal forms.

The density at p of sum a_i x_i^k = 0 is the Haar measure of the set of
coefficient vectors in Z_p^(n+1) that admit a nontrivial zero, after
conditioning every coordinate to be nonzero (hence the normalizing
constant kappa).  Coefficients matter only through their (valuation mod
k, unit class) symbol, so the density is a finite exact sum of cell
measures, and for small (n, k) it collapses to published closed forms.

Three exact routes are exposed and cross-checked by tests: direct cell
enumeration, the closed forms, and a sum over valuation layers.  rho_p
is the one dispatcher between them, in a fixed order: the recorded
closed form when k is 2 or 3 and n >= 2 (at every p, p | k included);
else the generic sum when p does not divide k; else enumeration.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, gcd

from .errors import (DegenerateInput, PreconditionViolated, ResourceBound,
                     UnsupportedPair)
from .padic import all_cells, cell_representative, class_reps
from .primes import is_prime
from .solubility import _soluble_at, is_pathological

ENUMERATION_CELL_CAP = 10**7
# Memo bound for layer_terms(), one entry per (n, k, chance table).
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
    if n < 1:
        raise DegenerateInput(f"need n >= 1, got {n}")
    if k < 2:
        raise DegenerateInput(f"need k >= 2, got {k}")
    if p is not None and not is_prime(p):
        raise PreconditionViolated(f"not a prime: {p}")


def kappa(n: int, k: int, p: int) -> Fraction:
    """Normalizer (1 - p^-k)^-(n+1) for nonzero-coefficient conditioning."""
    _validate(n, k)
    return Fraction(p**k, p**k - 1)**(n + 1)


def power_ratio(p: int, k: int) -> Fraction:
    """(1 - 1/p) / (1 - p^-k): unit-valuation mass after conditioning."""
    return Fraction((p - 1) * p**(k - 1), p**k - 1)


def cell_measure(cell: tuple[tuple[int, int], ...], p: int, k: int
                 ) -> Fraction:
    """Mass of the multiset cell of m = n+1 symbols (e_i, class):

        multinomial * q^m / (d^m * p^(sum e_i)),

    with q = power_ratio(p, k) the conditioned unit mass and d the
    number of unit classes, each class carrying an equal share.
    """
    weight = factorial(len(cell))
    for c in Counter(cell).values():
        weight //= factorial(c)
    m = len(cell)
    d = len(class_reps(p, k))
    return Fraction(weight * ((p - 1) * p**(k - 1))**m,
                    ((p**k - 1) * d)**m * p**sum(e for e, _ in cell))


def rho_p_exact(n: int, k: int, p: int) -> Density:
    """Density at p by deciding one representative per cell.  Exact.

    Refuses with ResourceBound past ENUMERATION_CELL_CAP cells.
    """
    _validate(n, k, p)
    cell_count = comb(k * len(class_reps(p, k)) + n, n + 1)
    if cell_count > ENUMERATION_CELL_CAP:
        raise ResourceBound(
            f"cell enumeration needs {cell_count} cells", required=cell_count)
    total = Fraction(0)
    soluble = Fraction(0)
    for cell in all_cells(p, k, n):
        mass = cell_measure(cell, p, k)
        total += mass
        if _soluble_at(cell_representative(cell, p, k), p, k):
            soluble += mass
    if total != 1:
        raise PreconditionViolated("cell masses failed to sum to 1")
    return Density(n=n, k=k, place=p, value=soluble, route="enumeration")


def rho_p_closed_form(n: int, k: int, p: int) -> Density:
    """Recorded exact formulas; k in {2, 3} and n >= 2 only."""
    _validate(n, k, p)
    if n < 2:
        raise UnsupportedPair(f"no recorded formula for n = {n}")
    q = power_ratio(p, k)
    value = None
    if k == 2:
        if n == 2:
            value = (Fraction(7, 12) if p == 2
                     else 1 - Fraction(3, 2) * q**2 / p)
        elif n == 3:
            value = (Fraction(1231, 1296) if p == 2
                     else 1 - Fraction(3, 2) * q**4 / p**2)
        else:
            value = Fraction(1)
    elif k == 3:
        if n == 2:
            if p == 3:
                value = Fraction(13831, 19773)
            elif p % 3 == 1:
                value = 1 - 2 * q / p
            else:
                value = 1 - 6 * q**3 / p**3
        elif n == 3:
            if p == 3:
                value = Fraction(6391, 6591)
            elif p % 3 == 1:
                value = 1 - Fraction(8, 3) * (1 + Fraction(1, p))**2 \
                    * q**3 / p**2
            else:
                value = Fraction(1)
        elif n == 4:
            value = 1 - Fraction(40, 3) * q**4 / p**4 if p % 3 == 1 \
                else Fraction(1)
        elif n == 5:
            value = 1 - Fraction(80, 3) * q**6 / p**6 if p % 3 == 1 \
                else Fraction(1)
        else:
            value = Fraction(1)
    if value is None:
        raise UnsupportedPair(f"no recorded formula for (n={n}, k={k})")
    return Density(n=n, k=k, place=p, value=value, route="closed-form")


@lru_cache(maxsize=LAYER_TERMS_CACHE_SIZE)
def layer_terms(n: int, k: int, chances: tuple[Fraction, ...]
                ) -> tuple[tuple[int, Fraction], ...]:
    """Pairs (w, c_w), c_w the x^w coefficient of (n+1)! [t^(n+1)]
    prod_{e<k} sum_m chances[m] (t x^e)^m / m!, where chances[m] (0 past
    the end, and then skipped) is the chance that m units on one layer
    have no zero.  At x = 1/p it is the insoluble mass over q^(n+1)."""
    poly = {(0, 0): Fraction(1)}
    for e in range(k):
        grown: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
        for (used, w), c in poly.items():
            for m, chance in enumerate(chances[:n + 2 - used]):
                if chance:
                    grown[used + m, w + e * m] += c * chance / factorial(m)
        poly = grown
    return tuple(sorted((w, factorial(n + 1) * c)
                        for (used, w), c in poly.items() if used == n + 1))


def _insoluble_chances(n: int, k: int, p: int) -> tuple[Fraction, ...]:
    """The chances of layer_terms at p not dividing k, d = gcd(p-1, k):
    1, 1, (d-1)/d (-v/u is a k-th power), and past 2 zero unless p is
    pathological for k, where the C(d+m-1, m) class multisets of m units
    are decided (ResourceBound past ENUMERATION_CELL_CAP of them)."""
    d = gcd(p - 1, k)
    chances = [Fraction(1), Fraction(1), Fraction(d - 1, d)]
    if n < 2 or not is_pathological(p, k):
        return tuple(chances)
    count = sum(comb(d + m - 1, m) for m in range(3, n + 2))
    if count > ENUMERATION_CELL_CAP:
        raise ResourceBound(
            f"layer chances need {count} class multisets", required=count)
    reps = class_reps(p, k).values()
    for m in range(3, n + 2):
        insoluble = 0
        for classes in combinations_with_replacement(reps, m):
            if not _soluble_at(classes, p, k):
                weight = factorial(m)
                for c in Counter(classes).values():
                    weight //= factorial(c)
                insoluble += weight
        if not insoluble:
            break  # a zero of every m-multiset is one of every larger one
        chances.append(Fraction(insoluble, d**m))
    return tuple(chances)


def generic_sum(n: int, k: int, p: int) -> Density:
    """Layer-sum density for gcd(p, k) = 1, exact at every such p: a
    form is soluble iff one valuation layer has a zero mod p (the
    contraction in solubility), and layers are independent."""
    _validate(n, k, p)
    if gcd(p, k) != 1:
        raise PreconditionViolated("generic sum requires gcd(p, k) = 1")
    terms = layer_terms(n, k, _insoluble_chances(n, k, p))
    total = sum((c / p**w for w, c in terms), Fraction(0))
    value = 1 - power_ratio(p, k)**(n + 1) * total
    return Density(n=n, k=k, place=p, value=value, route="generic-sum")


def rho_p(n: int, k: int, p: int) -> Density:
    """Exact density at p by the first route that applies, in order:
    the closed form (k in {2, 3}, n >= 2), the generic sum (p not
    dividing k), enumeration (p | k)."""
    if k in (2, 3) and n >= 2:
        return rho_p_closed_form(n, k, p)
    _validate(n, k, p)
    if k % p:
        return generic_sum(n, k, p)
    return rho_p_exact(n, k, p)


def rho_infinity(n: int, k: int) -> Density:
    """Real-place density: 1 for odd k, 1 - 2^-n for even k."""
    _validate(n, k)
    value = Fraction(1) if k % 2 == 1 else 1 - Fraction(1, 2**n)
    return Density(n=n, k=k, place="infinity", value=value,
                   route="closed-form")
