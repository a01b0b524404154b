"""Exact local solubility densities for random diagonal forms.

The density at p of sum a_i x_i^k = 0 is the Haar measure of the set of
coefficient vectors in Z_p^(n+1) that admit a nontrivial zero, after
conditioning every coordinate to be nonzero (hence the normalizing
constant kappa).  Coefficients matter only through their (valuation mod
k, unit class) symbol, so the density is a finite exact sum of cell
measures, and for small (n, k) it collapses to published closed forms.

Three routes are exposed and cross-checked by tests: direct cell
enumeration, the closed forms, and a symmetric generic sum.  rho_p is
the one dispatcher between them, in a fixed order: the recorded closed
form when k is 2 or 3 and n >= 2 (at every p, p | k included); else the
generic sum when p is not pathological for k (solubility.is_pathological,
where the sum is exact); else enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd

from .errors import (DegenerateInput, PreconditionViolated, ResourceBound,
                     UnsupportedPair)
from .padic import all_cells, build_unit_class_table, cell_representative
from .primes import is_prime
from .solubility import _soluble_at, is_pathological

ENUMERATION_CELL_CAP = 10**7


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
    d = build_unit_class_table(p, k).class_count
    return Fraction(weight * ((p - 1) * p**(k - 1))**m,
                    ((p**k - 1) * d)**m * p**sum(e for e, _ in cell))


def rho_p_exact(n: int, k: int, p: int) -> Density:
    """Density at p by deciding one representative per cell.  Exact.

    Refuses with ResourceBound past ENUMERATION_CELL_CAP cells.
    """
    _validate(n, k, p)
    table = build_unit_class_table(p, k)
    cell_count = comb(k * table.class_count + n, n + 1)
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


def generic_terms(n: int, k: int):
    """The (r, w) of each term of the generic sum: for r pairs, every
    disjoint K (size r) and L (size n+1-2r) in {0, ..., k-1} gives
    w = 2 wt(K) + wt(L)."""
    for r in range(max(n - k + 1, 0), min((n + 1) // 2, k) + 1):
        for pair_exps in combinations(range(k), r):
            rest = [e for e in range(k) if e not in pair_exps]
            for single_exps in combinations(rest, n + 1 - 2 * r):
                yield r, 2 * sum(pair_exps) + sum(single_exps)


def generic_sum(n: int, k: int, p: int) -> Density:
    """Symmetric-sum density for gcd(p, k) = 1.

    1 - (n+1)! q^(n+1) times the sum over generic_terms of
    (1/2 - 1/(2d))^r p^-w, with d = gcd(p-1, k): cells with at most two
    coordinates per valuation, each pair insoluble unless -v/u is a k-th
    power for its units u, v.  It equals the true density exactly when
    three units at one valuation always have a zero, i.e. when p is not
    pathological for k (solubility.is_pathological); at a pathological p
    it is only an upper bound.
    """
    _validate(n, k, p)
    if gcd(p, k) != 1:
        raise PreconditionViolated("generic sum requires gcd(p, k) = 1")
    d = gcd(p - 1, k)
    q = power_ratio(p, k)
    pair = Fraction(d - 1, 2 * d)
    total = sum((pair**r / p**w for r, w in generic_terms(n, k)),
                Fraction(0))
    value = 1 - factorial(n + 1) * q**(n + 1) * total
    return Density(n=n, k=k, place=p, value=value, route="generic-sum")


def rho_p(n: int, k: int, p: int) -> Density:
    """Exact density at p by the first route that applies, in order:
    the closed form (k in {2, 3}, n >= 2), the generic sum (p not
    pathological for k), enumeration."""
    if k in (2, 3) and n >= 2:
        return rho_p_closed_form(n, k, p)
    _validate(n, k, p)
    if not is_pathological(p, k):
        return generic_sum(n, k, p)
    return rho_p_exact(n, k, p)


def rho_infinity(n: int, k: int) -> Density:
    """Real-place density: 1 for odd k, 1 - 2^-n for even k."""
    _validate(n, k)
    value = Fraction(1) if k % 2 == 1 else 1 - Fraction(1, 2**n)
    return Density(n=n, k=k, place="infinity", value=value,
                   route="closed-form")
