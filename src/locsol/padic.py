"""Exact p-adic bookkeeping for diagonal forms.

Over Z_p a nonzero coefficient splits as p^e * u with u a unit, and
whether sum a_i x_i^k = 0 has a nontrivial p-adic zero depends only on
(e mod k, class of u modulo k-th powers of units).  This module supplies
that reduction: valuations, unit class labels, the signature, the
`locsol orbit` record of the scaling/twist/permutation group, and the
coarse I/II/III pattern tags.

Unit classes are labelled by one closed formula, kept (with its proof)
in _labeller as a pair: the label of u is pow(u, *_labeller(p, k)), a
power of u mod p^(2*v_p(k)+1), except at p = 2 for even k, where the
pair (1, 2^(v_2(k)+2)) makes it u mod 2^(v_2(k)+2).  It costs O(log p)
and stores nothing, at every (p, k), p | k included.  Cells carry the
same labels as signatures; class_reps(p, k) gives the smallest unit of
each label, and class_count(p, k) the number of labels.  The orbits of
cells, which only the checks compare, live in locsol.verification.

_split is the one pass over the entries: it yields the reduced symbol
(v_p(x) mod k less the least such, class label) and the unit
x / p^v_p(x), per entry.  signature(entries, p, k) (the sorted symbols,
which determine Q_p-solubility), classify_type, orbit_record and the
decisions in locsol.solubility all start from it.  From its second
time on, a coefficient's symbol and unit are read from a table
(_BOX_TABLES) instead of reduced again, so a survey, whose entries take
2H - 1 values, mostly reads them.  It is a _SizedMemo, a dict bounded by
the items it holds, as solubility's walk tables are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import gcd
from operator import index
from types import MappingProxyType

from .errors import DegenerateInput, PreconditionViolated
from .primes import is_prime

# Memo bound for _labeller(), class_reps() and solubility._root_setup(),
# per (p, k), and for _proved_prime(), per p.
CLASS_TABLE_CACHE_SIZE = 256
# Most coefficients _split's tables (_BOX_TABLES) hold together.
BOX_TABLE_SIZE = 1 << 15


class _SizedMemo(dict):
    """A memo bounded by what it holds, not by its number of keys: each
    store is counted with grew(count, limit), and once the count held
    passes limit every entry goes.  solubility.clear_caches() empties
    each instance."""

    entries = 0

    def grew(self, count: int, limit: int) -> None:
        self.entries += count
        if self.entries > limit:
            self.clear()

    def clear(self) -> None:
        super().clear()
        self.entries = 0


# _split's memo per (p, k): (table, exponent, modulus), the _labeller
# pair and a table from x to its (v_p(x) mod k, label) symbol and its
# unit x / p^v_p(x), counted by the coefficients stored.  A box of
# height H has 2H - 1 values, and a survey meets each of them many
# times.  A value is stored from its second time on; the first time
# leaves False, so a coefficient that never repeats costs one lookup
# and one store.
_BOX_TABLES = _SizedMemo()


def valuation(x: int, p: int) -> int:
    """Exponent of p in x.  Exact; x = 0 has no finite valuation, and a
    float or a string is refused (plain ints skip the conversion)."""
    if type(x) is not int or type(p) is not int:
        x, p = _integers((x, p))
    if x == 0:
        raise DegenerateInput("valuation of zero is undefined")
    if p < 2:
        raise PreconditionViolated(f"not a prime: {p}")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def class_precision(p: int, k: int) -> int:
    """Exponent c with units congruent mod p^c sharing a k-th power class.

    c = 2*v_p(k) + 1 comes from one-variable Newton iteration on
    x^k = u'/u: a residue root with error beyond twice the derivative
    valuation lifts to an exact root.
    """
    return 2 * (valuation(k, p) if k % p == 0 else 0) + 1


def certificate_exponent(p: int, k: int) -> int:
    """Congruence level m* of a witness on the reduced form.

    With reduced coefficient valuations in [0, k), the derivative
    k*a_i*x_i^(k-1) at a unit coordinate has valuation at most
    v_p(k) + k - 1, so a zero of the reduced form mod p^m*,
    m* = 2*(v_p(k)+k-1)+1, with a unit coordinate lifts by Newton
    iteration.  The decision works mod p^(2*v_p(k)+1), one valuation
    layer r at a time; the zero it finds on the layer form G_r is lifted
    to G_r = 0 mod p^(m*-r), which makes the reduced form vanish mod
    p^m* (see locsol.solubility).
    """
    v = valuation(k, p) if k % p == 0 else 0
    return 2 * (v + k - 1) + 1


def class_count(p: int, k: int, c: int | None = None) -> int:
    """Number of k-th power classes among the units mod p^c.

    c defaults to class_precision(p, k), where the count is the index of
    the k-th powers in Z_p^*: p^v_p(k) * gcd(k, p-1) for odd p.  The
    units mod p^c are cyclic of order p^(c-1)*(p-1), except at p = 2,
    c >= 3, where they are {+-1} x <5> = C_2 x C_(2^(c-2)).
    """
    if c is None:
        c = class_precision(p, k)
    if p == 2 and c >= 3:
        return gcd(k, 2) * gcd(k, 2**(c - 2))
    return gcd(k, p**(c - 1) * (p - 1))


def class_label(u: int, p: int, k: int) -> int:
    """Canonical label of the k-th power class of the unit u.

    Two units share a label exactly when their ratio is a k-th power in
    Z_p; the label is the closed formula of _labeller, at every (p, k).
    A u or k that is not an integer is refused, not truncated.
    """
    _require_prime(p)
    if type(u) is not int or type(k) is not int:
        u, k = _integers((u, k))
    if k < 2:
        raise DegenerateInput(f"degree must be at least 2, got {k}")
    if u % p == 0:
        raise PreconditionViolated(f"{u} is not a unit mod {p}")
    return pow(u, *_labeller(p, k))


@lru_cache(maxsize=CLASS_TABLE_CACHE_SIZE)
def _labeller(p: int, k: int) -> tuple[int, int]:
    """The pair (exponent, modulus) with class_label(u, p, k) equal to
    pow(u, exponent, modulus) for every unit u at (p, k).

    With c = class_precision(p, k), a unit ratio u/w is a k-th power in
    Z_p iff it is one mod p^c (Newton), so the classes are the cosets of
    the k-th powers in the units mod p^c.  Two cases:

    - Odd p, or odd k at p = 2: the units mod p^c are cyclic of order
      N = p^(c-1)*(p-1).  In a cyclic group the k-th powers are the
      g-th powers, g = gcd(k, N) = class_count(p, k), and these are the
      kernel of u -> u^(N/g), so the label pow(u, N // g, p^c) names
      the coset.  At p not dividing k, c = 1 and this is the power
      residue pow(u, (p-1)//d, p), d = gcd(k, p-1).
    - p = 2, k even, tau = v_2(k): Z_2^* = {+-1} x (1 + 4Z_2), and
      squaring maps 1 + 2^j Z_2 onto 1 + 2^(j+1) Z_2 for j >= 2, while
      an odd power is a bijection of each.  So the k-th powers of units
      are exactly 1 + 2^(tau+2) Z_2: the label is u mod 2^(tau+2), the
      pair (1, 2^(tau+2)), as pow(u, 1, m) == u % m for negative u too.
    """
    c = class_precision(p, k)
    if p == 2 and k % 2 == 0:
        return 1, 2**(c // 2 + 2)  # c = 2*tau + 1
    return p**(c - 1) * (p - 1) // class_count(p, k, c), p**c


# typed: 5.0 == 5 would otherwise hit the entry of 5, unchecked
@lru_cache(maxsize=CLASS_TABLE_CACHE_SIZE, typed=True)
def class_reps(p: int, k: int) -> MappingProxyType[int, int]:
    """Smallest unit with each class label at (p, k), in label order:
    a scan u = 1, 2, ... over the units (multiples of p skipped) that
    stops once all class_count(p, k) labels are seen."""
    _require_prime(p)
    k, = _integers((k,))
    if k < 2:
        raise DegenerateInput(f"degree must be at least 2, got {k}")
    (exponent, modulus), count = _labeller(p, k), class_count(p, k)
    reps: dict[int, int] = {}
    u = 1
    while len(reps) < count:
        if u % p:
            reps.setdefault(pow(u, exponent, modulus), u)
        u += 1
    return MappingProxyType(dict(sorted(reps.items())))


def _split(entries, p: int, k: int
           ) -> tuple[list[tuple[int, int]], list[int]]:
    """The symbol (e, class label) and the unit x / p^v_p(x) per entry,
    in source order: the one pass that signature(), classify_type(),
    orbit_record() and the decisions share.  e = v_p(x) mod k - s, s the
    least v_p(x) mod k: dividing every entry by p^s, and each by a k-th
    power of p, carries p^v*u to p^e*u, every e in [0, k) and some 0.
    From its second time on, an x is read from the (p, k) box table."""
    box = _BOX_TABLES.get((p, k))
    if box is None:
        box = _BOX_TABLES[p, k] = ({}, *_labeller(p, k))
    table, exponent, modulus = box
    symbols, units = [], []
    fresh = 0
    try:
        for x in entries:
            known = table.get(x)
            if known:
                symbol, u = known
            else:
                if x == 0:
                    raise DegenerateInput("cannot reduce a zero coefficient")
                u, v = x, 0
                while u % p == 0:
                    u //= p
                    v += 1
                symbol = (v % k, pow(u, exponent, modulus))
                if known is None:  # first time: only mark it
                    table[x] = False
                    fresh += 1
                else:
                    table[x] = symbol, u
            symbols.append(symbol)
            units.append(u)
    finally:
        if fresh:
            _BOX_TABLES.grew(fresh, BOX_TABLE_SIZE)
    low = min(symbols)[0]
    if low:
        symbols = [(e - low, c) for e, c in symbols]
    return symbols, units


def signature(entries, p: int, k: int) -> tuple[tuple[int, int], ...]:
    """Sorted (reduced exponent, class label) pairs of nonzero entries:
    the key that decides Q_p-solubility."""
    _require_prime(p)
    symbols, _ = _split(CoefficientVector(entries, k).entries, p, k)
    return tuple(sorted(symbols))


def _integers(values) -> tuple[int, ...]:
    """The iterable values as a tuple of ints.  Anything that is not an
    integer (a float, a string) is refused with PreconditionViolated, not
    truncated, as _checked does for a form's entries."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise PreconditionViolated(
            f"expected integers, got {values!r}") from None


def _require_prime(p) -> None:
    """Refuse a p that is not a prime int (a float, a string, a composite)
    with PreconditionViolated.  Each int is proved once, until
    solubility.clear_caches()."""
    try:
        prime = _proved_prime(index(p))
    except TypeError:
        prime = False
    if not prime:
        raise PreconditionViolated(f"not a prime: {p!r}")


@lru_cache(maxsize=CLASS_TABLE_CACHE_SIZE)
def _proved_prime(p: int) -> bool:
    return is_prime(p)


def _checked(entries, k: int) -> tuple[int, ...]:
    """The entries of a form of degree k as a tuple of ints.  Anything
    that is not an integer (a float, a string), entry or k, is refused,
    not truncated; so are fewer than two entries and k < 2.  It inlines
    _integers: a survey checks every draw."""
    try:
        entries = tuple(map(index, entries))
        index(k)
    except TypeError:
        raise PreconditionViolated(
            f"coefficients and degree must be integers, got {entries!r} "
            f"and {k!r}") from None
    if len(entries) < 2:
        raise DegenerateInput("need at least two coefficients")
    if k < 2:
        raise DegenerateInput(f"degree must be at least 2, got {k}")
    return entries


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients (a_0, ..., a_n) of sum a_i x_i^k = 0 in n+1 variables."""

    entries: tuple[int, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked(self.entries, self.k))

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    @property
    def has_zero_entry(self) -> bool:
        return 0 in self.entries

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)


def orbit_record(a: CoefficientVector, p: int) -> dict:
    """The record `locsol orbit` prints: a reduced, sorted presentation
    of a at p and the group element that carries a to it.

    exponents, unit_residues (mod p^m*) and class_ids are in sorted slot
    order; reduced_entries keeps source order, signs intact.  The witness
    satisfies a.entries[i] = p^(k*power_shifts[i] + scalar_exponent) *
    reduced_entries[i], and permutation[j] is the source index landing
    in sorted slot j.  The (exponent, class) pairs are signature(a.entries,
    p, a.k); on an already reduced input the group element is the
    identity apart from the sorting permutation.
    """
    _require_prime(p)
    k = a.k
    m_star = certificate_exponent(p, k)
    symbols, units = _split(a.entries, p, k)
    vals = [valuation(x, p) for x in a.entries]
    residues = [u % p**m_star for u in units]
    order = sorted(range(len(units)), key=lambda i: (symbols[i], residues[i]))
    return {
        "p": p,
        "k": k,
        "exponents": [symbols[i][0] for i in order],
        "unit_residues": [residues[i] for i in order],
        "class_ids": [symbols[i][1] for i in order],
        "reduced_entries": [p**e * u for (e, _), u in zip(symbols, units)],
        "certificate_exponent": m_star,
        "witness": {"scalar_exponent": min(v % k for v in vals),
                    "power_shifts": [v // k for v in vals],
                    "permutation": order},
    }


def classify_type(a: CoefficientVector, p: int) -> str:
    """Pattern tag of the reduced vector: "I", "II" or "III".

    I: some reduced valuation is shared by at least three coordinates.
    II: some equal-valuation pair (i, j) has -a_j/a_i a k-th power,
    i.e. label(-u_j) == label(u_i), as labels name the cosets of the
    k-th powers.  III: the rest, where every valuation is shared by at
    most two coordinates and every equal-valuation pair fails the power
    test.  Overlaps resolve in the order I > II > III.
    """
    _require_prime(p)
    symbols, units = _split(a.entries, p, a.k)
    groups: dict[int, list[tuple[int, int]]] = {}
    for (e, c), u in zip(symbols, units):
        groups.setdefault(e, []).append((u, c))
    if any(len(g) >= 3 for g in groups.values()):
        return "I"
    exponent, modulus = _labeller(p, a.k)
    if any(pow(-u, exponent, modulus) == c for g in groups.values()
           for (u, _), (_, c) in permutations(g, 2)):
        return "II"
    return "III"


# --- cells: multisets of (exponent, class) symbols -------------------------
#
# A cell stands for the set of coefficient vectors whose coordinates
# realize the given multiset of (e, class) symbols.  The density routes
# enumerate them here; a cell's representative vector and its orbit
# under the scaling group (exponent shifts mod k, class rescaling), which
# the exhaustive classification checks compare, live in verification.


def symbol_alphabet(p: int, k: int) -> list[tuple[int, int]]:
    labels = class_reps(p, k)
    return [(e, c) for e in range(k) for c in labels]


def all_cells(p: int, k: int, n: int):
    """Every cell of n+1 symbols, as sorted tuples, in a fixed order."""
    return combinations_with_replacement(symbol_alphabet(p, k), n + 1)
