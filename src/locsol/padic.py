"""Exact p-adic bookkeeping for diagonal forms.

Over Z_p a nonzero coefficient splits as p^e * u with u a unit, and
whether sum a_i x_i^k = 0 has a nontrivial p-adic zero depends only on
(e mod k, class of u modulo k-th powers of units).  This module supplies
that reduction: valuations, unit-class tables, the signature, normal
forms under the scaling/twist/permutation group, and the coarse I/II/III
pattern tags.

Unit classes are labelled by one rule, kept in _labeller, with two
exact branches.  For every p not dividing k the label of u is the power
residue pow(u, (p-1)//d, p) with d = gcd(k, p-1): O(log p) work and no
stored state, whatever the size of p.  For p | k the label is the index
into an explicit coset table mod p^(2*v_p(k)+1), which is tiny, and the
only table built (TABLE_LIMIT guards it).  Cells carry the same labels as
signatures; class_reps(p, k) gives the smallest unit of each label.

_split is the one pass over the entries: it yields v_p, the unit
x / p^v_p(x) and its class label, per entry.  signature(entries, p, k)
(the sorted (v_p mod k less its minimum, label) pairs, which determine
Q_p-solubility), classify_type, and the decisions in locsol.solubility
all start from it.  A NormalForm (residues mod p^m*, group element,
permutation) is built only by normalize(), for `locsol orbit`, and
normalize(a, p).signature == signature(a.entries, p, a.k) always.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import gcd
from types import MappingProxyType

from .errors import DegenerateInput, PreconditionViolated, ResourceBound
from .primes import is_prime

# Largest p^precision for which an explicit coset table is built.
TABLE_LIMIT = 200_000
# Memo bound for build_unit_class_table() and class_reps(), per (p, k).
CLASS_TABLE_CACHE_SIZE = 256


def valuation(x: int, p: int) -> int:
    """Exponent of p in x.  Exact; x = 0 has no finite valuation."""
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


class UnitClassTable:
    """Partition of the units mod p^c into cosets of the k-th powers.

    Attributes mirror what downstream code needs: `class_reps[i]` is the
    smallest member of class i (class 0 contains 1), `class_of` maps a
    unit residue to its class index, and `classes` lists the cosets.
    Instances are immutable by convention and cached per (p, k).
    """

    __slots__ = ("p", "k", "precision", "modulus", "class_count",
                 "class_reps", "classes", "_class_of")

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise PreconditionViolated(f"not a prime: {p}")
        if k < 2:
            raise DegenerateInput(f"degree must be at least 2, got {k}")
        c = class_precision(p, k)
        modulus = p**c
        if modulus > TABLE_LIMIT:
            raise ResourceBound(
                f"explicit class table mod {p}^{c} is too large",
                required=modulus)
        self.p = p
        self.k = k
        self.precision = c
        self.modulus = modulus
        power_cosets = sorted({pow(t, k, modulus)
                               for t in range(1, modulus) if t % p})
        class_of: dict[int, int] = {}
        reps: list[int] = []
        classes: list[frozenset[int]] = []
        for u in range(1, modulus):
            if u % p == 0 or u in class_of:
                continue
            coset = frozenset(u * q % modulus for q in power_cosets)
            idx = len(reps)
            for member in coset:
                class_of[member] = idx
            reps.append(u)
            classes.append(coset)
        self.class_count = len(reps)
        self.class_reps = tuple(reps)
        self.classes = tuple(classes)
        self._class_of = class_of

    def class_of(self, u: int) -> int:
        u %= self.modulus
        if u % self.p == 0:
            raise PreconditionViolated(f"{u} is not a unit mod {self.p}")
        return self._class_of[u]

    def is_kth_power(self, u: int) -> bool:
        return self.class_of(u) == 0


@lru_cache(maxsize=CLASS_TABLE_CACHE_SIZE)
def build_unit_class_table(p: int, k: int) -> UnitClassTable:
    return UnitClassTable(p, k)


def class_label(u: int, p: int, k: int) -> int:
    """Canonical label of the k-th power class of the unit u.

    For p not dividing k the label is the power residue symbol
    pow(u, (p-1)//d, p), d = gcd(k, p-1), for every size of p.  For
    p | k it is the index into the explicit coset table mod
    p^(2*v_p(k)+1).  Either way, two units share a label exactly when
    their ratio is a k-th power in Z_p.
    """
    if not is_prime(p):
        raise PreconditionViolated(f"not a prime: {p}")
    if u % p == 0:
        raise PreconditionViolated(f"{u} is not a unit mod {p}")
    return _labeller(p, k)(u)


def is_kth_power_unit(u: int, p: int, k: int) -> bool:
    """Whether the unit u is a k-th power in Z_p (exact)."""
    return class_label(u, p, k) == class_label(1, p, k)


def _labeller(p: int, k: int):
    """The class-label function of units at (p, k); see class_label.

    For p not dividing k: a unit is a k-th power in Z_p iff its residue
    mod p is one (Hensel, as p does not divide k), iff that residue is a
    d-th power, iff the power residue is 1; the map is a homomorphism,
    so it labels cosets.
    """
    if k % p == 0:
        return build_unit_class_table(p, k).class_of
    euler = (p - 1) // gcd(k, p - 1)
    return lambda u: pow(u, euler, p)


@lru_cache(maxsize=CLASS_TABLE_CACHE_SIZE)
def class_reps(p: int, k: int) -> MappingProxyType[int, int]:
    """Smallest unit with each class label at (p, k), in label order:
    the coset table's class_reps at p | k, else a scan u = 1, 2, ...
    until all gcd(k, p-1) power-residue labels are seen (no table)."""
    if p > 1 and k % p == 0:
        return MappingProxyType(
            dict(enumerate(build_unit_class_table(p, k).class_reps)))
    if not is_prime(p):
        raise PreconditionViolated(f"not a prime: {p}")
    if k < 2:
        raise DegenerateInput(f"degree must be at least 2, got {k}")
    label, count = _labeller(p, k), gcd(k, p - 1)
    reps: dict[int, int] = {}
    u = 1
    while len(reps) < count:
        reps.setdefault(label(u), u)
        u += 1
    return MappingProxyType(dict(sorted(reps.items())))


def _split(entries, p: int, k: int
           ) -> tuple[list[int], list[int], list[int]]:
    """v_p(x), the unit x / p^v_p(x) and its class label, per entry.

    The one pass that signature(), classify_type(), normalize() and the
    decisions share.
    """
    label = _labeller(p, k)
    vals, units, labels = [], [], []
    for x in entries:
        if x == 0:
            raise DegenerateInput("cannot reduce a zero coefficient")
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        vals.append(v)
        units.append(x)
        labels.append(label(x))
    return vals, units, labels


def signature(entries, p: int, k: int) -> tuple[tuple[int, int], ...]:
    """Sorted (reduced exponent, class label) pairs of nonzero entries.

    Equal to normalize(CoefficientVector(entries, k), p).signature, but
    built without the normal form.
    """
    if not is_prime(p):
        raise PreconditionViolated(f"not a prime: {p}")
    vals, _, labels = _split(CoefficientVector(entries, k).entries, p, k)
    exps = [v % k for v in vals]
    low = min(exps)
    return tuple(sorted(zip([e - low for e in exps], labels)))


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients (a_0, ..., a_n) of sum a_i x_i^k = 0 in n+1 variables."""

    entries: tuple[int, ...]
    k: int

    def __post_init__(self):
        entries = tuple(int(a) for a in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 2:
            raise DegenerateInput("need at least two coefficients")
        if self.k < 2:
            raise DegenerateInput(f"degree must be at least 2, got {self.k}")

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    @property
    def has_zero_entry(self) -> bool:
        return any(a == 0 for a in self.entries)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    @property
    def max_norm(self) -> int:
        return max(abs(a) for a in self.entries)


@dataclass(frozen=True)
class GammaWitness:
    """Group element carrying a coefficient vector to its normal form.

    source[i] = p^(k*power_shifts[i] + scalar_exponent) * reduced[i]
    where reduced is the source-order reduced vector, and permutation[j]
    is the source index landing in sorted slot j.
    """

    scalar_exponent: int
    power_shifts: tuple[int, ...]
    permutation: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class NormalForm:
    """Reduced, sorted presentation of a coefficient vector at p.

    exponents/unit_residues/class_ids are in sorted slot order;
    reduced_entries keeps source order (exact integers, signs intact).
    """

    source: CoefficientVector
    p: int
    certificate_exponent: int
    exponents: tuple[int, ...]
    unit_residues: tuple[int, ...]
    class_ids: tuple[int, ...]
    reduced_entries: tuple[int, ...]
    witness: GammaWitness

    @property
    def k(self) -> int:
        return self.source.k

    @property
    def entries(self) -> tuple[int, ...]:
        """Sorted reduced representative vector p^e * (u mod p^m)."""
        return tuple(self.p**e * u
                     for e, u in zip(self.exponents, self.unit_residues))

    @property
    def signature(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, class) pairs; determines Q_p-solubility."""
        return tuple(zip(self.exponents, self.class_ids))


def normalize(a: CoefficientVector, p: int) -> NormalForm:
    """Reduce valuations into [0, k) with min 0, sort, record the action.

    Idempotent on already-reduced inputs: the recorded group element is
    then the identity apart from the sorting permutation.
    """
    if not is_prime(p):
        raise PreconditionViolated(f"not a prime: {p}")
    k = a.k
    m_star = certificate_exponent(p, k)
    big_mod = p**m_star
    vals, units, labels = _split(a.entries, p, k)
    partial = [v % k for v in vals]
    scalar = min(partial)
    exps = [r - scalar for r in partial]
    residues = [u % big_mod for u in units]
    order = sorted(range(len(exps)),
                   key=lambda i: (exps[i], labels[i], residues[i], i))
    witness = GammaWitness(scalar_exponent=scalar,
                           power_shifts=tuple(v // k for v in vals),
                           permutation=tuple(order))
    return NormalForm(
        source=a,
        p=p,
        certificate_exponent=m_star,
        exponents=tuple(exps[i] for i in order),
        unit_residues=tuple(residues[i] for i in order),
        class_ids=tuple(labels[i] for i in order),
        reduced_entries=tuple(p**e * u for e, u in zip(exps, units)),
        witness=witness,
    )


def classify_type(a: CoefficientVector, p: int) -> str:
    """Pattern tag of the reduced vector: "I", "II" or "III".

    I: some reduced valuation is shared by at least three coordinates.
    II: some equal-valuation pair (i, j) has -a_j/a_i a k-th power,
    i.e. label(-u_j) == label(u_i), as labels name the cosets of the
    k-th powers.  III: the rest, where every valuation is shared by at
    most two coordinates and every equal-valuation pair fails the power
    test.  Overlaps resolve in the order I > II > III.
    """
    if not is_prime(p):
        raise PreconditionViolated(f"not a prime: {p}")
    k = a.k
    vals, units, labels = _split(a.entries, p, k)
    groups: dict[int, list[tuple[int, int]]] = {}
    for v, u, c in zip(vals, units, labels):
        groups.setdefault(v % k, []).append((u, c))
    if any(len(g) >= 3 for g in groups.values()):
        return "I"
    label = _labeller(p, k)
    if any(label(-u) == c for g in groups.values()
           for (u, _), (_, c) in permutations(g, 2)):
        return "II"
    return "III"


# --- cells: multisets of (exponent, class) symbols -------------------------
#
# A cell stands for the set of coefficient vectors whose coordinates
# realize the given multiset of (e, class) symbols.  The scaling group
# acts by shifting all exponents by a constant mod k and multiplying all
# classes by a fixed class; orbits of cells are what the exhaustive
# classification checks compare.


def symbol_alphabet(p: int, k: int) -> list[tuple[int, int]]:
    labels = class_reps(p, k)
    return [(e, c) for e in range(k) for c in labels]


def all_cells(p: int, k: int, n: int):
    """Every cell of n+1 symbols, as sorted tuples, in a fixed order."""
    return combinations_with_replacement(symbol_alphabet(p, k), n + 1)


def cell_representative(cell: tuple[tuple[int, int], ...], p: int, k: int
                        ) -> tuple[int, ...]:
    """A vector whose signature is the cell shifted to minimum exponent 0."""
    reps = class_reps(p, k)
    return tuple(p**e * reps[c] for e, c in cell)


def cell_orbit(cell: tuple[tuple[int, int], ...], p: int, k: int
               ) -> set[tuple[tuple[int, int], ...]]:
    """Orbit of a cell under global exponent shifts and class rescaling."""
    reps = class_reps(p, k)
    label = _labeller(p, k)
    return {tuple(sorted(((e + shift) % k, label(reps[c] * w))
                         for e, c in cell))
            for shift in range(k) for w in reps.values()}
