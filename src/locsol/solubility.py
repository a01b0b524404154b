"""Exact solubility of diagonal forms over Q_p and R.

Write the reduced entries of sum a_i x_i^k = 0 as p^e_i * u_i with e_i
in [0, k) and let tau = v_p(k).  For each valuation r that occurs, in
increasing order, the derived form

    G_r = sum_{e_i >= r} p^(e_i-r) u_i y_i^k
        + sum_{e_i < r} p^(e_i-r+k) u_i y_i^k

is tested for a zero mod p^(2*tau+1) with a unit y_j on a coordinate
where e_j = r (the Davenport-Lewis contraction).  The form has a
nontrivial zero over Q_p iff some layer passes: a primitive zero divided
by its smallest term valuation gives one, and since dG_r/dy_j has
valuation tau, Newton iteration in y_j lifts one back.

The test is a bitset walk over Z/p^(2*tau+1) that carries a flag for
"a layer-r unit has been used".  Route "dp" runs it on every layer.
Route "scale" (gcd(p, k) = 1, so the walk is mod p over the layer's
units) first tries two shortcuts: a pair -u_t/u_s that is a k-th power
mod p, and a plane-curve point count when p is not pathological for k.

A soluble verdict can carry a witness: the layer zero y is Newton-lifted
until G_r(y) = 0 mod p^(m*-r), m* = certificate_exponent(p, k), and
mapped back by x_i = y_i (e_i >= r), x_i = p*y_i (e_i < r), so that the
reduced form vanishes at x mod p^m* with a unit coordinate.  _settle,
the one cache-or-decide step behind every decision, turns one pass over
the entries (padic._split) into the verdict-cache key (p, k, signature)
and the e_i and u_i the layers need; a hit costs that and a lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import (ClassificationMismatch, DegenerateInput,
                     PreconditionViolated, ResourceBound)
from .padic import (CoefficientVector, _split, all_cells, cell_orbit,
                    cell_representative, certificate_exponent, class_label,
                    signature, valuation)
from .primes import is_prime, prime_divisors, primes_below

# Most modulus x value-set entries one layer walk may cost.
WALK_WORK_CAP = 10**10
_ROOT_SCAN_LIMIT = 3000
# Memo bound for _value_sets(), one entry per (p, k, coefficient residue),
# and for _value_count().
VALUE_SETS_CACHE_SIZE = 4_096
# Only walks up to this modulus use the memo, which keeps it small.  A
# larger set (p not dividing k on the walk mod p) is rebuilt: building it
# costs about as much as walking it.
VALUE_SETS_MEMO_MODULUS = 128
# Verdict memo bound; when full, the oldest entry in insertion order goes.
VERDICT_CACHE_SIZE = 65_536
# Memo bound for pathological_primes(), one entry per degree k.
PATHOLOGICAL_CACHE_SIZE = 64

# An OrderedDict pops its oldest entry in O(1); next(iter(d)) on a plain
# dict skips every slot deleted since its last resize.
_VERDICTS: OrderedDict[tuple, str] = OrderedDict()


@dataclass(frozen=True)
class SolubilityVerdict:
    """Outcome of a local decision, with optional certificate data.

    place is a prime or the string "real".  For a soluble finite place
    with a witness, witness is a vector mod p^certificate_level with a
    unit coordinate on which witness_form (the reduced coefficients,
    source order) vanishes mod p^certificate_level; for the real place
    the witness is the coefficient sign pattern.
    """

    place: int | str
    status: str
    witness: tuple[int, ...] | None = None
    witness_form: tuple[int, ...] | None = None
    certificate_level: int | None = None
    route: str | None = None

    @property
    def is_soluble(self) -> bool:
        return self.status != "insoluble"


def clear_caches() -> None:
    """Drop all memoized verdicts and value tables (mainly for tests)."""
    _VERDICTS.clear()
    _value_sets.cache_clear()
    _value_count.cache_clear()


def _remember(key: tuple, status: str) -> None:
    if key not in _VERDICTS and len(_VERDICTS) >= VERDICT_CACHE_SIZE:
        _VERDICTS.popitem(last=False)
    _VERDICTS[key] = status


def load_verdicts(items: dict[tuple, str]) -> None:
    for key, status in items.items():
        _remember(key, status)


def dump_verdicts() -> dict[tuple, str]:
    return dict(_VERDICTS)


# --- the walk on one layer --------------------------------------------------


@lru_cache(maxsize=VALUE_SETS_CACHE_SIZE)
def _value_sets(p: int, k: int, level: int, c: int):
    """Values c*t^k mod p^level, split by whether t is a unit.

    Returns (unit, nonunit, all) dicts mapping each attainable value to
    a t attaining it, for witness recovery.
    """
    modulus = p**level
    unit_vals: dict[int, int] = {}
    nonunit_vals: dict[int, int] = {}
    for t in range(modulus):
        val = c * pow(t, k, modulus) % modulus
        (nonunit_vals if t % p == 0 else unit_vals).setdefault(val, t)
    return unit_vals, nonunit_vals, nonunit_vals | unit_vals


def _unit_power_count(p: int, k: int, c: int) -> int:
    """Number of k-th powers among the units mod p^c, c >= 1."""
    order = p**(c - 1) * (p - 1)
    if p == 2 and c >= 3:  # the units mod 2^c are C_2 x C_(2^(c-2))
        return order // (gcd(k, 2) * gcd(k, 2**(c - 2)))
    return order // gcd(k, order)


@lru_cache(maxsize=VALUE_SETS_CACHE_SIZE)
def _value_count(p: int, k: int, room: int) -> int:
    """len(_value_sets(p, k, level, c)[2]) without building it.

    With c = p^s * unit and room = level - s the values are t^k mod
    p^room up to a unit: zero, and for each j with jk < room the k-th
    powers of units mod p^(room-jk), times p^(jk).
    """
    return 1 + sum(_unit_power_count(p, k, room - j * k)
                   for j in range((room - 1) // k + 1))


def _shift_union(bits: int, values, size: int, mask: int) -> int:
    """Union of the cyclic rotations of a size-bit set by each value.

    Rotating by v is taking bits [size, 2*size) of (bits twice over) << v,
    so the shifts are OR-ed first and cut out once.
    """
    if not bits:
        return 0
    doubled = bits | bits << size
    out = 0
    for v in values:
        out |= doubled << v
    return out >> size & mask


def _walk(p: int, k: int, level: int, coeffs, layer, want_witness: bool):
    """Zero mod p^level of sum c_i y_i^k with a unit y_j, j in layer.

    State: bitsets over Z/p^level of attainable partial sums, one for
    "a layer unit has been used" and one for "not yet".  Returns
    (found, y); y is recovered by walking the stored states backwards.
    """
    q = p**level
    steps = [(i, c % q) for i, c in enumerate(coeffs) if c % q]
    work = q * sum(_value_count(p, k, level - valuation(c, p))
                   for _, c in steps)
    if work > WALK_WORK_CAP:
        raise ResourceBound(
            f"walk mod {p}^{level} needs about {work} bit operations",
            required=work)
    mask = (1 << q) - 1
    memo = q <= VALUE_SETS_MEMO_MODULUS
    sets = _value_sets if memo else _value_sets.__wrapped__
    tables = [sets(p, k, level, c) for _, c in steps]
    used, unused = 0, 1
    history = []
    for (i, _), (unit, nonunit, every) in zip(steps, tables):
        history.append((used, unused))
        if i in layer:
            used, unused = (_shift_union(used, every, q, mask)
                            | _shift_union(unused, unit, q, mask),
                            _shift_union(unused, nonunit, q, mask))
        else:
            used, unused = (_shift_union(used, every, q, mask),
                            _shift_union(unused, every, q, mask))
    if not used & 1:
        return False, None
    if not want_witness:
        return True, None
    y = [0] * len(coeffs)
    target, flag = 0, True
    for (i, _), (unit, nonunit, every), (prev_used, prev_unused) in zip(
            reversed(steps), reversed(tables), reversed(history)):
        if i not in layer:
            options = ((every, prev_used if flag else prev_unused, flag),)
        elif flag:
            options = ((every, prev_used, True), (unit, prev_unused, False))
        else:
            options = ((nonunit, prev_unused, False),)
        y[i], target, flag = next(
            (t, (target - v) % q, f) for values, prev, f in options
            for v, t in values.items() if prev >> ((target - v) % q) & 1)
    if flag or target:
        raise PreconditionViolated("walk witness ended off the start state")
    return True, y


def _lift(p: int, k: int, tau: int, level: int, coeffs, y, lead: int):
    """Newton-lift y[lead] until sum c_i y_i^k = 0 mod p^level.

    The derivative k*c_lead*y_lead^(k-1) has valuation tau and the
    residual starts at valuation at least 2*tau + 1, so each step
    divides both by p^tau before inverting.
    """
    q = p**(level + tau)
    target = p**level
    for _ in range(level + 2):
        g = sum(c * pow(t, k, q) for c, t in zip(coeffs, y)) % q
        if g % target == 0:
            return y
        d = k * coeffs[lead] * pow(y[lead], k - 1, q) % q
        step = (g // p**tau) * pow(d // p**tau, -1, target)
        y[lead] = (y[lead] - step) % target
    raise PreconditionViolated("witness lift failed to converge")


# --- shortcuts for gcd(p, k) = 1 ---------------------------------------------


def _kth_root_mod(value: int, k: int, p: int) -> int:
    """A unit y with y^k = value mod p; the caller guarantees one exists."""
    value %= p
    if p <= _ROOT_SCAN_LIMIT:
        for y in range(1, p):
            if pow(y, k, p) == value:
                return y
    else:
        from sympy.ntheory.residue_ntheory import nthroot_mod
        root = nthroot_mod(value, k, p)
        if root is not None:
            return int(root)
    raise PreconditionViolated(f"no {k}-th root of {value} mod {p}")


def _power_pair(p: int, k: int, members):
    """First (s, t, w) with w = -u_t/u_s a k-th power mod p, or None."""
    euler = (p - 1) // gcd(k, p - 1)
    for s in range(len(members)):
        for t in range(s + 1, len(members)):
            idx_s, u_s = members[s]
            idx_t, u_t = members[t]
            w = (-u_t) * pow(u_s, -1, p) % p
            if pow(w, euler, p) == 1:
                return idx_s, idx_t, w
    return None


def _group_curve_solution(p: int, k: int, members):
    (i0, u0), (i1, u1), (i2, u2) = members[:3]
    euler = (p - 1) // gcd(k, p - 1)
    inv2 = pow(u2, -1, p)
    for y1 in range(1, p):
        c = -(u0 + u1 * pow(y1, k, p)) * inv2 % p
        if c and pow(c, euler, p) == 1:
            return {i0: 1, i1: y1, i2: _kth_root_mod(c, k, p)}
    raise PreconditionViolated("guaranteed curve point not found")


def _shortcut(p: int, k: int, members, want_witness: bool):
    """Decide an all-unit layer mod p without a walk, or return None.

    members are the (index, unit) pairs of the layer.  Returns
    (soluble, zero), the zero as {index: y} only when a witness is
    wanted: k-th roots are taken just to build one.
    """
    if len(members) < 2:
        return False, None
    pair = _power_pair(p, k, members)
    if pair is not None:
        if not want_witness:
            return True, None
        idx_s, idx_t, w = pair
        return True, {idx_s: _kth_root_mod(w, k, p), idx_t: 1}
    if len(members) == 2:
        return False, None
    # With no pair soluble no curve point has a zero coordinate, so the
    # point that is_pathological's Hasse-Weil bound forces is all-nonzero.
    if p > _ROOT_SCAN_LIMIT and not is_pathological(p, k):
        if not want_witness:
            return True, None
        return True, _group_curve_solution(p, k, members)
    return None


# --- layer by layer ---------------------------------------------------------


def _decide_layers(p: int, k: int, exps, units, want_witness: bool,
                   shortcuts: bool):
    """Test the layers G_r in increasing r (see the module docstring).

    exps and units are the reduced exponents e_i and the units u_i of
    the entries, in source order.  A witness is the zero y of the first
    soluble layer, lifted until G_r(y) = 0 mod p^(m*-r) and mapped back
    to x with F(x) = p^r G_r(y).
    """
    tau = valuation(k, p) if k % p == 0 else 0
    for r in sorted(set(exps)):
        coeffs = [u * p**(e - r if e >= r else e - r + k)
                  for e, u in zip(exps, units)]
        layer = [i for i, e in enumerate(exps) if e == r]
        decided = None
        if shortcuts:
            decided = _shortcut(p, k, [(i, units[i]) for i in layer],
                                want_witness)
        if decided is None:
            soluble, y = _walk(p, k, 2 * tau + 1, coeffs, set(layer),
                               want_witness)
        else:
            soluble, zero = decided
            y = zero and [zero.get(i, 0) for i in range(len(exps))]
        if not soluble:
            continue
        if not want_witness:
            return True, None
        lead = next(i for i in layer if y[i] % p)
        m_star = certificate_exponent(p, k)
        y = _lift(p, k, tau, m_star - r, coeffs, y, lead)
        witness = tuple((t if e >= r else p * t) % p**m_star
                        for e, t in zip(exps, y))
        _check_witness(p, k, exps, units, m_star, witness)
        return True, witness
    return False, None


def _check_witness(p: int, k: int, exps, units, m_star: int,
                   witness: tuple[int, ...]) -> None:
    modulus = p**m_star
    total = sum(p**e * u * pow(w, k, modulus)
                for e, u, w in zip(exps, units, witness)) % modulus
    if total != 0 or not any(w % p for w in witness):
        raise PreconditionViolated("produced witness fails its own check")


# --- the one cache-or-decide step --------------------------------------------


def _settle(entries, p: int, k: int, route: str = "auto",
            want_witness: bool = False):
    """Status at a prime p of nonzero entries, from the cache or decided.

    The key is (p, k, padic.signature(entries, p, k)).  Returns (status,
    route, exps, units, witness) with the reduced exponents and units in
    source order; route is "cache" when the cache answered, which it
    does unless a witness is wanted for a soluble form.
    """
    vals, units, labels = _split(entries, p, k)
    exps = [v % k for v in vals]
    low = min(exps)
    exps = [e - low for e in exps]
    key = (p, k, tuple(sorted(zip(exps, labels))))
    status = _VERDICTS.get(key)
    if status is not None and (status == "insoluble" or not want_witness):
        return status, "cache", exps, units, None
    if route == "auto":
        route = "scale" if gcd(p, k) == 1 else "dp"
    soluble, witness = _decide_layers(p, k, exps, units, want_witness,
                                      route == "scale")
    status = "soluble" if soluble else "insoluble"
    _remember(key, status)
    return status, route, exps, units, witness


def _soluble_at(entries, p: int, k: int) -> bool:
    """decide_qp(...).is_soluble for a prime p and nonzero entries."""
    return _settle(entries, p, k)[0] != "insoluble"


# --- public decisions --------------------------------------------------------


def decide_qp(a: CoefficientVector, p: int, *, route: str = "auto",
              with_witness: bool = False) -> SolubilityVerdict:
    """Decide whether sum a_i x_i^k = 0 has a nontrivial zero over Q_p."""
    if not is_prime(p):
        raise PreconditionViolated(f"not a prime: {p}")
    if a.is_zero:
        raise DegenerateInput("all-zero coefficient vector")
    if route not in ("auto", "dp", "scale"):
        raise PreconditionViolated(f"unknown route: {route}")
    if route == "scale" and gcd(p, a.k) != 1:
        raise PreconditionViolated("scale route requires gcd(p, k) = 1")
    m_star = certificate_exponent(p, a.k)
    if a.has_zero_entry:
        j = a.entries.index(0)
        witness = tuple(1 if i == j else 0 for i in range(a.n + 1))
        return SolubilityVerdict(
            place=p, status="soluble-trivially", witness=witness,
            witness_form=a.entries, certificate_level=m_star,
            route="trivial")
    status, route, exps, units, witness = _settle(a.entries, p, a.k, route,
                                                  with_witness)
    return SolubilityVerdict(
        place=p, status=status, witness=witness,
        witness_form=tuple(p**e * u for e, u in zip(exps, units)),
        certificate_level=m_star, route=route)


def decide_real(a: CoefficientVector) -> SolubilityVerdict:
    """Decide solubility over R: odd degree or a sign change suffices."""
    if a.is_zero:
        raise DegenerateInput("all-zero coefficient vector")
    signs = tuple((x > 0) - (x < 0) for x in a.entries)
    if a.has_zero_entry:
        status = "soluble-trivially"
    elif _real_soluble(a.entries, a.k):
        status = "soluble"
    else:
        status = "insoluble"
    return SolubilityVerdict(place="real", status=status, witness=signs,
                             route="sign")


def _real_soluble(entries, k: int) -> bool:
    """The real-place rule for nonzero entries: odd k or a sign change."""
    return k % 2 == 1 or min(entries) < 0 < max(entries)


def is_pathological(p: int, k: int) -> bool:
    """Whether three units at one valuation can fail to have a zero at p.

    For p not dividing k the units u, v, w feed the smooth plane curve
    u X^d + v Y^d + w Z^d, d = gcd(p-1, k), whose d-th power values match
    the k-th power values exactly.  Once p + 1 > (d-1)(d-2) sqrt(p) the
    Hasse-Weil bound forces a point, and it lifts through the unit
    gradient; squaring keeps the comparison exact.  Every p | k counts.
    """
    if k % p == 0:
        return True
    d = gcd(p - 1, k)
    genus_twice = (d - 1) * (d - 2)
    return genus_twice > 0 and (p + 1) ** 2 <= genus_twice**2 * p


@lru_cache(maxsize=PATHOLOGICAL_CACHE_SIZE)
def pathological_primes(k: int) -> tuple[int, ...]:
    """The primes where is_pathological holds, all below ((k-1)(k-2))^2
    or at most k.  Away from them three units at one valuation always
    have a zero."""
    bound = max(((k - 1) * (k - 2)) ** 2, k + 1)
    return tuple(p for p in primes_below(bound) if is_pathological(p, k))


def relevant_primes(a: CoefficientVector) -> list[int]:
    """Finite places that decide everywhere-local solubility (no zeros):
    the pathological primes of k and the divisors of the coefficients.

    For n >= 2 any other p finds n+1 >= 3 units at valuation 0, which
    have a zero (see is_pathological).  For n = 1, a zero at p makes
    -a_1/a_0 a k-th power in Q_p; so if the real place and each
    p | a_0*a_1 are soluble, -a_1/a_0 = +-m^k has a real k-th root, is a
    k-th power in Q, and every place is soluble.
    """
    if a.has_zero_entry:
        raise DegenerateInput("zero coefficient present")
    return _tested_primes(a.entries, a.k)


def _tested_primes(entries, k: int) -> list[int]:
    """relevant_primes of nonzero entries."""
    out = set(pathological_primes(k))
    for x in entries:
        out.update(prime_divisors(x))
    return sorted(out)


@dataclass(frozen=True)
class EverywhereLocalReport:
    coefficients: tuple[int, ...]
    k: int
    overall: bool
    verdicts: tuple[SolubilityVerdict, ...]
    tested_primes: tuple[int, ...]
    note: str


def decide_everywhere_local(a: CoefficientVector) -> EverywhereLocalReport:
    """Test the real place and every prime that can possibly obstruct.

    With a zero coefficient the form vanishes on a coordinate axis, so
    every place is soluble outright; else the primes are relevant_primes.
    """
    if a.is_zero:
        raise DegenerateInput("all-zero coefficient vector")
    if a.has_zero_entry:
        return EverywhereLocalReport(
            coefficients=a.entries, k=a.k, overall=True,
            verdicts=(decide_real(a),), tested_primes=(),
            note="a zero coefficient puts a coordinate axis on the "
                 "hypersurface, so every completion is soluble")
    tested = tuple(_tested_primes(a.entries, a.k))
    verdicts = [decide_real(a)]
    for p in tested:
        verdicts.append(decide_qp(a, p))
    overall = all(v.is_soluble for v in verdicts)
    return EverywhereLocalReport(
        coefficients=a.entries, k=a.k, overall=overall,
        verdicts=tuple(verdicts), tested_primes=tested,
        note="a prime outside the tested set is soluble whenever every "
             "tested place is (see relevant_primes)")


# --- exhaustive checks against the recorded classifications ------------------

SOLUBLE_CELLS_2_2_2 = (
    (1, 1, 3), (1, 1, 7), (1, 3, 7), (1, 1, 6),
    (1, 1, 14), (1, 5, 2), (1, 7, 2), (1, 7, 6),
)

INSOLUBLE_CELLS_2_2_3 = (
    (1, 1, 1, 1), (1, 1, 5, 5), (1, 1, 2, 2), (1, 1, 10, 10),
    (1, 3, 2, 6), (1, 3, 10, 14), (1, 5, 6, 14),
)


@dataclass(frozen=True)
class ClassificationReport:
    p: int
    k: int
    n: int
    cells_checked: int
    soluble_cells: int
    insoluble_cells: int
    detail: str


def _decided_cells(p: int, k: int, n: int) -> dict[tuple, bool]:
    out = {}
    for cell in all_cells(p, k, n):
        out[cell] = _soluble_at(cell_representative(cell, p, k), p, k)
    return out


def _orbit_closure(vectors, p: int, k: int) -> set:
    closed = set()
    for entries in vectors:
        closed |= cell_orbit(signature(entries, p, k), p, k)
    return closed


def _report(p, k, n, decided, detail) -> ClassificationReport:
    soluble = sum(1 for v in decided.values() if v)
    return ClassificationReport(
        p=p, k=k, n=n, cells_checked=len(decided), soluble_cells=soluble,
        insoluble_cells=len(decided) - soluble, detail=detail)


def _verify_2_2(n: int) -> ClassificationReport:
    decided = _decided_cells(2, 2, n)
    if n == 2:
        expected = _orbit_closure(SOLUBLE_CELLS_2_2_2, 2, 2)
        for cell, soluble in decided.items():
            if soluble != (cell in expected):
                raise ClassificationMismatch(
                    f"(p=2, k=2, n=2) disagreement at {cell}", cell=cell)
        detail = "soluble set matches the 8 recorded orbit representatives"
    elif n == 3:
        expected = _orbit_closure(INSOLUBLE_CELLS_2_2_3, 2, 2)
        for cell, soluble in decided.items():
            if soluble != (cell not in expected):
                raise ClassificationMismatch(
                    f"(p=2, k=2, n=3) disagreement at {cell}", cell=cell)
        detail = "insoluble set matches the 7 recorded orbit representatives"
    else:
        for cell, soluble in decided.items():
            if not soluble:
                raise ClassificationMismatch(
                    f"(p=2, k=2, n={n}) unexpected insoluble cell {cell}",
                    cell=cell)
        detail = "every cell is soluble"
    return _report(2, 2, n, decided, detail)


def _verify_3_3_2() -> ClassificationReport:
    decided = _decided_cells(3, 3, 2)
    units = [u for u in range(1, 27) if u % 3]
    for u0 in units:
        for u1 in units:
            for u2 in units:
                checks = (
                    ((u0, 3 * u1, 9 * u2), False),
                    ((u0, u1, 9 * u2),
                     (u0 - u1) % 9 == 0 or (u0 + u1) % 9 == 0),
                    ((u0, u1, 3 * u2), True),
                    ((u0, u1, u2),
                     len({class_label(u, 3, 3) for u in (u0, u1, u2)}) < 3),
                )
                for entries, expected in checks:
                    cell = signature(entries, 3, 3)
                    if decided[cell] != expected:
                        raise ClassificationMismatch(
                            f"(p=3, k=3, n=2) disagreement at {entries}",
                            cell=cell)
    return _report(3, 3, 2, decided,
                   "all four recorded unit-pattern clauses hold for every "
                   "unit triple mod 27")


def _expected_3_3_3(cell) -> bool:
    exps = tuple(e for e, _ in cell)
    shifted = {c: tuple(sorted((e + c) % 3 for e in exps)) for c in range(3)}
    canonical = min(shifted.values())
    if canonical in ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 2)):
        return True
    shift = next(c for c, v in shifted.items() if v == canonical)
    zero_classes = [cls for e, cls in cell if (e + shift) % 3 == 0]
    return len(set(zero_classes)) < 3


def _verify_3_3_3() -> ClassificationReport:
    decided = _decided_cells(3, 3, 3)
    for cell, soluble in decided.items():
        if soluble != _expected_3_3_3(cell):
            raise ClassificationMismatch(
                f"(p=3, k=3, n=3) disagreement at {cell}", cell=cell)
    return _report(3, 3, 3, decided,
                   "valuation-pattern clauses hold for all 495 cells")


def _verify_3_3_high(n: int) -> ClassificationReport:
    decided = _decided_cells(3, 3, n)
    for cell, soluble in decided.items():
        if not soluble:
            raise ClassificationMismatch(
                f"(p=3, k=3, n={n}) unexpected insoluble cell {cell}",
                cell=cell)
    return _report(3, 3, n, decided, "every cell is soluble")


def verify_classification(p: int, k: int, n: int) -> ClassificationReport:
    """Exhaustively compare decisions against the recorded catalogues.

    Supported regimes: (p, k) = (2, 2) with n >= 2 and (p, k) = (3, 3)
    with n >= 2.  Raises ClassificationMismatch on the first cell where
    the decision and the catalogue disagree.
    """
    if (p, k) == (2, 2) and n >= 2:
        return _verify_2_2(n)
    if (p, k) == (3, 3):
        if n == 2:
            return _verify_3_3_2()
        if n == 3:
            return _verify_3_3_3()
        if n >= 4:
            return _verify_3_3_high(n)
    raise PreconditionViolated(
        f"no recorded classification for (p={p}, k={k}, n={n})")
