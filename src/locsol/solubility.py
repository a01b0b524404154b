"""Exact solubility of diagonal forms over Q_p and R.

Two independent routes decide sum a_i x_i^k = 0 over Q_p:

* "dp": a congruence dynamic program mod p^(2*(v_p(k)+k-1)+1) over
  bitset-encoded sum sets, tracking whether a unit coordinate has been
  used.  Works for every p, including p | k.

* "scale": for gcd(p, k) = 1, a nontrivial zero exists iff some set of
  coordinates sharing a reduced valuation admits an all-unit zero mod p
  (minimal-valuation terms must cancel, and a unit derivative lets
  Newton iteration lift).  Pairs reduce to a power-residue test; larger
  sets use a point count on a smooth plane curve when it is decisive,
  and an exact subset-sum walk mod p otherwise.

Both produce checkable witnesses: a vector mod p^m with a unit
coordinate on which the reduced form vanishes deeply enough for Newton
iteration to converge.  Verdicts are cached by the (exponent, class)
signature, which determines solubility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd

from .errors import (ClassificationMismatch, DegenerateInput,
                     PreconditionViolated, ResourceBound)
from .padic import (CoefficientVector, NormalForm, build_unit_class_table,
                    cell_of_entries, cell_orbit, cell_representative,
                    certificate_exponent, normalize, symbol_alphabet,
                    valuation)
from .primes import is_prime, prime_divisors, primes_below

DP_MODULUS_CAP = 10**8
_ROOT_SCAN_LIMIT = 3000
# Memo bound for _value_sets(), one entry per (p, k, coefficient residue).
VALUE_SETS_CACHE_SIZE = 4_096

_VERDICTS: dict[tuple, str] = {}


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


def load_verdicts(items: dict[tuple, str]) -> None:
    _VERDICTS.update(items)


def dump_verdicts() -> dict[tuple, str]:
    return dict(_VERDICTS)


# --- congruence dynamic program ---------------------------------------------


@lru_cache(maxsize=VALUE_SETS_CACHE_SIZE)
def _value_sets(p: int, k: int, m_star: int, a_mod: int):
    """Values a*t^k mod p^m_star, split by whether t is a unit.

    Returns (unit, nonunit, all) dicts mapping each attainable value to
    the smallest t attaining it, for witness recovery.
    """
    modulus = p**m_star
    unit_vals: dict[int, int] = {}
    nonunit_vals: dict[int, int] = {}
    all_vals: dict[int, int] = {}
    for t in range(modulus):
        val = a_mod * pow(t, k, modulus) % modulus
        bucket = nonunit_vals if t % p == 0 else unit_vals
        if val not in bucket:
            bucket[val] = t
        if val not in all_vals:
            all_vals[val] = t
    return unit_vals, nonunit_vals, all_vals


def _rotate(bits: int, shift: int, size: int, mask: int) -> int:
    if bits == 0 or shift == 0:
        return bits
    return ((bits << shift) | (bits >> (size - shift))) & mask


def _shift_union(bits: int, values, size: int, mask: int) -> int:
    out = 0
    for v in values:
        out |= _rotate(bits, v, size, mask)
    return out


def _decide_dp(nf: NormalForm, want_witness: bool):
    """Exact decision mod p^m_star with a used-a-unit flag.

    State: bitsets over Z/p^m_star of attainable partial sums, one for
    "some coordinate so far is a unit" and one for "none is".  Accepting
    means 0 is attainable with a unit used; the witness walks stored
    per-step states backwards through exemplar tables.
    """
    p, k = nf.p, nf.k
    m_star = nf.certificate_exponent
    modulus = p**m_star
    if modulus > DP_MODULUS_CAP:
        raise ResourceBound(
            f"dp route needs bitsets of {modulus} bits", required=modulus)
    mask = (1 << modulus) - 1
    coeffs = [a % modulus for a in nf.reduced_entries]
    tables = [_value_sets(p, k, m_star, a) for a in coeffs]
    with_unit, without_unit = 0, 1
    history = []
    for unit_vals, nonunit_vals, all_vals in tables:
        history.append((with_unit, without_unit))
        nxt_with = (_shift_union(with_unit, all_vals, modulus, mask)
                    | _shift_union(without_unit, unit_vals, modulus, mask))
        nxt_without = _shift_union(without_unit, nonunit_vals, modulus, mask)
        with_unit, without_unit = nxt_with, nxt_without
    if not with_unit & 1:
        return False, None
    if not want_witness:
        return True, None
    witness = [0] * len(coeffs)
    target = 0
    in_unit_register = True
    for i in range(len(coeffs) - 1, -1, -1):
        unit_vals, nonunit_vals, all_vals = tables[i]
        prev_with, prev_without = history[i]
        moved = False
        if in_unit_register:
            for val, t in all_vals.items():
                if (prev_with >> ((target - val) % modulus)) & 1:
                    witness[i] = t
                    target = (target - val) % modulus
                    moved = True
                    break
            if not moved:
                for val, t in unit_vals.items():
                    if (prev_without >> ((target - val) % modulus)) & 1:
                        witness[i] = t
                        target = (target - val) % modulus
                        in_unit_register = False
                        moved = True
                        break
        else:
            for val, t in nonunit_vals.items():
                if (prev_without >> ((target - val) % modulus)) & 1:
                    witness[i] = t
                    target = (target - val) % modulus
                    moved = True
                    break
        if not moved:
            raise PreconditionViolated("dp witness walk lost its trail")
    if in_unit_register or target != 0:
        raise PreconditionViolated("dp witness walk ended off the start state")
    return True, tuple(witness)


# --- scaled route for gcd(p, k) = 1 -----------------------------------------


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


def _curve_count_decisive(p: int, d: int) -> bool:
    """Whether u0 X^d + u1 Y^d + u2 Z^d = 0 must have an all-nonzero point.

    The projective curve is smooth of genus g = (d-1)(d-2)/2, so it has
    at least p + 1 - (d-1)(d-2) sqrt(p) points, of which at most 3d have
    a zero coordinate.  Squaring avoids irrational arithmetic.
    """
    slack = p + 1 - 3 * d
    genus_twice = (d - 1) * (d - 2)
    return slack > 0 and slack * slack > genus_twice * genus_twice * p


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


def _group_subset_solution(p: int, k: int, members):
    """Exact all-unit subset-sum walk mod p with witness recovery."""
    mask = (1 << p) - 1
    tables = []
    for _, u in members:
        um = u % p
        vals: dict[int, int] = {}
        for y in range(1, p):
            v = um * pow(y, k, p) % p
            if v not in vals:
                vals[v] = y
        tables.append(vals)
    reach = 0
    history = []
    for vals in tables:
        history.append(reach)
        nxt = reach
        for v in vals:
            nxt |= _rotate(reach, v, p, mask) | (1 << v)
        reach = nxt
    if not reach & 1:
        return None
    solution: dict[int, int] = {}
    target = 0
    for i in range(len(members) - 1, -1, -1):
        prev, vals = history[i], tables[i]
        if (prev >> target) & 1:
            continue
        if target in vals:
            solution[members[i][0]] = vals[target]
            return solution
        for v, y in vals.items():
            if (prev >> ((target - v) % p)) & 1:
                solution[members[i][0]] = y
                target = (target - v) % p
                break
        else:
            raise PreconditionViolated("subset walk lost its trail")
    raise PreconditionViolated("subset walk ended without a first element")


def _group_solution(p: int, k: int, members, want_witness: bool):
    """All-unit zero mod p of sum u_i y_i^k over a nonempty subset.

    Returns (soluble, zero), the zero as {index: y} only when a witness
    is wanted: k-th roots are taken just to build one.
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
    d = gcd(k, p - 1)
    if p > _ROOT_SCAN_LIMIT and _curve_count_decisive(p, d):
        if not want_witness:
            return True, None
        return True, _group_curve_solution(p, k, members)
    solution = _group_subset_solution(p, k, members)
    return solution is not None, solution


def _refine_group_witness(nf: NormalForm, solution: dict[int, int]):
    """Newton-polish one coordinate so the group sum vanishes mod p^m."""
    p, k = nf.p, nf.k
    m_star = nf.certificate_exponent
    modulus = p**m_star
    idxs = sorted(solution)
    units = {}
    for i in idxs:
        e = valuation(nf.reduced_entries[i], p)
        units[i] = nf.reduced_entries[i] // p**e
    lead = idxs[0]
    y = {i: solution[i] % modulus for i in idxs}

    def group_sum():
        return sum(units[i] * pow(y[i], k, modulus) for i in idxs) % modulus

    for _ in range(m_star + 4):
        val = group_sum()
        if val == 0:
            break
        deriv = k * units[lead] * pow(y[lead], k - 1, modulus) % modulus
        y[lead] = (y[lead] - val * pow(deriv, -1, modulus)) % modulus
    else:
        raise PreconditionViolated("witness refinement failed to converge")
    witness = [0] * (nf.source.n + 1)
    for i in idxs:
        witness[i] = y[i]
    return tuple(witness)


def _decide_scaled(nf: NormalForm, want_witness: bool):
    p = nf.p
    k = nf.k
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, a in enumerate(nf.reduced_entries):
        e = valuation(a, p)
        groups.setdefault(e, []).append((i, a // p**e))
    for e in sorted(groups):
        soluble, solution = _group_solution(p, k, groups[e], want_witness)
        if soluble:
            if not want_witness:
                return True, None
            return True, _refine_group_witness(nf, solution)
    return False, None


# --- public decisions --------------------------------------------------------


def _check_witness(nf: NormalForm, witness: tuple[int, ...]) -> None:
    modulus = nf.p**nf.certificate_exponent
    total = sum(a * pow(w, nf.k, modulus)
                for a, w in zip(nf.reduced_entries, witness)) % modulus
    if total != 0 or not any(w % nf.p for w in witness):
        raise PreconditionViolated("produced witness fails its own check")


def decide_qp(a: CoefficientVector, p: int, *, route: str = "auto",
              with_witness: bool = False, use_cache: bool = True
              ) -> SolubilityVerdict:
    """Decide whether sum a_i x_i^k = 0 has a nontrivial zero over Q_p."""
    if not is_prime(p):
        raise PreconditionViolated(f"not a prime: {p}")
    if a.is_zero:
        raise DegenerateInput("all-zero coefficient vector")
    if a.has_zero_entry:
        j = a.entries.index(0)
        witness = tuple(1 if i == j else 0 for i in range(a.n + 1))
        return SolubilityVerdict(
            place=p, status="soluble-trivially", witness=witness,
            witness_form=a.entries,
            certificate_level=certificate_exponent(p, a.k), route="trivial")
    if route not in ("auto", "dp", "scale"):
        raise PreconditionViolated(f"unknown route: {route}")
    chosen = route
    if chosen == "auto":
        chosen = "scale" if gcd(p, a.k) == 1 else "dp"
    if chosen == "scale" and gcd(p, a.k) != 1:
        raise PreconditionViolated("scale route requires gcd(p, k) = 1")
    nf = normalize(a, p)
    key = (p, a.k, nf.signature)
    cached = _VERDICTS.get(key) if use_cache else None
    if cached is not None and (cached == "insoluble" or not with_witness):
        return SolubilityVerdict(
            place=p, status=cached, witness_form=nf.reduced_entries,
            certificate_level=nf.certificate_exponent, route="cache")
    if chosen == "dp":
        soluble, witness = _decide_dp(nf, with_witness)
    else:
        soluble, witness = _decide_scaled(nf, with_witness)
    status = "soluble" if soluble else "insoluble"
    if use_cache:
        _VERDICTS[key] = status
    if witness is not None:
        _check_witness(nf, witness)
    return SolubilityVerdict(
        place=p, status=status, witness=witness,
        witness_form=nf.reduced_entries,
        certificate_level=nf.certificate_exponent, route=chosen)


def decide_real(a: CoefficientVector) -> SolubilityVerdict:
    """Decide solubility over R: odd degree or a sign change suffices."""
    if a.is_zero:
        raise DegenerateInput("all-zero coefficient vector")
    signs = tuple((x > 0) - (x < 0) for x in a.entries)
    if a.has_zero_entry:
        status = "soluble-trivially"
    elif a.k % 2 == 1 or len({s for s in signs}) > 1:
        status = "soluble"
    else:
        status = "insoluble"
    return SolubilityVerdict(place="real", status=status, witness=signs,
                             route="sign")


def relevant_primes(a: CoefficientVector) -> list[int]:
    """Finite places where insolubility is possible (n >= 2, no zeros).

    Outside this set p divides neither k nor any coefficient, so three
    unit coefficients feed the smooth plane curve u X^d + v Y^d + w Z^d
    with d = gcd(p-1, k), which matches the k-th power values exactly.
    Once p + 1 > (d-1)(d-2) sqrt(p) the point-count lower bound forces a
    zero, and any zero lifts through the unit gradient.  Primes failing
    that inequality (all below ((k-1)(k-2))^2) stay in the test set.
    """
    if a.n < 2:
        raise PreconditionViolated("needs at least three coefficients")
    if a.has_zero_entry:
        raise DegenerateInput("zero coefficient present")
    out = set(prime_divisors(a.k))
    for p in primes_below(((a.k - 1) * (a.k - 2)) ** 2):
        genus_twice = (gcd(p - 1, a.k) - 1) * (gcd(p - 1, a.k) - 2)
        if genus_twice > 0 and (p + 1) ** 2 <= genus_twice**2 * p:
            out.add(p)
    for x in a.entries:
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


def decide_everywhere_local(a: CoefficientVector, *, prime_bound: int = 1000
                            ) -> EverywhereLocalReport:
    """Test the real place and every prime that can possibly obstruct.

    With a zero coefficient the form vanishes on a coordinate axis, so
    every place is soluble outright.  For n = 1 no finite test set is
    provably complete; primes up to prime_bound plus all divisors are
    tried and the report says so.
    """
    if a.is_zero:
        raise DegenerateInput("all-zero coefficient vector")
    if a.has_zero_entry:
        return EverywhereLocalReport(
            coefficients=a.entries, k=a.k, overall=True,
            verdicts=(decide_real(a),), tested_primes=(),
            note="a zero coefficient puts a coordinate axis on the "
                 "hypersurface, so every completion is soluble")
    if a.n == 1:
        primes = set(prime_divisors(a.k)) | set(primes_below(prime_bound + 1))
        for x in a.entries:
            primes.update(prime_divisors(x))
        note = (f"two-coefficient forms have no provably complete finite "
                f"test set; tried all primes up to {prime_bound} plus "
                f"divisors of the data")
    else:
        primes = set(relevant_primes(a))
        note = ("primes outside the tested set leave at least three "
                "unit coefficients at one valuation, which is always "
                "soluble there")
    tested = tuple(sorted(primes))
    verdicts = [decide_real(a)]
    for p in tested:
        verdicts.append(decide_qp(a, p))
    overall = all(v.is_soluble for v in verdicts)
    return EverywhereLocalReport(
        coefficients=a.entries, k=a.k, overall=overall,
        verdicts=tuple(verdicts), tested_primes=tested, note=note)


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


def _all_cells(p: int, k: int, n: int):
    return list(combinations_with_replacement(symbol_alphabet(p, k), n + 1))


def _decided_cells(p: int, k: int, n: int) -> dict[tuple, bool]:
    out = {}
    for cell in _all_cells(p, k, n):
        vec = CoefficientVector(cell_representative(cell, p, k), k)
        out[cell] = decide_qp(vec, p).is_soluble
    return out


def _orbit_closure(vectors, p: int, k: int) -> set:
    closed = set()
    for entries in vectors:
        closed |= cell_orbit(cell_of_entries(entries, p, k), p, k)
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
    table = build_unit_class_table(3, 3)
    units = [u for u in range(1, 27) if u % 3]

    def actual(entries):
        return decided[cell_of_entries(entries, 3, 3)]

    for u0 in units:
        for u1 in units:
            for u2 in units:
                checks = (
                    ((u0, 3 * u1, 9 * u2), False),
                    ((u0, u1, 9 * u2),
                     (u0 - u1) % 9 == 0 or (u0 + u1) % 9 == 0),
                    ((u0, u1, 3 * u2), True),
                    ((u0, u1, u2),
                     len({table.class_of(u0), table.class_of(u1),
                          table.class_of(u2)}) < 3),
                )
                for entries, expected in checks:
                    if actual(entries) != expected:
                        raise ClassificationMismatch(
                            f"(p=3, k=3, n=2) disagreement at {entries}",
                            cell=cell_of_entries(entries, 3, 3))
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
