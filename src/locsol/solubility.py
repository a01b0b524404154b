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
"a layer-r unit has been used".  Which route runs follows from (p, k):
at p | k ("dp") the walk decides every layer; at p not dividing k
("scale", tau = 0, so the walk is mod p over the layer's units) two
shortcuts are tried first: a pair -u_t/u_s that is a k-th power mod p,
and the Hasse-Weil bound when p is not pathological for k.

A soluble verdict can carry a witness: the layer zero y is Newton-lifted
until G_r(y) = 0 mod p^(m*-r), m* = certificate_exponent(p, k), and
mapped back by x_i = y_i (e_i >= r), x_i = p*y_i (e_i < r), so that the
reduced form vanishes at x mod p^m* with a unit coordinate.  _settle is
the cache-or-decide step for decisions on vectors (decide_qp and the
survey): it turns one pass over the entries (padic._split) into the
verdict-cache key (p, k, signature), its reduced symbols sorted; a hit
costs that and a lookup.  The e_i the layers need are taken out of the
symbols only on a miss.  An enumeration of signatures (locsol.density)
meets each one once, so it calls _decide_layers directly and stores
nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd

from .errors import DegenerateInput, PreconditionViolated, ResourceBound
from .padic import (_BOX_TABLES, CLASS_TABLE_CACHE_SIZE, CoefficientVector,
                    _proved_prime, _require_prime, _SizedMemo, _split,
                    certificate_exponent, class_count, valuation)
from .primes import factor, prime_divisors, primes_below

# Most modulus x value-set entries one layer walk may cost.
WALK_WORK_CAP = 10**10
_ROOT_SCAN_LIMIT = 3000
# Most dict items the walk tables (_WALK_TABLES) hold together.  The
# largest table WALK_WORK_CAP admits fits: p = 288,551, k = 25 (a walk
# mod p over three units, 10^10 bit operations) has 11,543 power items
# and 23,086 per value-set triple; that walk peaks at 22.4 MB RSS.
WALK_TABLES_SIZE = 1 << 16
# Verdict memo bound; when full, the oldest entry in insertion order goes.
VERDICT_CACHE_SIZE = 65_536
# Memo bound for pathological_primes(), one entry per degree k.
PATHOLOGICAL_CACHE_SIZE = 64

# The verdict memo is a plain dict, and _ORDER holds its keys oldest
# first, so eviction pops one key in O(1) (next(iter(d)) on a dict would
# skip every slot deleted since its last resize).  A key is removed only
# by eviction, so _ORDER is always the dict's own order.  A plain dict
# also copies into and out of another dict with the hashes it stored:
# loading a session's table and dumping it hash no nested key again,
# where an OrderedDict hashed every key on each.
_VERDICTS: dict[tuple, str] = {}
_ORDER: deque[tuple] = deque()
# The walks' memo: _powers' tables under (p, k, level) and _value_sets'
# triples under (p, k, level, c), each counted by the dict items it holds.
_WALK_TABLES = _SizedMemo()


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
    """Drop all memoized verdicts, walk tables, box tables, primality
    proofs and root set-ups (mainly for tests)."""
    _VERDICTS.clear()
    _ORDER.clear()
    _BOX_TABLES.clear()
    _WALK_TABLES.clear()
    _proved_prime.cache_clear()
    _root_setup.cache_clear()


def _remember(key: tuple, status: str) -> None:
    if key not in _VERDICTS:
        if len(_VERDICTS) >= VERDICT_CACHE_SIZE:
            del _VERDICTS[_ORDER.popleft()]
        _ORDER.append(key)
    _VERDICTS[key] = status


def load_verdicts(items: dict[tuple, str]) -> None:
    if len(_VERDICTS) + len(items) <= VERDICT_CACHE_SIZE:
        # nothing to evict: C-level passes, and into an empty memo none
        # hashes a key
        _ORDER.extend(items if not _VERDICTS
                      else [key for key in items if key not in _VERDICTS])
        _VERDICTS.update(items)
        return
    for key, status in items.items():
        _remember(key, status)


def dump_verdicts() -> dict[tuple, str]:
    return dict(_VERDICTS)


# --- the walk on one layer --------------------------------------------------


def _powers(p: int, k: int, level: int):
    """The k-th powers mod p^level: (unit, nonunit) dicts mapping each
    power v to the least unit, resp. non-unit, t with t^k = v, in
    increasing t.  Kept in _WALK_TABLES."""
    tables = _WALK_TABLES.get((p, k, level))
    if tables is None:
        modulus = p**level
        units: dict[int, int] = {}
        nonunits: dict[int, int] = {}
        for t in range(modulus):
            (units if t % p else nonunits).setdefault(pow(t, k, modulus), t)
        tables = _WALK_TABLES[p, k, level] = units, nonunits
        _WALK_TABLES.grew(sum(map(len, tables)), WALK_TABLES_SIZE)
    return tables


def _value_sets(p: int, k: int, level: int, c: int):
    """Values c*t^k mod p^level, split by whether t is a unit.

    Returns (unit, nonunit, all) dicts mapping each attainable value to
    a t attaining it, for witness recovery; the first two hold the least
    unit, resp. non-unit, t in increasing t.  Scaling _powers' tables
    gives them: a t that is not the least for its power is not the
    least for c times it.  Kept in _WALK_TABLES.
    """
    sets = _WALK_TABLES.get((p, k, level, c))
    if sets is None:
        modulus = p**level
        unit_vals: dict[int, int] = {}
        nonunit_vals: dict[int, int] = {}
        for vals, table in zip((unit_vals, nonunit_vals),
                               _powers(p, k, level)):
            for v, t in table.items():
                vals.setdefault(c * v % modulus, t)
        sets = unit_vals, nonunit_vals, nonunit_vals | unit_vals
        _WALK_TABLES[p, k, level, c] = sets
        _WALK_TABLES.grew(sum(map(len, sets)), WALK_TABLES_SIZE)
    return sets


def _unit_power_count(p: int, k: int, c: int) -> int:
    """Number of k-th powers among the units mod p^c, c >= 1."""
    return p**(c - 1) * (p - 1) // class_count(p, k, c)


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
    # a step has at most q values, so below the cap no count is needed
    if q * q * len(steps) > WALK_WORK_CAP:
        work = q * sum(_value_count(p, k, level - valuation(c, p))
                       for _, c in steps)
        if work > WALK_WORK_CAP:
            raise ResourceBound(
                f"walk mod {p}^{level} needs about {work} bit operations",
                required=work)
    mask = (1 << q) - 1
    tables = [_WALK_TABLES.get((p, k, level, c))
              or _value_sets(p, k, level, c) for _, c in steps]
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
    shift = p**tau
    c = coeffs[lead]
    # only y[lead] moves: the other nonzero terms are summed once
    fixed = sum(ci * pow(t, k, q) for i, (ci, t) in enumerate(zip(coeffs, y))
                if t and i != lead)
    for _ in range(level + 2):
        t = y[lead]
        power = pow(t, k - 1, q)
        g = (fixed + c * power * t) % q
        if g % target == 0:
            return y
        step = (g // shift) * pow(k * c * power % q // shift, -1, target)
        y[lead] = (t - step) % target
    raise PreconditionViolated("witness lift failed to converge")


# --- shortcuts for gcd(p, k) = 1 ---------------------------------------------


def _kth_root_mod(value: int, k: int, p: int) -> int:
    """The least unit y with y^k = value mod p; the caller guarantees one.

    Up to _ROOT_SCAN_LIMIT a scan finds it.  Above, the roots are y0
    times the g-th roots of unity, g = gcd(k, p-1), and y0 is built per
    Sylow subgroup of the units (Adleman-Manders-Miller): on the part of
    order t prime to g, k is invertible mod t; on the q-Sylow subgroup,
    of order q^e and generated by zeta = c^((p-1)/q^e) for a q-th
    non-residue c, the discrete log of value's component is read one
    base-q digit at a time and divided by k.  p - 1 is never factored,
    and what does not depend on value is set up once per (p, k).
    """
    value %= p
    if p <= _ROOT_SCAN_LIMIT:
        for y in range(1, p):
            if pow(y, k, p) == value:
                return y
        raise PreconditionViolated(f"no {k}-th root of {value} mod {p}")
    exponent, sylow, unity = _root_setup(p, k)
    y = pow(value, exponent, p)
    for q, e, zeta, digits, project, f, divide in sylow:
        h = pow(value, project, p)
        log = 0
        for i in range(e):
            step = pow(h * pow(zeta, -log, p), q**(e - i - 1), p)
            log += digits[step] * q**i
        y = y * pow(zeta, log // q**f * divide, p) % p
    if pow(y, k, p) != value:
        raise PreconditionViolated(f"no {k}-th root of {value} mod {p}")
    return min(y * u % p for u in unity)


@lru_cache(maxsize=CLASS_TABLE_CACHE_SIZE)
def _root_setup(p: int, k: int):
    """_kth_root_mod's value-free part at (p, k): the exponent that takes
    a k-th root on the part of order t prime to g = gcd(k, p-1); per
    q-Sylow subgroup of order q^e, (q, e, zeta, base-q digit table, the
    exponent projecting onto it, f = min(v_q(k), e), the inverse of
    k / q^f mod q^(e-f)); and the g-th roots of unity."""
    order = t = p - 1
    sylow = []
    unity = [1]
    for q in prime_divisors(gcd(k, order)):
        e = 0
        while t % q == 0:
            t, e = t // q, e + 1
        size = q**e
        rest = order // size
        c = next(c for c in range(2, p) if pow(c, order // q, p) != 1)
        zeta = pow(c, rest, p)
        digits = {pow(zeta, j * size // q, p): j for j in range(q)}
        f = min(valuation(k, q), e)
        free = q**(e - f)
        sylow.append((q, e, zeta, digits, rest * pow(rest, -1, size), f,
                      pow(k // q**f, -1, free)))
        gen = pow(zeta, free, p)
        unity = [u * pow(gen, j, p) % p for u in unity for j in range(q**f)]
    exponent = order // t * pow(order // t, -1, t) * pow(k, -1, t)
    return exponent, tuple(sylow), tuple(unity)


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
    # Below _ROOT_SCAN_LIMIT the walk finds that point's witness.
    if not is_pathological(p, k):
        if not want_witness:
            return True, None
        if p > _ROOT_SCAN_LIMIT:
            return True, _group_curve_solution(p, k, members)
    return None


# --- layer by layer ---------------------------------------------------------


def _decide_layers(p: int, k: int, exps, units, want_witness: bool):
    """Test the layers G_r in increasing r (see the module docstring).

    exps and units are the reduced exponents e_i and the units u_i of
    the entries, in source order.  A witness is the zero y of the first
    soluble layer, lifted until G_r(y) = 0 mod p^(m*-r) and mapped back
    to x with F(x) = p^r G_r(y).
    """
    tau = valuation(k, p) if k % p == 0 else 0
    for r in sorted(set(exps)):
        layer = [i for i, e in enumerate(exps) if e == r]
        decided = None
        if tau == 0:
            # the shortcut reads the layer's units only: G_r's
            # coefficients are built just for a walk or a lift
            decided = _shortcut(p, k, [(i, units[i]) for i in layer],
                                want_witness)
            if decided is not None and decided[1] is None:
                if decided[0]:
                    return True, None
                continue
        coeffs = [u * p**(e - r if e >= r else e - r + k)
                  for e, u in zip(exps, units)]
        if decided is None:
            soluble, y = _walk(p, k, 2 * tau + 1, coeffs, set(layer),
                               want_witness)
            if not soluble:
                continue
            if not want_witness:
                return True, None
        else:
            y = [decided[1].get(i, 0) for i in range(len(exps))]
        lead = next(i for i in layer if y[i] % p)
        m_star = certificate_exponent(p, k)
        y = _lift(p, k, tau, m_star - r, coeffs, y, lead)
        modulus = p**m_star
        witness = tuple((t if e >= r else p * t) % modulus
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


# --- the cache-or-decide step for vectors ------------------------------------


def _settle(entries, p: int, k: int, want_witness: bool = False):
    """Status at a prime p of nonzero entries, from the cache or decided.

    The key is (p, k, padic.signature(entries, p, k)).  Returns (status,
    route, symbols, units, witness) with the reduced (exponent, label)
    symbols and the units in source order; route is "cache" when the
    cache answered, which it does unless a witness is wanted for a
    soluble form, else "scale" when p does not divide k and "dp" when
    it does.
    """
    symbols, units = _split(entries, p, k)
    key = (p, k, tuple(sorted(symbols)))
    status = _VERDICTS.get(key)
    if status is not None and (status == "insoluble" or not want_witness):
        return status, "cache", symbols, units, None
    soluble, witness = _decide_layers(p, k, [e for e, _ in symbols], units,
                                      want_witness)
    status = "soluble" if soluble else "insoluble"
    _remember(key, status)
    return status, "scale" if k % p else "dp", symbols, units, witness


# --- public decisions --------------------------------------------------------


def decide_qp(a: CoefficientVector, p: int, *,
              with_witness: bool = False) -> SolubilityVerdict:
    """Decide whether sum a_i x_i^k = 0 has a nontrivial zero over Q_p.

    The route follows from (p, k), see the module docstring; the
    verdict's route is "trivial" or "cache" when no decision ran.
    """
    _require_prime(p)
    if a.is_zero:
        raise DegenerateInput("all-zero coefficient vector")
    m_star = certificate_exponent(p, a.k)
    if a.has_zero_entry:
        j = a.entries.index(0)
        witness = tuple(1 if i == j else 0 for i in range(a.n + 1))
        return SolubilityVerdict(
            place=p, status="soluble-trivially", witness=witness,
            witness_form=a.entries, certificate_level=m_star,
            route="trivial")
    status, route, symbols, units, witness = _settle(a.entries, p, a.k,
                                                     with_witness)
    return SolubilityVerdict(
        place=p, status=status, witness=witness,
        witness_form=tuple(p**e * u for (e, _), u in zip(symbols, units)),
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
    """Finite places that decide everywhere-local solubility (no zeros).

    Write each entry as p^v_i * u_i.  Three entries whose v_i agree mod k
    become three units on one layer after x_i -> p^(-floor(v_i/k)) x_i,
    and at a prime that is not pathological for k three units have a
    zero (see is_pathological).  So a prime is listed when it is in
    pathological_primes(k), which holds every p | k, or when it divides
    an entry and no class of v_p mod k holds three entries, the entries
    that p does not divide counting in class 0.  A prime that divides no
    entry and is not pathological finds n+1 units at valuation 0, so for
    n >= 2 it is soluble.

    A listed divisor leaves at most two entries in class 0, so with
    n + 1 >= 4 entries it divides two of them and their gcd: only the
    pairwise gcds are factored, never an entry.  With more than 2k
    entries the k classes put three in one class at every prime, so
    only pathological_primes(k) is listed (for k = 2 and n >= 4, p = 2).

    For n = 1 no class holds three entries and every divisor is listed:
    a zero at p makes -a_1/a_0 a k-th power in Q_p; so if the real place
    and each p | a_0*a_1 are soluble, -a_1/a_0 = +-m^k has a real k-th
    root, is a k-th power in Q, and every place is soluble.
    """
    if a.has_zero_entry:
        raise DegenerateInput("zero coefficient present")
    return _tested_primes(a.entries, a.k)


def _tested_primes(entries, k: int) -> list[int]:
    """relevant_primes of nonzero entries: the pathological primes of k
    and every divisor whose v_p mod k classes hold at most two entries.
    Such a divisor divides all but at most two of the m entries, so from
    m = 4 on only the pairwise gcds are factored, and for m > 2k no
    divisor qualifies."""
    always = pathological_primes(k)
    m = len(entries)
    if m > 2 * k:
        return list(always)
    carriers = ({gcd(x, y) for x, y in combinations(entries, 2)} if m > 3
                else {abs(x) for x in entries})
    carriers.discard(1)
    more = []
    for p in {p for c in carriers for p, _ in factor(c)}:
        if p in always:
            continue
        # v_p inline: a valuation() call per entry costs a warm survey
        # draw more than this loop
        rs = []
        for x in entries:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            rs.append(e % k)
        if max(map(rs.count, rs)) <= 2:
            more.append(p)
    return sorted(always + tuple(more)) if more else list(always)


@dataclass(frozen=True)
class EverywhereLocalReport:
    coefficients: tuple[int, ...]
    k: int
    overall: bool
    verdicts: tuple[SolubilityVerdict, ...]
    tested_primes: tuple[int, ...]
    note: str


def decide_everywhere_local(a: CoefficientVector) -> EverywhereLocalReport:
    """Test the real place and every prime that can obstruct.

    With a zero coefficient the form vanishes on a coordinate axis, so
    every place is soluble outright; else the primes are relevant_primes,
    and by the rule stated there a prime left out is soluble whenever
    every tested place is.
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
        note="a prime outside the tested set is not pathological for k; "
             "with three or more coefficients three share its class of "
             "v_p mod k, so it is soluble, and with two it is soluble "
             "whenever every tested place is (see relevant_primes)")
