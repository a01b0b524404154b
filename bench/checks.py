"""Output checks that do not use the locsol package.

Witnesses are checked by Hensel's lemma on the original coefficients.
Quadratic verdicts (k = 2) are checked against the Hilbert-symbol
criteria for isotropy over Q_p, which also gives an independent soluble
count for the (3, 2) surveys at any seed.  Interval endpoints and status
lists are compared by digest with values recorded at the seed commit.
"""

from __future__ import annotations

import hashlib
from math import comb, gcd


def vp(x: int, p: int) -> int:
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def prime_factors(m: int) -> list[int]:
    m = abs(m)
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1 if q == 2 else 2
    if m > 1:
        out.append(m)
    return out


def is_prime(m: int) -> bool:
    return m >= 2 and prime_factors(m) == [m]


# --- witnesses ---------------------------------------------------------------


def witness_ok(entries, k: int, p: int, witness, form, level: int) -> bool:
    """Whether (witness, form, level) proves a nontrivial zero over Q_p.

    form must be the entries scaled by p^t_i with every t_i congruent mod
    k, so that zeros of form and of the entries correspond.  The witness
    must then be an exact zero of form, or a zero mod p^level with a unit
    coordinate j where level > 2 v_p(k * form_j): Newton iteration in x_j
    lifts it to a zero in Z_p.
    """
    if witness is None or form is None or len(form) != len(entries) \
            or len(witness) != len(entries):
        return False
    shifts = set()
    for a, f in zip(entries, form):
        if a == 0 or f == 0:
            if a != f:
                return False
            continue
        if a % f:
            return False
        ratio = abs(a // f)
        t = vp(ratio, p)
        if p**t != ratio:
            return False
        shifts.add(t % k)
    if len(shifts) > 1:
        return False
    if not any(witness):
        return False
    exact = sum(f * w**k for f, w in zip(form, witness))
    if exact == 0:
        return True
    modulus = p**level
    if sum(f * pow(w, k, modulus) for f, w in zip(form, witness)) % modulus:
        return False
    return any(w % p and f and level > 2 * (vp(k, p) + vp(f, p))
               for f, w in zip(form, witness))


# --- quadratic forms: Hilbert symbols ----------------------------------------


def _legendre(u: int, p: int) -> int:
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def hilbert(a: int, b: int, p) -> int:
    """Hilbert symbol (a, b)_p for nonzero integers; p prime or "real"."""
    if p == "real":
        return -1 if a < 0 and b < 0 else 1
    alpha, beta = vp(a, p), vp(b, p)
    u, v = a // p**alpha, b // p**beta
    if p != 2:
        sign = -1 if (alpha * beta * (p - 1) // 2) % 2 else 1
        return (sign * (_legendre(u, p) if beta % 2 else 1)
                * (_legendre(v, p) if alpha % 2 else 1))
    eps_u, eps_v = (u - 1) // 2 % 2, (v - 1) // 2 % 2
    om_u, om_v = (u * u - 1) // 8 % 2, (v * v - 1) // 8 % 2
    return -1 if (eps_u * eps_v + alpha * om_v + beta * om_u) % 2 else 1


def _is_square(x: int, p: int) -> bool:
    e = vp(x, p)
    u = x // p**e
    if e % 2:
        return False
    return u % 8 == 1 if p == 2 else _legendre(u, p) == 1


def quadratic_isotropic(entries, p) -> bool:
    """Whether sum a_i x_i^2 = 0 has a nontrivial zero over Q_p (or R)."""
    if any(a == 0 for a in entries):
        return True
    if p == "real":
        return len({a > 0 for a in entries}) > 1
    if len(entries) == 2:
        return _is_square(-entries[0] * entries[1], p)
    if len(entries) == 3:
        a, b, c = entries
        return hilbert(-a * b, -a * c, p) == 1
    if len(entries) == 4:
        d = entries[0] * entries[1] * entries[2] * entries[3]
        eps = 1
        for i in range(4):
            for j in range(i + 1, 4):
                eps *= hilbert(entries[i], entries[j], p)
        return not (_is_square(d, p) and eps == -hilbert(-1, -1, p))
    return True


def quadratic_everywhere_soluble(entries) -> bool:
    """Soluble at R and every Q_p; only p | 2 * prod(a_i) can obstruct."""
    if any(a == 0 for a in entries):
        return True
    places = {2}
    for a in entries:
        places.update(prime_factors(a))
    return quadratic_isotropic(entries, "real") and all(
        quadratic_isotropic(entries, p) for p in sorted(places))


# --- densities: cell counts --------------------------------------------------


def power_class_count(p: int, k: int) -> int:
    """Cosets of k-th powers among the units mod p^(2 v_p(k) + 1)."""
    modulus = p**(2 * vp(k, p) + 1)
    units = [t for t in range(1, modulus) if t % p]
    return len(units) // len({pow(t, k, modulus) for t in units})


def pathological_primes(k: int) -> list[int]:
    """Primes dividing k, and primes below (k-1)(k-2) with gcd(p-1, k) > 1."""
    out = set(prime_factors(k))
    out.update(p for p in range(2, (k - 1) * (k - 2))
               if is_prime(p) and gcd(p - 1, k) > 1)
    return sorted(out)


def enumeration_cells(n: int, k: int) -> int:
    """Cells the exact density enumerates over the pathological primes."""
    return sum(comb(k * power_class_count(p, k) + n, n + 1)
               for p in pathological_primes(k))


# --- digests -----------------------------------------------------------------


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:32]


def interval_digest(lo, hi) -> str:
    """Digest of the exact endpoints (hex, which has no digit limit)."""
    return digest(format(x, "x") for x in (lo.numerator, lo.denominator,
                                            hi.numerator, hi.denominator))
