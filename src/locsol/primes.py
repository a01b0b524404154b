"""Small prime utilities: sieve, primality, factoring.

Everything here is exact integer arithmetic.  Factoring falls back to
sympy only for operands too large for quick trial division, which keeps
the common path dependency-free and fast to import.
"""

from functools import lru_cache
from itertools import compress
from math import isqrt

from .errors import ResourceBound

# Witnesses sufficient for a deterministic Miller-Rabin test below 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to the bases 2, 3, 5 and 7 (Jaeschke 1993;
# OEIS A014233): below it those four bases suffice, which covers every
# sieved prime.
_FOUR_BASE_BOUND = 3_215_031_751

_TRIAL_DIVISION_LIMIT = 10**12

# Memo bound for factor().  With four or more entries a survey draw
# factors only its pairwise gcds, which are small and repeat; with two or
# three it factors each entry, a new one with almost every draw, so an
# unbounded cache would grow with the run.
FACTOR_CACHE_SIZE = 65_536

# Largest bound primes_below() sieves.  Its memory grows with the bound,
# which a degree or a cutoff from the caller sets: at the cap a sieve
# takes about 7 s and 370 MB (2-core host, Python 3.11).
SIEVE_CAP = 10**8


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for every int this package meets."""
    if m < 2:
        return False
    for p in _MR_WITNESSES:
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:4] if m < _FOUR_BASE_BOUND else _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int) -> list[int]:
    """All primes p < bound, by a plain sieve of Eratosthenes."""
    if bound > SIEVE_CAP:
        raise ResourceBound(f"a sieve to {bound} passes the cap {SIEVE_CAP}",
                            required=bound)
    if bound <= 2:
        return []
    flags = bytearray([1]) * bound
    flags[0] = flags[1] = 0
    for q in range(2, isqrt(bound - 1) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(range(q * q, bound, q)))
    return list(compress(range(bound), flags))


def next_prime(m: int) -> int:
    """Smallest prime strictly greater than m."""
    q = max(m + 1, 2)
    if q > 2 and q % 2 == 0:
        q += 1
    while not is_prime(q):
        q += 1 if q == 2 else 2
    return q


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def factor(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of m >= 1 as sorted (prime, exponent) pairs."""
    if m < 1:
        raise ValueError("factor() expects a positive integer")
    if m == 1:
        return ()
    if m > _TRIAL_DIVISION_LIMIT:
        from sympy import factorint

        return tuple(sorted((int(p), int(e)) for p, e in factorint(m).items()))
    out = []
    for p in (2, 3, 5):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    # wheel over 30 avoids multiples of 2, 3, 5
    q = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while q * q <= m:
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            out.append((q, e))
        q += increments[i]
        i = (i + 1) % 8
    if m > 1:
        out.append((m, 1))
    return tuple(sorted(out))


def prime_divisors(m: int) -> list[int]:
    """Sorted prime divisors of abs(m); empty for 0 and units."""
    m = abs(m)
    if m <= 1:
        return []
    return [p for p, _ in factor(m)]
