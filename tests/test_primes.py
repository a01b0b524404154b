from locsol.primes import is_prime, next_prime, primes_below

# The least strong pseudoprimes to the first j prime bases, j = 1..12
# (OEIS A014233), 3215031751 being the one for the bases 2, 3, 5, 7.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
)


def test_is_prime_agrees_with_the_sieve():
    sieved = set(primes_below(10**6))
    assert [m for m in range(10**6) if is_prime(m) != (m in sieved)] == []


def test_is_prime_rejects_strong_pseudoprimes():
    for m in STRONG_PSEUDOPRIMES:
        assert not is_prime(m), m


def test_is_prime_across_the_four_base_bound():
    # 3215031749 and 3215031767 are the primes either side of 3215031751
    assert is_prime(3215031749)
    assert is_prime(3215031767)
    assert not any(is_prime(m) for m in range(3215031750, 3215031767))
    assert next_prime(3215031749) == 3215031767


def test_sieve_ends_exactly_at_its_bound():
    # every small bound, and each side of a prime square, where the
    # sieve's last crossing-out prime changes
    bounds = set(range(301))
    for q in (2, 3, 5, 7, 11, 13, 31, 97, 101, 997):
        bounds |= {q * q - 1, q * q, q * q + 1}
    for bound in sorted(bounds):
        assert primes_below(bound) == \
            [m for m in range(bound) if is_prime(m)], bound
