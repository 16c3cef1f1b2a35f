"""Frozen golden data for the first thirty terms.

Values and factorizations were hand-checked against trial division before
the sieve was written.  `factors` is present exactly where the reference
table shows an explicit factorization; the plain entries are all prime.
prime_flags is the tests' one plain Eratosthenes, the independent reference
for the library's prime sieve and primality test.
"""

import math

import numpy as np


def prime_flags(limit: int) -> np.ndarray:
    """flags[v] is True exactly when v is prime, for 0 <= v <= limit: a sieve
    over every integer, sharing nothing with the library's sieve."""
    flags = np.ones(max(limit + 1, 0), dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(max(limit, 0)) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


GOLDEN_30 = [
    (1, 5, None),
    (2, 17, None),
    (3, 37, None),
    (4, 65, [(5, 1), (13, 1)]),
    (5, 101, None),
    (6, 145, [(5, 1), (29, 1)]),
    (7, 197, None),
    (8, 257, None),
    (9, 325, [(5, 2), (13, 1)]),
    (10, 401, None),
    (11, 485, [(5, 1), (97, 1)]),
    (12, 577, None),
    (13, 677, None),
    (14, 785, [(5, 1), (157, 1)]),
    (15, 901, [(17, 1), (53, 1)]),
    (16, 1025, [(5, 2), (41, 1)]),
    (17, 1157, [(13, 1), (89, 1)]),
    (18, 1297, None),
    (19, 1445, [(5, 1), (17, 2)]),
    (20, 1601, None),
    (21, 1765, [(5, 1), (353, 1)]),
    (22, 1937, [(13, 1), (149, 1)]),
    (23, 2117, [(29, 1), (73, 1)]),
    (24, 2305, [(5, 1), (461, 1)]),
    (25, 2501, [(41, 1), (61, 1)]),
    (26, 2705, [(5, 1), (541, 1)]),
    (27, 2917, None),
    (28, 3137, None),
    (29, 3365, [(5, 1), (673, 1)]),
    (30, 3601, [(13, 1), (277, 1)]),
]

# the reference table factors 17 of the 30 entries; the other 13 are prime
EXPLICIT_FACTORIZATION_COUNT = 17
PRIME_INDICES_30 = [1, 2, 3, 5, 7, 8, 10, 12, 13, 18, 20, 27, 28]

# first primes by order of first appearance as a factor, with that index
FIRST_BASIS_8 = [(5, 1), (17, 2), (37, 3), (13, 4), (101, 5), (29, 6), (197, 7), (257, 8)]
FIRST_BASIS_25_PRIMES = [
    5, 17, 37, 13, 101, 29, 197, 257, 401, 97, 577, 677, 157,
    53, 41, 89, 1297, 1601, 353, 149, 73, 461, 61, 541, 2917,
]

# brute-force gcd scans, computed before the census was written
MAIN_IDENTITY_VALUES = {1: 3, 2: 45, 3: 1575, 4: 17325}

# blake2b-128 of the (n, prime, exponent) int64 stream for n = 1 .. 10**6
DIGEST_1E6 = "6b595a0b573e08dc6e5ad615aaaf5e6f"

# the same digest for n = 1 .. 10**7; a slow-marked test recomputes it
DIGEST_1E7 = "02c426e7cac03d3a800d4c06636e48e1"

# the same digest for n = 1 .. 10**8, pinned by a slow-marked test
DIGEST_1E8 = "a645efea62085cf38fd73122c0ddc834"

# SHA-256 of the stdout of `terms 1..300000 --format F`, recorded before
# the term path was rewritten; the json-lines one is perfbench's too
TERMS_300K_SHA256 = {
    "json-lines": "f0f6f482708e0a64952aeacc8f11624a04c2ac9b8c691b5e0ead9ef700f10c76",
    "csv": "5fe565ca5b213b7d499deef7f8ba1aa421908f85af5e5e20e7d0e1952480a78c",
    "table": "061b61f8a14eb03e1f805560453439e13907607ed75e56ac99ad34dc8a824fe0",
}
