"""Small integer helpers used throughout the package, and the construction budget."""

from __future__ import annotations

import math
import os


def default_max_order() -> int:
    """The explicit-construction budget, from QUATREFL_MAX_ORDER (default 10^6)."""
    text = os.environ.get("QUATREFL_MAX_ORDER", "1000000")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"QUATREFL_MAX_ORDER must be a positive integer, got {text!r}")
    return int(text)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n <= 0:
        raise ValueError(f"divisors expects a positive integer, got {n}")
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def divisor_count(n: int) -> int:
    """tau(n), the number of positive divisors."""
    count = 1
    for exp in prime_factorization(n).values():
        count *= exp + 1
    return count


def prime_factorization(n: int) -> dict[int, int]:
    """Prime factorization as {p: exponent}. Trial division; fine for n < 10^9."""
    if n <= 0:
        raise ValueError(f"prime_factorization expects a positive integer, got {n}")
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def prime_root_of_unity(m: int) -> tuple[int, int]:
    """The least odd prime p = 1 (mod m) and a primitive m-th root of unity r mod p."""
    p = m + 1
    while p == 2 or prime_factorization(p) != {p: 1}:
        p += m
    # x^((p-1)/m) has order dividing m, and exactly m for a generator x of F_p^*
    roots = (pow(x, (p - 1) // m, p) for x in range(2, p))
    return p, next(r for r in roots if all(pow(r, m // q, p) != 1 for q in prime_factorization(m)))
