"""Small integer helpers used throughout the package."""

from __future__ import annotations

import math


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n <= 0:
        raise ValueError(f"divisors expects a positive integer, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
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


def euler_phi(n: int) -> int:
    result = n
    for p in prime_factorization(n):
        result = result // p * (p - 1)
    return result


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n
