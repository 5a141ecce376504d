"""Small exact number-theory helpers shared across modules."""

from __future__ import annotations

from fractions import Fraction

from .errors import Refusal


def factorint(n):
    """Prime factorization of a positive integer as {p: e}."""
    if n <= 0:
        raise ValueError("factorint needs a positive integer")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n):
    phi = 1
    for p, e in factorint(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mobius(n):
    """The Moebius function: 0 unless n is squarefree, else (-1)^(number
    of prime factors)."""
    exps = factorint(n).values()
    if any(e > 1 for e in exps):
        return 0
    return -1 if len(exps) % 2 else 1


def divisors(n):
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def frac_mod1(x: Fraction) -> Fraction:
    """Canonical representative of x in [0, 1)."""
    return x - (x.numerator // x.denominator)


def rational_root(r: Fraction, q: int):
    """Exact q-th root of a positive rational, or None if irrational."""
    if r <= 0:
        raise ValueError("need a positive rational")
    num = _int_root(r.numerator, q)
    den = _int_root(r.denominator, q)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_root(n, q):
    if n == 1:
        return 1
    lo, hi = 1, n
    while lo <= hi:
        mid = (lo + hi) // 2
        t = mid ** q
        if t == n:
            return mid
        if t < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def rational_power(r: Fraction, t: Fraction):
    """r**t exactly when the result is rational, else None."""
    if t.denominator == 1:
        return r ** t.numerator
    root = rational_root(r, t.denominator)
    if root is None:
        return None
    return root ** t.numerator


def first_prime_congruent_one(n, lower=10 ** 6):
    """Smallest prime p > lower with p = 1 (mod n).

    Refuses when the search reaches IS_PRIME_LIMIT, past which _is_prime
    gives no certain answer."""
    p = lower - (lower % n) + 1
    if p <= lower:
        p += n
    while not _is_prime(p):
        p += n
    return p


# No composite below this bound passes Miller-Rabin for all twelve prime
# bases 2..37 (Sorenson and Webster, Math. Comp. 86, 2017), so every answer
# of _is_prime below it is a proof.
IS_PRIME_LIMIT = 318665857834031151167461
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Whether n is prime, deterministically for n < IS_PRIME_LIMIT.

    Refuses at or above the limit instead of answering "probably"."""
    if n >= IS_PRIME_LIMIT:
        raise Refusal(f"{n} is past the deterministic primality range")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
