"""Primality and prime search: Miller-Rabin against trial division, and
refusal past the deterministic range."""

import pytest

from jumploci.errors import Refusal
from jumploci.numutil import (IS_PRIME_LIMIT, _is_prime,
                              first_prime_congruent_one)


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in list(range(-5, 20000)) + list(range(10 ** 6, 10 ** 6 + 3000)):
        assert _is_prime(n) == _trial_division(n), n
    # Strong pseudoprimes to several small bases.
    for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051):
        assert not _is_prime(n)


def test_is_prime_refuses_past_deterministic_range():
    assert _is_prime(2 ** 61 - 1) and not _is_prime(2 ** 61 + 1)
    assert not _is_prime(IS_PRIME_LIMIT - 1)        # even
    for n in (IS_PRIME_LIMIT, IS_PRIME_LIMIT + 1, 2 ** 89 - 1):
        with pytest.raises(Refusal):
            _is_prime(n)
    with pytest.raises(Refusal):
        first_prime_congruent_one(6, lower=IS_PRIME_LIMIT)


def test_first_prime_congruent_one():
    assert first_prime_congruent_one(1, lower=10) == 11
    assert first_prime_congruent_one(4, lower=12) == 13     # 12 = 0 (mod 4)
    assert first_prime_congruent_one(6, lower=7) == 13
    assert first_prime_congruent_one(6) == 1000003
    for n in (1, 2, 5, 12, 60, 840):
        p = first_prime_congruent_one(n)
        assert p > 10 ** 6 and (p - 1) % n == 0 and _is_prime(p)
        assert not any(_is_prime(q) for q in range(10 ** 6 + 1, p)
                       if (q - 1) % n == 0)
