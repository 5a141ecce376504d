"""A fixed reference computation that gauges the host's current speed.

On a shared host the same CPU-bound pass can take 50 % longer in one
minute than in the next, because other tenants contend for the cores
and their caches.  ``run.py`` times this reference right before every
pass and after the last one, and scales each pass's times by
``NOMINAL_S`` over the mean of the reference times on either side of
it.  The reported times are thus seconds on a host on which the
reference takes ``NOMINAL_S``.

The reference shares no code with ``jumploci`` (a program change must
not move it), and mixes the kinds of work a pass does: small-integer
arithmetic with dict stores, sorting and hashing a list of tuples of
big integers, and row reduction mod p on lists.  No single kind tracks
the host's slow episodes as well as the mix.

    python3 bench/reference.py     # print ten reference times
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.08     # about its time on an uncontended 2-core x86-64 VM


def _arith():
    s, d = 0, {}
    for i in range(60000):
        s = (s * 31 + i * i) % 1000003
        d[i & 255] = s
    return s


def _tuples():
    rng = random.Random(1)
    xs = [(rng.randrange(1 << 40), i) for i in range(40000)]
    d = {}
    for a, b in xs:
        d[a % 50021] = (b, a)
    xs.sort()
    return sum(v[1] * k % 65537 for k, v in d.items())


def _rowreduce():
    n, p = 60, 10007
    m = [[(i * j + 7) % 101 for j in range(n)] for i in range(n)]
    for c in range(n):
        inv = pow(m[c][c] or 1, p - 2, p)
        row = m[c]
        for r in range(n):
            if r != c:
                f = m[r][c] * inv % p
                m[r] = [(x - f * y) % p for x, y in zip(m[r], row)]
    return m[0][0]


def measure(clock=time.perf_counter):
    """Seconds one round of the reference takes now."""
    t0 = clock()
    _arith()
    _tuples()
    _rowreduce()
    return clock() - t0


if __name__ == "__main__":
    print(" ".join(f"{measure():.4f}" for _ in range(10)))
