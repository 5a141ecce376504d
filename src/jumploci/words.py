"""Freely reduced words in a finitely generated free group.

A word is a tuple of (generator_index, exponent) letters with exponent +1
or -1.  Adjacent inverse pairs are never stored; construction reduces.
"""

from __future__ import annotations


def free_reduce(letters):
    """Freely reduce a letter sequence."""
    out = []
    for idx, exp in letters:
        if out and out[-1][0] == idx and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((idx, exp))
    return tuple(out)


def cyclic_reduce(letters):
    """Cyclically reduce an already freely reduced word."""
    w = list(letters)
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
        w = list(free_reduce(w))
    return tuple(w)


def inverse(letters):
    return tuple((idx, -exp) for idx, exp in reversed(letters))


def concat(*parts):
    letters = []
    for p in parts:
        letters.extend(p)
    return free_reduce(letters)


def generator(idx, exp=1):
    if exp == 0:
        return ()
    sign = 1 if exp > 0 else -1
    return tuple((idx, sign) for _ in range(abs(exp)))


def commutator(u, v):
    return concat(u, v, inverse(u), inverse(v))


def exponent_sums(letters, ngens):
    """Image of the word in Z^ngens."""
    v = [0] * ngens
    for idx, exp in letters:
        v[idx] += exp
    return v


def word_to_string(letters, names):
    """Render a word with ^-1 inverses and ^k powers, e.g. 'a b^-2 c'."""
    if not letters:
        return "1"
    runs = []
    for idx, exp in letters:
        if runs and runs[-1][0] == idx and (runs[-1][1] > 0) == (exp > 0):
            runs[-1][1] += exp
        else:
            runs.append([idx, exp])
    parts = []
    for idx, exp in runs:
        if exp == 1:
            parts.append(names[idx])
        else:
            parts.append(f"{names[idx]}^{exp}")
    return " ".join(parts)
