"""Permutation combinatorics: symmetric groups, cyclic classes, edge contraction.

Permutations are immutable 1-based image tuples: ``p[i-1] = p(i)`` on the
points 1..n. This keeps them hashable and directly usable as dict keys and
cache keys throughout the complex builders.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

Perm = tuple  # image tuple, 1-based points


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def sign(p: Perm) -> int:
    """Sign via cycle parity: (-1)^(n - #cycles)."""
    n = len(p)
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
    return -1 if (n - cycles) % 2 else 1


def is_cyclic(p: Perm) -> bool:
    """True iff p is a single n-cycle on all n points."""
    n = len(p)
    if n == 0:
        return False
    j = 0
    for _ in range(n - 1):
        j = p[j] - 1
        if j == 0:
            return False
    return p[j] == 1


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> tuple:
    """All of S_n in lexicographic image-tuple order."""
    return tuple(itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def symmetric_index(n: int) -> dict:
    return {p: i for i, p in enumerate(symmetric_group(n))}


@lru_cache(maxsize=None)
def cyclic_class(n: int) -> tuple:
    """The conjugacy class of n-cycles in S_n, lex-sorted; size (n-1)!."""
    return tuple(p for p in symmetric_group(n) if is_cyclic(p))


@lru_cache(maxsize=None)
def cyclic_index(n: int) -> dict:
    return {p: i for i, p in enumerate(cyclic_class(n))}


def cyclic_shift(n: int) -> Perm:
    """The standard n-cycle 1 -> 2 -> ... -> n -> 1."""
    return tuple(range(2, n + 1)) + (1,)


@lru_cache(maxsize=None)
def cycle_order_rows(p: Perm) -> tuple:
    """Rows of an n-cycle visited from 1: (r_0=1, r_1=p(1), ..., r_{n-1})."""
    n = len(p)
    rows = [1]
    for _ in range(n - 1):
        rows.append(p[rows[-1] - 1])
    if p[rows[-1] - 1] != 1:
        raise ValueError("permutation is not a single cycle: %r" % (p,))
    return tuple(rows)


def cycle_start_sign(p: Perm) -> int:
    """Sign of the word w with w(t+1) = r_t, the cycle order read as a permutation."""
    return sign(cycle_order_rows(p))


def contract_edge(p: Perm, src: int) -> Perm:
    """Contract the edge src -> p(src) of p to a permutation of one point less.

    The target vertex is deleted, src inherits its outgoing edge and takes
    the SMALLER of the two labels, and the remaining labels close up
    order-preservingly. It is both P's faces (the edges of an n-cycle,
    face_cyclic) and the L boundary (every edge, complexes._l_transport_terms);
    the diagonal_faces_match_transported_boundary row checks their slot
    orders and signs.
    """
    n = len(p)
    if not 1 <= src <= n or p[src - 1] == src:
        raise ValueError("no edge leaves %r in %r" % (src, p))
    gone = p[src - 1]
    lo, hi = min(src, gone), max(src, gone)

    def relab(v: int) -> int:
        return lo if v == src else v - (v > hi)

    out = [0] * (n - 1)
    for v in range(1, n + 1):
        if v != gone:
            out[relab(v) - 1] = relab(p[gone - 1] if v == src else p[v - 1])
    return tuple(out)


@lru_cache(maxsize=None)
def face_cyclic(p: Perm, i: int) -> Perm:
    """i-th face U_{n+1} -> U_n: contract the edge r_i -> r_{i+1} of the cycle.

    Indices follow the cycle order from row 1 (i = n contracts the closing
    edge r_n -> r_0). The labeling of contract_edge makes the faces
    presimplicial (d_i d_j = d_{j-1} d_i for i < j), fixes the standard
    cycles, and matches the L boundary's contraction of the same edge under
    the cycle-order bridge.
    """
    n = len(p)
    if n == 1:
        raise ValueError("no faces below a 1-cycle")
    rows = cycle_order_rows(p)
    if not 0 <= i < n:
        raise ValueError("face index out of range")
    return contract_edge(p, rows[i])
