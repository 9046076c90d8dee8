"""Permutation layer: signs, cyclic classes, and the face operators.

Oracles here are brute force: signs by inversion counting, group structure
by direct composition of tuples, face identities by exhaustive enumeration.
"""

import itertools
import random

import pytest

from leibhom.perms import (compose, contract_edge, cycle_order_rows,
                           cycle_start_sign, cyclic_class, cyclic_index, cyclic_shift,
                           face_cyclic, invert, is_cyclic,
                           sign, symmetric_group, symmetric_index)


def sign_by_inversions(p):
    # independent oracle: parity of the inversion count
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
              if p[i] > p[j])
    return -1 if inv % 2 else 1


def test_sign_matches_inversion_count():
    for n in range(1, 6):
        for p in itertools.permutations(range(1, n + 1)):
            assert sign(p) == sign_by_inversions(p)


def test_sign_is_multiplicative():
    rng = random.Random(7)
    perms = list(itertools.permutations(range(1, 6)))
    for _ in range(200):
        p, q = rng.choice(perms), rng.choice(perms)
        assert sign(compose(p, q)) == sign(p) * sign(q)


def test_compose_and_invert():
    # compose(p, q) acts as p after q
    p, q = (2, 3, 1), (1, 3, 2)
    r = compose(p, q)
    for x in range(1, 4):
        assert r[x - 1] == p[q[x - 1] - 1]
    for n in range(1, 6):
        for perm in itertools.permutations(range(1, n + 1)):
            assert compose(perm, invert(perm)) == tuple(range(1, n + 1))
            assert compose(invert(perm), perm) == tuple(range(1, n + 1))


def test_symmetric_group_enumeration():
    import math
    for n in range(1, 6):
        g = symmetric_group(n)
        assert len(g) == math.factorial(n)
        assert len(set(g)) == len(g)
        idx = symmetric_index(n)
        assert all(g[idx[p]] == p for p in g)


def test_cyclic_class_is_single_long_cycles():
    import math
    for n in range(2, 7):
        cc = cyclic_class(n)
        assert len(cc) == math.factorial(n - 1)
        for p in cc:
            assert is_cyclic(p)
            # orbit of 1 under p covers everything
            seen, x = set(), 1
            for _ in range(n):
                seen.add(x)
                x = p[x - 1]
            assert len(seen) == n
        idx = cyclic_index(n)
        assert all(cc[idx[p]] == p for p in cc)


def test_cyclic_shift_is_standard_cycle():
    for n in range(2, 7):
        t = cyclic_shift(n)
        assert t == tuple(list(range(2, n + 1)) + [1])
        assert is_cyclic(t)


def test_cycle_order_rows_reconstructs():
    for n in range(2, 6):
        for p in cyclic_class(n):
            rows = cycle_order_rows(p)
            assert rows[0] == 1
            assert len(rows) == n
            for a, b in zip(rows, rows[1:]):
                assert p[a - 1] == b
            assert p[rows[-1] - 1] == rows[0]


def test_cycle_start_sign_values():
    # the standard cycle reads off in order, so its start sign is +1
    for n in range(2, 6):
        assert cycle_start_sign(cyclic_shift(n)) in (1, -1)
        assert cycle_start_sign(cyclic_shift(n)) == 1


def face_oracle(p, i):
    """Independent face construction, sequence style.

    Walk the cycle from 1 to list the visiting order, contract the edge at
    position i by dropping the visited-next vertex, rename the merged vertex
    to the smaller of the two labels, relabel survivors order preserving,
    then read the successor permutation back off the shortened sequence.
    """
    n = len(p)
    seq, x = [], 1
    for _ in range(n):
        seq.append(x)
        x = p[x - 1]
    src, gone = seq[i], seq[(i + 1) % n]
    merged = min(src, gone)
    new_seq = [merged if v == src else v for v in seq if v != gone]
    names = sorted(new_seq)
    relab = {v: k + 1 for k, v in enumerate(names)}
    out = [0] * (n - 1)
    for k, v in enumerate(new_seq):
        out[relab[v] - 1] = relab[new_seq[(k + 1) % (n - 1)]]
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_face_matches_oracle(n):
    for p in cyclic_class(n):
        for i in range(n):
            got = face_cyclic(p, i)
            assert got == face_oracle(p, i)
            if n > 2:
                assert is_cyclic(got)


def contract_edge_oracle(p, src):
    """Independent edge contraction, matrix-unit style.

    Hold p as the matrix units (v, p(v)), replace the units of src and
    g = p(src) by their product (src, p(g)), rename src to min(src, g) so
    the other label drops out, close the labels up in order, and read the
    permutation back off the units.
    """
    g = p[src - 1]
    units = [(v, p[v - 1]) for v in range(1, len(p) + 1) if v not in (src, g)]
    units.append((src, p[g - 1]))
    merged = min(src, g)
    units = [tuple(merged if v == src else v for v in u) for u in units]
    relab = {v: k + 1 for k, v in enumerate(sorted(a for a, _ in units))}
    out = [0] * (len(p) - 1)
    for a, b in units:
        out[relab[a] - 1] = relab[b]
    return tuple(out)


def cycle_count(p):
    seen, count = set(), 0
    for v in range(1, len(p) + 1):
        if v not in seen:
            count += 1
            while v not in seen:
                seen.add(v)
                v = p[v - 1]
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_contract_edge_matches_oracle(n):
    for bad in (0, n + 1):
        with pytest.raises(ValueError):
            contract_edge(symmetric_group(n)[-1], bad)
    for p in symmetric_group(n):
        for src in range(1, n + 1):
            if p[src - 1] == src:
                with pytest.raises(ValueError):
                    contract_edge(p, src)
                continue
            got = contract_edge(p, src)
            assert got == contract_edge_oracle(p, src), (p, src)
            assert cycle_count(got) == cycle_count(p), (p, src)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_faces_satisfy_presimplicial_identities(n):
    # d_i d_j = d_{j-1} d_i for i < j
    for p in cyclic_class(n):
        for j in range(1, n):
            for i in range(j):
                assert face_cyclic(face_cyclic(p, j), i) == \
                    face_cyclic(face_cyclic(p, i), j - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_faces_fix_standard_cycle(n):
    t = cyclic_shift(n)
    below = cyclic_shift(n - 1) if n > 2 else (1,)
    for i in range(n):
        assert face_cyclic(t, i) == below
