"""Sparse exact linear algebra against a dense fraction-arithmetic oracle."""

import hashlib
import random
from fractions import Fraction

import pytest

from leibhom.algebra import builtin_algebra, matrix_algebra
from leibhom.complexes import boundary_matrix
from leibhom.linalg import (Echelon, SparseMatrix, blocked_rank, kernel_basis,
                            rank_by_rows, rank_only)
from leibhom.serialize import load_algebra, save_algebra


# ---------------------------------------------------------------------------
# dense oracle, written first and kept independent of the library internals

def dense_rank(rows):
    """Gaussian elimination over Fraction on a list-of-lists copy."""
    m = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def to_dense(M):
    return [[M.columns[c].get(r, 0) for c in range(M.cols)]
            for r in range(M.rows)]


def random_sparse(rng, rows, cols, density=0.4, fractions=False):
    M = SparseMatrix(rows, cols)
    for c in range(cols):
        col = {}
        for r in range(rows):
            if rng.random() < density:
                den = rng.randint(1, 4) if fractions else 1
                col[r] = Fraction(rng.randint(-3, 3), den)
        col = {r: v for r, v in col.items() if v}
        if col:
            M.columns[c] = col
    return M


def test_dense_oracle_sanity():
    assert dense_rank([[1, 0], [0, 1]]) == 2
    assert dense_rank([[1, 2], [2, 4]]) == 1
    assert dense_rank([[0, 0], [0, 0]]) == 0
    assert dense_rank([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_rank_only_matches_dense_oracle():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        M = random_sparse(rng, rows, cols)
        assert rank_only(M)[0] == dense_rank(to_dense(M))


def test_rank_only_edge_cases_match_dense_oracle():
    half, third = Fraction(1, 2), Fraction(-2, 3)
    cases = [
        SparseMatrix(0, 0),
        SparseMatrix(0, 4),                      # no rows
        SparseMatrix(5, 0),                      # no columns
        SparseMatrix(3, 4),                      # only empty columns
        # duplicate and proportional columns around empty ones
        SparseMatrix(3, 5, [{0: 1, 2: -1}, {}, {0: 1, 2: -1}, {0: -3, 2: 3},
                            {1: 2}]),
        # Fraction entries, one column a Fraction multiple of another
        SparseMatrix(3, 4, [{0: half, 1: third}, {0: 3, 1: -4},
                            {1: third, 2: Fraction(5, 7)}, {2: half}]),
        # long columns first in the input, so the shortest-first order moves them
        SparseMatrix(4, 4, [{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 1: -1, 2: 1},
                            {3: half}, {0: 2}]),
    ]
    for M in cases:
        assert rank_only(M)[0] == dense_rank(to_dense(M))
    assert [rank_only(M)[0] for M in cases] == [0, 0, 0, 0, 2, 3, 4]
    rng = random.Random(31)
    for _ in range(20):
        M = random_sparse(rng, rng.randint(1, 6), rng.randint(1, 6),
                          fractions=True)
        # append scaled copies of existing columns: rank unchanged
        extra = []
        for _ in range(3):
            scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            col = M.columns[rng.randrange(M.cols)]
            extra.append({r: scale * v for r, v in col.items()})
        W = SparseMatrix(M.rows, M.cols + 3, M.columns + extra)
        assert rank_only(W)[0] == rank_only(M)[0] == dense_rank(to_dense(W))


def by_rows(M, skip=frozenset()):
    rows = [{} for _ in range(M.rows)]
    for j, col in enumerate(M.columns):
        for i, v in col.items():
            rows[i][j] = v
    return rank_by_rows(rows, M.cols, skip)[0]


def test_rank_by_rows_matches_rank_only_and_the_dense_oracle():
    half = Fraction(1, 2)
    cases = [
        SparseMatrix(0, 0),                      # CE_n past the dimension
        SparseMatrix(1, 0),                      # CE_{dim+1}
        SparseMatrix(0, 3),
        # row 1 and column 2 empty
        SparseMatrix(3, 4, [{0: 1, 2: -1}, {0: 2, 2: -2}, {}, {2: 5}]),
        # Fraction entries, rows that are Fraction multiples of each other
        SparseMatrix(3, 3, [{0: half, 1: 1, 2: Fraction(-3, 4)},
                            {0: Fraction(1, 3), 1: Fraction(2, 3),
                             2: -half},
                            {1: Fraction(7, 5)}]),
    ]
    assert [by_rows(M) for M in cases] == [0, 0, 0, 2, 2]
    rng = random.Random(17)
    for _ in range(40):
        cases.append(random_sparse(rng, rng.randint(1, 8), rng.randint(1, 8),
                                   fractions=rng.random() < 0.5))
    for M in cases:
        assert by_rows(M) == rank_only(M)[0] == dense_rank(to_dense(M))


def test_clearing_needs_the_product_to_vanish():
    """Why boundary_rank clears only under a d.d = 0 certificate: with
    lower = (1 0) and upper the 2 x 2 identity, lower * upper != 0, and the
    row of upper that lower's independent column indexes is not in the span
    of the other, so the cleared rank comes out too small."""
    lower = SparseMatrix(1, 2, [{0: 1}, {}])
    upper = SparseMatrix.identity(2)
    assert not lower.matmul(upper).is_zero()
    for rank, found in (rank_only(lower), rank_by_rows([{0: 1}], 2)):
        assert (rank, found) == (1, {0})
        assert rank_only(upper, found)[0] == 1 < rank_only(upper)[0] == 2
        assert by_rows(upper, found) == 1


@pytest.mark.parametrize("name,kind,n", [("cyclic:3", "P", 3),
                                         ("s3", "BAR", 3),
                                         ("s3", "CHH", 3)])
def test_rank_only_on_boundaries_matches_plain_order(name, kind, n):
    M = boundary_matrix(builtin_algebra(name), kind, n)
    plain = Echelon()
    for col in M.columns:
        if col:
            plain.insert(col)
    assert rank_only(M)[0] == plain.rank
    assert 0 < plain.rank < min(M.rows, M.cols)


def test_rank_kernel_image_consistency():
    rng = random.Random(13)
    for _ in range(25):
        M = random_sparse(rng, rng.randint(1, 7), rng.randint(1, 7))
        dense = to_dense(M)
        kernel = kernel_basis(M)
        image = Echelon()
        for c in range(M.cols):
            image.insert(M.columns[c])
        assert image.rank == dense_rank(dense)
        assert image.rank + len(kernel) == M.cols
        for k in kernel:
            assert M.apply(k) == {}
        for vec, _ in image.pivots.values():
            # every pivot must be a combination of M's columns
            widened = [row + [vec.get(r, 0)] for r, row in enumerate(dense)]
            assert dense_rank(widened) == image.rank


def test_echelon_on_fractions_matches_dense_oracle():
    rng = random.Random(29)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        M = random_sparse(rng, rows, cols, fractions=True)
        dense = to_dense(M)
        ech = Echelon(track=True)
        leads = [ech.insert(M.columns[c]) for c in range(cols)]
        rank = dense_rank(dense)
        assert ech.rank == rank == rank_only(M)[0]
        assert ech.rank + len(ech.relations) == cols
        assert sum(lead is None for lead in leads) == len(ech.relations)
        for rel in ech.relations:
            assert rel and M.apply(rel) == {}
        assert kernel_basis(M) == ech.relations
        for _ in range(3):
            want = M.apply({c: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                            for c in range(cols)})
            combo = ech.express(want)
            assert combo is not None
            assert M.apply(combo) == want
        for r in range(rows):
            unit = {r: Fraction(1, 3)}
            widened = [row + [unit.get(i, 0)] for i, row in enumerate(dense)]
            in_span = dense_rank(widened) == rank
            assert ech.contains(unit) == in_span
            assert (ech.express(unit) is None) == (not in_span)


def test_echelon_modulo_expresses_modulo_the_span():
    def span_rank(vectors, rows):
        return dense_rank([[v.get(r, 0) for v in vectors] for r in range(rows)])

    rng = random.Random(31)
    for _ in range(40):
        rows = rng.randint(1, 7)
        S = random_sparse(rng, rows, rng.randint(0, 5), fractions=True)
        M = random_sparse(rng, rows, rng.randint(1, 6), fractions=True)
        ech = Echelon(track=True, modulo=S.columns)
        rank_s = span_rank(S.columns, rows)
        assert ech.rank == rank_s and ech.num_inserted == 0
        leads = [ech.insert(col) for col in M.columns]
        rank_all = span_rank(S.columns + M.columns, rows)
        assert ech.rank == rank_all
        assert len(ech.relations) == sum(lead is None for lead in leads) \
            == M.cols - (rank_all - rank_s)
        for rel in ech.relations:
            # a relation of the inserts sums into span(S), not to zero
            assert rel and span_rank(S.columns + [M.apply(rel)], rows) == rank_s
        for _ in range(3):
            x = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                 for c in range(M.cols)}
            y = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                 for c in range(S.cols)}
            vec = M.apply(x)
            for r, v in S.apply(y).items():
                vec[r] = vec.get(r, 0) + v
            vec = {r: v for r, v in vec.items() if v}
            combo = ech.express(vec)
            assert combo is not None
            rest = dict(vec)
            for r, v in M.apply(combo).items():
                rest[r] = rest.get(r, 0) - v
            assert span_rank(S.columns + [rest], rows) == rank_s
        for r in range(rows):
            unit = {r: Fraction(2, 5)}
            in_span = span_rank(S.columns + M.columns + [unit], rows) == rank_all
            assert (ech.express(unit) is None) == (not in_span)
            assert ech.contains(unit) == in_span


def test_matmul_matches_dense_product():
    rng = random.Random(17)
    for _ in range(25):
        a, b, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        M = random_sparse(rng, a, b)
        N = random_sparse(rng, b, c)
        P = M.matmul(N)
        dm, dn, dp = to_dense(M), to_dense(N), to_dense(P)
        for r in range(a):
            for s in range(c):
                want = sum((dm[r][k] * dn[k][s] for k in range(b)),
                           Fraction(0))
                assert dp[r][s] == want


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        SparseMatrix(2, 3).matmul(SparseMatrix(2, 3))


def test_matrix_arithmetic_and_transpose():
    M = SparseMatrix.from_entries(2, 2, [(0, 0, 1), (0, 1, 2), (1, 1, -1)])
    N = SparseMatrix.from_entries(2, 2, [(0, 0, -1), (1, 0, 3)])
    assert to_dense(M + N)[0][0] == 0
    assert (M - M).is_zero()
    assert to_dense(M.scaled(Fraction(1, 2)))[0][1] == 1
    assert SparseMatrix.from_columns(2, 2, M.columns.__getitem__) == M
    I3 = SparseMatrix.identity(3)
    assert I3.nnz() == 3 and rank_only(I3)[0] == 3
    assert M == SparseMatrix.from_entries(2, 2,
                                          [(0, 0, 1), (0, 1, 2), (1, 1, -1)])
    assert M != N


def test_apply_matches_column_combination():
    M = SparseMatrix.from_entries(3, 2, [(0, 0, 1), (2, 0, 4), (1, 1, -2)])
    out = M.apply({0: Fraction(2), 1: Fraction(1)})
    assert out == {0: Fraction(2), 2: Fraction(8), 1: Fraction(-2)}
    assert M.apply({}) == {}


def test_span_solver_express():
    solver = Echelon(track=True)
    v1 = {0: Fraction(1), 1: Fraction(1)}
    v2 = {1: Fraction(2)}
    assert solver.insert(dict(v1)) == 0
    assert solver.insert(dict(v2)) == 1
    assert solver.insert({0: Fraction(2), 1: Fraction(2)}) is None
    assert solver.relations in ([{0: -2, 2: 1}], [{0: 2, 2: -1}])
    combo = solver.express({0: Fraction(3), 1: Fraction(1)})
    assert combo is not None
    # reconstruct: sum combo[i] * inserted_i
    acc = {}
    for idx, coeff in combo.items():
        src = (v1, v2)[idx]
        for r, val in src.items():
            acc[r] = acc.get(r, Fraction(0)) + coeff * val
    acc = {r: v for r, v in acc.items() if v}
    assert acc == {0: Fraction(3), 1: Fraction(1)}
    assert combo == {0: 3, 1: Fraction(-1)}
    assert solver.express({2: Fraction(1)}) is None
    with pytest.raises(ValueError):
        Echelon().express({0: 1})


def test_blocked_rank_matches_stacked_ranks():
    rng = random.Random(23)
    for trial in range(40):
        top, bottom, cols = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 6)
        A = random_sparse(rng, top, cols, fractions=trial % 2 == 1)
        B = random_sparse(rng, bottom, cols, fractions=trial % 2 == 1)

        def stacked_cols():
            for c in range(cols):
                col = dict(A.columns[c])
                for r, v in B.columns[c].items():
                    col[top + r] = v
                yield col

        # the second count cannot reach bottom + 1: the whole stream goes in
        r1, r2 = blocked_rank(stacked_cols(), top, stop_at_second=bottom + 1)
        stacked = to_dense(A) + to_dense(B)
        assert r1 + r2 == dense_rank(stacked)
        assert r1 == dense_rank(stacked[:top])


def test_blocked_rank_keeps_the_leading_block_first():
    # eliminated with the leading block first, the second vector leaves a
    # trailing pivot; an order that let trailing indices lead would count
    # both vectors as trailing pivots (0, 2)
    cols = ({0: Fraction(1, 2), 2: Fraction(2, 3)},
            {0: Fraction(3, 4), 3: Fraction(1, 5)})
    assert blocked_rank(iter(cols), 2, stop_at_second=2) == (1, 1)


def test_blocked_rank_early_stop():
    cols = ({0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)},
            {3: Fraction(1)})
    stream = iter(cols)
    assert blocked_rank(stream, 1, stop_at_second=2) == (1, 2)
    # stopped at the third vector: the fourth was never read
    assert list(stream) == [{3: Fraction(1)}]


# ---------------------------------------------------------------------------
# pins of the tracked results: kernel relations, and through them the
# representatives and the report signs, follow every scaling of the tracked
# reduction, so an edit to it must leave these digests as they are

def entries(vec):
    return ",".join("%d=%s" % kv for kv in sorted(vec.items()))


def vectors_digest(vecs):
    return hashlib.sha256("".join(entries(v) + ";" for v in vecs)
                          .encode()).hexdigest()


def pivots_digest(ech):
    """sha256 over every pivot: its lead, its vector and its combination."""
    return hashlib.sha256("".join(
        "%d|%s|%s;" % (lead, entries(vec), entries(combo))
        for lead, (vec, combo) in sorted(ech.pivots.items()))
        .encode()).hexdigest()


PINNED_RELATIONS = {
    ("s3", "CHH", 3):
        "c0f91ee1dfcf7c19cd0b970ea47452931b3d4868c40d8c31d633796336964e25",
    ("cyclic:3", "P", 3):
        "b2b0bba8fcce83e0e1b6340ed43f02f7fdc410246c74a7df7cd680931042c8e6",
    ("gl2dual", "CL", 4):
        "5b744f3cc225f318592ea7d7c8a6a86de02fe726b3298bc41bd6ab79187832c8",
}


@pytest.mark.parametrize("name,kind,n", sorted(PINNED_RELATIONS))
def test_kernel_basis_relations_are_pinned(tmp_path, name, kind, n):
    if name == "gl2dual":
        # as the CL benchmark reads it: saved to a file and loaded back
        path = str(tmp_path / "gl2dual.json")
        save_algebra(matrix_algebra(builtin_algebra("dual"), 2), path)
        A = load_algebra(path)
    else:
        A = builtin_algebra(name)
    relations = kernel_basis(boundary_matrix(A, kind, n))
    assert vectors_digest(relations) == PINNED_RELATIONS[name, kind, n]


def test_tracked_solver_pivots_are_pinned():
    """The homology solver of s3 CHH in degree 3: pivots modulo the image of
    d_4, then the kernel of d_3 and a standard-basis completion inserted."""
    A = builtin_algebra("s3")
    ech = Echelon(track=True, modulo=boundary_matrix(A, "CHH", 4).columns)
    assert pivots_digest(ech) == (
        "481fa508743cca9a0df614bf64eacb7f3e8631a039edd659577d6aca1f64e0cf")
    d3 = boundary_matrix(A, "CHH", 3)
    for k in kernel_basis(d3):
        ech.insert(k)
    for i in range(d3.cols):
        ech.insert({i: 1})
    assert ech.rank == d3.cols
    assert pivots_digest(ech) == (
        "2ed58fa9ae85b91e28f82ecc125b09692dd4bfa1097ab40307883065ab49b76f")
    assert vectors_digest(ech.relations) == (
        "e9d04b5df705fb0624c745b4624e197c01d14243da93ad2b8b10061e2e9d7c17")
