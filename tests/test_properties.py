"""Property-based tests (hypothesis) of per-element index arithmetic, of
the antisymmetrization columns, of the d.d = 0 witness, of the two echelon
reductions and the quotient solver, of clearing a boundary by the
independent columns of the one below, and of permutation signs and
composition."""

import itertools
import tempfile
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom.cache import _Loaded, load_boundary, save_boundary
from leibhom.chain_maps import _epsilon_column, _phi_column, _theta_column
from leibhom.complexes import (_contraction_column_fn, cyclic_quotient,
                               index_tuple, tuple_index, wedge_basis)
from leibhom.homology import ChainComplex, verify_boundary_squares
from leibhom.linalg import (Echelon, SparseMatrix, kernel_basis,
                            rank_by_columns, rank_by_rows, rank_only,
                            vec_scaled_add)
from leibhom.perms import compose, invert, sign


@st.composite
def contractions(draw):
    d = draw(st.integers(1, 5))
    m = draw(st.integers(2, 6))
    j = draw(st.integers(1, m - 1))
    i = draw(st.integers(0, j - 1))
    return (d, m, i, j, draw(st.integers(0, d ** m - 1)),
            draw(st.integers(0, d - 1)), draw(st.booleans()),
            draw(st.sampled_from([1, -1])), draw(st.integers(0, 2)))


@settings(max_examples=400, deadline=None)
@given(contractions())
def test_contraction_index_is_the_sliced_tuple_index(case):
    """Merging slot j into slot i < j lands where slicing the tuple says.

    The table sends (a, b) to e_k with k = k0 + a + 2b mod d, so the target
    also records which slots met, and in which order."""
    d, m, i, j, x, k0, swapped, sign, s = case
    table = [[(((k0 + a + 2 * b) % d, 1),) for b in range(d)]
             for a in range(d)]
    parts = [[(i, j, swapped, sign, p * d ** (m - 1))] for p in range(s + 1)]
    col = _contraction_column_fn(d, table, m, parts)
    t = index_tuple(x, d, m)
    a, b = (t[j], t[i]) if swapped else (t[i], t[j])
    k = (k0 + a + 2 * b) % d
    lower = tuple_index(t[:i] + (k,) + t[i + 1:j] + t[j + 1:], d)
    assert col(s * d ** m + x) == {s * d ** (m - 1) + lower: sign}


def signed_orderings(head, slots, d, flip=None):
    """(sign, tensor index) of head followed by each ordering of slots, in
    lex order of the orderings; sign is (-1)^inversions, negated for the
    ordering `flip`."""
    for p in itertools.permutations(range(len(slots))):
        s = (-1) ** inversions(p) * (-1 if p == flip else 1)
        yield s, tuple_index(head + tuple(slots[x] for x in p), d)


def accumulated(terms):
    """The terms summed into a dict, an entry dropped when it reaches 0."""
    out = {}
    for key, val in terms:
        cur = out.get(key, 0) + val
        if cur:
            out[key] = cur
        else:
            out.pop(key)
    return out


@st.composite
def phi_columns(draw):
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    return d, m, draw(st.integers(0, d ** m - 1)), draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(phi_columns())
def test_phi_column_is_the_signed_sum_over_orderings(case):
    """Column j of phi_m is sum sgn(p) (t_1, t_(2+p)), in values and in
    items() order; broken mode flips the first transposition from m = 3."""
    d, m, j, broken = case
    t = index_tuple(j, d, m)
    flip = (1, 0) + tuple(range(2, m - 1)) if broken and m >= 3 else None
    want = accumulated((idx, s) for s, idx
                       in signed_orderings(t[:1], t[1:], d, flip))
    got = _phi_column(d, broken, m, j)
    assert list(got.items()) == list(want.items())


@st.composite
def repeated_phi_columns(draw):
    """A column of phi_m, m >= 3, whose slots 2..m repeat a letter."""
    d = draw(st.integers(1, 5))
    m = draw(st.integers(3, 6))
    rest = draw(st.lists(st.integers(0, d - 1), min_size=m - 1,
                         max_size=m - 1))
    i = draw(st.integers(0, m - 3))
    rest[draw(st.integers(i + 1, m - 2))] = rest[i]
    return d, m, tuple_index((draw(st.integers(0, d - 1)),) + tuple(rest), d)


@settings(max_examples=300, deadline=None)
@given(repeated_phi_columns())
def test_broken_phi_keeps_a_repeated_column_nonzero(case):
    """Unbroken, a repeated slot cancels the column; broken, one flipped
    ordering leaves it nonzero, so --debug-break-phi still sees it."""
    d, m, j = case
    assert _phi_column(d, False, m, j) == {}
    assert _phi_column(d, True, m, j)


@st.composite
def wedge_columns(draw, lowest):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(lowest, d))
    return d, n, draw(st.integers(0, len(wedge_basis(d, n)[0]) - 1))


@settings(max_examples=300, deadline=None)
@given(wedge_columns(1))
def test_theta_column_is_the_signed_sum_over_cyclic_classes(case):
    """Column j of theta_m: each ordering of the wedge's last m-1 slots,
    sent through the cyclic quotient, summed in order."""
    d, m, j = case
    c = wedge_basis(d, m)[0][j]
    proj = cyclic_quotient(d, m)[1]
    want = accumulated((proj(idx)[1], s * proj(idx)[0]) for s, idx
                       in signed_orderings(c[:1], c[1:], d)
                       if proj(idx) is not None)
    got = _theta_column(proj, d, m, j)
    assert list(got.items()) == list(want.items())


@settings(max_examples=300, deadline=None)
@given(wedge_columns(0).flatmap(lambda case: st.tuples(
    st.just(case), st.integers(0, case[0] - 1))))
def test_epsilon_column_is_the_signed_sum_over_orderings(case):
    """Column (a_0, c) of epsilon_n is sum sgn(p) (a_0, c_p)."""
    (d, n, cj), a0 = case
    c = wedge_basis(d, n)[0][cj]
    want = accumulated((idx, s) for s, idx in signed_orderings((a0,), c, d))
    got = _epsilon_column(d, n, a0 * len(wedge_basis(d, n)[0]) + cj)
    assert list(got.items()) == list(want.items())


# small entries, entries above 8, and Fractions (integral ones among them,
# such as 4/2)
VALUES = st.one_of(
    st.integers(-3, 3),
    st.integers(-24, 24),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))


def vectors(size):
    return st.dictionaries(st.integers(0, size - 1), VALUES).map(
        lambda v: {k: c for k, c in v.items() if c})


@st.composite
def matrices(draw, rows, cols):
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), VALUES))
    return SparseMatrix.from_entries(
        rows, cols, ((r, c, v) for (r, c), v in entries.items()))


@st.composite
def two_boundaries(draw):
    """d_1: C_1 -> C_0 and d_2: C_2 -> C_1, some columns of d_2 cycles of d_1
    (combinations of its kernel basis), the others random vectors."""
    dims = [draw(st.integers(1, 4)) for _ in range(3)]
    d_1 = draw(matrices(dims[0], dims[1]))
    kernel = kernel_basis(d_1)
    columns = []
    for _ in range(dims[2]):
        if kernel and draw(st.booleans()):
            col = {}
            for k in kernel:
                vec_scaled_add(col, k, draw(VALUES))
        else:
            col = draw(vectors(dims[1]))
        columns.append(col)
    return dims, d_1, SparseMatrix(dims[1], dims[2], columns)


@settings(max_examples=300, deadline=None)
@given(two_boundaries())
def test_boundary_squares_witness_is_the_first_nonzero_dense_column(case):
    """verify_boundary_squares names the first column of d_2 at which the
    dense Fraction product d_1 d_2 is nonzero, or returns (True, None), and
    names the same on d_1 and d_2 saved to the cache and loaded back, which
    it leaves undecoded."""
    dims, d_1, d_2 = case
    dense_1 = [[Fraction(d_1.columns[k].get(r, 0)) for k in range(dims[1])]
               for r in range(dims[0])]
    want = (True, None)
    for j, col in enumerate(d_2.columns):
        if any(sum(row[k] * col.get(k, 0) for k in range(dims[1]))
               for row in dense_1):
            want = (False, (2, j))
            break
    C = ChainComplex("X", dims, [None, d_1, d_2])
    assert verify_boundary_squares(C) == want
    # the same matrices through the disk cache: d.d reads them in place
    counts = {"hits": 0, "misses": 0, "writes": 0, "rejects": 0}
    with tempfile.TemporaryDirectory() as cdir:
        loaded = [None]
        for n, d in ((1, d_1), (2, d_2)):
            save_boundary(cdir, "f" * 16, "X", n, d, None, counts)
            loaded.append(load_boundary(cdir, "f" * 16, "X", n, d.rows,
                                        d.cols, counts)[0])
    assert verify_boundary_squares(ChainComplex("X", dims, loaded)) == want
    assert [type(d) for d in loaded[1:]] == [_Loaded, _Loaded]


def dense_rank(vecs, size):
    """Rank by Gaussian elimination on dense Fraction rows."""
    rows = [[Fraction(v.get(k, 0)) for k in range(size)] for v in vecs]
    rank = 0
    for col in range(size):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def row_dicts(M):
    """The rows of M as dicts {column: value}."""
    rows = [{} for _ in range(M.rows)]
    for j, col in enumerate(M.columns):
        for i, v in col.items():
            rows[i][j] = v
    return rows


@st.composite
def composable_pairs(draw):
    """(lower, upper) with lower * upper = 0 exactly: upper is drawn
    freely, sometimes with rows that combine others, and each row of lower
    is a combination of the relations among the rows of upper (kernel_basis
    of its transpose), with int and Fraction coefficients."""
    mid = draw(st.integers(1, 7))
    upper = draw(matrices(mid, draw(st.integers(1, 5))))
    rows = row_dicts(upper)
    for _ in range(draw(st.integers(0, 2))):
        row = {}
        for other in rows:
            vec_scaled_add(row, other, draw(VALUES))
        rows[draw(st.integers(0, mid - 1))] = row
    upper = SparseMatrix.from_entries(
        mid, upper.cols, ((i, j, v) for i, row in enumerate(rows)
                          for j, v in row.items()))
    relations = kernel_basis(SparseMatrix(upper.cols, mid, row_dicts(upper)))
    lower_rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = {}
        for rel in relations:
            vec_scaled_add(row, rel, draw(VALUES))
        lower_rows.append(row)
    lower = SparseMatrix.from_entries(
        len(lower_rows), mid, ((r, i, v) for r, row in enumerate(lower_rows)
                               for i, v in row.items()))
    return lower, upper


@settings(max_examples=300, deadline=None)
@given(composable_pairs())
def test_rows_the_lower_boundary_proves_dependent_clear_exactly(pair):
    """With lower * upper = 0, the independent columns that ranking lower
    finds, stored (rank_only, by rows, or rank_by_columns) or as row dicts
    (rank_by_rows), are rank(lower) many and independent, and upper ranked
    without the rows they index has the dense rank of upper, by each path,
    with independent columns of upper again."""
    lower, upper = pair
    assert lower.matmul(upper).is_zero()
    rank = dense_rank(upper.columns, upper.rows)
    assert rank_only(upper)[0] == rank_by_columns(upper)[0] == rank
    low = dense_rank(lower.columns, lower.rows)
    for ranked in (rank_only(lower), rank_by_columns(lower),
                   rank_by_rows(row_dicts(lower), lower.cols)):
        found = ranked[1]
        assert ranked[0] == len(found) == low
        assert dense_rank([lower.columns[j] for j in found], lower.rows) == low
        for cleared in (rank_only(upper, found), rank_by_columns(upper, found),
                        rank_by_rows(row_dicts(upper), upper.cols, found)):
            assert cleared[0] == len(cleared[1]) == rank
            assert dense_rank([upper.columns[j] for j in cleared[1]],
                              upper.rows) == rank


@st.composite
def quotient_problems(draw):
    """(size, modulo family S, inserts, query v); v is drawn freely or as a
    combination of S and the inserts, so it lies in their span about half
    the time."""
    size = draw(st.integers(1, 5))
    S = draw(st.lists(vectors(size), max_size=3))
    inserts = draw(st.lists(vectors(size), min_size=1, max_size=4))
    if draw(st.booleans()):
        v = draw(vectors(size))
    else:
        v = {}
        for w in S + inserts:
            vec_scaled_add(v, w, draw(VALUES))
    return size, S, inserts, v


@settings(max_examples=300, deadline=None)
@given(quotient_problems())
def test_tracked_echelon_modulo_a_family_expresses_over_its_inserts(problem):
    """Echelon(track=True, modulo=S): rank is the dense rank of S with the
    inserts, express(v) is None exactly outside their span, and otherwise
    sum c_i * insert_i - v lies in span(S)."""
    size, S, inserts, v = problem
    ech = Echelon(track=True, modulo=S)
    for w in inserts:
        ech.insert(w)
    family = S + inserts
    assert ech.rank == dense_rank(family, size)
    coeffs = ech.express(v)
    inside = dense_rank(family + [v], size) == dense_rank(family, size)
    assert (coeffs is not None) == inside
    if coeffs is not None:
        assert set(coeffs) <= set(range(len(inserts)))
        rest = {k: -c for k, c in v.items()}
        for i, c in coeffs.items():
            vec_scaled_add(rest, inserts[i], c)
        assert Echelon(modulo=S).contains(rest)


@st.composite
def echelon_problems(draw):
    """(modulo family S, matrix M) over a shared row count; the entries
    give unit, non-unit and negative leads, as ints and as Fractions. M's
    last columns are combinations of its first ones, so some inserts must
    reduce to zero."""
    rows = draw(st.integers(1, 6))
    S = draw(st.lists(vectors(rows), max_size=2))
    M = draw(matrices(rows, draw(st.integers(1, 5))))
    columns = list(M.columns)
    for _ in range(draw(st.integers(0, 3))):
        col = {}
        for c in columns:
            vec_scaled_add(col, c, draw(VALUES))
        columns.append(col)
    return S, SparseMatrix(rows, len(columns), columns)


@settings(max_examples=400, deadline=None)
@given(echelon_problems())
def test_untracked_and_tracked_reductions_agree(problem):
    """Inserting M's columns in order, the untracked and the tracked echelon
    modulo S give the same lead for each, and both ranks are the dense rank
    of S with M; rank_only(M) is the dense rank of M. Every pivot (with its
    combination, if tracked) and every relation has content 1, untracked
    pivots lie in the span and relations sum into span(S)."""
    S, M = problem
    plain = Echelon(modulo=S)
    tracked = Echelon(track=True, modulo=S)
    assert sorted(plain.pivots) == sorted(tracked.pivots)
    assert [plain.insert(c) for c in M.columns] \
        == [tracked.insert(c) for c in M.columns]
    assert plain.rank == tracked.rank == dense_rank(S + M.columns, M.rows)
    assert rank_only(M)[0] == dense_rank(M.columns, M.rows)
    for vec, _ in plain.pivots.values():
        assert gcd(*vec.values()) == 1
        assert dense_rank(S + M.columns + [vec], M.rows) == plain.rank
    for vec, combo in tracked.pivots.values():
        assert gcd(*vec.values(), *combo.values()) == 1
    for rel in tracked.relations:
        assert gcd(*rel.values()) == 1
        rest = {}
        for i, c in rel.items():
            vec_scaled_add(rest, M.columns[i], c)
        assert Echelon(modulo=S).contains(rest)


def inversions(p):
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


PERMS = st.integers(0, 7).flatmap(
    lambda n: st.tuples(*[st.permutations(range(1, n + 1)).map(tuple)] * 3))


@settings(max_examples=300, deadline=None)
@given(PERMS)
def test_perm_sign_counts_inversions_and_compose_is_a_group_law(perms):
    """sign is (-1)^inversions and multiplicative; compose is p after q,
    associative, with the identity as unit and invert as inverse."""
    p, q, r = perms
    e = tuple(range(1, len(p) + 1))
    assert sign(p) == (-1) ** inversions(p)
    assert compose(p, q) == tuple(p[q[i] - 1] for i in range(len(p)))
    assert sign(compose(p, q)) == sign(p) * sign(q)
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    assert compose(p, e) == compose(e, p) == p
    assert compose(p, invert(p)) == compose(invert(p), p) == e
