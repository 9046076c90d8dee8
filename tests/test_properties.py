"""Property-based tests (hypothesis) of per-element index arithmetic and of
the exact zero test of matrix products."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom.complexes import _contraction_column_fn, index_tuple, tuple_index
from leibhom.linalg import ZERO_TEST_CAP, SparseMatrix, ZeroTest, vec_scaled_add


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


# entries inside the row-tuple form, above ZERO_TEST_CAP, and Fractions
# (integral ones among them, such as 4/2)
VALUES = st.one_of(
    st.integers(-3, 3),
    st.integers(-3 * ZERO_TEST_CAP, 3 * ZERO_TEST_CAP),
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
def signed_products(draw):
    """(M, sign, vectors) triples over a shared row count."""
    rows = draw(st.integers(1, 5))
    out = []
    for _ in range(draw(st.integers(1, 2))):
        cols = draw(st.integers(1, 6))
        out.append((draw(matrices(rows, cols)), draw(st.sampled_from([1, -1])),
                    draw(st.lists(vectors(cols), min_size=1, max_size=3))))
    return out


@settings(max_examples=300, deadline=None)
@given(signed_products())
def test_zero_test_agrees_with_the_dict_product(products):
    """ZeroTest((M_k, s_k), ...)(v_k, ...) is `not sum_k s_k * M_k.apply(v_k)`,
    call after call on one test object."""
    test = ZeroTest(*((M, sign) for M, sign, _ in products))
    for i in range(max(len(vecs) for _, _, vecs in products)):
        vecs = [vecs[i % len(vecs)] for _, _, vecs in products]
        total = {}
        for (M, sign, _), v in zip(products, vecs):
            vec_scaled_add(total, M.apply(v), sign)
        assert test(*vecs) == (not total)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda rows: st.tuples(matrices(rows, 4), vectors(4), VALUES,
                           st.integers(0, rows - 1))))
def test_zero_test_sees_a_product_cancel_and_a_bump(case):
    """M v - N e_0 vanishes for N's one column M v, and stops vanishing once
    that column is bumped at one row."""
    M, v, bump, r = case
    column = M.apply(v)
    N = SparseMatrix(M.rows, 1, [column])
    assert ZeroTest((M, 1), (N, -1))(v, {0: 1})
    bumped = dict(column)
    vec_scaled_add(bumped, {r: 1}, bump)
    N = SparseMatrix(M.rows, 1, [bumped])
    assert ZeroTest((M, 1), (N, -1))(v, {0: 1}) == (not bump)
