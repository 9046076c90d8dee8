"""Property-based tests (hypothesis) of per-element index arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom.complexes import _contraction_column_fn, index_tuple, tuple_index


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
