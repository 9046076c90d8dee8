"""d o d = 0 for the contraction kinds over a generic algebra.

A_gen(m) has the basis 1 and the words of length 1 to 3 in distinct letters
x_1..x_m; the product is concatenation, zero when a letter repeats or the
word grows past 3. A composite of two slot contractions puts at most three
slots of a tensor into one word, so on the tensor x_1 (x) ... (x) x_m no
product it takes is zero, and every term names which letters it merged and
in what order. Terms of d_{m-1} d_m there cancel only if they cancel for the
letters of any algebra: the column generators read the algebra only through
its product table (test_generators_read_the_algebra_only_through_its_table),
so the one column per permutation part checks d o d = 0 for every algebra.
The check generates columns and applies d_{m-1} to them; it never consults
the term certificate of complexes._d2_certified.
"""

import itertools
from math import factorial

import pytest

from leibhom import complexes
from leibhom.algebra import Algebra, builtin_algebra
from leibhom.complexes import boundary_column_fn, degree_dim, tuple_index


def generic_algebra(m):
    words = [()] + [w for k in (1, 2, 3)
                    for w in itertools.permutations(range(m), k)]
    index = {w: i for i, w in enumerate(words)}
    table = [[((index[u + v], 1),) if u + v in index else ()
              for v in words] for u in words]
    return Algebra("gen%d" % m, ["".join("x%d" % (l + 1) for l in w) or "1"
                                 for w in words],
                   [1] + [0] * (len(words) - 1), table), index


def slots(kind, n):
    """The tensor slots of degree n: n for CL and L, n + 1 for CHH and P."""
    return n + 1 if kind in ("CHH", "P") else n


@pytest.mark.parametrize("kind,n", [("CL", n) for n in range(2, 8)]
                         + [("CHH", n) for n in range(2, 8)]
                         + [("L", n) for n in range(2, 7)]
                         + [("P", n) for n in range(2, 7)])
def test_boundary_squares_to_zero_on_the_generic_tensor(kind, n):
    m = slots(kind, n)
    A, index = generic_algebra(m)
    generic = tuple_index([index[(l,)] for l in range(m)], A.dim)
    up = boundary_column_fn(A, kind, n)
    down = boundary_column_fn(A, kind, n - 1)
    # the permutation parts of L and P: the n! permutations of L_n, and the
    # n! (n+1)-cycles of P_n
    parts = 1 if kind in ("CL", "CHH") else factorial(n)
    columns = [up(s * A.dim ** m + generic) for s in range(parts)]
    # only the identity permutation of L_n has no edge to contract
    assert sum(1 for column in columns if not column) == (kind == "L")
    for s, column in enumerate(columns):
        image = {}
        for x, v in column.items():
            for y, w in down(x).items():
                image[y] = image.get(y, 0) + v * w
        assert not {y: v for y, v in image.items() if v}, (kind, n, s)


class _Recording:
    """An algebra that records each attribute read of it."""

    def __init__(self, A):
        self._A = A
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._A, name)


@pytest.mark.parametrize("kind", ["CL", "CHH", "L", "P"])
def test_generators_read_the_algebra_only_through_its_table(kind,
                                                            monkeypatch):
    A = builtin_algebra("s3")
    plain = boundary_column_fn(A, kind, 3)
    seen = _Recording(A)
    brackets = []
    real = complexes.bracket_table
    monkeypatch.setattr(complexes, "bracket_table",
                        lambda B: brackets.append(B) or real(B._A))
    fn = boundary_column_fn(seen, kind, 3)
    assert seen.read <= {"dim", "products"}, seen.read
    assert brackets == ([seen] if kind == "CL" else [])
    sample = range(0, degree_dim(A, kind, 3), 7)
    assert [fn(j) for j in sample] == [plain(j) for j in sample]
