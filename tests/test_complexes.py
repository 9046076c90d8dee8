"""Boundary generators checked against independent dense oracles."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from leibhom.algebra import (builtin_algebra, matrix_algebra,
                             multiply_coords)
from leibhom.complexes import (DEFAULT_MAX_DIM, KINDS, ResourceBoundExceeded,
                               basis_labels, boundary_column_fn,
                               boundary_matrix, build_complex, check_bound,
                               clear_registry, cyclic_quotient, degree_dim,
                               index_tuple, kahler_module, tuple_index,
                               verify_d2_streamed, wedge_basis)
from leibhom.homology import ChainComplex, verify_boundary_squares
from leibhom.linalg import SparseMatrix


# ---------------------------------------------------------------------------
# independent oracles: dense boundary maps from the textbook formulas

def hochschild_oracle_column(A, n, jidx):
    """b(a_0 x ... x a_n) with the last face wrapping a_n to the front."""
    d = A.dim
    t = index_tuple(jidx, d, n + 1)
    out = {}
    for i in range(n):
        fused = multiply_coords(A, {t[i]: Fraction(1)}, {t[i + 1]: Fraction(1)})
        for k, c in fused.items():
            nt = t[:i] + (k,) + t[i + 2:]
            pos = tuple_index(nt, d)
            out[pos] = out.get(pos, Fraction(0)) + (-1) ** i * c
    fused = multiply_coords(A, {t[n]: Fraction(1)}, {t[0]: Fraction(1)})
    for k, c in fused.items():
        nt = (k,) + t[1:n]
        pos = tuple_index(nt, d)
        out[pos] = out.get(pos, Fraction(0)) + (-1) ** n * c
    return {k: v for k, v in out.items() if v}


def leibniz_oracle_column(A, n, jidx):
    """d(x_1 x ... x x_n) = sum_{i<j} (-1)^j (... [x_i,x_j] at i ... no j ...)."""
    d = A.dim
    t = index_tuple(jidx, d, n)
    out = {}
    for j in range(2, n + 1):
        for i in range(1, j):
            x, y = {t[i - 1]: Fraction(1)}, {t[j - 1]: Fraction(1)}
            br = multiply_coords(A, x, y)
            for k, c in multiply_coords(A, y, x).items():
                br[k] = br.get(k, 0) - c
            for k, c in br.items():
                nt = t[:i - 1] + (k,) + t[i:j - 1] + t[j:]
                pos = tuple_index(nt, d)
                out[pos] = out.get(pos, Fraction(0)) + (-1) ** j * c
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("name,maxn", [("dual", 3), ("truncated_poly:3", 2),
                                       ("s3", 2)])
def test_hochschild_boundary_matches_oracle(name, maxn):
    A = builtin_algebra(name)
    for n in range(1, maxn + 1):
        fn = boundary_column_fn(A, "CHH", n)
        for j in range(degree_dim(A, "CHH", n)):
            assert fn(j) == hochschild_oracle_column(A, n, j), (n, j)


@pytest.mark.parametrize("name,maxn", [("dual", 3), ("s3", 2)])
def test_leibniz_boundary_matches_oracle(name, maxn):
    A = builtin_algebra(name)
    for n in range(1, maxn + 1):
        fn = boundary_column_fn(A, "CL", n)
        for j in range(degree_dim(A, "CL", n)):
            assert fn(j) == leibniz_oracle_column(A, n, j), (n, j)


def test_degree_dim_formulas():
    for name in ("dual", "truncated_poly:3", "s3"):
        A = builtin_algebra(name)
        d = A.dim
        for n in range(5):
            assert degree_dim(A, "CL", n) == (1 if n == 0 else d ** n)
            assert degree_dim(A, "CHH", n) == d ** (n + 1)
            assert degree_dim(A, "CE", n) == math.comb(d, n)
            assert degree_dim(A, "CE_ADJ", n) == d * math.comb(d, n)
            assert degree_dim(A, "L", n) == \
                (1 if n == 0 else math.factorial(n) * d ** n)
            assert degree_dim(A, "P", n) == math.factorial(n) * d ** (n + 1)
    G = builtin_algebra("cyclic:3")
    for n in range(5):
        assert degree_dim(G, "BAR", n) == (1 if n == 0 else 3 ** n)


def test_connes_quotient_dims_frozen():
    A = builtin_algebra("dual")
    assert [degree_dim(A, "CLAMBDA", n) for n in range(5)] == [2, 1, 4, 4, 8]
    T = builtin_algebra("truncated_poly:3")
    assert [degree_dim(T, "CLAMBDA", n) for n in range(5)] == [3, 3, 11, 21, 51]


def test_cyclic_quotient_projection_consistent():
    for d, length in ((2, 2), (2, 3), (3, 3), (2, 4)):
        reps, rep_index, proj = cyclic_quotient(d, length)
        n = length - 1
        eps = -1 if n % 2 else 1
        for t in itertools.product(range(d), repeat=length):
            image = proj[t]
            rot = (t[-1],) + t[:-1]
            rimage = proj[rot]
            if image is None:
                assert rimage is None
            else:
                sign, pos = image
                assert reps[pos][0:length] == reps[pos]
                assert rep_index[reps[pos]] == pos
                # the class relation [rot t] = eps [t]
                assert rimage is not None
                assert rimage[1] == pos
                assert rimage[0] == eps * sign
        for r in reps:
            assert proj[r] == (1, rep_index[r])


def test_wedge_basis_is_increasing_tuples():
    combos, idx = wedge_basis(4, 2)
    assert combos == tuple(itertools.combinations(range(4), 2))
    assert all(idx[c] == i for i, c in enumerate(combos))


@pytest.mark.parametrize("name,kind,cutoff", [
    ("dual", "CL", 4), ("dual", "CHH", 4), ("dual", "CLAMBDA", 4),
    ("dual", "CE", 3), ("dual", "CE_ADJ", 3), ("dual", "L", 4),
    ("dual", "P", 4), ("truncated_poly:3", "CLAMBDA", 4),
    ("cyclic:3", "BAR", 4), ("s3", "CHH", 3), ("split:2", "CL", 4),
])
def test_boundary_squares_vanish(name, kind, cutoff):
    A = builtin_algebra(name)
    C = build_complex(A, kind, cutoff)
    ok, witness = verify_boundary_squares(C)
    assert ok, witness


def test_matrix_algebra_boundary_squares():
    M = matrix_algebra(builtin_algebra("rationals"), 2)
    for kind in ("CL", "CHH", "CLAMBDA"):
        ok, witness = verify_boundary_squares(build_complex(M, kind, 3))
        assert ok, witness


def test_streamed_d2_matches_direct():
    A = builtin_algebra("dual")
    assert verify_d2_streamed(A, "CHH", 4) is None
    assert verify_d2_streamed(A, "P", 4) is None
    assert verify_d2_streamed(A, "CHH", 1) is None


def test_resource_bound_raises_with_details():
    A = builtin_algebra("s3")
    with pytest.raises(ResourceBoundExceeded) as exc:
        check_bound(A, "CHH", 5, 1000)
    e = exc.value
    assert e.kind == "CHH" and e.degree == 5
    assert e.size == 6 ** 6 and e.bound == 1000
    with pytest.raises(ResourceBoundExceeded):
        build_complex(A, "CHH", 5, max_dim=1000)


def test_basis_labels_shapes():
    A = builtin_algebra("dual")
    assert basis_labels(A, "CL", 0) == ["1"]
    assert basis_labels(A, "CHH", 1) == ["1|1", "1|eps", "eps|1", "eps|eps"]
    for kind in KINDS:
        if kind == "BAR":
            continue
        n = 2
        labels = basis_labels(A, kind, n)
        assert len(labels) == degree_dim(A, kind, n)
        assert len(set(labels)) == len(labels)


def test_kahler_module_presence_and_dims():
    dims = {"rationals": 0, "dual": 1, "truncated_poly:3": 2, "split:2": 0,
            "cyclic:2": 0, "cyclic:3": 0}
    for name, want in dims.items():
        km = kahler_module(builtin_algebra(name))
        assert km.dim1 == want, name
    with pytest.raises(ValueError):
        kahler_module(builtin_algebra("s3"))


def test_kahler_differential_is_derivation():
    # basis of truncated_poly:3 is 1, x, x^2; d(x^k) = k x^(k-1) dx
    km = kahler_module(builtin_algebra("truncated_poly:3"))
    assert km.diff_coords(0) == {}
    assert km.diff_coords(1) == km.project1({0: Fraction(1)})
    assert km.diff_coords(2) == km.project1({1: Fraction(2)})
    assert km.omega_dim(0) == 3 and km.omega_dim(1) == 2 and km.omega_dim(2) == 0


def test_kahler_omega1_is_the_cokernel_of_rprime():
    # truncated_poly:3 = Q[x]/(x^3): r'(x) = 3x^2, so Omega^1 = A/(x^2) on
    # 1.dx, x.dx, and x^2 dx = 0
    km = kahler_module(builtin_algebra("truncated_poly:3"))
    assert km.rep_indices == [0, 1]
    assert km.project1({2: Fraction(5)}) == {}
    assert km.project1({0: Fraction(1, 2), 1: 3, 2: 7}) == {0: Fraction(1, 2), 1: 3}
    assert km.diff_coords(2) == {1: 2}
    # dual = Q[eps]/(eps^2): r' = 2 eps, so Omega^1 = Q deps
    km = kahler_module(builtin_algebra("dual"))
    assert km.rep_indices == [0]
    assert km.project1({1: 1}) == {} and km.diff_coords(1) == {0: 1}


def test_registry_and_file_cache(tmp_path):
    from leibhom import cache
    A = builtin_algebra("dual")
    clear_registry()
    cache.reset_counters()
    cdir = str(tmp_path)
    M1 = boundary_matrix(A, "CHH", 2, cache_dir=cdir)
    assert cache.COUNTERS["misses"] == 1 and cache.COUNTERS["writes"] == 1
    # registry absorbs the second request, no new file traffic
    M2 = boundary_matrix(A, "CHH", 2, cache_dir=cdir)
    assert M2 is M1
    assert cache.COUNTERS["hits"] == 0
    clear_registry()
    M3 = boundary_matrix(A, "CHH", 2, cache_dir=cdir)
    assert cache.COUNTERS["hits"] == 1
    assert M3 == M1
    clear_registry()


def test_cache_values_round_trip_and_bad_values_raise(tmp_path):
    from leibhom import cache
    cdir = str(tmp_path)
    mat = SparseMatrix(3, 2, [{0: 4, 2: -7}, {1: Fraction(-3, 5),
                                              2: Fraction(1, 2)}])
    cache.save_boundary(cdir, "f" * 16, "CHH", 1, mat)
    back = cache.load_boundary(cdir, "f" * 16, "CHH", 1, 3, 2)
    assert back == mat
    assert type(back.entry(0, 0)) is int and back.entry(2, 0) == -7
    assert back.entry(1, 1) == Fraction(-3, 5)
    assert type(back.entry(2, 1)) is Fraction
    for bad in ("1.5", "1/0", "x"):
        with pytest.raises(ValueError):
            cache._parse_value(bad)


def test_cache_rejects_files_that_fail_their_header(tmp_path):
    from leibhom import cache
    cdir = str(tmp_path)
    fp = "f" * 64
    mat = SparseMatrix(3, 2, [{0: 4, 2: -7}, {1: Fraction(-3, 5)}])
    path = cache.boundary_path(cdir, fp, "CHH", 1)
    cache.save_boundary(cdir, fp, "CHH", 1, mat)
    head, *body = open(path).read().splitlines(keepends=True)
    assert head.split() == ["leibhom-boundary", "1", fp, "CHH", "1", "3", "2",
                            "3", hashlib.sha256("".join(body).encode())
                            .hexdigest()]
    cache.reset_counters()
    assert cache.load_boundary(cdir, fp, "CHH", 1, 3, 2) == mat
    # another shape, another full fingerprint behind the same file name,
    # a headerless body, a dropped line, a changed value, a bad value
    tampered = [
        (head, body, (3, 3), fp),
        (head, body, (3, 2), fp[:16] + "e" * 48),
        ("", body, (3, 2), fp),
        (head, body[1:], (3, 2), fp),
        (head, body[:2] + ["1 1 -3/4\n"], (3, 2), fp),
        (head, body[:2] + ["1 1 x\n"], (3, 2), fp),
    ]
    for k, (h, b, (rows, cols), want_fp) in enumerate(tampered):
        with open(path, "w") as fh:
            fh.write(h + "".join(b))
        assert cache.load_boundary(cdir, want_fp, "CHH", 1, rows, cols) is None
        assert cache.COUNTERS["rejects"] == k + 1
    assert cache.COUNTERS["hits"] == 1 and cache.COUNTERS["misses"] == 0


def test_build_complex_ranks_each_shared_boundary_once(monkeypatch):
    import leibhom.homology as homology
    ranked = []
    real = homology.rank_only

    def counting(M):
        ranked.append(M)
        return real(M)

    monkeypatch.setattr(homology, "rank_only", counting)
    A = builtin_algebra("dual")
    clear_registry()
    first = build_complex(A, "CHH", 4)
    bettis = [first.betti(n) for n in range(4)]
    assert len(ranked) == 4 and len({id(M) for M in ranked}) == 4
    # a second complex over the same boundaries reads the shared ranks,
    # also through the solver, which cross-checks them
    again = build_complex(A, "CHH", 4)
    assert [again.betti(n) for n in range(4)] == bettis
    assert again.homology(2).representatives
    assert build_complex(A, "CHH", 2).betti(1) == bettis[1]
    assert len(ranked) == 4
    # a complex built by hand keeps its own memo
    by_hand = ChainComplex("CHH", again.dims, again.boundaries)
    assert [by_hand.betti(n) for n in range(4)] == bettis
    assert len(ranked) == 8
    # clear_registry() forgets the ranks along with the matrices
    clear_registry()
    fresh = build_complex(A, "CHH", 4)
    assert [fresh.betti(n) for n in range(4)] == bettis
    assert len(ranked) == 12
    assert all(fresh.boundary(n) is not first.boundary(n) for n in (1, 2, 3, 4))
    clear_registry()


def test_boundary_matrix_consistent_with_build_complex():
    A = builtin_algebra("truncated_poly:3")
    C = build_complex(A, "CLAMBDA", 3)
    for n in range(1, 4):
        assert boundary_matrix(A, "CLAMBDA", n) == C.boundary(n)
