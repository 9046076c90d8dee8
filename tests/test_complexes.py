"""Boundary generators checked against independent dense oracles."""

import hashlib
import itertools
import math
import os
from fractions import Fraction

import pytest

from leibhom import cache
from leibhom.algebra import (builtin_algebra, matrix_algebra,
                             multiply_coords)
from leibhom.complexes import (KINDS, KahlerModule, ResourceBoundExceeded,
                               Session, basis_labels, boundary_column_fn,
                               boundary_matrix, build_complex, check_bound,
                               cyclic_quotient, degree_dim, index_tuple,
                               tuple_index, verify_d2_streamed, wedge_basis)
from leibhom.homology import ChainComplex, verify_boundary_squares
from leibhom.linalg import SparseMatrix
from leibhom.perms import cyclic_class, cyclic_index, face_cyclic
from leibhom.serialize import load_algebra, save_algebra


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


def cycle_set_oracle_column(A, n, jidx):
    """P: the sum over i of (-1)^i face_cyclic(sigma, i) x (i-th Hochschild face)."""
    d = A.dim
    s, x = divmod(jidx, d ** (n + 1))
    sigma = cyclic_class(n + 1)[s]
    t = index_tuple(x, d, n + 1)
    out = {}
    for i in range(n + 1):
        base = cyclic_index(n)[face_cyclic(sigma, i)] * d ** n
        if i < n:
            fused = multiply_coords(A, {t[i]: Fraction(1)}, {t[i + 1]: Fraction(1)})
        else:
            fused = multiply_coords(A, {t[n]: Fraction(1)}, {t[0]: Fraction(1)})
        for k, c in fused.items():
            nt = t[:i] + (k,) + t[i + 2:] if i < n else (k,) + t[1:n]
            pos = base + tuple_index(nt, d)
            out[pos] = out.get(pos, Fraction(0)) + (-1) ** i * c
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("name,maxn", [("dual", 3), ("s3", 3)])
def test_cycle_set_boundary_matches_oracle(name, maxn):
    A = builtin_algebra(name)
    for n in range(1, maxn + 1):
        fn = boundary_column_fn(A, "P", n)
        for j in range(degree_dim(A, "P", n)):
            assert fn(j) == cycle_set_oracle_column(A, n, j), (n, j)


def columns_digest(A, kind, n):
    """sha256 over every column of d_n, entries sorted, values as reduced p/q."""
    fn = boundary_column_fn(A, kind, n)
    h = hashlib.sha256()
    for j in range(degree_dim(A, kind, n)):
        h.update(("%d:%s;" % (j, ",".join(
            "%d=%s" % (r, Fraction(v)) for r, v in sorted(fn(j).items())))).encode())
    return h.hexdigest()


# columns_digest of d_1, d_2, ... for CL, CHH, P and L. L has no independent
# oracle here, so these pins are what guard its generator.
PINNED_COLUMNS = {
    ("dual", "CL"): (
        "95be64bfc138a94992d9af8f944263b3c0e934f6069a718869b3d232d9f442e8",
        "bee3a810c2ae1d3584081e5bd3e2f89b80aa5fa63ffe660b0f754c8eac27bf96",
        "162002140057c14581f23ea0bc6308adb644ca9ee07dbed73c00f29de609ee81",
        "c4be00dd70a06398dea35c33ef0fb319f0c632e175b892b01cc5013ecae288df",
    ),
    ("dual", "CHH"): (
        "bee3a810c2ae1d3584081e5bd3e2f89b80aa5fa63ffe660b0f754c8eac27bf96",
        "34ddda8ff2d6ae30ef4085c1eb101deb4754fd2affc02ed4959e85350787c606",
        "d3a38bec245c167e86af5d037fddf2dd5489ab617747106179b1fcddf59d680f",
        "f24b147709157f8945d545cea7bce59988ea659d5d018ed62daa03396d20e5ab",
    ),
    ("dual", "P"): (
        "bee3a810c2ae1d3584081e5bd3e2f89b80aa5fa63ffe660b0f754c8eac27bf96",
        "cc7dc4ed9fcec4bec2eb4bb7f9e5c9e780961c2492fea4e5c23f080ede700ad0",
        "b25d3211dd976b1454c6729df065397cd4e5ca7a949a89f4493448b451d27c62",
        "806a3e092e98ebc2f4b54fdce5c586bea02aeedb17992b855ffaa4dcf4b0ed2b",
    ),
    ("dual", "L"): (
        "95be64bfc138a94992d9af8f944263b3c0e934f6069a718869b3d232d9f442e8",
        "162002140057c14581f23ea0bc6308adb644ca9ee07dbed73c00f29de609ee81",
        "d6dc5d0840c69d69bf3f9bb12dd1c541e36802cddf775f6a125a5ae59220a035",
        "3d04b424902ca8420fa169ca094207d65f87f3347f496b6d8a11420649e743f8",
    ),
    ("s3", "CL"): (
        "4d0abf09e1a346c2cce4b4f00e11d4b8a280230f9464518b725b6d94a077f287",
        "dcafebfefe2adf1c8de804d151960bab0c7daf544c618540ac23d3b2fc5e3f77",
        "4f76e65dcf13d92131eaf3f09ecddc984c0a6891b74411518e51a05c83deeda0",
    ),
    ("s3", "CHH"): (
        "dcafebfefe2adf1c8de804d151960bab0c7daf544c618540ac23d3b2fc5e3f77",
        "cef1b46db2eb1fa83fa53ed112833b6bca477cc7419858c4c8c87948e075a5ed",
        "1b460f3bcd45dfbfcb5ee926fb11936d32ea7ca48c6b7648413bef03320452bc",
    ),
    ("s3", "P"): (
        "dcafebfefe2adf1c8de804d151960bab0c7daf544c618540ac23d3b2fc5e3f77",
        "ce8dee39bcf9e5b6943ec4b812b29ea57b0ed0d543128675d7f5c9feb822cc3f",
        "fa3bb47cd5e9e34f784972a2b66ec734a021412bd21ebf9e011f0d3cb6afade6",
    ),
    ("s3", "L"): (
        "4d0abf09e1a346c2cce4b4f00e11d4b8a280230f9464518b725b6d94a077f287",
        "0d065471b1153c549af279bafb3a508ea7adf1ea6b0685ce8f643179c9377eda",
        "516fb2f37e4e8c52c47fac9804f2cb7b4511ee3c227c37074fe497632ff6c993",
    ),
    ("gl2dual.json", "CL"): (
        "162002140057c14581f23ea0bc6308adb644ca9ee07dbed73c00f29de609ee81",
        "244400ac54877572cd308168d9dbe6749e6ced5b81088f8a65116ae4233ca695",
        "09fec2bedbae91d082d876e7f80d0d9194a0d20da9a07c4a1a3114c6729c5bfc",
    ),
    ("gl2dual.json", "CHH"): (
        "244400ac54877572cd308168d9dbe6749e6ced5b81088f8a65116ae4233ca695",
        "c7ba1af64c8ea4471ee4ccc598905ba453dcd91b6ebce5b1398d786f0e1d6d07",
        "0ac1dbf2e7ed7aa658420311b2052374b72446e3950e86bfe359815e3e532ee4",
    ),
    ("gl2dual.json", "P"): (
        "244400ac54877572cd308168d9dbe6749e6ced5b81088f8a65116ae4233ca695",
        "58f6ff9583e52a2d38b93c209b60f7ace7a9fd1f9ee2daf94c519becbea643cd",
        "378ffb28910623036e379d89a721657ab2588a9564d7bb1eae4b93189a6e6970",
    ),
    ("gl2dual.json", "L"): (
        "162002140057c14581f23ea0bc6308adb644ca9ee07dbed73c00f29de609ee81",
        "24c3db8e2771f2823536ab664c2a9ac45765f1ce004ba61ccc50d24d2776940d",
        "50e77197060fea7fea61a7c360143c358ed227a7f8ab4b89d0aeefcb557cde07",
    ),
}


@pytest.fixture(scope="module")
def pinned_algebras(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pin") / "gl2dual.json")
    save_algebra(matrix_algebra(builtin_algebra("dual"), 2), path)
    return {"dual": builtin_algebra("dual"), "s3": builtin_algebra("s3"),
            "gl2dual.json": load_algebra(path)}


@pytest.mark.parametrize("name,maxn", [("dual", 4), ("s3", 3), ("gl2dual.json", 3)])
@pytest.mark.parametrize("kind", ["CL", "CHH", "P", "L"])
def test_generated_columns_are_pinned(pinned_algebras, name, maxn, kind):
    A = pinned_algebras[name]
    got = tuple(columns_digest(A, kind, n) for n in range(1, maxn + 1))
    assert got == PINNED_COLUMNS[name, kind]


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
        build_complex(A, "CHH", 5, Session(max_dim=1000))


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
        km = KahlerModule(builtin_algebra(name))
        assert km.dim1 == want, name
    with pytest.raises(ValueError):
        KahlerModule(builtin_algebra("s3"))


def test_kahler_differential_is_derivation():
    # basis of truncated_poly:3 is 1, x, x^2; d(x^k) = k x^(k-1) dx
    km = KahlerModule(builtin_algebra("truncated_poly:3"))
    assert km.diff_coords(0) == {}
    assert km.diff_coords(1) == km.project1({0: Fraction(1)})
    assert km.diff_coords(2) == km.project1({1: Fraction(2)})
    assert km.omega_dim(0) == 3 and km.omega_dim(1) == 2 and km.omega_dim(2) == 0


def test_kahler_omega1_is_the_cokernel_of_rprime():
    # truncated_poly:3 = Q[x]/(x^3): r'(x) = 3x^2, so Omega^1 = A/(x^2) on
    # 1.dx, x.dx, and x^2 dx = 0
    km = KahlerModule(builtin_algebra("truncated_poly:3"))
    assert km.rep_indices == [0, 1]
    assert km.project1({2: Fraction(5)}) == {}
    assert km.project1({0: Fraction(1, 2), 1: 3, 2: 7}) == {0: Fraction(1, 2), 1: 3}
    assert km.diff_coords(2) == {1: 2}
    # dual = Q[eps]/(eps^2): r' = 2 eps, so Omega^1 = Q deps
    km = KahlerModule(builtin_algebra("dual"))
    assert km.rep_indices == [0]
    assert km.project1({1: 1}) == {} and km.diff_coords(1) == {0: 1}


def test_registry_and_file_cache(tmp_path):
    A = builtin_algebra("dual")
    cdir = str(tmp_path)
    session = Session(cache_dir=cdir)
    M1 = boundary_matrix(A, "CHH", 2, session)
    assert session.cache_counts == {"hits": 0, "misses": 1, "writes": 1,
                                    "rejects": 0}
    # the session's registry absorbs the second request, no new file traffic
    M2 = boundary_matrix(A, "CHH", 2, session)
    assert M2 is M1
    assert session.cache_counts["hits"] == 0
    # a new session reads the file back
    later = Session(cache_dir=cdir)
    M3 = boundary_matrix(A, "CHH", 2, later)
    assert later.cache_counts == {"hits": 1, "misses": 0, "writes": 0,
                                  "rejects": 0}
    assert M3 == M1 and M3 is not M1
    # an uncached build neither reads nor writes the cache
    M4 = boundary_matrix(A, "CHH", 3, later, cached=False)
    assert later.cache_counts["hits"] == 1
    assert later.cache_counts["misses"] == 0
    assert not os.path.exists(
        cache.boundary_path(cdir, A.fingerprint(), "CHH", 3))
    assert boundary_matrix(A, "CHH", 3, later) is M4


def test_cache_values_round_trip_and_bad_values_raise(tmp_path):
    cdir = str(tmp_path)
    mat = SparseMatrix(3, 2, [{0: 4, 2: -7}, {1: Fraction(-3, 5),
                                              2: Fraction(1, 2)}])
    counts = Session().cache_counts
    cache.save_boundary(cdir, "f" * 16, "CHH", 1, mat, counts)
    back = cache.load_boundary(cdir, "f" * 16, "CHH", 1, 3, 2, counts)
    assert back == mat
    assert type(back.entry(0, 0)) is int and back.entry(2, 0) == -7
    assert back.entry(1, 1) == Fraction(-3, 5)
    assert type(back.entry(2, 1)) is Fraction
    for bad in ("1.5", "1/0", "x"):
        with pytest.raises(ValueError):
            cache._parse_value(bad)


def test_cache_rejects_files_that_fail_their_header(tmp_path):
    cdir = str(tmp_path)
    fp = "f" * 64
    mat = SparseMatrix(3, 2, [{0: 4, 2: -7}, {1: Fraction(-3, 5)}])
    path = cache.boundary_path(cdir, fp, "CHH", 1)
    cache.save_boundary(cdir, fp, "CHH", 1, mat, Session().cache_counts)
    head, *body = open(path).read().splitlines(keepends=True)
    assert head.split() == ["leibhom-boundary", "1", fp, "CHH", "1", "3", "2",
                            "3", hashlib.sha256("".join(body).encode())
                            .hexdigest()]
    session = Session(cache_dir=cdir)
    counts = session.cache_counts
    assert cache.load_boundary(cdir, fp, "CHH", 1, 3, 2, counts) == mat
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
        assert cache.load_boundary(cdir, want_fp, "CHH", 1, rows, cols,
                                   counts) is None
        assert counts["rejects"] == k + 1
    assert counts["hits"] == 1 and counts["misses"] == 0


def test_build_complex_ranks_each_shared_boundary_once(monkeypatch):
    import leibhom.homology as homology
    ranked = []
    real = homology.rank_only

    def counting(M):
        ranked.append(M)
        return real(M)

    monkeypatch.setattr(homology, "rank_only", counting)
    A = builtin_algebra("dual")
    session = Session()
    first = build_complex(A, "CHH", 4, session)
    bettis = [first.betti(n) for n in range(4)]
    assert len(ranked) == 4 and len({id(M) for M in ranked}) == 4
    # a second complex over the same boundaries reads the shared ranks,
    # also through the solver, which cross-checks them
    again = build_complex(A, "CHH", 4, session)
    assert [again.betti(n) for n in range(4)] == bettis
    assert again.homology(2).representatives
    assert build_complex(A, "CHH", 2, session).betti(1) == bettis[1]
    assert len(ranked) == 4
    # a complex built by hand keeps its own memo
    by_hand = ChainComplex("CHH", again.dims, again.boundaries)
    assert [by_hand.betti(n) for n in range(4)] == bettis
    assert len(ranked) == 8
    # a fresh session forgets the ranks along with the matrices
    fresh = build_complex(A, "CHH", 4, Session())
    assert [fresh.betti(n) for n in range(4)] == bettis
    assert len(ranked) == 12
    assert all(fresh.boundary(n) is not first.boundary(n) for n in (1, 2, 3, 4))


def test_sessions_share_no_boundaries_ranks_or_counts(tmp_path, monkeypatch):
    import leibhom.homology as homology
    ranked = []
    real = homology.rank_only
    monkeypatch.setattr(homology, "rank_only",
                        lambda M: ranked.append(M) or real(M))
    A = builtin_algebra("dual")
    cdir = str(tmp_path)
    one, two = Session(cache_dir=cdir), Session(cache_dir=cdir)
    C1 = build_complex(A, "CHH", 3, one)
    assert [C1.betti(n) for n in range(3)] == [2, 1, 1]
    assert len(ranked) == 3
    assert one.cache_counts == {"hits": 0, "misses": 3, "writes": 3,
                                "rejects": 0}
    C2 = build_complex(A, "CHH", 3, two)
    assert [C2.betti(n) for n in range(3)] == [2, 1, 1]
    assert len(ranked) == 6
    assert two.cache_counts == {"hits": 3, "misses": 0, "writes": 0,
                                "rejects": 0}
    assert one.cache_counts["hits"] == 0
    assert all(C1.boundary(n) is not C2.boundary(n) for n in (1, 2, 3))
    assert one.ranks is not two.ranks
    # without a session, every build starts from nothing
    for _ in range(2):
        C = build_complex(A, "CHH", 3)
        assert [C.betti(n) for n in range(3)] == [2, 1, 1]
    assert len(ranked) == 12


def test_boundary_matrix_consistent_with_build_complex():
    A = builtin_algebra("truncated_poly:3")
    C = build_complex(A, "CLAMBDA", 3)
    for n in range(1, 4):
        assert boundary_matrix(A, "CLAMBDA", n) == C.boundary(n)
