"""Boundary generators checked against independent dense oracles."""

import functools
import hashlib
import itertools
import math
import os
import random
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from leibhom import cache, complexes, linalg
from leibhom.algebra import (BUILTIN_NAMES, Algebra, builtin_algebra,
                             matrix_algebra, multiply_coords,
                             validate_algebra)
from leibhom.complexes import (KINDS, KahlerModule, ResourceBoundExceeded,
                               Session, _derived, _l_transport_terms,
                               basis_labels,
                               boundary_column_fn, boundary_matrix,
                               boundary_rank,
                               build_complex, check_bound, cyclic_quotient,
                               degree_dim, index_tuple, tuple_index,
                               verify_d2_streamed, wedge_basis)
from leibhom.homology import ChainComplex, verify_boundary_squares
from leibhom.linalg import SparseMatrix, rank_only
from leibhom.perms import (cyclic_class, cyclic_index, face_cyclic,
                           symmetric_group)
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


# columns_digest of d_1, d_2, ... for CL, CHH, P and L, and for the derived
# kinds CLAMBDA, CE, CE_ADJ and BAR. L and the derived kinds have no
# independent oracle here, so these pins are what guard their generators.
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
    ("dual", "CLAMBDA"): (
        "5578a44007e3068dbfa7e9b12b3945764ebf2160b21e7360a47ecfa3dc4133fa",
        "b73d706baad912b4c8a29665f1ca5c68b95d8a27983acca06ba6a2b96943da3f",
        "5d4ad1d4438f5adf0f40e3c1bb1ddb9509fcb63b27da564fea7bc27ae7a5530a",
        "b9b59f6e9f3d0455165fcfddb53071fe7b328841a9d942523fabe43803d9544f",
    ),
    ("dual", "CE"): (
        "95be64bfc138a94992d9af8f944263b3c0e934f6069a718869b3d232d9f442e8",
        "5578a44007e3068dbfa7e9b12b3945764ebf2160b21e7360a47ecfa3dc4133fa",
    ),
    ("dual", "CE_ADJ"): (
        "bee3a810c2ae1d3584081e5bd3e2f89b80aa5fa63ffe660b0f754c8eac27bf96",
        "95be64bfc138a94992d9af8f944263b3c0e934f6069a718869b3d232d9f442e8",
    ),
    ("s3", "CLAMBDA"): (
        "e5d2077b00a681bb3e6d6b914c21c0d60f4007b52f8c2786bb26cce06f37ec63",
        "009a3c0a238d6ca4ac6c19bccacff02b9e7c6652c68a71836cda94d40407a486",
        "5d029244a42a6dce0a734270dc029c16df57b2a9a7ceb9b80940e2b060a95355",
        "ffc4d2e54bc02281227c4a731de5b0dd7e6dba7f5ade02721630c897422ada7b",
    ),
    ("s3", "CE"): (
        "4d0abf09e1a346c2cce4b4f00e11d4b8a280230f9464518b725b6d94a077f287",
        "e5d2077b00a681bb3e6d6b914c21c0d60f4007b52f8c2786bb26cce06f37ec63",
        "3d38fe639ca9fb52aa9f68e08f3bdbbd7a31b7cba4c7a0f27b2b2499bbc32a2d",
        "00be6c9ebf85349e1bab4a05bd25b12ff2d33a79be46d390ea580fb7c0954561",
    ),
    ("s3", "CE_ADJ"): (
        "dcafebfefe2adf1c8de804d151960bab0c7daf544c618540ac23d3b2fc5e3f77",
        "1c6ccf561429192aacb83acbb389970d15d4cf3b5498587ea830866f5ac96752",
        "394cc61ca91f90707b4ae08cdeade9739c171babe4dae99facbf9a5ce09015b2",
        "f8073f55f72121efb8f35e8b2eaa9c2ffe629495f38cd3f2f31b2bbe024aa172",
    ),
    ("gl2dual.json", "CLAMBDA"): (
        "a39de9da13c2c2a60d10206cc85f3c1179a9fc9a19a515f1f577904826eae879",
        "4f3b4b8710243300340027845d70b34d2e78cb910b95ab6c66fd89cee1e34f52",
        "8570ee49029b6d69d81d7393cdf5831be17f26a8de8dd10f1926eb0c47c25abb",
    ),
    ("gl2dual.json", "CE"): (
        "162002140057c14581f23ea0bc6308adb644ca9ee07dbed73c00f29de609ee81",
        "a39de9da13c2c2a60d10206cc85f3c1179a9fc9a19a515f1f577904826eae879",
        "02ff6f31555e7e988ace2efe233ef9268202ee60af99c3e55a2329c17854b773",
        "bb4885c817d4ad8e9144c8a3a220a148d563330d24b201b443de56cdeaa5b13e",
    ),
    ("gl2dual.json", "CE_ADJ"): (
        "244400ac54877572cd308168d9dbe6749e6ced5b81088f8a65116ae4233ca695",
        "41c898ac93b09cbb3175929a5370737f3bc5d623c46345009f8011e4492e3a61",
        "bfebfb200ae2390363e8072e0b7b58c70e47b66c9a69fc75223883323ae492d7",
        "0e288d84499a9025ba63d9711769b318d13cd0435ff289da3603966a1622e521",
    ),
    ("cyclic:3", "BAR"): (
        "1cc8fe743c99ade50c247bcbc36469f03f3d95d8888062062d3c7ac6b6e3d2c0",
        "cb330ba046ab9ab1a1ce8285cfa5fe24944f46b6bb4864cd004a9bdfdd2e0360",
        "a10b461b04735478ce90e0d776af671dbed3fa260fc94c3098cc309975b8c825",
        "dc687396cc92311fd4e21120e9563a2028c899ee998f67eb47be2ea9de6f9d4b",
    ),
    ("s3", "BAR"): (
        "4d0abf09e1a346c2cce4b4f00e11d4b8a280230f9464518b725b6d94a077f287",
        "8cadf3d776300094a557b153fa07c89f390040a9df0432921a14d8cc009d4e96",
        "fa22658887481f06890cc07d3b3bbe6c4b5e544c8d4ece888a1018ab4753074a",
        "c7a77cf85a4cfd335fe3c235cd1f9a7727559d11791d15a97b8f15fb1f51fa71",
    ),
}


@pytest.fixture(scope="module")
def pinned_algebras(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pin") / "gl2dual.json")
    save_algebra(matrix_algebra(builtin_algebra("dual"), 2), path)
    return {"dual": builtin_algebra("dual"), "s3": builtin_algebra("s3"),
            "gl2dual.json": load_algebra(path),
            "cyclic:3": builtin_algebra("cyclic:3")}


@pytest.mark.parametrize("name,maxn", [("dual", 4), ("s3", 3), ("gl2dual.json", 3)])
@pytest.mark.parametrize("kind", ["CL", "CHH", "P", "L"])
def test_generated_columns_are_pinned(pinned_algebras, name, maxn, kind):
    A = pinned_algebras[name]
    got = tuple(columns_digest(A, kind, n) for n in range(1, maxn + 1))
    assert got == PINNED_COLUMNS[name, kind]


def test_l_transport_terms_are_pinned():
    # every term of the L boundary's permutation part on S_1..S_6, term
    # order included: the generated L columns follow it, dict order too
    got = repr([(s, _l_transport_terms(s))
                for n in range(1, 7) for s in symmetric_group(n)])
    assert hashlib.sha256(got.encode()).hexdigest() == \
        "fe5a40f7be90c49fb3af81f5b6f7501442fe9838cd711adc8829cf3728ee4e23"


@pytest.mark.parametrize("name,kind", [
    key for key in PINNED_COLUMNS if key[1] in ("CLAMBDA", "CE", "CE_ADJ", "BAR")])
def test_derived_columns_are_pinned(pinned_algebras, name, kind):
    A = pinned_algebras[name]
    want = PINNED_COLUMNS[name, kind]
    got = tuple(columns_digest(A, kind, n) for n in range(1, len(want) + 1))
    assert got == want


@pytest.mark.parametrize("name,kind", [
    ("dual", "CLAMBDA"), ("truncated_poly:3", "CLAMBDA"), ("s3", "CLAMBDA"),
    ("dual", "CE"), ("s3", "CE"), ("dual", "CE_ADJ"), ("s3", "CE_ADJ"),
    ("cyclic:3", "BAR"), ("s3", "BAR")])
def test_derived_projection_splits_its_section(name, kind):
    # the premise of every derived boundary: proj o section = id, with the
    # section landing in the parent's degree
    A = builtin_algebra(name)
    for n in range(5):
        parent, m, section, proj = _derived(A, kind, n)
        for j in range(degree_dim(A, kind, n)):
            x = section(j)
            assert 0 <= x < degree_dim(A, parent, m)
            assert proj(x) == (1, j), (n, j)


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


def test_clambda_is_gated_on_its_own_dimension():
    # s3 CLAMBDA_4 has 1560 columns over 6^5 = 7776 tensors
    C = build_complex(builtin_algebra("s3"), "CLAMBDA", 4,
                      Session(max_dim=2000))
    assert C.dims == [6, 15, 76, 330, 1560]
    assert [C.betti(n) for n in range(4)] == [3, 0, 3, 0]
    with pytest.raises(ResourceBoundExceeded) as exc:
        check_bound(builtin_algebra("s3"), "CLAMBDA", 4, 1559)
    assert exc.value.size == 1560


def test_cyclic_homology_is_morita_invariant():
    # HC_n(M_2(dual)) = HC_n(dual) (Loday, Cyclic Homology 2.2.9); M_2(dual)
    # CLAMBDA_5 has 43624 columns over 8^6 = 262144 tensors
    dual = builtin_algebra("dual")
    for A in (dual, matrix_algebra(dual, 2)):
        C = build_complex(A, "CLAMBDA", 5)
        assert [C.betti(n) for n in range(5)] == [2, 0, 2, 0, 2], A.name


def _inverse(P):
    """The inverse of the square Fraction matrix P, or None if P is
    singular (Gauss-Jordan)."""
    d = len(P)
    rows = [list(row) + [Fraction(int(i == k)) for k in range(d)]
            for i, row in enumerate(P)]
    for c in range(d):
        p = next((r for r in range(c, d) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return [row[d:] for row in rows]


def _conjugated(A, seed):
    """A written in the basis f_a = sum_i P[i][a] e_i, for a seeded random
    invertible P with small rational entries: f_a f_b is the product
    (P e_a)(P e_b) in A's table, written back through P^-1."""
    rng = random.Random(seed)
    d = A.dim
    Q = None
    while Q is None:
        P = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(d)] for _ in range(d)]
        Q = _inverse(P)

    def in_f(w):
        out = {c: sum(Q[c][k] * v for k, v in w.items()) for c in range(d)}
        return tuple((c, v) for c, v in out.items() if v)

    table = []
    for a in range(d):
        row = []
        for b in range(d):
            w = multiply_coords(A, {i: P[i][a] for i in range(d) if P[i][a]},
                                {j: P[j][b] for j in range(d) if P[j][b]})
            row.append(in_f(w))
        table.append(row)
    unit = dict(in_f(dict(enumerate(A.unit))))
    return Algebra(A.name + "^P", ["f%d" % a for a in range(d)],
                   [unit.get(c, 0) for c in range(d)], table)


@pytest.mark.parametrize("name,seed", [("dual", 1), ("cyclic:3", 2)])
def test_homology_is_invariant_under_a_change_of_basis(name, seed, tmp_path):
    """The CHH, CL and CLAMBDA bettis to degree 3 survive a random rational
    change of basis, and d.d = 0 holds on the Fraction-valued boundaries it
    gives, generated and read back from the cache."""
    A = builtin_algebra(name)
    B = _conjugated(A, seed)
    assert validate_algebra(B).ok and B.fingerprint() != A.fingerprint()
    cdir = str(tmp_path)
    for kind in ("CHH", "CL", "CLAMBDA"):
        want = [build_complex(A, kind, 4).betti(n) for n in range(4)]
        cold = Session(cache_dir=cdir)
        C = build_complex(B, kind, 4, cold)
        assert [C.betti(n) for n in range(4)] == want, kind
        assert verify_boundary_squares(C) == (True, None)
        # the bracket of a commutative algebra is zero, and so is its CL
        assert kind == "CL" or any(
            type(v) is Fraction and v.denominator != 1
            for d in C.boundaries[2:] for col in d.columns
            for v in col.values()), kind
        cold.save()
        warm = build_complex(B, kind, 4, Session(cache_dir=cdir))
        assert verify_boundary_squares(warm) == (True, None)
        assert all(type(d) is cache._Loaded for d in warm.boundaries[1:])


def test_cyclic_quotient_projection_consistent():
    for d, length in ((2, 2), (2, 3), (3, 3), (2, 4)):
        reps, proj = cyclic_quotient(d, length)
        reps = [index_tuple(x, d, length) for x in reps]
        rep_index = {r: pos for pos, r in enumerate(reps)}
        assert len(rep_index) == len(reps)
        n = length - 1
        eps = -1 if n % 2 else 1
        for t in itertools.product(range(d), repeat=length):
            image = proj(tuple_index(t, d))
            rot = (t[-1],) + t[:-1]
            rimage = proj(tuple_index(rot, d))
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
            assert proj(tuple_index(r, d)) == (1, rep_index[r])


def swept_cyclic_quotient(d, length):
    """Reference for cyclic_quotient: sweep every tensor in lex order, take
    each new orbit's first member as its representative, and tabulate the
    signed projection of every member. Returns (reps, proj table)."""
    n = length - 1
    eps = -1 if n % 2 else 1
    top = d ** n
    reps = []
    proj = [False] * (d ** length)  # False: not met yet
    for x in range(d ** length):
        if proj[x] is not False:
            continue
        # the rotation on tensor indices: the last digit becomes the first
        orbit = [x]
        cur = x // d + x % d * top
        while cur != x:
            orbit.append(cur)
            cur = cur // d + cur % d * top
        if eps == 1 or len(orbit) % 2 == 0:
            pos = len(reps)
            reps.append(x)
            s = 1
            for member in orbit:
                proj[member] = (s, pos)
                s *= eps
        else:
            for member in orbit:
                proj[member] = None
    return reps, proj


@pytest.mark.parametrize("d,length", [
    (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
    (2, 8), (3, 3), (3, 4), (3, 6), (3, 7), (4, 7), (6, 5), (6, 6), (8, 4),
    (9, 5)])
def test_cyclic_quotient_matches_the_sweep(d, length):
    reps, proj = cyclic_quotient(d, length)
    want_reps, want_proj = swept_cyclic_quotient(d, length)
    assert list(reps) == want_reps
    assert [proj(x) for x in range(d ** length)] == want_proj
    # degree_dim and basis_labels read only the dimension and basis names
    A = Algebra("names:%d" % d, ["e%d" % i for i in range(d)],
                [1] + [0] * (d - 1), [[()] * d for _ in range(d)])
    assert degree_dim(A, "CLAMBDA", length - 1) == len(want_reps)
    assert basis_labels(A, "CLAMBDA", length - 1) == [
        "[%s]" % "|".join("e%d" % i for i in index_tuple(x, d, length))
        for x in want_reps]


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


def _stream_d2(lower, fn, cols):
    """The column loop: the first column j with lower(fn(j)) != 0, or None."""
    return next((j for j in range(cols) if lower.apply(fn(j))), None)


@pytest.mark.parametrize("name", ["rationals", "dual", "truncated_poly:3",
                                  "split:2", "cyclic:3", "s3"])
@pytest.mark.parametrize("kind,n", [("CL", 3), ("CL", 4), ("CHH", 2),
                                    ("CHH", 4), ("L", 3), ("L", 4),
                                    ("P", 2), ("P", 3)])
def test_d2_certificate_proves_the_contraction_kinds(name, kind, n):
    A = builtin_algebra(name)
    assert complexes._d2_certified(boundary_column_fn(A, kind, n),
                                   boundary_column_fn(A, kind, n - 1))


def _mutations(parts):
    """Term lists with one part changed: each term's sign flipped, each term
    dropped, and the part's first two terms swapped (a change of order only)."""
    s = max(range(len(parts)), key=lambda s: len(parts[s]))
    part = list(parts[s])
    out = []
    for t, (i, j, swapped, sign, base) in enumerate(part):
        out.append(part[:t] + [(i, j, swapped, -sign, base)] + part[t + 1:])
        out.append(part[:t] + part[t + 1:])
    out.append([part[1], part[0]] + part[2:])
    return [list(parts[:s]) + [mutated] + list(parts[s + 1:]) for mutated in out]


@pytest.mark.parametrize("name", ["s3", "split:2"])
@pytest.mark.parametrize("kind,n", [("L", 3), ("L", 4), ("P", 3),
                                    ("CHH", 4), ("CL", 4)])
def test_d2_certificate_agrees_with_the_stream_on_mutated_terms(name, kind, n):
    """Every planted change of one part's terms: the certificate proves
    d.d = 0 exactly when the column stream finds no failing column."""
    A = builtin_algebra(name)
    lower = boundary_matrix(A, kind, n - 1)
    down = boundary_column_fn(A, kind, n - 1)
    table, m, parts = boundary_column_fn(A, kind, n).terms
    verdicts = []
    for mutated in _mutations(parts):
        up = complexes._contraction_column_fn(A.dim, table, m, mutated)
        certified = complexes._d2_certified(up, down)
        streamed = _stream_d2(lower, up, degree_dim(A, kind, n))
        assert certified == (streamed is None)
        verdicts.append(certified)
    # the order swap passes; over the noncommutative s3 some flip or drop fails
    assert verdicts[-1] and (name != "s3" or not all(verdicts))


def test_d2_certified_degree_generates_no_column(monkeypatch, tmp_path):
    """s3 P_4 is proved from the terms: no column of d_4 or of d_3 is
    generated, and d_3 is neither built nor read from the cache."""
    A = builtin_algebra("s3")
    calls = []

    def counting(A, kind, n):
        fn = boundary_column_fn(A, kind, n)

        def col(j):
            calls.append(n)
            return fn(j)
        return functools.update_wrapper(col, fn)

    monkeypatch.setattr(complexes, "boundary_column_fn", counting)
    cdir = str(tmp_path)
    for session in (None, Session(cache_dir=cdir)):
        assert verify_d2_streamed(A, "P", 4, session) is None
        assert calls == []
    session.save()
    assert session.boundaries == {} and os.listdir(cdir) == []
    assert session.cache_counts == {"hits": 0, "misses": 0, "writes": 0,
                                    "rejects": 0}


def test_a_cache_file_of_another_generator_is_rewritten_and_passes_d2(
        tmp_path, monkeypatch):
    """A file written under another generator digest is rejected, even when
    its body is sound, so a wrong d_{n-1} from other code is never read: the
    run rewrites the file with the generated d_{n-1} and d.d = 0 holds."""
    A = builtin_algebra("dual")
    lower = boundary_matrix(A, "P", 3)
    columns = [dict(col) for col in lower.columns]
    r = next(iter(columns[5]))
    columns[5][r] += 1
    wrong = SparseMatrix(lower.rows, lower.cols,
                         [{k: v for k, v in col.items() if v} for col in columns])
    assert _stream_d2(wrong, boundary_column_fn(A, "P", 4),
                      degree_dim(A, "P", 4)) is not None
    cdir = str(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(cache, "_generator_digest", lambda: "0" * 64)
        cache.save_boundary(cdir, A.fingerprint(), "P", 3, wrong, None,
                            Session().cache_counts)
    path = cache.boundary_path(cdir, A.fingerprint(), "P", 3)
    assert open(path, "rb").read().split()[2] == b"0" * 64
    generator = cache._generator_digest().encode()
    assert generator != b"0" * 64
    session = Session(cache_dir=cdir)
    assert boundary_matrix(A, "P", 3, session) == lower
    assert verify_d2_streamed(A, "P", 4, session) is None
    session.save()
    assert session.cache_counts == {"hits": 0, "misses": 0, "writes": 1,
                                    "rejects": 1}
    warm = Session(cache_dir=cdir)
    assert boundary_matrix(A, "P", 3, warm) == lower
    assert verify_d2_streamed(A, "P", 4, warm) is None
    assert warm.cache_counts["hits"] == 1 and warm.cache_counts["rejects"] == 0
    assert open(path, "rb").read().split()[2] == generator


def test_unreadable_generator_sources_trust_no_cache_file(tmp_path,
                                                         monkeypatch):
    """If a source cannot be read, the generator digest is a fresh random
    token, which no file written before holds."""
    monkeypatch.setattr(cache, "__file__", str(tmp_path / "cache.py"))
    tokens = {cache._generator_digest.__wrapped__() for _ in range(3)}
    assert len(tokens) == 3 and all(len(t) == 64 for t in tokens)
    assert cache._generator_digest() not in tokens


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
    assert session.cache_counts == {"hits": 0, "misses": 1, "writes": 0,
                                    "rejects": 0}
    assert not os.listdir(cdir)
    # the file is written once, at the end of the run
    session.save()
    session.save()
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
    later.save()
    assert later.cache_counts == {"hits": 1, "misses": 0, "writes": 0,
                                  "rejects": 0}
    assert not os.path.exists(
        cache.boundary_path(cdir, A.fingerprint(), "CHH", 3))
    assert boundary_matrix(A, "CHH", 3, later) is M4


def test_cache_values_round_trip_and_bad_values_raise(tmp_path):
    """Ints of either sign and any size, Fractions, empty columns and empty
    shapes load back equal and of the same types, each column in ascending
    row order, with the rank, or the missing rank, they were written with.
    Each distinct row index is one int object, also past CPython's cached
    small ints (the 600-row matrix repeats such rows across columns)."""
    cdir = str(tmp_path)
    mat = SparseMatrix(3, 2, [{0: 4, 2: -7}, {1: Fraction(-3, 5),
                                              2: Fraction(1, 2)}])
    counts = Session().cache_counts
    for k, m in enumerate([mat, SparseMatrix(4, 3, [
            {3: 5, 0: -2}, {}, {2: Fraction(7, 3), 1: 2 ** 70, 0: 5}]),
            SparseMatrix(3, 2, [{1: Fraction(-1, 2 ** 66), 0: -(2 ** 64) - 1},
                                {2: 1, 0: -1}]),
            SparseMatrix(5, 0, []), SparseMatrix(0, 0, []),
            SparseMatrix(0, 2, [{}, {}]),
            SparseMatrix(600, 6, [
                {r: Fraction(r, 600 + r) if r % 3 else r - 301
                 for r in range(c, 600, 4 + c)} for c in range(6)])]):
        rank = None if k % 2 else min(m.rows, m.cols)
        cache.save_boundary(cdir, "f" * 16, "CHH", k, m, rank, counts)
        back, back_rank = cache.load_boundary(cdir, "f" * 16, "CHH", k,
                                              m.rows, m.cols, counts)
        assert back == m and back_rank == rank
        assert [list(col) for col in back.columns] == [sorted(col)
                                                       for col in m.columns]
        assert [list(map(type, col.values())) for col in back.columns] == [
            [type(col[r]) for r in sorted(col)] for col in m.columns]
        assert len({id(r) for col in back.columns for r in col}) == \
            len({r for col in back.columns for r in col})
    assert counts == {"hits": 7, "misses": 0, "writes": 7, "rejects": 0}
    for bad in ("1.5", "1/0", "x"):
        with pytest.raises(ValueError):
            cache._parse_value(bad)


def _decoded(mat):
    """Whether mat's column dicts exist: a loaded boundary becomes a plain
    SparseMatrix when they are built."""
    return type(mat) is SparseMatrix


def _eager_columns(path):
    """The column dicts a cache file holds, decoded entry by entry."""
    data = open(path, "rb").read()
    head, _, palette, body = data.split(b"\n", 3)
    cols, nnz = map(int, head.split()[7:9])
    values = [int(f) if f.denominator == 1 else f
              for f in map(Fraction, palette.decode().split())]
    words = array("I", body)
    if sys.byteorder == "big":
        words.byteswap()
    columns, at = [], cols
    for size in words[:cols]:
        columns.append({})
        for i in range(at, at + size):
            columns[-1][words[i]] = values[words[i + nnz]]
        at += size
    return columns


def test_a_loaded_boundary_decodes_its_columns_on_first_read(tmp_path):
    """load_boundary checks a file whole but builds no column dict; the
    first read of the columns does, whichever call reads them. The columns
    are those an eager decode gives, in the file's order and of the
    palette's types, with one key object per row."""
    cdir, other = str(tmp_path / "a"), str(tmp_path / "b")
    mat = SparseMatrix(600, 6, [
        {r: Fraction(r, 600 + r) if r % 3 else r - 301
         for r in range(c, 600, 4 + c)} for c in range(6)])
    counts = Session().cache_counts
    cache.save_boundary(cdir, "f" * 16, "CHH", 2, mat, None, counts)
    path = cache.boundary_path(cdir, "f" * 16, "CHH", 2)
    eager = _eager_columns(path)
    assert eager == mat.columns

    def resaved(m):
        cache.save_boundary(other, "f" * 16, "CHH", 2, m, None, counts)
        return open(cache.boundary_path(other, "f" * 16, "CHH", 2),
                    "rb").read() == open(path, "rb").read()

    vec = {1: 3, 4: Fraction(-1, 2)}
    for read in (lambda m: m == mat, lambda m: m.nnz() == mat.nnz(),
                 lambda m: m.apply(vec) == mat.apply(vec),
                 lambda m: rank_only(m) == rank_only(mat), resaved):
        back, rank = cache.load_boundary(cdir, "f" * 16, "CHH", 2, 600, 6,
                                         counts)
        assert rank is None and not _decoded(back)
        assert read(back) and _decoded(back)
        assert [list(col.items()) for col in back.columns] == [
            list(col.items()) for col in eager]
        assert [list(map(type, col.values())) for col in back.columns] == [
            list(map(type, col.values())) for col in eager]
        assert len({id(r) for col in back.columns for r in col}) == \
            len({r for col in back.columns for r in col})
    assert counts == {"hits": 5, "misses": 0, "writes": 2, "rejects": 0}


def test_a_warm_d2_check_reads_real_boundaries_in_place(tmp_path):
    """s3's CHH to degree 4 from the cache a cold build filled: d.d passes
    and leaves every boundary undecoded. With one entry of d_4 changed in
    its file, the warm check names the column the same change fails at in
    memory."""
    A = builtin_algebra("s3")
    cdir = str(tmp_path)
    cold = Session(cache_dir=cdir)
    build_complex(A, "CHH", 4, cold)
    cold.save()
    warm = build_complex(A, "CHH", 4, Session(cache_dir=cdir))
    assert verify_boundary_squares(warm) == (True, None)
    assert all(type(d) is cache._Loaded for d in warm.boundaries[1:])

    plain = build_complex(A, "CHH", 4)
    d_3, d_4 = plain.boundaries[3:]
    # an entry in the second half of d_4 whose row d_3 does not kill
    j, r = next((j, r) for j in range(d_4.cols // 2, d_4.cols)
                for r in d_4.columns[j] if d_3.columns[r])
    columns = [dict(col) for col in d_4.columns]
    columns[j][r] *= 2
    mutated = SparseMatrix(d_4.rows, d_4.cols, columns)
    want = verify_boundary_squares(ChainComplex(
        "CHH", plain.dims, plain.boundaries[:4] + [mutated]))
    assert want == (False, (4, j))
    cache.save_boundary(cdir, A.fingerprint(), "CHH", 4, mutated, None,
                        Session().cache_counts)
    warm = build_complex(A, "CHH", 4, Session(cache_dir=cdir))
    assert verify_boundary_squares(warm) == want
    assert all(type(d) is cache._Loaded for d in warm.boundaries[1:])


def test_a_warm_appendix_run_leaves_the_unread_degree_undecoded(
        tmp_path, monkeypatch):
    """The appendix builds P to cutoff + 1 but reads no column of P_5 at
    cutoff 4: a warm verify over the cache a cold one filled loads P_5 of
    dual and split:2 without decoding it, and writes the cold report."""
    from leibhom import cli
    sessions = []
    real = cli._session
    monkeypatch.setattr(cli, "_session", lambda *args: sessions.append(
        real(*args)) or sessions[-1])

    def verify(out):
        assert cli.main(["verify", "--suite", "appendix", "--cutoff", "4",
                         "--cache", str(tmp_path / "cache"),
                         "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "report.json").read_bytes()

    assert verify("cold") == verify("warm")
    cold, warm = sessions
    assert cold.cache_counts["hits"] == warm.cache_counts["misses"] == 0
    assert warm.cache_counts["hits"] == cold.cache_counts["writes"] > 0
    for name in ("dual", "split:2"):
        key = (builtin_algebra(name).fingerprint(), "P", 5)
        assert not _decoded(warm.boundaries[key])
        assert warm.boundaries[key] == cold.boundaries[key]


def _binary_body(palette, sizes, rows, picks):
    """The body of formats 2 and 3, which format 4 prefixes with its rank
    line: the palette line, then the three uint32 arrays."""
    words = array("I", [*sizes, *rows, *picks])
    if sys.byteorder == "big":
        words.byteswap()
    return ("%s\n" % " ".join(palette)).encode() + words.tobytes()


def test_cache_rejects_files_that_fail_their_header(tmp_path):
    cdir = str(tmp_path)
    fp = "f" * 64
    mat = SparseMatrix(3, 2, [{0: 4, 2: -7}, {1: Fraction(-3, 5)}])
    path = cache.boundary_path(cdir, fp, "CHH", 1)
    cache.save_boundary(cdir, fp, "CHH", 1, mat, 2, Session().cache_counts)
    good = open(path, "rb").read()
    head, body = good[:good.index(b"\n") + 1], good[good.index(b"\n") + 1:]
    generator = cache._generator_digest().encode()
    assert head.split() == [b"leibhom-boundary", b"4", generator, fp.encode(),
                            b"CHH", b"1", b"3", b"2", b"3",
                            hashlib.sha256(body).hexdigest().encode()]
    palette, sizes, rows, picks = ["4", "-7", "-3/5"], [2, 1], [0, 2, 1], [
        0, 1, 2]
    old_body = _binary_body(palette, sizes, rows, picks)
    assert body == b"2\n" + old_body
    session = Session(cache_dir=cdir)
    counts = session.cache_counts
    assert cache.load_boundary(cdir, fp, "CHH", 1, 3, 2, counts) == (mat, 2)

    def resealed(body, nnz=3, generator=generator, fmt=b"4"):
        return (b"leibhom-boundary %s %s %s CHH 1 3 2 %d %s\n" % (
            fmt, generator, fp.encode(), nnz,
            hashlib.sha256(body).hexdigest().encode()), body)

    def forged(palette=palette, sizes=sizes, rows=rows, picks=picks,
               rank=b"2"):
        return resealed(rank + b"\n" + _binary_body(palette, sizes, rows,
                                                     picks))

    # another shape, another full fingerprint behind the same file name,
    # another generator digest, the format-3 header of the same body, the
    # format-3 file of the same matrix, a headerless body, a truncated body,
    # a changed value, a bad palette token, a changed rank; then bodies whose
    # header is resealed to match: a rank above min(rows, cols), a signed,
    # an empty and a non-numeric rank, no rank line, a stored zero, a row
    # out of range, a bad value, a word too many and a word too few, column
    # sizes that do not sum to the entry count, a row repeated within the
    # first and within the second column, rows descending within a column,
    # a palette index past the palette, a non-ASCII palette (the
    # Arabic-Indic digit four, which int() would read as 4)
    tampered = [
        (head, body, (3, 3), fp),
        (head, body, (3, 2), fp[:16] + "e" * 48),
        resealed(body, generator=b"e" * 64) + ((3, 2), fp),
        (head.replace(b"boundary 4 ", b"boundary 3 "), body, (3, 2), fp),
        resealed(old_body, fmt=b"3") + ((3, 2), fp),
        (b"", body, (3, 2), fp),
        (head, body[:-4], (3, 2), fp),
        (head, body.replace(b"-3/5", b"-3/4"), (3, 2), fp),
        (head, body.replace(b"-3/5", b"-3/x"), (3, 2), fp),
        (head, b"1" + body[1:], (3, 2), fp),
        forged(rank=b"3") + ((3, 2), fp),
        forged(rank=b"+1") + ((3, 2), fp),
        forged(rank=b"") + ((3, 2), fp),
        forged(rank=b"1_0") + ((3, 2), fp),
        resealed(old_body) + ((3, 2), fp),
        forged(palette=["4", "0", "-3/5"]) + ((3, 2), fp),
        forged(rows=[0, 3, 1]) + ((3, 2), fp),
        forged(palette=["4", "-7", "x"]) + ((3, 2), fp),
        resealed(body + bytes(4)) + ((3, 2), fp),
        resealed(body[:-4]) + ((3, 2), fp),
        forged(sizes=[2, 2]) + ((3, 2), fp),
        forged(rows=[0, 0, 1]) + ((3, 2), fp),
        forged(sizes=[1, 2], rows=[0, 1, 1]) + ((3, 2), fp),
        forged(rows=[2, 0, 1]) + ((3, 2), fp),
        forged(picks=[0, 1, 3]) + ((3, 2), fp),
        forged(palette=["\u0664", "-7", "-3/5"]) + ((3, 2), fp),
    ]
    for k, (h, b, (rows, cols), want_fp) in enumerate(tampered):
        with open(path, "wb") as fh:
            fh.write(h + b)
        assert cache.load_boundary(cdir, want_fp, "CHH", 1, rows, cols,
                                   counts) is None, k
        assert counts["rejects"] == k + 1
    assert counts["hits"] == 1 and counts["misses"] == 0
    # resealing the untouched body gives back the written header, and a
    # rank of 0, of min(rows, cols) or none at all loads; so does a column
    # whose first row is at or below the last row of the column before it
    assert resealed(body) == (head, body) == forged()
    for rank, want in ((b"0", 0), (b"2", 2), (b"-", None)):
        with open(path, "wb") as fh:
            fh.write(b"".join(forged(rank=rank)))
        assert cache.load_boundary(cdir, fp, "CHH", 1, 3, 2,
                                   counts) == (mat, want)
    for rows, second in (([0, 2, 2], {2: Fraction(-3, 5)}),
                         ([1, 2, 0], {0: Fraction(-3, 5)})):
        with open(path, "wb") as fh:
            fh.write(b"".join(forged(rows=rows)))
        assert cache.load_boundary(cdir, fp, "CHH", 1, 3, 2, counts) == (
            SparseMatrix(3, 2, [{rows[0]: 4, rows[1]: -7}, second]), 2)


def test_readme_shows_the_header_of_the_current_cache_format():
    """README's example header line names the format the cache writes."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    [line] = [line for line in readme.read_text(encoding="utf-8").splitlines()
              if line.startswith("leibhom-boundary ")]
    assert line.startswith(cache.FORMAT + " ")


def _counting_rank_only(monkeypatch):
    """The matrices boundary_rank ranks with rank_only, in call order."""
    ranked = []
    real = complexes.rank_only
    monkeypatch.setattr(complexes, "rank_only",
                        lambda M, skip: ranked.append(M) or real(M, skip))
    return ranked


def test_build_complex_ranks_each_shared_boundary_once(monkeypatch):
    import leibhom.homology as homology
    ranked = _counting_rank_only(monkeypatch)
    # a complex built by hand ranks its boundaries with homology's rank_only
    real = homology.rank_only
    monkeypatch.setattr(homology, "rank_only",
                        lambda M: ranked.append(M) or real(M))
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
    ranked = _counting_rank_only(monkeypatch)
    A = builtin_algebra("dual")
    cdir = str(tmp_path)
    one, two = Session(cache_dir=cdir), Session(cache_dir=cdir)
    C1 = build_complex(A, "CHH", 3, one)
    assert [C1.betti(n) for n in range(3)] == [2, 1, 1]
    assert len(ranked) == 3
    one.save()
    assert one.cache_counts == {"hits": 0, "misses": 3, "writes": 3,
                                "rejects": 0}
    C2 = build_complex(A, "CHH", 3, two)
    # the ranks come with the files one saved
    assert [C2.betti(n) for n in range(3)] == [2, 1, 1]
    assert len(ranked) == 3
    assert two.cache_counts == {"hits": 3, "misses": 0, "writes": 0,
                                "rejects": 0}
    assert one.cache_counts["hits"] == 0
    assert all(C1.boundary(n) is not C2.boundary(n) for n in (1, 2, 3))
    assert one.ranks is not two.ranks
    # without a session, every build starts from nothing
    for _ in range(2):
        C = build_complex(A, "CHH", 3)
        assert [C.betti(n) for n in range(3)] == [2, 1, 1]
    assert len(ranked) == 9


def test_a_warm_session_ranks_no_boundary_it_loaded(tmp_path, monkeypatch):
    """A cold session writes its cache-backed boundaries with their ranks
    when it saves; a warm one reads the ranks with the boundaries and ranks
    none of them, also through the solver, which cross-checks the stored
    ranks, and saves nothing."""
    ranked = _counting_rank_only(monkeypatch)
    cdir = str(tmp_path)
    cold = Session(cache_dir=cdir)
    algebras = [builtin_algebra("dual"), builtin_algebra("cyclic:3")]
    want = [[build_complex(A, kind, 4, cold).betti(n) for n in range(4)]
            for A in algebras for kind in ("CL", "CHH")]
    assert len(ranked) == 16
    assert not os.listdir(cdir)
    cold.save()
    assert cold.cache_counts["writes"] == 16
    assert sorted(os.listdir(cdir)) == sorted(
        os.path.basename(cache.boundary_path(cdir, A.fingerprint(), kind, n))
        for A in algebras for kind in ("CL", "CHH") for n in range(1, 5))
    cold.save()
    assert cold.cache_counts["writes"] == 16
    del ranked[:]
    warm = Session(cache_dir=cdir)
    got = []
    for A in algebras:
        for kind in ("CL", "CHH"):
            C = build_complex(A, kind, 4, warm)
            got.append([C.betti(n) for n in range(4)])
            assert C.homology(2).representatives is not None
    assert got == want and ranked == []
    warm.save()
    assert warm.cache_counts == {"hits": 16, "misses": 0, "writes": 0,
                                 "rejects": 0}


def test_a_file_saved_without_a_rank_is_rewritten_once_ranked(
        tmp_path, monkeypatch):
    """A boundary the run never ranked is saved with no rank. The run that
    loads and ranks it rewrites the file once, with the rank; after that no
    run ranks it, and no run but the ranking one writes it."""
    ranked = _counting_rank_only(monkeypatch)
    A = builtin_algebra("dual")
    cdir = str(tmp_path)
    path = cache.boundary_path(cdir, A.fingerprint(), "CHH", 3)
    cold = Session(cache_dir=cdir)
    boundary_matrix(A, "CHH", 3, cold)
    cold.save()
    assert ranked == [] and cold.cache_counts["writes"] == 1
    unranked = open(path, "rb").read()
    assert unranked.split(b"\n")[1] == b"-"
    # loaded and not ranked: nothing to write
    idle = Session(cache_dir=cdir)
    boundary_matrix(A, "CHH", 3, idle)
    idle.save()
    assert idle.cache_counts == {"hits": 1, "misses": 0, "writes": 0,
                                 "rejects": 0}
    assert open(path, "rb").read() == unranked
    runs = []
    for _ in range(3):
        session = Session(cache_dir=cdir)
        C = build_complex(A, "CHH", 3, session)
        assert [C.betti(n) for n in range(3)] == [2, 1, 1]
        session.save()
        runs.append((len(ranked), dict(session.cache_counts)))
        del ranked[:]
    # the first run ranks all three, d_3 from its file; it writes d_1, d_2
    # and rewrites d_3 with its rank
    assert runs == [
        (3, {"hits": 1, "misses": 2, "writes": 3, "rejects": 0}),
        (0, {"hits": 3, "misses": 0, "writes": 0, "rejects": 0}),
        (0, {"hits": 3, "misses": 0, "writes": 0, "rejects": 0})]
    ranked_file = open(path, "rb").read()
    assert ranked_file.split(b"\n")[1] == b"4"
    assert ranked_file.split(b"\n", 2)[2] == unranked.split(b"\n", 2)[2]


@pytest.mark.parametrize("tamper", ["body digest", "rank", "fingerprint",
                                    "kind", "degree", "truncated",
                                    "own digest", "format 3"])
def test_a_refused_rank_record_is_ranked_afresh_and_rewritten(
        tmp_path, monkeypatch, tamper):
    """The rank record of a boundary is the rank line of its .bnd file, and
    its body digest covers it. A file refused for any reason (its header,
    its digest, its length, a rank outside [0, min(rows, cols)], an older
    format) is assembled, ranked afresh and rewritten when the run saves."""
    ranked = _counting_rank_only(monkeypatch)
    A = builtin_algebra("dual")
    fp = A.fingerprint()
    cdir = str(tmp_path / "cache")
    cold = Session(cache_dir=cdir)
    bettis = [build_complex(A, "CHH", 3, cold).betti(n) for n in range(3)]
    cold.save()
    path = cache.boundary_path(cdir, fp, "CHH", 2)
    with open(path, "rb") as fh:
        good = fh.read()
    mat = cold.boundaries[(fp, "CHH", 2)]
    rank = cold.ranks[(fp, "CHH", 2)]
    assert 1 <= rank < min(mat.rows, mat.cols)
    head, body = good.split(b"\n", 1)
    fields = head.split(b" ")
    rank_line, rest = body.split(b"\n", 1)
    assert rank_line == b"%d" % rank

    def resealed(body, fmt=b"4"):
        return b" ".join([fields[0], fmt, *fields[2:-1],
                          hashlib.sha256(body).hexdigest().encode()]
                         ) + b"\n" + body

    def field(k, value):
        return b" ".join(fields[:k] + [value] + fields[k + 1:]) + b"\n" + body

    bad = {
        "body digest": lambda: field(9, b"0" * 64),
        "rank": lambda: resealed(b"%d\n" % (min(mat.rows, mat.cols) + 1)
                                 + rest),
        "fingerprint": lambda: field(3, fp[:16].encode() + b"0" * 48),
        "kind": lambda: field(4, b"CL"),
        "degree": lambda: field(5, b"3"),
        "truncated": lambda: good[:-9],
        "own digest": lambda: good.replace(b"\n%d\n" % rank,
                                           b"\n%d\n" % (rank - 1)),
        "format 3": lambda: resealed(rest, fmt=b"3"),
    }[tamper]()
    assert resealed(body) == good and bad != good
    with open(path, "wb") as fh:
        fh.write(bad)
    del ranked[:]
    warm = Session(cache_dir=cdir)
    C = build_complex(A, "CHH", 3, warm)
    assert [C.betti(n) for n in range(3)] == bettis
    assert ranked == [C.boundary(2)]
    warm.save()
    assert warm.cache_counts == {"hits": 2, "misses": 0, "writes": 1,
                                 "rejects": 1}
    with open(path, "rb") as fh:
        assert fh.read() == good


def test_a_session_refuses_a_bound_below_one():
    for bad in (0, -5):
        with pytest.raises(ValueError, match="max_dim"):
            Session(max_dim=bad)
    assert Session(max_dim=1).max_dim == 1


@pytest.mark.parametrize("name,kind", [
    (name, kind) for name in BUILTIN_NAMES for kind in KINDS
    if kind != "BAR" or builtin_algebra(name).group_meta is not None])
def test_boundary_rank_by_rows_is_rank_only(name, kind):
    """Ranked by rows from the generator, d_n has the rank rank_only gives
    the stored d_n, in every degree of at most 1500 columns (CE reaches the
    0 x 0 and 1 x 0 shapes past the dimension), and nothing is stored but
    P's boundaries, which are ranked stored."""
    A = builtin_algebra(name)
    session = Session()
    for n in range(1, 6):
        if degree_dim(A, kind, n) > 1500:
            break
        assert boundary_rank(A, kind, n, session) == rank_only(
            boundary_matrix(A, kind, n))[0]
    assert bool(session.boundaries) == (kind == "P")


def assert_built_rows_are_scattered_columns(A, kind, n):
    fn = boundary_column_fn(A, kind, n)
    rows, cols = degree_dim(A, kind, n - 1), degree_dim(A, kind, n)
    built = complexes._contraction_rows(fn.terms, rows, cols)
    assert built == complexes._scattered_rows(fn, rows, cols)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("kind", ["CL", "CHH", "L", "P"])
def test_contraction_rows_are_the_scattered_columns(name, kind):
    """The rows built from the terms are the generated columns scattered
    into rows, in every degree of at most 1500 columns, d_1 included: the
    d_1 of CL and L carries an empty term list and builds zero rows."""
    A = builtin_algebra(name)
    for n in range(1, 7):
        if degree_dim(A, kind, n) > 1500:
            break
        assert_built_rows_are_scattered_columns(A, kind, n)


def test_contraction_rows_of_cl_over_gl2_dual():
    A = matrix_algebra(builtin_algebra("dual"), 2)
    for n in range(2, 5):
        assert_built_rows_are_scattered_columns(A, "CL", n)


def test_contraction_rows_refuse_a_term_outside_the_rows():
    """A term whose rows leave range(rows) raises, above and below: a
    negative row would otherwise wrap round the row list silently."""
    A = builtin_algebra("s3")
    table, m, parts = boundary_column_fn(A, "CHH", 2).terms
    rows, cols = degree_dim(A, "CHH", 1), degree_dim(A, "CHH", 2)
    for shift in (-1, 1):
        moved = tuple(tuple(term[:4] + (term[4] + shift,) for term in part)
                      for part in parts)
        with pytest.raises(IndexError, match="leaves the 36 rows"):
            complexes._contraction_rows((table, m, moved), rows, cols)
    with pytest.raises(IndexError):
        complexes._contraction_rows((table, m, parts), rows - 1, cols)


def test_a_table_ranked_by_rows_generates_no_contraction_column(monkeypatch):
    """The betti tables of CL, CHH and L build their rows from the terms: no
    column function is called, d_1 included. CLAMBDA's rows are scattered
    from its generated columns."""
    from leibhom import cli
    A = builtin_algebra("s3")
    calls = []

    def counting(A, kind, n):
        fn = boundary_column_fn(A, kind, n)

        def col(j):
            calls.append((kind, n))
            return fn(j)
        return functools.update_wrapper(col, fn)

    monkeypatch.setattr(complexes, "boundary_column_fn", counting)
    for kind, generated in (("CL", set()), ("CHH", set()), ("L", set()),
                            ("CLAMBDA", {("CLAMBDA", n) for n in (1, 2, 3)})):
        del calls[:]
        session = Session()
        table = cli._betti_table(A, kind, 3, session)
        assert set(calls) == generated
        assert session.boundaries == {}
        C = build_complex(A, kind, 3)
        assert table["betti"] == [C.betti(n) for n in range(3)]


def conjugacy_classes(A):
    cay, e = A.group_meta["cayley"], A.group_meta["identity"]
    inv = [row.index(e) for row in cay]
    return {frozenset(cay[cay[h][g]][inv[h]] for h in range(len(cay)))
            for g in range(len(cay))}


@pytest.mark.parametrize("name,top", [("cyclic:2", 5), ("cyclic:3", 4),
                                      ("s3", 3)])
def test_hochschild_homology_of_a_group_algebra(name, top):
    """HH_*(Q[G]) is the sum over the conjugacy classes of the rational
    homology of their centralizers (Burghelea 1985), which for a finite
    group is Q in degree 0: HH_0 counts the classes and HH_n = 0 for n > 0.
    Taken through boundary_rank."""
    A = builtin_algebra(name)
    session = Session()
    ranks = [0] + [boundary_rank(A, "CHH", n, session)
                   for n in range(1, top + 2)]
    hh = [degree_dim(A, "CHH", n) - ranks[n] - ranks[n + 1]
          for n in range(top + 1)]
    assert hh == [len(conjugacy_classes(A))] + [0] * top
    assert hh[0] == {"cyclic:2": 2, "cyclic:3": 3, "s3": 3}[name]


@pytest.mark.parametrize("name,N,bettis", [
    ("rationals", 2, [1, 1, 0, 1, 1]),
    ("rationals", 3, [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]),
    ("dual", 2, [1, 2, 1, 2, 4, 2]),
    ("cyclic:2", 2, [1, 2, 1, 2, 4, 2]),
    ("dual", 3, [1, 2, 1, 2, 4]),
    ("dual", 4, [1, 2, 1, 2]),
    ("truncated_poly:3", 2, [1, 3, 3, 4, 9, 9]),
])
def test_lie_homology_of_gl_n(name, N, bettis):
    """The CE bettis of gl_N(A), taken through boundary_rank. H_*(gl_N(Q))
    is an exterior algebra on generators of degrees 1, 3, ..., 2N - 1
    (Hopf; Chevalley-Eilenberg 1948). Stably H_*(gl(A)) is the free graded
    commutative algebra on HC_{*-1}(A) (Loday-Quillen 1984, Tsygan 1983):
    1, 2, 1, 2, 4, 4 for dual and cyclic:2 (HC = 2, 0, 2, 0, ...) and
    1, 3, 3, 4, 9, 12 for truncated_poly:3 (HC = 3, 0, 3, 0, ...). Every
    degree pinned here agrees with that, except degree 5 at N = 2 (2 and
    9), which lies outside the stable range."""
    gl = matrix_algebra(builtin_algebra(name), N)
    session = Session()
    top = len(bettis)
    ranks = [0] + [boundary_rank(gl, "CE", n, session)
                   for n in range(1, top + 1)]
    assert [degree_dim(gl, "CE", n) - ranks[n] - ranks[n + 1]
            for n in range(top)] == bettis


def test_boundary_rank_reads_the_memo_then_the_stored_matrix():
    A = builtin_algebra("dual")
    session = Session()
    key = (A.fingerprint(), "CHH")
    session.boundaries[key + (2,)] = SparseMatrix.identity(4)
    session.ranks[key + (1,)] = 7
    assert boundary_rank(A, "CHH", 1, session) == 7
    assert boundary_rank(A, "CHH", 2, session) == 4
    assert boundary_rank(A, "CHH", 3, session) == 4
    assert session.ranks == {key + (1,): 7, key + (2,): 4, key + (3,): 4}
    assert set(session.boundaries) == {key + (2,)}


def _recording_skips(monkeypatch):
    """The rows each rank_only, rank_by_columns and rank_by_rows call of
    boundary_rank leaves out, in call order."""
    skips = []
    for name in ("rank_only", "rank_by_columns", "rank_by_rows"):
        real = getattr(complexes, name)
        monkeypatch.setattr(complexes, name, lambda *args, real=real: (
            skips.append(args[-1]) or real(*args)))
    return skips


def test_boundary_rank_clears_the_rows_the_degree_below_proves_dependent(
        monkeypatch):
    """s3's CHH d_3 has rank 183, and its 183 independent columns clear as
    many rows of d_4: ranked by rows, d_4 inserts exactly its nonzero rows
    outside that set. Stored, each degree is cleared by the independent
    columns of the stored degree below."""
    A = builtin_algebra("s3")
    key = (A.fingerprint(), "CHH")
    session = Session()
    assert [boundary_rank(A, "CHH", n, session) for n in (1, 2, 3)] == \
        [3, 33, 183]
    below = session.independent[key + (3,)]
    assert len(below) == 183
    rows = complexes._contraction_rows(
        boundary_column_fn(A, "CHH", 4).terms, 1296, 7776)
    outside = sorted(len(row) for i, row in enumerate(rows)
                     if row and i not in below)
    assert len(outside) < sum(1 for row in rows if row)
    inserted = []
    real_insert = linalg.Echelon.insert
    monkeypatch.setattr(linalg.Echelon, "insert", lambda self, vec: (
        inserted.append(len(vec)) or real_insert(self, vec)))
    # HH_3(Q[S_3]) = 0: rank d_4 = 1296 - 183
    assert boundary_rank(A, "CHH", 4, session) == 1113
    assert sorted(inserted) == outside
    monkeypatch.undo()
    skips = _recording_skips(monkeypatch)
    stored = Session()
    build_complex(A, "CHH", 4, stored)
    assert [boundary_rank(A, "CHH", n, stored) for n in (1, 2, 3, 4)] == \
        [3, 33, 183, 1113]
    assert skips[0] == set() and len(skips[3]) == 183
    assert skips[1:] == [stored.independent[key + (n,)] for n in (1, 2, 3)]


def test_a_complex_ranks_its_boundaries_cleared(monkeypatch):
    """A complex build_complex makes ranks through boundary_rank, so each
    degree of s3's CHH complex is cleared by the independent columns of the
    one below; the solver, which cross-checks the ranks, still builds."""
    skips = _recording_skips(monkeypatch)
    A = builtin_algebra("s3")
    key = (A.fingerprint(), "CHH")
    session = Session()
    C = build_complex(A, "CHH", 4, session)
    assert [C.betti(n) for n in range(4)] == [3, 0, 0, 0]
    assert skips == [frozenset()] + [session.independent[key + (n,)]
                                     for n in (1, 2, 3)]
    assert [len(skip) for skip in skips] == [0, 3, 33, 183]
    assert C.homology(3).representatives == []
    assert len(C.homology(0).representatives) == 3


def test_a_hand_built_cone_ranks_with_rank_only_and_no_session(monkeypatch):
    """The cone of the identity on dual's CHH complex has boundaries no
    generator gave: it ranks them with homology's rank_only, and nothing
    reaches boundary_rank or the session."""
    import leibhom.homology as homology
    session = Session()
    C = build_complex(builtin_algebra("dual"), "CHH", 3, session)
    identity = {n: SparseMatrix.identity(C.dims[n]) for n in range(4)}
    cone = homology.mapping_cone(
        homology.ChainMapRep("ID", C, C, 0, identity)).cone
    skips = _recording_skips(monkeypatch)
    ranked = []
    real = homology.rank_only
    monkeypatch.setattr(homology, "rank_only",
                        lambda M: ranked.append(M) or real(M))
    assert [cone.betti(n) for n in range(3)] == [0, 0, 0]
    assert ranked == [cone.boundary(n) for n in (1, 2, 3)]
    assert skips == [] and session.ranks == {} and session.independent == {}


@pytest.mark.parametrize("kind", ["P", "CL", "CHH", "L", "CLAMBDA"])
def test_a_stored_boundary_is_ranked_by_rows_unless_it_is_p(
        tmp_path, monkeypatch, kind):
    """boundary_rank stores P's boundaries, and every kind's when the session
    has a disk cache. A stored P boundary is ranked by its columns
    (rank_by_columns), a stored boundary of any other kind by its rows
    (rank_only, which transposes it), with the ranks of the unstored path."""
    A = builtin_algebra("dual")
    want = [boundary_rank(A, kind, n, Session()) for n in (1, 2, 3)]
    calls = []
    for name in ("rank_only", "rank_by_columns", "rank_by_rows"):
        real = getattr(complexes, name)
        monkeypatch.setattr(complexes, name, lambda *args, name=name, real=real: (
            calls.append(name) or real(*args)))
    session = Session(cache_dir=None if kind == "P" else str(tmp_path))
    assert [boundary_rank(A, kind, n, session) for n in (1, 2, 3)] == want
    assert calls == ["rank_by_columns" if kind == "P" else "rank_only"] * 3
    assert len(session.boundaries) == 3


def test_boundary_rank_clears_nothing_without_the_certificate(monkeypatch):
    """With _d2_certified forced False, no row is left out, by rows or
    stored, though every degree records its independent columns."""
    monkeypatch.setattr(complexes, "_d2_certified", lambda up, down: False)
    skips = _recording_skips(monkeypatch)
    A = builtin_algebra("s3")
    session = Session()
    build_complex(A, "CL", 3, session)
    for kind in ("CHH", "CL", "P"):
        for n in (1, 2, 3):
            boundary_rank(A, kind, n, session)
            assert (A.fingerprint(), kind, n) in session.independent
    assert len(skips) == 9 and not any(skips)


def test_boundary_matrix_consistent_with_build_complex():
    A = builtin_algebra("truncated_poly:3")
    C = build_complex(A, "CLAMBDA", 3)
    for n in range(1, 4):
        assert boundary_matrix(A, "CLAMBDA", n) == C.boundary(n)
