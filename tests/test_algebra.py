"""Structure constants, validation, matrix algebras, and morphisms."""

from fractions import Fraction

import pytest

from leibhom.algebra import (BUILTIN_MORPHISMS, BUILTIN_NAMES, Algebra,
                             builtin_algebra, builtin_morphism, group_algebra,
                             identity_morphism, matrix_algebra,
                             matrix_morphism, multiply_coords,
                             validate_algebra, validate_morphism)
from leibhom.complexes import bracket_table


def test_all_builtins_pass_validation():
    for name in BUILTIN_NAMES:
        A = builtin_algebra(name)
        rep = validate_algebra(A)
        assert rep.ok, "%s: %s" % (name, rep.describe())
        assert A.name == name


def test_builtin_dims():
    dims = {"rationals": 1, "dual": 2, "truncated_poly:3": 3, "split:2": 2,
            "cyclic:2": 2, "cyclic:3": 3, "s3": 6}
    for name, d in dims.items():
        assert builtin_algebra(name).dim == d


def test_unknown_builtin_raises():
    with pytest.raises(ValueError):
        builtin_algebra("nope")
    with pytest.raises(ValueError):
        builtin_morphism("nope")


def test_dual_numbers_table():
    A = builtin_algebra("dual")
    one, eps = {0: Fraction(1)}, {1: Fraction(1)}
    assert multiply_coords(A, eps, eps) == {}
    assert multiply_coords(A, one, eps) == eps
    assert multiply_coords(A, eps, one) == eps
    assert A.commutative


def test_truncated_poly_table():
    A = builtin_algebra("truncated_poly:3")
    x, x2 = {1: Fraction(1)}, {2: Fraction(1)}
    assert multiply_coords(A, x, x) == x2
    assert multiply_coords(A, x, x2) == {}
    assert multiply_coords(A, x2, x2) == {}


def test_split_algebra_idempotents():
    A = builtin_algebra("split:2")
    e0, e1 = {0: Fraction(1)}, {1: Fraction(1)}
    assert multiply_coords(A, e0, e0) == e0
    assert multiply_coords(A, e1, e1) == e1
    assert multiply_coords(A, e0, e1) == {}
    # the unit is e0 + e1
    assert dict(enumerate(A.unit)) == {0: Fraction(1), 1: Fraction(1)}


def test_group_algebras_follow_cayley_tables():
    for name, order in (("cyclic:2", 2), ("cyclic:3", 3), ("s3", 6)):
        A = builtin_algebra(name)
        meta = A.group_meta
        assert meta["order"] == order
        cay = meta["cayley"]
        for i in range(order):
            for j in range(order):
                got = multiply_coords(A, {i: Fraction(1)}, {j: Fraction(1)})
                assert got == {cay[i][j]: Fraction(1)}
        # identity is basis slot 0
        assert meta["identity"] == 0
        assert {i: c for i, c in enumerate(A.unit) if c} == {0: Fraction(1)}


def test_s3_is_noncommutative():
    A = builtin_algebra("s3")
    assert not A.commutative
    found = False
    for i in range(6):
        for j in range(6):
            ij = multiply_coords(A, {i: Fraction(1)}, {j: Fraction(1)})
            ji = multiply_coords(A, {j: Fraction(1)}, {i: Fraction(1)})
            if ij != ji:
                found = True
    assert found


def test_bracket_is_commutator():
    A = builtin_algebra("s3")
    table = bracket_table(A)
    for x in range(A.dim):
        for y in range(A.dim):
            xy = multiply_coords(A, {x: 1}, {y: 1})
            for k, v in multiply_coords(A, {y: 1}, {x: 1}).items():
                xy[k] = xy.get(k, 0) - v
            assert dict(table[x][y]) == {k: v for k, v in xy.items() if v}
    assert any(table[x][y] for x in range(A.dim) for y in range(A.dim))
    # built once per algebra: every CL column function reads the one table
    assert bracket_table(A) is table
    # brackets in a commutative algebra vanish
    assert not any(any(row) for row in bracket_table(builtin_algebra("dual")))


def test_validation_catches_broken_associativity():
    A = builtin_algebra("truncated_poly:3")
    products = [list(row) for row in A.products]
    products[2][2] = ((0, Fraction(1)),)
    B = Algebra("broken", A.basis_names, A.unit,
                tuple(tuple(row) for row in products))
    rep = validate_algebra(B)
    assert not rep.ok
    assert rep.assoc_failures
    assert "associativity" in rep.describe()


def test_validation_catches_broken_unit():
    A = builtin_algebra("dual")
    B = Algebra("broken_unit", A.basis_names, [Fraction(0), Fraction(1)],
                A.products)
    rep = validate_algebra(B)
    assert not rep.ok
    assert rep.unit_failures


def test_matrix_algebra_structure():
    A = builtin_algebra("dual")
    M = matrix_algebra(A, 2)
    assert M.dim == 4 * A.dim
    assert validate_algebra(M).ok
    assert not M.commutative
    meta = M.matrix_meta
    assert meta["N"] == 2
    idx = meta["index"]
    # E_11[1] * E_12[eps] = E_12[eps], E_12[eps] * E_12[eps] = 0
    e11 = idx[(1, 1, 0)]
    e12eps = idx[(1, 2, 1)]
    prod = multiply_coords(M, {e11: Fraction(1)}, {e12eps: Fraction(1)})
    assert prod == {e12eps: Fraction(1)}
    assert multiply_coords(M, {e12eps: Fraction(1)},
                           {e12eps: Fraction(1)}) == {}


def test_matrix_algebra_of_rationals_unit_is_identity_matrix():
    M = matrix_algebra(builtin_algebra("rationals"), 3)
    idx = M.matrix_meta["index"]
    unit = {i: c for i, c in enumerate(M.unit) if c}
    assert unit == {idx[(k, k, 0)]: Fraction(1) for k in (1, 2, 3)}


def test_builtin_morphisms_validate():
    # nilpotency is the least k with kernel^k = 0: for truncated_poly:3 the
    # kernel (x, x^2) has x*x = x^2 nonzero, so k = 3
    facts = {
        "trunc3_aug": ("truncated_poly:3", "rationals", 3),
        "dual_aug": ("dual", "rationals", 2),
        "split2_proj": ("split:2", "rationals", None),
        "id_dual": ("dual", "dual", 0),
    }
    for name in BUILTIN_MORPHISMS:
        f = builtin_morphism(name)
        rep = validate_morphism(f)
        assert rep.ok, "%s: %s" % (name, rep.describe())
        assert rep.surjective
        src, tgt, nilp = facts[name]
        assert f.source.name == src
        assert f.target.name == tgt
        assert rep.nilpotency == nilp


def test_identity_morphism_has_trivial_kernel():
    A = builtin_algebra("dual")
    rep = validate_morphism(identity_morphism(A))
    assert rep.ok and rep.surjective
    assert rep.nilpotency == 0


def test_validate_morphism_catches_non_multiplicative():
    from leibhom.algebra import AlgebraMorphism
    from leibhom.linalg import SparseMatrix
    A = builtin_algebra("dual")
    # send eps to 1: not multiplicative since eps^2 = 0 but 1^2 = 1
    bad = AlgebraMorphism(A, builtin_algebra("rationals"),
                          SparseMatrix.from_entries(1, 2, [(0, 0, Fraction(1)),
                                                           (0, 1, Fraction(1))]))
    rep = validate_morphism(bad)
    assert not rep.ok
    assert rep.mult_failures


def test_matrix_morphism_extends_entrywise():
    f = builtin_morphism("dual_aug")
    F = matrix_morphism(f, 2)
    assert F.source.dim == 8 and F.target.dim == 4
    rep = validate_morphism(F)
    assert rep.ok and rep.surjective


def test_group_algebra_rejects_bad_cayley():
    with pytest.raises(ValueError):
        group_algebra([[0, 1], [1, 1]])  # second row not a bijection
