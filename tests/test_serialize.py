"""JSON round trips and the error paths of the file formats."""

import json
from fractions import Fraction

import pytest

from leibhom.algebra import BUILTIN_NAMES, builtin_algebra
from leibhom.complexes import build_complex
from leibhom.serialize import (FormatError, algebra_from_dict,
                               algebra_to_dict, frac_from_json, load_algebra,
                               load_morphism, save_algebra)


def constants(A):
    return list(A.unit) + [c for row in A.products for cell in row
                           for _, c in cell]


def test_roundtrip_all_builtins(tmp_path):
    for name in BUILTIN_NAMES:
        A = builtin_algebra(name)
        path = tmp_path / ("%s.json" % name.replace(":", "_"))
        save_algebra(A, str(path))
        B = load_algebra(str(path))
        assert B.name == A.name
        assert B.dim == A.dim
        assert B.basis_names == A.basis_names
        assert B.unit == A.unit
        assert B.products == A.products
        # integral constants come back as int, as the builtins hold them
        assert {type(c) for c in constants(B)} == {int}, name


def test_dict_roundtrip_preserves_fractions():
    A = builtin_algebra("dual")
    d = algebra_to_dict(A)
    d["table"].append([1, 0, [[1, "2/3"]]])
    d["table"] = [row for row in d["table"] if row[:2] != [1, 0]
                  or row[2] == [[1, "2/3"]]]
    B = algebra_from_dict(d)
    assert B.products[1][0] == ((1, Fraction(2, 3)),)
    assert type(B.products[1][0][0][1]) is Fraction


@pytest.mark.parametrize("raw,want", [
    ("2/3", Fraction(2, 3)), ("-4/6", Fraction(-2, 3)), ("4/2", 2),
    ("-1/1", -1), ("0/5", 0), ("7", 7), (3, 3), (-2, -2),
])
def test_values_load_as_int_when_integral(raw, want):
    got = frac_from_json(raw)
    assert got == want
    assert type(got) is type(want)


@pytest.mark.parametrize("term,want", [("1/2", 1), ("1/3", Fraction(2, 3))])
def test_repeated_product_terms_sum_to_int_when_integral(term, want):
    B = algebra_from_dict({"name": "x", "dim": 1, "basis": ["1"], "unit": ["1"],
                           "table": [[0, 0, [[0, term], [0, term]]]]})
    assert B.products[0][0] == ((0, want),)
    assert type(B.products[0][0][0][1]) is type(want)


def test_half_unit_basis_of_the_dual_numbers_keeps_the_bettis():
    """The dual numbers in the basis {1/2, eps}: unit (2, 0), e0 e0 = e0/2.

    A change of basis must not move any betti number, and this one runs the
    Fraction path that integral files no longer reach."""
    half = algebra_from_dict({
        "name": "dual_half", "dim": 2, "basis": ["h", "eps"],
        "unit": ["2", "0"],
        "table": [[0, 0, [[0, "1/2"]]], [0, 1, [[1, "1/2"]]],
                  [1, 0, [[1, "1/2"]]]],
    })
    assert type(half.products[0][0][0][1]) is Fraction
    dual = builtin_algebra("dual")
    for kind in ("CL", "CHH"):
        want = [build_complex(dual, kind, 5).betti(n) for n in range(5)]
        got = [build_complex(half, kind, 5).betti(n) for n in range(5)]
        assert got == want, kind


def test_serialized_dict_is_json_clean():
    d = algebra_to_dict(builtin_algebra("s3"))
    text = json.dumps(d)
    assert algebra_from_dict(json.loads(text)).dim == 6


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("dim"), "dim"),
    (lambda d: d.pop("table"), "table"),
    (lambda d: d.update(unit=["1"]), "unit"),
    (lambda d: d.update(dim="2"), "dim"),
    (lambda d: d.update(basis=["1"]), "basis"),
    (lambda d: d["table"].append([0, 5, []]), "out of range"),
    (lambda d: d["table"].append([0, 0, [[0, "x"]]]), "bad rational"),
    (lambda d: d["table"].append("junk"), "table"),
    (lambda d: d.update(table="junk"), "table"),
    # JSON true/false are bools, an int subclass, and no rationals
    (lambda d: d.update(unit=[True, 0]), "got True"),
    (lambda d: d["table"].append([1, 1, [[0, False]]]), "got False"),
    (lambda d: d.update(dim=True, basis=["a"], unit=["1"], table=[]), "dim"),
    (lambda d: d["table"].append([True, False, []]), "table indices"),
    (lambda d: d["table"].append([1, 1, [[False, "1"]]]), "product index"),
])
def test_malformed_algebra_dict_raises(mutate, fragment):
    d = algebra_to_dict(builtin_algebra("dual"))
    mutate(d)
    with pytest.raises(FormatError) as exc:
        algebra_from_dict(d)
    assert fragment in str(exc.value)


def test_float_coefficients_rejected():
    d = algebra_to_dict(builtin_algebra("dual"))
    d["table"].append([1, 1, [[0, 0.5]]])
    with pytest.raises(FormatError):
        algebra_from_dict(d)


def test_load_algebra_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"name": ')
    with pytest.raises(FormatError) as exc:
        load_algebra(str(p))
    assert "JSON" in str(exc.value)


def test_load_algebra_non_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]")
    with pytest.raises(FormatError):
        load_algebra(str(p))


def test_load_morphism_builtin_endpoints(tmp_path):
    p = tmp_path / "aug.json"
    p.write_text(json.dumps({
        "source": "dual",
        "target": "rationals",
        "matrix": [["1", "0"]],
    }))
    f = load_morphism(str(p))
    assert f.source.name == "dual"
    assert f.target.name == "rationals"
    assert f.matrix.entry(0, 0) == 1
    assert f.matrix.entry(0, 1) == 0


def test_load_morphism_inline_algebra(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({
        "source": algebra_to_dict(builtin_algebra("dual")),
        "target": "dual",
        "matrix": [["1", "0"], ["0", "1"]],
    }))
    f = load_morphism(str(p))
    assert f.source.dim == 2 and f.target.dim == 2


def test_load_morphism_shape_mismatch(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({
        "source": "dual", "target": "rationals", "matrix": [["1"]],
    }))
    with pytest.raises(FormatError):
        load_morphism(str(p))
