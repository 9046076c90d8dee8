"""Finite-dimensional unital associative algebras over Q, given by structure
constants, plus algebra morphisms and the built-in example catalogue.

Everything downstream (complex builders, chain maps, suites) reads the sparse
product table Algebra.products directly; an element is a coordinate dict
{basis index: coeff}, multiplied by multiply_coords.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from . import perms
from .linalg import Echelon, SparseMatrix, kernel_basis

# largest dimension N * N * dim A of a matrix algebra
MATRIX_MAX_DIM = 4096

# failing triples (pairs for a morphism) a validation lists before it stops
MAX_FAILURES = 20


class Presentation:
    """Single-generator presentation A = Q[t]/(r(t)), used for Kahler modules.

    relator holds the coefficients of r low-to-high, monic. The powers
    1, g, ..., g^(dim-1) of the generator must form a basis of A.
    """

    __slots__ = ("generator", "relator")

    def __init__(self, generator, relator):
        self.generator = tuple(generator)
        self.relator = tuple(Fraction(c) for c in relator)

    def derivative(self):
        return tuple(k * c for k, c in enumerate(self.relator) if k >= 1)


class Algebra:
    def __init__(self, name, basis_names, unit, products,
                 presentation=None, group_meta=None, matrix_meta=None):
        self.name = name
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        self.unit = tuple(unit)
        if len(self.unit) != self.dim:
            raise ValueError("unit vector length != dim")
        # products[i][j]: tuple of (basis index, coeff) for e_i * e_j
        self.products = tuple(tuple(tuple(term) for term in row) for row in products)
        if len(self.products) != self.dim or any(len(r) != self.dim for r in self.products):
            raise ValueError("product table shape != dim x dim")
        self.presentation = presentation
        self.group_meta = group_meta
        self.matrix_meta = matrix_meta
        self.commutative = self._check_commutative()
        self._fingerprint = None
        self._brackets = None  # complexes.bracket_table, once built

    def _check_commutative(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if dict(self.products[i][j]) != dict(self.products[j][i]):
                    return False
        return True

    def fingerprint(self) -> str:
        """Content hash over (dim, unit, table); names do not participate."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(str(self.dim).encode())
            h.update(b"|")
            h.update(",".join(str(Fraction(u)) for u in self.unit).encode())
            for i in range(self.dim):
                for j in range(self.dim):
                    for k, c in sorted(self.products[i][j]):
                        h.update(("|%d,%d,%d,%s" % (i, j, k, Fraction(c))).encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __repr__(self):
        return "Algebra(%s, dim=%d)" % (self.name, self.dim)


def multiply_coords(A: Algebra, xc: dict, yc: dict) -> dict:
    out: dict = {}
    for i, xi in xc.items():
        row = A.products[i]
        for j, yj in yc.items():
            c = xi * yj
            for k, coeff in row[j]:
                val = out.get(k, 0) + c * coeff
                if val:
                    out[k] = val
                else:
                    out.pop(k, None)
    return out


class ValidationReport:
    def __init__(self, assoc_failures, unit_failures):
        self.assoc_failures = assoc_failures  # list of (i, j, k) triples
        self.unit_failures = unit_failures    # list of basis indices

    @property
    def ok(self):
        return not self.assoc_failures and not self.unit_failures

    def describe(self):
        if self.ok:
            return "pass"
        bits = []
        if self.assoc_failures:
            bits.append("associativity fails at triples %s"
                        % (self.assoc_failures[:5],))
        if self.unit_failures:
            bits.append("unit axiom fails at basis indices %s"
                        % (self.unit_failures[:5],))
        return "; ".join(bits)


def validate_algebra(A: Algebra) -> ValidationReport:
    """Check associativity on all basis triples and both unit axioms."""
    assoc = []
    for i in range(A.dim):
        for j in range(A.dim):
            ij = dict(A.products[i][j])
            for k in range(A.dim):
                left = multiply_coords(A, ij, {k: 1})
                right = multiply_coords(A, {i: 1}, dict(A.products[j][k]))
                if left != right:
                    assoc.append((i, j, k))
                    if len(assoc) >= MAX_FAILURES:
                        break
            if len(assoc) >= MAX_FAILURES:
                break
        if len(assoc) >= MAX_FAILURES:
            break
    unit = {k: v for k, v in enumerate(A.unit) if v}
    unit_fail = []
    for i in range(A.dim):
        if (multiply_coords(A, unit, {i: 1}) != {i: 1}
                or multiply_coords(A, {i: 1}, unit) != {i: 1}):
            unit_fail.append(i)
    return ValidationReport(assoc, unit_fail)


def _dense_products(dim, prod):
    """prod(i, j) -> dict of {k: coeff}; assembles the nested tuple table."""
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            row.append(tuple(sorted(prod(i, j).items())))
        table.append(tuple(row))
    return tuple(table)


def _poly_from_roots(roots):
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] = coeffs[k] - Fraction(r) * coeffs[k + 1]
    return coeffs


def group_algebra(cayley, names=None, name="group_algebra") -> Algebra:
    """Rational group algebra from a Cayley table cayley[i][j] = index of g_i g_j.

    The table is checked to be a group; violations name the broken axiom.
    """
    n = len(cayley)
    if any(len(row) != n for row in cayley):
        raise ValueError("Cayley table is not square")
    for row in cayley:
        for v in row:
            if not 0 <= v < n:
                raise ValueError("Cayley table entry out of range: %r" % (v,))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if cayley[cayley[i][j]][k] != cayley[i][cayley[j][k]]:
                    raise ValueError(
                        "not a group: associativity fails at (%d, %d, %d)" % (i, j, k))
    identity = None
    for e in range(n):
        if all(cayley[e][i] == i and cayley[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("not a group: no identity element")
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if cayley[i][j] == identity and cayley[j][i] == identity:
                inverse[i] = j
                break
        if inverse[i] is None:
            raise ValueError("not a group: element %d has no inverse" % i)
    if names is None:
        names = ["g%d" % i for i in range(n)]
    # put the identity first so the unit is the first basis vector
    order = [identity] + [i for i in range(n) if i != identity]
    pos = {g: p for p, g in enumerate(order)}
    table = _dense_products(
        n, lambda i, j: {pos[cayley[order[i]][order[j]]]: 1})
    unit = [1 if i == 0 else 0 for i in range(n)]
    meta = {
        "order": n,
        "names": tuple(names[g] for g in order),
        "cayley": tuple(tuple(pos[cayley[order[i]][order[j]]] for j in range(n))
                        for i in range(n)),
        "inverse": tuple(pos[inverse[order[i]]] for i in range(n)),
        "identity": 0,
    }
    return Algebra(name, [names[g] for g in order], unit, table, group_meta=meta)


def _cyclic_group_algebra(n: int) -> Algebra:
    cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + ["g" if k == 1 else "g%d" % k for k in range(1, n)]
    A = group_algebra(cayley, names, name="cyclic:%d" % n)
    # Q[C_n] = Q[t]/(t^n - 1) with the power basis e, g, g^2, ...
    relator = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    gen = [0] * n
    if n > 1:
        gen[1] = 1
    A.presentation = Presentation(gen, relator)
    return A


_S3_NAMES = {
    (1, 2, 3): "e", (2, 1, 3): "(12)", (3, 2, 1): "(13)",
    (1, 3, 2): "(23)", (2, 3, 1): "(123)", (3, 1, 2): "(132)",
}


def _s3_algebra() -> Algebra:
    elems = list(perms.symmetric_group(3))
    index = {p: i for i, p in enumerate(elems)}
    cayley = [[index[perms.compose(p, q)] for q in elems] for p in elems]
    return group_algebra(cayley, [_S3_NAMES[p] for p in elems], name="s3")


def _truncated_poly(m: int) -> Algebra:
    names = ["1"] + ["x" if k == 1 else "x%d" % k for k in range(1, m)]
    table = _dense_products(
        m, lambda i, j: {i + j: 1} if i + j < m else {})
    unit = [1] + [0] * (m - 1)
    relator = [Fraction(0)] * m + [Fraction(1)]
    gen = [0] * m
    if m > 1:
        gen[1] = 1
    A = Algebra("truncated_poly:%d" % m, names, unit, table,
                presentation=Presentation(gen, relator))
    return A


def _split_algebra(m: int) -> Algebra:
    names = ["u%d" % (i + 1) for i in range(m)]
    table = _dense_products(m, lambda i, j: {i: 1} if i == j else {})
    unit = [1] * m
    # interpolation presentation: g takes value i on the i-th idempotent
    gen = list(range(m))
    relator = _poly_from_roots(range(m))
    return Algebra("split:%d" % m, names, unit, table,
                   presentation=Presentation(gen, relator))


BUILTIN_NAMES = ("rationals", "dual", "truncated_poly:3", "split:2",
                 "cyclic:2", "cyclic:3", "s3")


def builtin_algebra(name: str) -> Algebra:
    """Catalogue lookup; parametric families take a ':<param>' suffix."""
    kind, _, param = name.partition(":")
    if kind == "rationals":
        A = _truncated_poly(1)
        A.name = "rationals"
        return A
    if kind == "dual":
        A = _truncated_poly(2)
        A.name = "dual"
        A.basis_names = ("1", "eps")
        return A
    if kind == "truncated_poly":
        m = int(param) if param else 3
        if m < 1:
            raise ValueError("truncated_poly needs a positive order")
        return _truncated_poly(m)
    if kind == "split":
        m = int(param) if param else 2
        if m < 1:
            raise ValueError("split needs a positive number of factors")
        return _split_algebra(m)
    if kind == "cyclic":
        n = int(param) if param else 2
        if n < 1:
            raise ValueError("cyclic group order must be positive")
        return _cyclic_group_algebra(n)
    if kind == "s3":
        return _s3_algebra()
    raise ValueError("unknown builtin algebra %r" % name)


def check_matrix_size(A: Algebra, N: int) -> None:
    """Refuse an N that matrix_algebra(A, N) cannot build."""
    if N < 1:
        raise ValueError("matrix size must be >= 1")
    if N * N * A.dim > MATRIX_MAX_DIM:
        raise ValueError("matrix algebra dimension %d exceeds bound %d"
                         % (N * N * A.dim, MATRIX_MAX_DIM))


def matrix_algebra(A: Algebra, N: int) -> Algebra:
    """N x N matrices over A; basis E^b_{ij} ordered lexicographically by (i, j, b).

    Multiplication is E^a_{ij} E^b_{kl} = delta_{jk} E^{ab}_{il}. Index
    metadata (i, j, algebra basis index) is kept for normal-form work.
    """
    check_matrix_size(A, N)
    dim = N * N * A.dim
    positions = [(i, j, b) for i in range(1, N + 1)
                 for j in range(1, N + 1) for b in range(A.dim)]
    index = {p: t for t, p in enumerate(positions)}
    names = ["E%d%d[%s]" % (i, j, A.basis_names[b]) for (i, j, b) in positions]

    def prod(s, t):
        i, j, b = positions[s]
        k, l, c = positions[t]
        if j != k:
            return {}
        return {index[(i, l, e)]: coeff for e, coeff in A.products[b][c]}

    table = _dense_products(dim, prod)
    unit = [0] * dim
    ua = {k: v for k, v in enumerate(A.unit) if v}
    for i in range(1, N + 1):
        for b, v in ua.items():
            unit[index[(i, i, b)]] = v
    meta = {"N": N, "base": A, "positions": tuple(positions), "index": index}
    return Algebra("M%d(%s)" % (N, A.name), names, unit, table, matrix_meta=meta)


class AlgebraMorphism:
    """Unital algebra map source -> target as a target_dim x source_dim matrix."""

    def __init__(self, source: Algebra, target: Algebra, matrix: SparseMatrix, name=""):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("morphism matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.name = name or "%s->%s" % (source.name, target.name)

    def apply_coords(self, xc: dict) -> dict:
        return self.matrix.apply(xc)

    def __repr__(self):
        return "AlgebraMorphism(%s)" % self.name


def identity_morphism(A: Algebra) -> AlgebraMorphism:
    return AlgebraMorphism(A, A, SparseMatrix.identity(A.dim), name="id:%s" % A.name)


class MorphismReport:
    def __init__(self, mult_failures, unital, surjective, nilpotency):
        self.mult_failures = mult_failures
        self.unital = unital
        self.surjective = surjective
        self.nilpotency = nilpotency    # 0 for zero kernel, least m, or None

    @property
    def ok(self):
        return not self.mult_failures and self.unital

    def describe(self):
        bits = []
        bits.append("multiplicative" if not self.mult_failures
                    else "multiplicativity fails at pairs %s" % (self.mult_failures[:5],))
        bits.append("unital" if self.unital else "f(1) != 1")
        bits.append("surjective" if self.surjective else "not surjective")
        if self.nilpotency is None:
            bits.append("kernel not nilpotent")
        else:
            bits.append("kernel nilpotency degree %d" % self.nilpotency)
        return "; ".join(bits)


def validate_morphism(f: AlgebraMorphism) -> MorphismReport:
    """Multiplicativity, unitality, surjectivity rank, kernel nilpotency.

    Nilpotency degree is 0 for a zero kernel, otherwise the least m with
    K^m = 0; None means the power chain stabilized nonzero (not nilpotent,
    decided within dim(source) powers).
    """
    A, B = f.source, f.target
    fails = []
    for i in range(A.dim):
        fi = f.apply_coords({i: 1})
        for j in range(A.dim):
            left = f.apply_coords(dict(A.products[i][j]))
            right = multiply_coords(B, fi, f.apply_coords({j: 1}))
            if left != right:
                fails.append((i, j))
                if len(fails) >= MAX_FAILURES:
                    break
        if len(fails) >= MAX_FAILURES:
            break
    unital = f.apply_coords({k: v for k, v in enumerate(A.unit) if v}) \
        == {k: v for k, v in enumerate(B.unit) if v}
    kernel = kernel_basis(f.matrix)
    surjective = A.dim - len(kernel) == B.dim
    return MorphismReport(fails, unital, surjective,
                          _kernel_nilpotency(A, kernel))


def _kernel_nilpotency(A: Algebra, kernel):
    if not kernel:
        return 0
    current = kernel
    for power in range(2, A.dim + 2):
        solver = Echelon()
        nxt = []
        for k in kernel:
            for c in current:
                prod = multiply_coords(A, k, c)
                if prod and solver.insert(prod) is not None:
                    nxt.append(prod)
        if not nxt:
            return power
        if len(nxt) == len(current):
            same = all(solver.contains(c) for c in current)
            if same:
                return None
        current = nxt
    return None


def matrix_morphism(f: AlgebraMorphism, N: int) -> AlgebraMorphism:
    """Entrywise extension gl_N(f): M_N(source) -> M_N(target)."""
    MA = matrix_algebra(f.source, N)
    MB = matrix_algebra(f.target, N)
    idx_b = MB.matrix_meta["index"]
    entries = []
    for s, (i, j, b) in enumerate(MA.matrix_meta["positions"]):
        for k, coeff in f.matrix.columns[b].items():
            entries.append((idx_b[(i, j, k)], s, coeff))
    mat = SparseMatrix.from_entries(MB.dim, MA.dim, entries)
    return AlgebraMorphism(MA, MB, mat, name="gl%d(%s)" % (N, f.name))


BUILTIN_MORPHISMS = ("trunc3_aug", "dual_aug", "split2_proj", "id_dual")


def builtin_morphism(name: str) -> AlgebraMorphism:
    """Morphism catalogue for the relative checks.

    trunc3_aug and dual_aug are nilpotent-kernel augmentations x -> 0;
    split2_proj is the non-nilpotent control projection Q x Q -> Q.
    """
    if name == "trunc3_aug":
        A = builtin_algebra("truncated_poly:3")
        B = builtin_algebra("rationals")
        mat = SparseMatrix.from_entries(1, 3, [(0, 0, 1)])
        return AlgebraMorphism(A, B, mat, name="trunc3_aug")
    if name == "dual_aug":
        A = builtin_algebra("dual")
        B = builtin_algebra("rationals")
        mat = SparseMatrix.from_entries(1, 2, [(0, 0, 1)])
        return AlgebraMorphism(A, B, mat, name="dual_aug")
    if name == "split2_proj":
        A = builtin_algebra("split:2")
        B = builtin_algebra("rationals")
        mat = SparseMatrix.from_entries(1, 2, [(0, 0, 1)])
        return AlgebraMorphism(A, B, mat, name="split2_proj")
    if name == "id_dual":
        return identity_morphism(builtin_algebra("dual"))
    raise ValueError("unknown builtin morphism %r" % name)
