from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_entries, swap_map

from weakhopf.dense import image_basis, rref, solve, solve_coordinates
from weakhopf.elimination import Subspace, _echelon, left_inverse_on_image
from weakhopf.errors import FieldMismatch, NotInjective, ShapeMismatch
from weakhopf.groupoid import (FiniteAbelianGroup, abelian_group_weak_hopf,
                               disjoint_union_of_cyclic, dual_groupoid_algebra,
                               groupoid_algebra, two_object_iso_groupoid)
from weakhopf.scalars import QQ, PrimeField
from weakhopf.structures import AlgebraData, CoalgebraData
from weakhopf.tensor_space import (
    FinVec,
    LinMap,
    Vector,
    _accumulate,
    _combine,
    _kron,
    tensor_product,
)

V2 = FinVec(QQ, ("a", "b"))
V3 = FinVec(QQ, ("x", "y", "z"))


def rmat(domain, codomain, entries):
    return LinMap.from_rows(domain, codomain, entries)


def test_tensor_product_dims_and_labels():
    W = tensor_product(V2, V3)
    assert W.dim == 6
    single = FinVec(QQ, ("x",))
    assert tensor_product(V2, single).labels == ("a⊗x", "b⊗x")
    left = tensor_product(tensor_product(V2, V3), V2)
    right = tensor_product(V2, tensor_product(V3, V2))
    assert left.dim == right.dim
    assert left == right  # row-major flattening is associative
    with pytest.raises(FieldMismatch):
        tensor_product(V2, FinVec(PrimeField(5), ("a", "b")))


def test_tensor_product_of_spaces_whose_labels_collide():
    # "a⊗b"⊗"c" and "a"⊗"b⊗c" print alike, yet the product of two valid
    # spaces is a valid space
    V = FinVec(QQ, ("a⊗b", "a"))
    W = FinVec(QQ, ("c", "b⊗c"))
    VW = tensor_product(V, W)
    assert VW.dim == 4 and VW.labels[0] == VW.labels[3] == "a⊗b⊗c"
    assert LinMap.identity(V).tensor(LinMap.identity(W)) == LinMap.identity(VW)
    assert Vector.basis(V, 0).tensor(Vector.basis(W, 0)) != Vector.basis(VW, 3)
    # a space given by its labels still needs distinct ones
    with pytest.raises(ShapeMismatch):
        FinVec(QQ, ("a", "a"))


@given(st.integers(1, 9), st.integers(1, 9))
def test_flatten_round_trip(d1, d2):
    """Row-major flattening: e_i ⊗ f_j is basis vector i·dim W + j of V⊗W."""
    V = FinVec(QQ, tuple(f"v{i}" for i in range(d1)))
    W = FinVec(QQ, tuple(f"w{j}" for j in range(d2)))
    VW = tensor_product(V, W)
    for i in range(d1):
        for j in range(d2):
            assert (Vector.basis(V, i).tensor(Vector.basis(W, j))
                    == Vector.basis(VW, i * W.dim + j))


small_mats = st.lists(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=2, max_size=2),
    min_size=2, max_size=2,
)


@settings(max_examples=30)
@given(small_mats, small_mats, small_mats)
def test_compose_associative(a, b, c):
    f = rmat(V2, V2, a)
    g = rmat(V2, V2, b)
    h = rmat(V2, V2, c)
    assert (f @ g) @ h == f @ (g @ h)


def test_compose_identity():
    f = rmat(V2, V3, [[1, 2], [3, 4], [5, 6]])
    assert f @ LinMap.identity(V2) == f
    assert LinMap.identity(V3) @ f == f
    with pytest.raises(ShapeMismatch):
        f @ f


@settings(max_examples=25)
@given(small_mats, small_mats,
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=2, max_size=2),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=2, max_size=2))
def test_map_tensor_defining_property(a, b, vc, wc):
    f = rmat(V2, V2, a)
    g = rmat(V2, V2, b)
    v = Vector.from_coords(V2, vc)
    w = Vector.from_coords(V2, wc)
    assert f.tensor(g).apply(v.tensor(w)) == f.apply(v).tensor(g.apply(w))


def test_map_tensor_identity_and_functoriality():
    assert LinMap.identity(V2).tensor(LinMap.identity(V3)) == \
        LinMap.identity(tensor_product(V2, V3))
    f1 = rmat(V2, V2, [[1, 2], [0, 1]])
    f2 = rmat(V2, V2, [[1, 0], [3, 1]])
    g1 = rmat(V3, V3, [[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    g2 = rmat(V3, V3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert (f1 @ f2).tensor(g1 @ g2) == f1.tensor(g1) @ f2.tensor(g2)


def test_left_inverse_examples():
    assert left_inverse_on_image(LinMap.identity(V2)) == LinMap.identity(V2)
    two = LinMap.identity(V2).scale(2)
    assert left_inverse_on_image(two) == LinMap.identity(V2).scale(Fraction(1, 2))
    # inclusion of Q^1 into Q^2 as the first coordinate: solve g·F = I exactly
    single = FinVec(QQ, ("t",))
    incl = rmat(single, V2, [[1], [0]])
    g = left_inverse_on_image(incl)
    assert g @ incl == LinMap.identity(single)
    with pytest.raises(NotInjective):
        left_inverse_on_image(LinMap.zero(V2, V2))


def test_left_inverse_deterministic_and_rectangular():
    f = rmat(V2, V3, [[1, 2], [3, 5], [0, 1]])
    g = left_inverse_on_image(f)
    assert g @ f == LinMap.identity(V2)
    assert g == left_inverse_on_image(f)


def test_rank_examples():
    assert LinMap.identity(V3).rank == 3
    assert LinMap.zero(V2, V3).rank == 0
    assert rmat(V2, V2, [[1, 2], [2, 4]]).rank == 1


def test_image_basis_canonical():
    f = rmat(V2, V2, [[1, 2], [2, 4]])
    basis = image_basis(f)
    assert len(basis) == 1
    assert basis[0].coords == (Fraction(1), Fraction(2))


def test_subspace_membership_and_equality():
    s1 = Subspace.from_vectors(V3, [Vector.from_coords(V3, [1, 0, 1]),
                                    Vector.from_coords(V3, [0, 1, 0])])
    s2 = Subspace.from_vectors(V3, [Vector.from_coords(V3, [1, 1, 1]),
                                    Vector.from_coords(V3, [2, 1, 2])])
    assert s1 == s2
    assert s1.contains(Vector.from_coords(V3, [3, -1, 3]))
    assert not s1.contains(Vector.from_coords(V3, [0, 0, 1]))
    assert s1.dim == 2


def test_solve_coordinates():
    basis = [Vector.from_coords(V3, [1, 0, 1]), Vector.from_coords(V3, [0, 2, 0])]
    target = Vector.from_coords(V3, [3, 4, 3])
    coords = solve_coordinates(basis, target)
    assert coords == [Fraction(3), Fraction(2)]
    assert solve_coordinates(basis, Vector.from_coords(V3, [0, 0, 1])) is None


def test_swap_map():
    v = Vector.from_coords(V2, [1, 2])
    w = Vector.from_coords(V3, [3, 0, 5])
    assert swap_map(V2, V3).apply(v.tensor(w)) == w.tensor(v)


def test_vector_ops_and_gf():
    F = PrimeField(5)
    U = FinVec(F, ("a", "b"))
    x = Vector.from_coords(U, [3, 4])
    y = Vector.from_coords(U, [4, 2])
    assert (x + y).coords[0] == F.from_int(2)
    assert x.scale(2).coords == (F.from_int(1), F.from_int(3))
    m = LinMap.from_rows(U, U, [[1, 1], [0, 3]])
    assert m.rank == 2
    assert m.inverse() @ m == LinMap.identity(U)


def test_elimination_reduces_every_update_over_gf():
    # (3, 1) = 5·(2, 3) over GF(7); eliminating (3, 1) against (1, 5) leaves
    # 1 - 3·5 = -14, a nonzero int that is zero in GF(7)
    F = PrimeField(7)
    U = FinVec(F, ("a", "b"))
    m = LinMap.from_rows(U, U, [[2, 3], [3, 1]])
    assert m.rank == 1 and m.inverse() is None
    assert rref(m.rows, F) == ([[1, 5], [0, 0]], [0])
    assert rref([[7, 1], [14, -6]], F) == ([[0, 1], [0, 0]], [1])    # input is reduced too
    line = Subspace.from_vectors(U, [Vector.from_coords(U, [2, 3])])
    assert line.contains(Vector.from_coords(U, [3, 1]))
    assert not line.contains(Vector.from_coords(U, [3, 2]))
    assert solve(m.rows, [1, 5], F) == [4, 0] and solve(m.rows, [1, 0], F) is None


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_from_tensor_matches_the_assembled_structures(field):
    """Dense structure constants spelled as strings, as Fractions over ℚ or as
    unreduced ints over GF(7) give the sparse columns the constructors build."""
    p = field.characteristic
    spellings = [field.fmt, lambda x: x + p, lambda x: x - 2 * p] if p else [field.fmt, Fraction]
    for H in (groupoid_algebra(disjoint_union_of_cyclic([2, 3]), field),
              dual_groupoid_algebra(two_object_iso_groupoid(), field),
              abelian_group_weak_hopf(FiniteAbelianGroup((3,)), field)):
        mul, comul = dense_entries(H.alg.mul), dense_entries(H.coalg.comul)
        for spell in spellings:
            def dense(t):
                return [[[spell(x) for x in row] for row in plane] for plane in t]

            A = AlgebraData.from_tensor(H.space, dense(mul), [spell(x) for x in H.unit.coords])
            C = CoalgebraData.from_tensor(H.space, dense(comul),
                                          [spell(x) for x in H.coalg.counit.rows[0]])
            assert A.mul == H.alg.mul and A.unit == H.unit
            assert C.comul == H.coalg.comul and C.counit == H.coalg.counit
            assert_no_stored_zero(A.mul)
            assert_no_stored_zero(C.comul)


@pytest.mark.parametrize("fault", ["planes", "rows", "row length"])
def test_from_tensor_refuses_a_wrong_shape(fault):
    entries = [[[1, 0], [2, 3]], [[0, 0], [1, 4]]]
    if fault == "planes":
        entries.append([[0, 0], [0, 0]])
    elif fault == "rows":
        entries[1].append([0, 0])
    else:
        entries[1][0].append(0)
    for build, other in ((AlgebraData.from_tensor, [1, 0]), (CoalgebraData.from_tensor, [1, 1])):
        with pytest.raises(ShapeMismatch, match="^tensor entry shape does not match the spaces$"):
            build(V2, entries, other)


def test_contraction_engine_on_associative_structure_constants():
    # group algebra of Z/2 built by hand: e0*e0=e0, e0*e1=e1*e0=e1, e1*e1=e0
    mul = AlgebraData.from_tensor(V2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0]).mul
    ident = LinMap.identity(V2)
    assert mul @ mul.tensor(ident) == mul @ ident.tensor(mul)


# -- the sparse core against a dense reference ----------------------------------

from weakhopf.report import compare_maps, compare_vectors  # noqa: E402

from conftest import ENTRIES, GF7, draw_map, draw_vector, fields, space  # noqa: E402

DIMS = st.integers(1, 3)


def assert_no_stored_zero(x):
    stored = x.cols if isinstance(x, LinMap) else (x.terms,)
    assert all(c for col in stored for c in col.values())


def dense_matmul(a, b, F):
    return tuple(tuple(F.coerce(sum((a[i][k] * b[k][j] for k in range(len(b))), F.zero()))
                       for j in range(len(b[0]))) for i in range(len(a)))


@settings(max_examples=60)
@given(fields, DIMS, DIMS, DIMS, st.data())
def test_sparse_matmul_apply_column_match_dense(F, d1, d2, d3, data):
    U, V, W = space(F, d1, "u"), space(F, d2, "v"), space(F, d3, "w")
    f, g = draw_map(data, V, W), draw_map(data, U, V)
    fg = f @ g
    assert fg.rows == dense_matmul(f.rows, g.rows, F)
    v = draw_vector(data, V)
    fv = f.apply(v)
    assert fv.coords == tuple(r[0] for r in dense_matmul(f.rows, [(c,) for c in v.coords], F))
    for j in range(V.dim):
        assert f.column(j).coords == tuple(r[j] for r in f.rows)
    for x in (fg, fv, f.column(0)):
        assert_no_stored_zero(x)


@settings(max_examples=60)
@given(fields, DIMS, DIMS, DIMS, DIMS, st.data())
def test_sparse_tensor_matches_dense_kronecker(F, a, b, c, d, data):
    f = draw_map(data, space(F, a, "a"), space(F, b, "b"))
    g = draw_map(data, space(F, c, "c"), space(F, d, "d"))
    fg = f.tensor(g)
    for i1 in range(b):
        for i2 in range(d):
            for j1 in range(a):
                for j2 in range(c):
                    assert (fg.rows[i1 * d + i2][j1 * c + j2]
                            == F.coerce(f.rows[i1][j1] * g.rows[i2][j2]))
    x, y = draw_vector(data, f.domain), draw_vector(data, g.domain)
    xy = x.tensor(y)
    assert xy.coords == tuple(F.coerce(p * q) for p in x.coords for q in y.coords)
    assert_no_stored_zero(fg)
    assert_no_stored_zero(xy)


@settings(max_examples=60)
@given(fields, DIMS, DIMS, st.data())
def test_sparse_sum_difference_scale_transpose_match_dense(F, m, n, data):
    V, W = space(F, m), space(F, n, "w")
    f, g = draw_map(data, V, W), draw_map(data, V, W)
    s = data.draw(st.sampled_from(ENTRIES[F]))
    cs = F.coerce(s)
    zipped = list(zip(f.rows, g.rows))
    c = F.coerce
    assert (f + g).rows == tuple(tuple(c(a + b) for a, b in zip(r, q)) for r, q in zipped)
    assert (f - g).rows == tuple(tuple(c(a - b) for a, b in zip(r, q)) for r, q in zipped)
    assert f.scale(s).rows == tuple(tuple(c(cs * a) for a in r) for r in f.rows)
    transpose = LinMap(W, V, f.transposed_rows())
    assert transpose.rows == tuple(zip(*f.rows))
    x, y = draw_vector(data, V), draw_vector(data, V)
    assert (x + y).coords == tuple(c(a + b) for a, b in zip(x.coords, y.coords))
    assert (x - y).coords == tuple(c(a - b) for a, b in zip(x.coords, y.coords))
    assert x.scale(s).coords == tuple(c(cs * a) for a in x.coords)
    assert x.nonzeros() == [(i, c) for i, c in enumerate(x.coords) if c]
    results = [f + g, f - g, f.scale(s), transpose, x + y, x - y, x.scale(s)]
    for z in results + [f - f, f.scale(0), x - x, x.scale(0), f + f.scale(-1)]:
        assert_no_stored_zero(z)
    assert f - f == LinMap.zero(V, W) and (x - x).is_zero


@settings(max_examples=80)
@given(fields, DIMS, DIMS, st.data())
def test_compare_maps_reports_first_difference_in_dense_scan_order(F, m, n, data):
    V, W = space(F, m), space(F, n, "w")
    f, g = draw_map(data, V, W), draw_map(data, V, W)
    expected = next(
        (f"input {V.labels[j]}, output {W.labels[i]}: "
         f"{F.fmt(f.rows[i][j])} ≠ {F.fmt(g.rows[i][j])}"
         for j in range(m) for i in range(n) if f.rows[i][j] != g.rows[i][j]),
        None)
    result = compare_maps("eq", f, g)
    assert result.passed == (expected is None) == (f == g)
    assert result.witness == expected
    x, y = draw_vector(data, W), draw_vector(data, W)
    expected = next((f"coefficient of {W.labels[i]}: {F.fmt(a)} ≠ {F.fmt(b)}"
                     for i, (a, b) in enumerate(zip(x.coords, y.coords)) if a != b), None)
    assert compare_vectors("eq", x, y).witness == expected


def test_tensor_product_is_built_once_per_pair():
    assert tensor_product(V2, V3) is tensor_product(V2, V3)
    assert Vector.basis(V2, 0).tensor(Vector.basis(V3, 1)).space is tensor_product(V2, V3)


# -- ℚ scalars: int and integral Fraction are one value -----------------------------

from weakhopf import (  # noqa: E402
    AlgebraData,
    CoalgebraData,
    WeakBialgebraData,
    WeakHopfData,
    check_identities,
    check_weak_hopf,
    disjoint_union_of_cyclic,
    groupoid_algebra,
)
from weakhopf.cli import canonical_dumps  # noqa: E402
from weakhopf.jsonwrite import linmap_to_json, weakhopf_to_json  # noqa: E402

MIXED = [0, 0, 1, -1, 2, Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3),
         Fraction(-5, 2)]


def as_fraction(x):
    """The same map or vector with every stored scalar a ``Fraction``."""
    if isinstance(x, Vector):
        return Vector(x.space, {i: Fraction(c) for i, c in x.terms.items()})
    return LinMap(x.domain, x.codomain,
                  [{i: Fraction(c) for i, c in col.items()} for col in x.cols])


def mixed_terms(data, dim) -> dict:
    """Sparse terms whose integral values are drawn both as int and as Fraction."""
    out = {}
    for i in range(dim):
        c = data.draw(st.sampled_from(MIXED))
        if c:
            out[i] = c
    return out


def mixed_map(data, dom, cod):
    return LinMap(dom, cod, [mixed_terms(data, cod.dim) for _ in range(dom.dim)])


def test_int_and_integral_fraction_structures_are_equal_and_print_alike():
    H = groupoid_algebra(disjoint_union_of_cyclic([2, 3]), QQ)
    A, C = H.alg, H.coalg
    Hf = WeakHopfData(
        WeakBialgebraData(AlgebraData(H.space, as_fraction(A.mul), as_fraction(A.unit)),
                          CoalgebraData(H.space, as_fraction(C.comul),
                                        as_fraction(C.counit))),
        as_fraction(H.antipode))
    assert all(type(c) is int for col in A.mul.cols for c in col.values())
    assert all(type(c) is Fraction for col in Hf.alg.mul.cols for c in col.values())
    for f, g in ((A.mul, Hf.alg.mul), (C.comul, Hf.coalg.comul), (H.antipode, Hf.antipode)):
        assert f == g and f.rows == g.rows
        assert canonical_dumps(linmap_to_json(f)) == canonical_dumps(linmap_to_json(g))
    assert A.unit == Hf.alg.unit and A.unit.describe() == Hf.alg.unit.describe()
    assert canonical_dumps(weakhopf_to_json(H)) == canonical_dumps(weakhopf_to_json(Hf))
    for check in (check_weak_hopf, check_identities):
        assert check(H).to_json() == check(Hf).to_json()
    rows = [[Fraction(x) for x in r] for r in A.mul.rows]
    assert LinMap.from_rows(A.mul.domain, H.space, rows) == A.mul
    assert Vector.from_coords(H.space, [Fraction(1)] * H.space.dim).terms == \
        {i: 1 for i in range(H.space.dim)}


@settings(max_examples=80, deadline=None)
@given(DIMS, DIMS, DIMS, st.integers(0, 3), st.data())
def test_mixed_int_and_fraction_operands_match_a_fraction_reference(a, b, c, k, data):
    U, V, W = space(QQ, a, "u"), space(QQ, b, "v"), space(QQ, c, "w")
    f, g, sq = mixed_map(data, V, W), mixed_map(data, U, V), mixed_map(data, V, V)
    x, target = Vector(V, mixed_terms(data, b)), Vector(V, mixed_terms(data, b))
    basis = [Vector(V, mixed_terms(data, b)) for _ in range(k)]
    F = as_fraction
    assert f @ g == F(f) @ F(g)
    assert f.tensor(g) == F(f).tensor(F(g))
    assert x.tensor(target) == F(x).tensor(F(target))
    assert f.apply(x) == F(f).apply(F(x))
    assert f.apply(x).describe() == F(f).apply(F(x)).describe()
    assert sq.inverse() == F(sq).inverse()
    assert solve_coordinates(basis, target) == solve_coordinates([F(v) for v in basis],
                                                                  F(target))


# -- the shortcuts of the sparse kernels against literal sums ------------------------

# exact 1 as an int and as a Fraction, 0, and unreduced GF(7) ints ≡ 1 (8, −6),
# so that both branches of every shortcut run
KERNEL_COEFFS = {QQ: [0, 1, 1, Fraction(1), -1, 2, Fraction(1, 3), Fraction(-5, 2)],
                 GF7: [0, 1, 1, 8, -6, 3, 4, 6, 13, -1]}


def _column(F, data, dim) -> dict:
    """A stored column: nonzero entries, reduced over GF(p), 1 among them."""
    coords = data.draw(st.lists(st.sampled_from(KERNEL_COEFFS[F]), min_size=dim, max_size=dim))
    return {i: v for i, c in enumerate(coords) if (v := F.coerce(c))}


def _literal_rref(rows, F):
    """Gauss-Jordan elimination with every product formed."""
    p, m = F.characteristic, [[F.coerce(x) for x in r] for r in rows]
    pivots, pr = [], 0
    for pc in range(len(m[0]) if m else 0):
        found = [r for r in range(pr, len(m)) if m[r][pc] != 0]
        if pr == len(m) or not found:
            continue
        m[pr], m[found[0]] = m[found[0]], m[pr]
        inv = F.inv(m[pr][pc])
        m[pr] = [F.coerce(inv * x) for x in m[pr]]
        for r in range(len(m)):
            if r != pr:
                f = m[r][pc]
                m[r] = [F.coerce(a - f * b) for a, b in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
    return m, pivots


@settings(max_examples=200, deadline=None)
@given(fields, st.data())
def test_kernel_shortcuts_match_dense_literal_sums(F, data):
    """``_combine``, ``_accumulate``, ``_kron`` and ``rref`` against dense sums with
    every product formed, on entries and coefficients that include exact 1
    (int and Fraction), 0, ℚ fractions and unreduced GF(7) ints ≡ 1."""
    p, n, dim = F.characteristic, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    coeff = st.sampled_from(KERNEL_COEFFS[F])

    def literal(dense) -> dict:
        return {i: v for i, x in enumerate(dense) if (v := F.coerce(x))}

    cols = [_column(F, data, dim) for _ in range(n)]
    terms = data.draw(st.lists(st.tuples(st.integers(0, n - 1), coeff), max_size=6))
    expected = literal([sum((c * cols[k].get(i, 0) for k, c in terms), 0) for i in range(dim)])
    vterms = [(cols[k], c) for k, c in terms]
    for got in (_combine(cols, terms, p), _accumulate(vterms, p)):
        assert got == expected
        assert all(type(v) is int and 0 < v < p for v in got.values()) if p else all(got.values())

    a, b = _column(F, data, n), _column(F, data, dim)
    assert _kron(a, b, dim, p) == literal([a.get(i, 0) * b.get(j, 0)
                                           for i in range(n) for j in range(dim)])

    rows = data.draw(st.lists(st.lists(coeff, min_size=dim, max_size=dim), min_size=1, max_size=4))
    assert rref(rows, F) == _literal_rref(rows, F)


@settings(max_examples=200, deadline=None)
@given(fields, st.integers(1, 4), st.data())
def test_elimination_contract_against_literal_gauss_jordan(F, ncols, data):
    """``_echelon`` and what is built on it, against ``_literal_rref``, on
    unreduced GF(7) ints (7 and -14 among them), stored zeros, dependent rows,
    zero rows and no rows: the basis is the literal RREF's nonzero rows keyed by their pivots;
    ``rank`` is the pivot count; ``left_inverse_on_image(f)`` is the E block of
    the literal RREF [R | E] of [A | I]; a subspace's ι has the basis as its
    columns and its back satisfies back∘ι = id."""
    coeff = st.sampled_from(KERNEL_COEFFS[F] + ([7, -14] if F.characteristic else []))
    rows = data.draw(st.lists(st.lists(coeff, min_size=ncols, max_size=ncols), max_size=4))
    for _ in range(data.draw(st.integers(0, 2))):     # a zero row, or c·a + b of two rows
        if rows and data.draw(st.booleans()):
            a, b = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            c = data.draw(coeff)
            new = [c * x + y for x, y in zip(a, b)]
        else:
            new = [0] * ncols
        rows.insert(data.draw(st.integers(0, len(rows))), new)

    literal, pivots = _literal_rref(rows, F)
    expected = [{j: x for j, x in enumerate(r) if x} for r in literal if any(r)]
    basis = _echelon([dict(enumerate(r)) for r in rows], F)     # zero entries included
    assert list(basis) == pivots and list(basis.values()) == expected
    assert rref(rows, F) == (literal, pivots)

    V = space(F, ncols, "x")
    sub = Subspace.from_vectors(V, [Vector.from_coords(V, r) for r in rows])
    assert sub.basis == basis
    if sub.dim:
        incl, back = sub.inclusion("b")
        assert incl.domain.labels == tuple(f"b{k}" for k in range(sub.dim))
        assert list(incl.cols) == expected
        assert back @ incl == LinMap.identity(incl.domain)
    else:
        with pytest.raises(ShapeMismatch):
            sub.inclusion("b")
    if not rows:
        return
    f = LinMap.from_rows(V, space(F, len(rows), "y"), rows)
    assert f.rank == len(pivots)
    identity = [[int(i == k) for k in range(len(rows))] for i in range(len(rows))]
    red, aug_pivots = _literal_rref([r + e for r, e in zip(rows, identity)], F)
    if sum(p < ncols for p in aug_pivots) == ncols:
        assert left_inverse_on_image(f) == LinMap.from_rows(f.codomain, V,
                                                            [r[ncols:] for r in red[:ncols]])
    else:
        with pytest.raises(NotInjective):
            left_inverse_on_image(f)

@pytest.mark.parametrize("F", [QQ, GF7], ids=["Q", "GF7"])
def test_a_kernel_result_that_is_one_stored_column_is_that_column(F):
    """One term with coefficient exactly 1 gives its column itself, also through
    ``scale(1)`` and ``{} + b``, which ``_accumulate`` computes; any other sum is
    a new dict, and no kernel changes an operand."""
    p = F.characteristic
    a, b, zero = {0: F.coerce(2), 2: F.one()}, {1: F.coerce(3), 2: F.coerce(-1)}, {}
    cols = [a, b, zero]
    before = [dict(c) for c in cols]
    assert _combine(cols, [(0, 1)], p) is a and _accumulate([(a, 1)], p) is a
    assert p or _combine(cols, [(0, Fraction(1))], p) is a     # an integral Fraction 1 is 1
    assert _combine(cols, [], p) == {} and _accumulate([], p) == {}
    assert _combine(cols, [(2, 1), (1, 1)], p) is b         # 0 + b is b
    for terms in ([(0, 1), (1, 1)], [(1, 1), (0, 1)], [(0, 1), (2, 1)], [(0, 2)],
                  [(0, 1), (0, -1)], [(1, 1), (1, 1), (0, 3)]):
        got = _combine(cols, terms, p)
        assert got == _accumulate([(cols[k], c) for k, c in terms], p)
        assert all(got is not c for c in cols)
        assert got == {i: v for i in range(3)
                       if (v := F.coerce(sum(c * cols[k].get(i, 0) for k, c in terms)))}
    if p:   # an unreduced coefficient ≡ 1 is scaled and reduced, not shared
        got = _combine(cols, [(0, p + 1)], p)
        assert got == a and got is not a
    V = space(F, 3)
    f, va, vb, vzero = LinMap(V, V, cols), Vector(V, a), Vector(V, b), Vector(V, zero)
    assert va.scale(1).terms is a and all(x is y for x, y in zip(f.scale(1).cols, cols))
    assert (vzero + vb).terms is b                          # {} + b is b
    for got in (va.scale(2).terms, *f.scale(2).cols, (va + vb).terms, (vb + va).terms,
                (va - vb).terms, (va + vzero).terms, *(f + f.scale(2)).cols):
        assert all(got is not c for c in cols)
    assert (va + vb).terms == {0: F.coerce(2), 1: F.coerce(3)} and (va - va).terms == {}
    assert va.scale(2).terms == {0: F.coerce(4), 2: F.coerce(2)} and va.scale(0).terms == {}
    assert cols == before


# -- structure-level guards against mixing ℚ and GF(p) ------------------------------

V2_GF7 = FinVec(GF7, ("a", "b"))


def test_structures_over_different_fields_do_not_mix():
    with pytest.raises(FieldMismatch):
        tensor_product(V2, V2_GF7)
    f, g = LinMap.identity(V2), LinMap.identity(V2_GF7)
    with pytest.raises(FieldMismatch):
        LinMap(V2, V2_GF7, [{}, {}])
    with pytest.raises(ShapeMismatch):
        f @ g
    with pytest.raises(ShapeMismatch):
        f + g
    with pytest.raises(ShapeMismatch):
        f.apply(Vector.basis(V2_GF7, 0))
    with pytest.raises(ShapeMismatch):
        Vector.basis(V2, 0) + Vector.basis(V2_GF7, 0)
    with pytest.raises(FieldMismatch):
        Vector.basis(V2_GF7, 0).scale(Fraction(1, 7))
    with pytest.raises(FieldMismatch):
        g.scale(Fraction(1, 7))
    # an integral ℚ scalar is an int, which every field accepts
    assert Vector.basis(V2_GF7, 0).scale(QQ.one()) == Vector.basis(V2_GF7, 0)


# -- exact elimination: solve and the inverse ---------------------------------------

def test_solve_returns_none_exactly_when_b_is_outside_the_column_space():
    seen = set()

    @settings(max_examples=120, deadline=None)
    @given(fields, st.integers(1, 4), st.integers(1, 4), st.data())
    def run(F, rows, cols, data):
        dom, cod = space(F, cols, "x"), space(F, rows, "y")
        a_rows = [list(r) for r in draw_map(data, dom, cod).rows]
        if rows > 1 and data.draw(st.booleans()):      # a repeated row: a singular system
            a_rows[-1] = list(a_rows[0])
        A = LinMap.from_rows(dom, cod, a_rows)
        b = (draw_vector(data, cod) if data.draw(st.booleans())
             else A.apply(draw_vector(data, dom))).coords
        x = solve(a_rows, list(b), F)
        if x is None:
            augmented = [r + [c] for r, c in zip(a_rows, b)]
            assert len(rref(augmented, F)[1]) > len(rref(a_rows, F)[1])
        else:
            assert A.apply(Vector.from_coords(dom, x)).coords == b
        seen.add(x is None)

    run()
    assert seen == {True, False}


def test_inverse_is_the_left_inverse_of_an_invertible_map_and_none_otherwise():
    seen = set()

    @settings(max_examples=80, deadline=None)
    @given(fields, st.integers(1, 4), st.data())
    def run(F, n, data):
        f = draw_map(data, space(F, n, "x"), space(F, n, "y"))
        inverse = f.inverse()
        if f.rank == n:
            assert inverse == left_inverse_on_image(f)
            assert inverse @ f == LinMap.identity(f.domain)
            assert f @ inverse == LinMap.identity(f.codomain)
        else:
            assert inverse is None
        seen.add(inverse is None)

    run()
    assert seen == {True, False}
    assert LinMap.identity(V2).tensor(LinMap.identity(V3)).inverse() is not None
    assert LinMap.zero(V2, V3).inverse() is None
