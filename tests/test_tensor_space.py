from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weakhopf.errors import FieldMismatch, NotInjective, ShapeMismatch
from weakhopf.scalars import QQ, PrimeField
from weakhopf.tensor_space import (
    FinVec,
    LinMap,
    Subspace,
    Tensor3,
    Vector,
    left_inverse_on_image,
    image_basis,
    solve_coordinates,
    swap_map,
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


def test_tensor3_round_trip():
    entries = [[[1, 0], [2, 3]], [[0, 0], [1, 4]]]
    t = Tensor3.from_entries("pair_to_one", (V2, V2, V2), entries)
    back = Tensor3.from_linmap("pair_to_one", (V2, V2, V2), t.to_linmap())
    assert back == t
    t2 = Tensor3.from_entries("one_to_pair", (V2, V2, V2), entries)
    back2 = Tensor3.from_linmap("one_to_pair", (V2, V2, V2), t2.to_linmap())
    assert back2 == t2


def test_contraction_engine_on_associative_structure_constants():
    # group algebra of Z/2 built by hand: e0*e0=e0, e0*e1=e1*e0=e1, e1*e1=e0
    mul = Tensor3.from_entries(
        "pair_to_one", (V2, V2, V2),
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    ).to_linmap()
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
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F.zero())
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
                    assert fg.rows[i1 * d + i2][j1 * c + j2] == f.rows[i1][j1] * g.rows[i2][j2]
    x, y = draw_vector(data, f.domain), draw_vector(data, g.domain)
    xy = x.tensor(y)
    assert xy.coords == tuple(p * q for p in x.coords for q in y.coords)
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
    assert (f + g).rows == tuple(tuple(a + b for a, b in zip(r, q)) for r, q in zipped)
    assert (f - g).rows == tuple(tuple(a - b for a, b in zip(r, q)) for r, q in zipped)
    assert f.scale(s).rows == tuple(tuple(cs * a for a in r) for r in f.rows)
    transpose = LinMap(W, V, f.transposed_rows())
    assert transpose.rows == tuple(zip(*f.rows))
    x, y = draw_vector(data, V), draw_vector(data, V)
    assert (x + y).coords == tuple(a + b for a, b in zip(x.coords, y.coords))
    assert (x - y).coords == tuple(a - b for a, b in zip(x.coords, y.coords))
    assert x.scale(s).coords == tuple(cs * a for a in x.coords)
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
from weakhopf.jsonio import canonical_dumps, linmap_to_json, weakhopf_to_json  # noqa: E402

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
        Vector.basis(V2, 0).scale(GF7.one())
    with pytest.raises(FieldMismatch):
        f.scale(GF7.one())
    with pytest.raises(FieldMismatch):
        Vector.basis(V2_GF7, 0).scale(Fraction(1, 2))
    # an integral ℚ scalar is an int, which every field accepts
    assert Vector.basis(V2_GF7, 0).scale(QQ.one()) == Vector.basis(V2_GF7, 0)
