"""Shared example structures and Hypothesis drawing helpers for the test suite."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from weakhopf import (
    QQ,
    ActionTensor,
    AlgebraData,
    CoalgebraData,
    FinVec,
    GroupoidPartialAction,
    LambdaFunctional,
    LinMap,
    PrimeField,
    Vector,
    WeakBialgebraData,
    WeakHopfData,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    groupoid_algebra,
    lambda_action,
    tensor_product,
    trivial_groupoid,
    two_object_iso_groupoid,
)


def groupoid_family():
    """The recurring groupoid examples, smallest first."""
    return [
        ("trivial-1", trivial_groupoid(1)),
        ("trivial-2", trivial_groupoid(2)),
        ("trivial-3", trivial_groupoid(3)),
        ("Z2", cyclic_group_groupoid(2)),
        ("Z3", cyclic_group_groupoid(3)),
        ("Z2+Z3", disjoint_union_of_cyclic([2, 3])),
        ("two-object-iso", two_object_iso_groupoid()),
    ]


@pytest.fixture(scope="session")
def family():
    return groupoid_family()


def grouplike_coalgebra(field, labels):
    """The coalgebra with every basis vector grouplike."""
    n = len(labels)
    space = FinVec(field, tuple(labels))
    z, o = field.zero(), field.one()
    entries = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        entries[i][i][i] = o
    return CoalgebraData.from_tensor(space, entries, [o] * n)


def nilpotent_coalgebra(field):
    """A 2-dimensional coalgebra that is not spanned by grouplikes:
    Δ(g) = g⊗g, Δ(x) = g⊗x + x⊗g."""
    space = FinVec(field, ("g", "x"))
    z, o = field.zero(), field.one()
    entries = [[[z, z], [z, z]], [[z, o], [o, z]]]
    entries[0][0][0] = o
    return CoalgebraData.from_tensor(space, entries, [o, z])


def dense_entries(f):
    """The structure constants ``entries[i][j][k]`` of a multiplication H⊗H → H
    or a comultiplication H → H⊗H, read off its sparse columns, in the form
    the ``from_tensor`` constructors take."""
    z, pair = f.field.zero(), not f.codomain.factors
    n = f.codomain.dim if pair else f.domain.dim
    return [[[f.cols[i * n + j].get(k, z) if pair else f.cols[i].get(j * n + k, z)
              for k in range(n)] for j in range(n)] for i in range(n)]


def regular_action(H, side="left"):
    """H acting on itself (as a coalgebra) by multiplication."""
    n = H.space.dim
    if side == "left":
        slices = [H.alg.lmul(Vector.basis(H.space, i)) for i in range(n)]
    else:
        slices = [H.alg.rmul(Vector.basis(H.space, i)) for i in range(n)]
    return ActionTensor.from_slices(H, H.coalg, side, slices)


def swap_map(V, W):
    """The flip V⊗W → W⊗V."""
    o = V.field.one()
    return LinMap(tensor_product(V, W), tensor_product(W, V),
                  [{j * V.dim + i: o} for i in range(V.dim) for j in range(W.dim)])


def is_global(verdict):
    """A PMC or PMA verdict's partial action is global: partial, with the
    globality criterion."""
    return verdict.is_partial and verdict.globality.passed


def labelled(report, label):
    """The result of a Report under ``label``."""
    for r in report.results:
        if r.label == label:
            return r
    raise KeyError(label)


def counit_value(C, x):
    """ε(x) for a Vector x of the coalgebra C."""
    return C.counit.apply(x).terms.get(0, 0)


def action_tensor(act):
    """The action as one map H⊗X → X (left) or X⊗H → X (right), the form the
    paper writes it in, assembled from its slices for reference checks."""
    from weakhopf.actions import _layout

    dom, order = _layout(act.hopf, act.space, act.side)
    return LinMap(dom, act.space, [act.slices[i].cols[j] for i, j in order])


def antipode_twisted_action(H):
    """The left action h ⊗ c ↦ c·S(h) on H as a coalgebra."""
    slices = [
        H.alg.rmul(H.S(Vector.basis(H.space, i))) for i in range(H.space.dim)
    ]
    return ActionTensor.from_slices(H, H.coalg, "left", slices)


def isotropy_lambda_action(G, field, e_label, carrier=None, side="left"):
    """The λ-action of the groupoid algebra with λ the indicator of one
    identity element, acting on a small grouplike coalgebra."""
    H = groupoid_algebra(G, field)
    lam = LambdaFunctional.indicator(H, [e_label])
    C = carrier if carrier is not None else grouplike_coalgebra(field, ["c0", "c1"])
    return lambda_action(lam, C, side), lam


def projector_onto_labels(space, labels):
    field = space.field
    z, o = field.zero(), field.one()
    wanted = {space.labels.index(l) for l in labels}
    rows = [[o if (i == j and i in wanted) else z for j in range(space.dim)]
            for i in range(space.dim)]
    return LinMap.from_rows(space, space, rows)


def swap_gpa(field):
    """Z/2 acting globally on a 2-dim grouplike coalgebra by swapping the
    basis, packaged as a groupoid partial action."""
    G = cyclic_group_groupoid(2)
    C = grouplike_coalgebra(field, ["x", "y"])
    ident = LinMap.identity(C.space)
    z, o = field.zero(), field.one()
    swap = LinMap.from_rows(C.space, C.space, [[z, o], [o, z]])
    P = {"e": ident, "a": ident}
    TH = {"e": ident, "a": swap}
    return GroupoidPartialAction(G, C, P, TH)


def two_object_gpa(field):
    """The 4-element groupoid acting on C = C_e ⊕ C_f with θ_g an
    isomorphism of the two 1-dimensional pieces."""
    G = two_object_iso_groupoid()
    C = grouplike_coalgebra(field, ["x_e", "x_f"])
    z, o = field.zero(), field.one()
    Pe = LinMap.from_rows(C.space, C.space, [[o, z], [z, z]])
    Pf = LinMap.from_rows(C.space, C.space, [[z, z], [z, o]])
    th_g = LinMap.from_rows(C.space, C.space, [[z, z], [o, z]])
    th_gi = LinMap.from_rows(C.space, C.space, [[z, o], [z, z]])
    P = {"e": Pe, "f": Pf, "g": Pf, "g^-1": Pe}
    TH = {"e": Pe, "f": Pf, "g": th_g, "g^-1": th_gi}
    return GroupoidPartialAction(G, C, P, TH)


def partial_two_object_gpa(field):
    """A 3-dimensional variant where θ_g only reaches a proper subcoalgebra
    of the e-component: C_e = <x1, x2>, C_g⁻¹ = <x1>, C_f = C_g = <y>."""
    G = two_object_iso_groupoid()
    C = grouplike_coalgebra(field, ["x1", "x2", "y"])
    Pe = projector_onto_labels(C.space, ["x1", "x2"])
    Pf = projector_onto_labels(C.space, ["y"])
    Pgi = projector_onto_labels(C.space, ["x1"])
    z, o = field.zero(), field.one()
    th_g = LinMap.from_rows(C.space, C.space,
                            [[z, z, z], [z, z, z], [o, z, z]])   # x1 ↦ y
    th_gi = LinMap.from_rows(C.space, C.space,
                             [[z, z, o], [z, z, z], [z, z, z]])  # y ↦ x1
    P = {"e": Pe, "f": Pf, "g": Pf, "g^-1": Pgi}
    TH = {"e": Pe, "f": Pf, "g": th_g, "g^-1": th_gi}
    return GroupoidPartialAction(G, C, P, TH)


def component_permutation_gpa(field):
    """Z/2 ⊔ Z/3 acting on C = C_e1 ⊕ C_e2 (dims 2 and 3) by permuting
    grouplike basis vectors within each component."""
    G = disjoint_union_of_cyclic([2, 3])
    C = grouplike_coalgebra(field, ["u0", "u1", "v0", "v1", "v2"])
    P1 = projector_onto_labels(C.space, ["u0", "u1"])
    P2 = projector_onto_labels(C.space, ["v0", "v1", "v2"])
    z, o = field.zero(), field.one()

    def perm(mapping):
        rows = [[z] * C.space.dim for _ in range(C.space.dim)]
        for src, dst in mapping.items():
            rows[C.space.labels.index(dst)][C.space.labels.index(src)] = o
        return LinMap.from_rows(C.space, C.space, rows)

    swap_u = perm({"u0": "u1", "u1": "u0"})
    rot_v = perm({"v0": "v1", "v1": "v2", "v2": "v0"})
    rot_v2 = rot_v @ rot_v
    P = {g: (P1 if g.startswith("g1.") else P2) for g in G.elements}
    TH = {
        "g1.e": P1, "g1.a": swap_u,
        "g2.e": P2, "g2.a": rot_v, "g2.a2": rot_v2,
    }
    return GroupoidPartialAction(G, C, P, TH)


def gpa_examples(field):
    from weakhopf import from_kG_action

    out = [
        ("swap", swap_gpa(field)),
        ("two-object", two_object_gpa(field)),
        ("partial-two-object", partial_two_object_gpa(field)),
        ("component-permutation", component_permutation_gpa(field)),
    ]
    act, _ = isotropy_lambda_action(disjoint_union_of_cyclic([2, 2]), field, "g1.e")
    out.append(("lambda-derived", from_kG_action(act, disjoint_union_of_cyclic([2, 2]))))
    return out


# -- Hypothesis drawing helpers --------------------------------------------------

GF7 = PrimeField(7)
ENTRIES = {QQ: [0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2)], GF7: [0, 0, 0, 1, 3, 6]}
fields = st.sampled_from([QQ, GF7])


def space(F, dim, prefix="v"):
    return FinVec(F, tuple(f"{prefix}{i}" for i in range(dim)))


def draw_map(data, dom, cod):
    entry = st.sampled_from(ENTRIES[dom.field])
    rows = data.draw(st.lists(st.lists(entry, min_size=dom.dim, max_size=dom.dim),
                              min_size=cod.dim, max_size=cod.dim))
    return LinMap.from_rows(dom, cod, rows)


def draw_vector(data, V):
    entry = st.sampled_from(ENTRIES[V.field])
    return Vector.from_coords(V, data.draw(st.lists(entry, min_size=V.dim, max_size=V.dim)))


def draw_structure(data, F, dim) -> WeakHopfData:
    """Random structure constants for every tensor of a weak Hopf algebra
    (no axiom holds in general); the antipode is the identity."""
    H = space(F, dim, "h")
    HH = tensor_product(H, H)
    alg = AlgebraData(H, draw_map(data, HH, H), draw_vector(data, H))
    coalg = CoalgebraData(H, draw_map(data, H, HH), draw_map(data, H, space(F, 1, "k")))
    return WeakHopfData(WeakBialgebraData(alg, coalg), LinMap.identity(H))
