"""Algebras, coalgebras, weak bialgebras and weak Hopf algebras as exact
structure-constant data, together with the target/source maps, the full
numbered identity catalog, the Hopf-detection test and dualization.

All checkers quantify over basis elements only; by multilinearity this is
sufficient, and it is what makes every verdict exact and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ShapeMismatch
from .report import (
    CheckResult,
    Report,
    _first_difference,
    compare_maps,
    compare_scalars,
    compare_vectors,
    first_failure,
)
from .scalars import Field
from .tensor_space import (
    ONE_TO_PAIR,
    PAIR_TO_ONE,
    FinVec,
    LinMap,
    Subspace,
    Tensor3,
    Vector,
    _accumulate,
    _combine,
    _kron,
    ground,
    swap_map,
    tensor_product,
)


@dataclass(frozen=True)
class AlgebraData:
    """A unital associative algebra: multiplication tensor plus unit vector."""

    space: FinVec
    mul: LinMap      # space⊗space → space
    unit: Vector

    def __post_init__(self):
        HH = tensor_product(self.space, self.space)
        if self.mul.domain != HH or self.mul.codomain != self.space:
            raise ShapeMismatch("multiplication must map H⊗H → H")
        if self.unit.space != self.space:
            raise ShapeMismatch("unit must live in the algebra")

    @classmethod
    def from_tensor(cls, space: FinVec, entries, unit_coords) -> "AlgebraData":
        t = Tensor3.from_entries(PAIR_TO_ONE, (space, space, space), entries)
        return cls(space, t.to_linmap(), Vector.from_coords(space, unit_coords))

    @property
    def field(self) -> Field:
        return self.space.field

    def mul_tensor(self) -> Tensor3:
        return Tensor3.from_linmap(PAIR_TO_ONE, (self.space,) * 3, self.mul)

    def product(self, x: Vector, y: Vector) -> Vector:
        return self.mul.apply(x.tensor(y))

    def times(self, x: dict, y: dict) -> dict:
        """x·y for sparse coordinate dicts, read off the multiplication columns."""
        return _combine(self.mul.cols, _kron(x, y, self.space.dim).items())

    def lmul(self, x: Vector) -> LinMap:
        """Left multiplication operator y ↦ xy."""
        return LinMap.from_function(self.space, self.space,
                                    lambda j: self.product(x, Vector.basis(self.space, j)))

    def rmul(self, x: Vector) -> LinMap:
        """Right multiplication operator y ↦ yx."""
        return LinMap.from_function(self.space, self.space,
                                    lambda j: self.product(Vector.basis(self.space, j), x))

    def validate(self) -> Report:
        rep = Report(f"algebra axioms on {self.space.dim}-dim space")
        ident = LinMap.identity(self.space)
        lhs = self.mul @ self.mul.tensor(ident)
        rhs = self.mul @ ident.tensor(self.mul)
        rep.add(compare_maps("assoc", lhs, rhs))
        u, labels = self.unit.terms, self.space.labels
        for label, left in (("unit-left", True), ("unit-right", False)):
            rep.add(first_failure(label, (
                (i, compare_vectors("", Vector(self.space, self.times(u, e) if left
                                               else self.times(e, u)), Vector(self.space, e)))
                for i, e in enumerate(ident.cols)), lambda i: f"{labels[i]}: "))
        return rep


@dataclass(frozen=True)
class CoalgebraData:
    """A coassociative counital coalgebra: comultiplication tensor plus counit."""

    space: FinVec
    comul: LinMap    # space → space⊗space
    counit: LinMap   # space → ground field

    def __post_init__(self):
        HH = tensor_product(self.space, self.space)
        if self.comul.domain != self.space or self.comul.codomain != HH:
            raise ShapeMismatch("comultiplication must map C → C⊗C")
        if self.counit.domain != self.space or self.counit.codomain.dim != 1:
            raise ShapeMismatch("counit must map C → k")

    @classmethod
    def from_tensor(cls, space: FinVec, entries, counit_coords) -> "CoalgebraData":
        t = Tensor3.from_entries(ONE_TO_PAIR, (space, space, space), entries)
        counit = LinMap.from_rows(space, ground(space.field), [list(counit_coords)])
        return cls(space, t.to_linmap(), counit)

    @property
    def field(self) -> Field:
        return self.space.field

    def comul_tensor(self) -> Tensor3:
        return Tensor3.from_linmap(ONE_TO_PAIR, (self.space,) * 3, self.comul)

    def delta(self, x: Vector) -> Vector:
        return self.comul.apply(x)

    def delta_pairs(self, i: int) -> tuple:
        """Sweedler terms of Δ(e_i) as sparse (a, b, coeff) triples."""
        return self._delta_terms[i]

    @cached_property
    def _delta_terms(self) -> tuple[tuple, ...]:
        """The ``delta_pairs`` of every basis vector, built once."""
        n = self.space.dim
        return tuple(tuple((idx // n, idx % n, c) for idx, c in sorted(col.items()))
                     for col in self.comul.cols)

    def eps(self, x: Vector):
        return self.counit.apply(x).terms.get(0, self.field.zero())

    def eps_coeff(self, i: int):
        return self.counit.cols[i].get(0, self.field.zero())

    @cached_property
    def delta2(self) -> LinMap:
        """(Δ⊗id)∘Δ : C → C⊗C⊗C (the canonical bracketing), built once."""
        ident = LinMap.identity(self.space)
        return self.comul.tensor(ident) @ self.comul

    def validate(self) -> Report:
        rep = Report(f"coalgebra axioms on {self.space.dim}-dim space")
        ident = LinMap.identity(self.space)
        rep.add(compare_maps("coassoc",
                             self.comul.tensor(ident) @ self.comul,
                             ident.tensor(self.comul) @ self.comul))
        # counit laws, checked as maps C → C: ε on the first leg, then the second
        for leg, label in enumerate(("counit-left", "counit-right")):
            contracted = LinMap(self.space, self.space, [
                _accumulate(({p[1 - leg]: p[2]}, self.eps_coeff(p[leg]))
                            for p in self.delta_pairs(j))
                for j in range(self.space.dim)])
            rep.add(compare_maps(label, contracted, ident))
        return rep


def pointwise_product(alg: AlgebraData, power: int, x: Vector, y: Vector) -> Vector:
    """Componentwise product of two elements of the tensor power H^⊗power,
    (a1⊗...⊗ak)(b1⊗...⊗bk) = a1b1 ⊗ ... ⊗ akbk, extended bilinearly."""
    n = alg.space.dim
    space = x.space
    if space != y.space or space.dim != n ** power:
        raise ShapeMismatch("operands must live in the same tensor power of H")
    cols = alg.mul.cols
    y_terms = [(_digits(j, n, power), b) for j, b in y.terms.items()]
    out = {}
    for i, a in x.terms.items():
        i_parts = _digits(i, n, power)
        for j_parts, b in y_terms:
            term = {0: a * b}
            for ip, jp in zip(i_parts, j_parts):
                col = cols[ip * n + jp]
                term = {t * n + k: v * c for t, v in term.items() for k, c in col.items()}
            for k, v in term.items():
                prev = out.get(k)
                out[k] = v if prev is None else prev + v
    return Vector(space, {k: v for k, v in out.items() if v})


def _digits(idx: int, base: int, count: int) -> tuple[int, ...]:
    out = []
    for _ in range(count):
        idx, r = divmod(idx, base)
        out.append(r)
    return tuple(reversed(out))


@dataclass(frozen=True)
class WeakBialgebraData:
    alg: AlgebraData
    coalg: CoalgebraData

    def __post_init__(self):
        if self.alg.space != self.coalg.space:
            raise ShapeMismatch("algebra and coalgebra must share one space")

    @property
    def space(self) -> FinVec:
        return self.alg.space

    @property
    def field(self) -> Field:
        return self.space.field

    @cached_property
    def delta_one(self) -> Vector:
        """Δ(1) as an element of H⊗H."""
        return self.coalg.delta(self.alg.unit)

    @cached_property
    def delta_one_pairs(self) -> list[tuple[int, int, object]]:
        n = self.space.dim
        return [(i // n, i % n, c) for i, c in self.delta_one.nonzeros()]

    @cached_property
    def eps_form(self) -> tuple[dict, ...]:
        """The counit form: ``eps_form[i]`` is ``{j: ε(e_i·e_j)}`` over its
        nonzero values, read off the columns of ε∘m."""
        n = self.space.dim
        cols = (self.coalg.counit @ self.alg.mul).cols
        return tuple({j: col[0] for j, col in enumerate(cols[i * n:(i + 1) * n]) if col}
                     for i in range(n))


def _eps_contraction(wb: WeakBialgebraData, pairs, leg: int, k: int) -> dict:
    """Σ c·ε(·)·(other leg) over Sweedler terms (a, b, c), such as those of
    Δ(1) or Δ(e_i), with ε(e_a·e_k) on leg 0 and ε(e_k·e_b) on leg 1."""
    form = wb.eps_form
    return _accumulate(({p[1 - leg]: p[2]}, s) for p in pairs
                       if (s := form[p[0]].get(k) if leg == 0 else form[k].get(p[1])))


def eps_t(wb: WeakBialgebraData) -> LinMap:
    """The target map h ↦ ε(1₁h)1₂, evaluated through the structure constants."""
    return LinMap(wb.space, wb.space, [_eps_contraction(wb, wb.delta_one_pairs, 0, j)
                                       for j in range(wb.space.dim)])


def eps_s(wb: WeakBialgebraData) -> LinMap:
    """The source map h ↦ 1₁ε(h1₂)."""
    return LinMap(wb.space, wb.space, [_eps_contraction(wb, wb.delta_one_pairs, 1, j)
                                       for j in range(wb.space.dim)])


def check_weak_bialgebra(wb: WeakBialgebraData) -> Report:
    """Algebra axioms, coalgebra axioms, and the three compatibility axioms
    (multiplicativity of Δ, weak multiplicativity of ε, the Δ²(1) identity)."""
    rep = Report("weak bialgebra axioms")
    rep.extend(wb.alg.validate())
    rep.extend(wb.coalg.validate())
    H, A, C = wb.space, wb.alg, wb.coalg
    n = H.dim

    # (i)  Δ(hk) = Δ(h)Δ(k)
    HH = tensor_product(H, H)
    rhs = LinMap.from_function(
        HH, HH,
        lambda idx: pointwise_product(
            A, 2,
            C.delta(Vector.basis(H, idx // n)),
            C.delta(Vector.basis(H, idx % n)),
        ),
    )
    rep.add(compare_maps("(i)", C.comul @ A.mul, rhs))

    # (ii)  ε(hkl) = ε(hk₁)ε(k₂l) = ε(hk₂)ε(k₁l); for each (h, k) the three
    # sides are functionals of l, combined from rows of the counit form.
    # In (ii)a the first leg of Δ(k) meets h and the second meets l.
    form = wb.eps_form
    zero = wb.field.zero()

    def cases(hk: int, kl: int):
        for i in range(n):
            row = form[i]
            for j in range(n):
                full = _combine(form, A.mul.cols[i * n + j].items())
                side = _combine(form, [(p[kl], p[2] * row[p[hk]])
                                       for p in C.delta_pairs(j) if p[hk] in row])
                diff = _first_difference(full, side, zero)
                yield (i, j, diff), diff is None or compare_scalars("", wb.field, *diff[1:])

    for label, hk, kl in (("(ii)a", 0, 1), ("(ii)b", 1, 0)):
        rep.add(first_failure(label, cases(hk, kl), lambda c: (
            f"(h,k,l)=({H.labels[c[0]]},{H.labels[c[1]]},{H.labels[c[2][0]]}): ")))

    # (iii)  (1⊗Δ(1))(Δ(1)⊗1) = (Δ(1)⊗1)(1⊗Δ(1)) = Δ²(1)
    one_delta = A.unit.tensor(wb.delta_one)
    delta_one_ = wb.delta_one.tensor(A.unit)
    lhs3 = pointwise_product(A, 3, one_delta, delta_one_)
    mid3 = pointwise_product(A, 3, delta_one_, one_delta)
    delta2_one = C.delta2.apply(A.unit)
    rep.add(compare_vectors("(iii)a", lhs3, delta2_one))
    rep.add(compare_vectors("(iii)b", mid3, delta2_one))
    return rep


@dataclass(frozen=True)
class WeakHopfData:
    """A weak bialgebra with an antipode, plus cached target/source data."""

    wb: WeakBialgebraData
    antipode: LinMap

    def __post_init__(self):
        if self.antipode.domain != self.space or self.antipode.codomain != self.space:
            raise ShapeMismatch("antipode must be an endomorphism of H")

    # -- shortcuts ----------------------------------------------------------

    @property
    def space(self) -> FinVec:
        return self.wb.space

    @property
    def field(self) -> Field:
        return self.wb.field

    @property
    def alg(self) -> AlgebraData:
        return self.wb.alg

    @property
    def coalg(self) -> CoalgebraData:
        return self.wb.coalg

    @property
    def unit(self) -> Vector:
        return self.wb.alg.unit

    def product(self, x: Vector, y: Vector) -> Vector:
        return self.wb.alg.product(x, y)

    def delta(self, x: Vector) -> Vector:
        return self.wb.coalg.delta(x)

    def eps(self, x: Vector):
        return self.wb.coalg.eps(x)

    def S(self, x: Vector) -> Vector:
        return self.antipode.apply(x)

    # -- cached target/source machinery --------------------------------------

    @cached_property
    def eps_t(self) -> LinMap:
        return eps_t(self.wb)

    @cached_property
    def eps_s(self) -> LinMap:
        return eps_s(self.wb)

    @cached_property
    def Ht(self) -> Subspace:
        return Subspace.from_vectors(self.space, self.eps_t.columns())

    @cached_property
    def Hs(self) -> Subspace:
        return Subspace.from_vectors(self.space, self.eps_s.columns())

    @cached_property
    def antipode_inverse(self) -> LinMap | None:
        return self.antipode.inverse()


# ---------------------------------------------------------------------------
# weak Hopf checkers
# ---------------------------------------------------------------------------

def check_weak_hopf(H: WeakHopfData) -> Report:
    """Weak bialgebra axioms, the three antipode axioms, and the standard
    derived antipode facts."""
    rep = Report("weak Hopf axioms")
    rep.extend(check_weak_bialgebra(H.wb))

    space = H.space
    ident = LinMap.identity(space)
    S = H.antipode
    mul, comul = H.alg.mul, H.coalg.comul
    mul3 = mul @ mul.tensor(ident)            # H⊗H⊗H → H
    delta2 = H.coalg.delta2                 # H → H⊗H⊗H

    rep.add(compare_maps("S-(i)", mul @ ident.tensor(S) @ comul, H.eps_t))
    rep.add(compare_maps("S-(ii)", mul @ S.tensor(ident) @ comul, H.eps_s))
    rep.add(compare_maps("S-(iii)",
                         mul3 @ S.tensor(ident).tensor(S) @ delta2, S))

    rep.add(compare_vectors("S(1)=1", H.S(H.unit), H.unit))
    rep.add(compare_maps("eps∘S=eps", H.coalg.counit @ S, H.coalg.counit))
    # anti-multiplicativity S(hk) = S(k)S(h)
    rep.add(compare_maps("S-antimult",
                         S @ mul,
                         mul @ S.tensor(S) @ swap_map(space, space)))
    # anti-comultiplicativity Δ(S(h)) = S(h₂)⊗S(h₁)
    rep.add(compare_maps("S-anticomult",
                         comul @ S,
                         swap_map(space, space) @ S.tensor(S) @ comul))
    # S exchanges the target and source subalgebras
    s_ht = Subspace.from_vectors(space, [H.S(v) for v in H.Ht.basis_vectors])
    s_hs = Subspace.from_vectors(space, [H.S(v) for v in H.Hs.basis_vectors])
    rep.add(CheckResult("S(Ht)=Hs", s_ht == H.Hs,
                        None if s_ht == H.Hs else "images differ"))
    rep.add(CheckResult("S(Hs)=Ht", s_hs == H.Ht,
                        None if s_hs == H.Ht else "images differ"))
    # 1₁⊗1₂ = S(1₂)⊗S(1₁)
    flipped = (swap_map(space, space) @ S.tensor(S)).apply(H.wb.delta_one)
    rep.add(compare_vectors("Δ(1)=(S⊗S)flip(Δ(1))", H.wb.delta_one, flipped))
    return rep


def _map_h_to_d1_sandwich(H: WeakHopfData, left, right) -> LinMap:
    """The map h ↦ Σ left(1₁, h) ⊗ right(1₂, h) built over Δ(1) = Σ 1₁⊗1₂,
    where left/right give an element of H as a sparse dict for the basis
    indices of each (leg, h) pair."""
    n = H.space.dim
    return LinMap(H.space, tensor_product(H.space, H.space), [
        _accumulate((_kron(left(a, j), right(b, j), n), c) for a, b, c in H.wb.delta_one_pairs)
        for j in range(n)])


def check_identities(H: WeakHopfData) -> Report:
    """The numbered identity catalog for target/source maps and the antipode.

    Identities restricted to the target (source) subalgebra are evaluated on
    the cached canonical basis of that subalgebra.  The three identities that
    involve the inverse antipode are skipped, not failed, when S is singular.
    """
    rep = Report("identity catalog")
    space = H.space
    n = space.dim
    ident = LinMap.identity(space)
    A, C = H.alg, H.coalg
    S = H.antipode
    Sinv = H.antipode_inverse
    et, es = H.eps_t, H.eps_s
    mul, comul = A.mul, C.comul
    counit = C.counit
    HH = tensor_product(space, space)

    # 4.2  h₁⊗h₂ = h₁1₁⊗h₂1₂ = 1₁h₁⊗1₂h₂
    d1 = H.wb.delta_one
    mid = LinMap.from_function(
        space, HH, lambda j: pointwise_product(A, 2, C.delta(Vector.basis(space, j)), d1))
    rhs = LinMap.from_function(
        space, HH, lambda j: pointwise_product(A, 2, d1, C.delta(Vector.basis(space, j))))
    rep.add(compare_maps("Eq 4.2a", comul, mid))
    rep.add(compare_maps("Eq 4.2b", comul, rhs))

    rep.add(compare_maps("Eq 4.3", et @ et, et))
    rep.add(compare_maps("Eq 4.4", es @ es, es))
    rep.add(compare_maps("Eq 4.5", counit @ mul @ ident.tensor(et), counit @ mul))
    rep.add(compare_maps("Eq 4.6", counit @ mul @ es.tensor(ident), counit @ mul))

    # 4.7  Δ(1) ∈ Hs⊗Ht
    hs_ht = Subspace.from_vectors(
        HH,
        [s.tensor(t) for s in H.Hs.basis_vectors for t in H.Ht.basis_vectors],
    )
    inside = hs_ht.contains(d1)
    rep.add(CheckResult("Eq 4.7", inside, None if inside else "Δ(1) ∉ Hs⊗Ht"))

    rep.add(compare_maps("Eq 4.8", et @ mul @ ident.tensor(et), et @ mul))
    rep.add(compare_maps("Eq 4.9", es @ mul @ es.tensor(ident), es @ mul))

    # builders shared by 4.10-4.13, 4.36-4.43: sparse dicts of e_i, e_i·e_j, S(e_i)
    e, m, Sc = ident.cols, mul.cols, S.cols
    map_1h_1 = _map_h_to_d1_sandwich(H, lambda a, j: m[a * n + j], lambda b, j: e[b])
    map_1_h1 = _map_h_to_d1_sandwich(H, lambda a, j: e[a], lambda b, j: m[j * n + b])

    def restricted(lhs: LinMap, rhs: LinMap, sub: Subspace):
        return ((v, compare_vectors("", lhs.apply(v), rhs.apply(v))) for v in sub.basis_vectors)

    def at_h(v: Vector) -> str:
        return f"h={v.describe()}: "

    rep.add(first_failure("Eq 4.10", restricted(comul, map_1h_1, H.Ht), at_h))
    rep.add(first_failure("Eq 4.11", restricted(comul, map_1_h1, H.Hs), at_h))
    rep.add(compare_maps("Eq 4.12", ident.tensor(et) @ comul, map_1h_1))
    rep.add(compare_maps("Eq 4.13", es.tensor(ident) @ comul, map_1_h1))

    # 4.14  hε_t(k) = ε(h₁k)h₂ ; 4.15  ε_s(h)k = k₁ε(hk₂)
    rep.add(compare_maps("Eq 4.14", mul @ ident.tensor(et), LinMap(HH, space, [
        _eps_contraction(H.wb, C.delta_pairs(i), 0, j) for i in range(n) for j in range(n)])))
    rep.add(compare_maps("Eq 4.15", mul @ es.tensor(ident), LinMap(HH, space, [
        _eps_contraction(H.wb, C.delta_pairs(j), 1, i) for i in range(n) for j in range(n)])))

    # 4.16  hk = kh for h ∈ Ht, k ∈ Hs
    rep.add(first_failure("Eq 4.16", (
        ((t, s), compare_vectors("", A.product(t, s), A.product(s, t)))
        for t in H.Ht.basis_vectors for s in H.Hs.basis_vectors),
        lambda ts: f"h={ts[0].describe()}, k={ts[1].describe()}: "))

    # 4.17 / 4.18: identities of Δ²(1) in H⊗H⊗H
    delta2_one = H.coalg.delta2.apply(H.unit)
    HHH = tensor_product(HH, space)
    one = H.field.one()
    d1p = H.wb.delta_one_pairs
    rhs417 = _accumulate((_kron(m[a * n + a2], {b * n + b2: one}, n * n), c * c2)
                         for a, b, c in d1p for a2, b2, c2 in d1p)
    rep.add(compare_vectors("Eq 4.17", _apply_on_middle_leg(H, et, delta2_one),
                            Vector(HHH, rhs417)))
    rhs418 = _accumulate((_kron({a * n + a2: one}, m[b * n + b2], n), c * c2)
                         for a, b, c in d1p for a2, b2, c2 in d1p)
    rep.add(compare_vectors("Eq 4.18", _apply_on_middle_leg(H, es, delta2_one),
                            Vector(HHH, rhs418)))

    rep.add(compare_maps("Eq 4.19", et @ mul @ et.tensor(ident), mul @ et.tensor(et)))
    rep.add(compare_maps("Eq 4.20", es @ mul @ ident.tensor(es), mul @ es.tensor(es)))

    # antipode identities 4.30-4.43
    def d1_functional(term) -> LinMap:
        """h_j ↦ Σ c·s·v over Δ(1) = Σ c·e_a⊗e_b, where (v, s) = term(a, b, j)."""
        return LinMap(space, space, [
            _accumulate((v, c * s) for a, b, c in d1p for v, s in (term(a, b, j),) if s)
            for j in range(n)])

    eps_mul = counit @ mul
    eS = (eps_mul @ S.tensor(ident)).cols     # eS[j·n + a] = {0: ε(S(e_j)·e_a)}
    Se = (eps_mul @ ident.tensor(S)).cols     # Se[b·n + j] = {0: ε(e_b·S(e_j))}
    form = H.wb.eps_form
    rep.add(compare_maps("Eq 4.30", et, d1_functional(
        lambda a, b, j: (e[b], eS[j * n + a].get(0)))))
    rep.add(compare_maps("Eq 4.31", es, d1_functional(
        lambda a, b, j: (e[a], Se[b * n + j].get(0)))))
    rep.add(compare_maps("Eq 4.32", et, d1_functional(
        lambda a, b, j: (Sc[a], form[b].get(j)))))
    rep.add(compare_maps("Eq 4.33", es, d1_functional(
        lambda a, b, j: (Sc[b], form[j].get(a)))))

    rep.add(compare_maps("Eq 4.34a", et @ S, et @ es))
    rep.add(compare_maps("Eq 4.34b", et @ es, S @ es))
    rep.add(compare_maps("Eq 4.35a", es @ S, es @ et))
    rep.add(compare_maps("Eq 4.35b", es @ et, S @ et))

    # Sweedler-triple identities 4.36-4.39
    def sweedler3(build) -> LinMap:
        """h ↦ Σ x⊗y over Δ²(h) = Σ e_p⊗e_q⊗e_r, with (x, y) = build(p, q, r)."""
        return LinMap(space, HH, [
            _accumulate((_kron(*build(idx // (n * n), idx // n % n, idx % n), n), c)
                        for idx, c in col.items())
            for col in C.delta2.cols])

    times = A.times
    rep.add(compare_maps("Eq 4.36", sweedler3(
        lambda p, q, r: (e[p], times(e[q], Sc[r]))), map_1h_1))
    rep.add(compare_maps("Eq 4.37", sweedler3(
        lambda p, q, r: (times(Sc[p], e[q]), e[r])), map_1_h1))
    rep.add(compare_maps("Eq 4.38", sweedler3(
        lambda p, q, r: (e[p], times(Sc[q], e[r]))),
        _map_h_to_d1_sandwich(H, lambda a, j: m[j * n + a], lambda b, j: Sc[b])))
    rep.add(compare_maps("Eq 4.39", sweedler3(
        lambda p, q, r: (times(e[p], Sc[q]), e[r])),
        _map_h_to_d1_sandwich(H, lambda a, j: Sc[a], lambda b, j: m[b * n + j])))

    # 4.41  h₂S⁻¹(h₁)⊗h₃ = S(ε_t(h₁))⊗h₂ = 1₁⊗1₂h
    rhs_441 = _map_h_to_d1_sandwich(H, lambda a, j: e[a], lambda b, j: m[b * n + j])
    s_et = (S @ et).cols
    mid_441 = LinMap(space, HH, [
        _accumulate((_kron(s_et[a], e[b], n), c) for a, b, c in C.delta_pairs(j))
        for j in range(n)])
    rep.add(compare_maps("Eq 4.41b", mid_441, rhs_441))
    if Sinv is None:
        rep.add(CheckResult("Eq 4.41a", False, "antipode not invertible", skipped=True))
        rep.add(CheckResult("Eq 4.42", False, "antipode not invertible", skipped=True))
        rep.add(CheckResult("Eq 4.43", False, "antipode not invertible", skipped=True))
    else:
        Si = Sinv.cols
        rep.add(compare_maps("Eq 4.41a", sweedler3(
            lambda p, q, r: (times(e[q], Si[p]), e[r])), rhs_441))
        lhs_442 = _map_h_to_d1_sandwich(H, lambda a, j: times(e[a], Si[j]), lambda b, j: e[b])
        rep.add(first_failure("Eq 4.42", restricted(lhs_442, rhs_441, H.Ht), at_h))
        lhs_443 = _map_h_to_d1_sandwich(H, lambda a, j: e[a], lambda b, j: times(Si[j], e[b]))
        rhs_443 = _map_h_to_d1_sandwich(H, lambda a, j: m[j * n + a], lambda b, j: e[b])
        rep.add(first_failure("Eq 4.43", restricted(lhs_443, rhs_443, H.Hs), at_h))
    return rep


def _apply_on_middle_leg(H: WeakHopfData, f: LinMap, elem: Vector) -> Vector:
    """Apply f to the middle tensor factor of an element of H⊗H⊗H."""
    n = H.space.dim
    terms = []
    for idx, c in elem.terms.items():
        p, q, r = idx // (n * n), idx // n % n, idx % n
        terms.append(({(p * n + i) * n + r: v for i, v in f.cols[q].items()}, c))
    return Vector(elem.space, _accumulate(terms))


# ---------------------------------------------------------------------------
# Hopf detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfVerdict:
    """The five equivalent Hopf-ness conditions, evaluated independently."""

    delta_one_is_one_tensor_one: bool     # (i)
    counit_multiplicative: bool           # (ii)
    left_antipode_classical: bool         # (iii)
    right_antipode_classical: bool        # (iv)
    target_source_trivial: bool           # (v)

    @property
    def conditions(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.delta_one_is_one_tensor_one,
            self.counit_multiplicative,
            self.left_antipode_classical,
            self.right_antipode_classical,
            self.target_source_trivial,
        )

    @property
    def consistent(self) -> bool:
        return len(set(self.conditions)) == 1

    @property
    def is_hopf(self) -> bool:
        return all(self.conditions)

    def report(self) -> Report:
        rep = Report("Hopf detection")
        labels = ["(i) Δ(1)=1⊗1", "(ii) ε multiplicative", "(iii) h₁S(h₂)=ε(h)1",
                  "(iv) S(h₁)h₂=ε(h)1", "(v) Ht=Hs=k·1"]
        for lbl, val in zip(labels, self.conditions):
            rep.add(CheckResult(lbl, val))
        rep.add(CheckResult("conditions agree", self.consistent,
                            None if self.consistent else "the five conditions disagree"))
        return rep


def is_hopf(H: WeakHopfData) -> HopfVerdict:
    space = H.space
    n = space.dim
    A, C = H.alg, H.coalg

    cond1 = H.wb.delta_one == A.unit.tensor(A.unit)

    zero = H.field.zero()
    cond2 = all(H.wb.eps_form[i].get(j, zero) == C.eps_coeff(i) * C.eps_coeff(j)
                for i in range(n) for j in range(n))

    ident = LinMap.identity(space)
    eps_times_one = LinMap.from_function(
        space, space, lambda j: A.unit.scale(C.eps_coeff(j)))
    cond3 = (A.mul @ ident.tensor(H.antipode) @ C.comul) == eps_times_one
    cond4 = (A.mul @ H.antipode.tensor(ident) @ C.comul) == eps_times_one

    span_one = Subspace.from_vectors(space, [A.unit])
    cond5 = H.Ht == span_one and H.Hs == span_one

    return HopfVerdict(cond1, cond2, cond3, cond4, cond5)


# ---------------------------------------------------------------------------
# dualization
# ---------------------------------------------------------------------------

def dual_space(V: FinVec) -> FinVec:
    return FinVec(V.field, tuple(f"{l}*" for l in V.labels))


def dualize(H: WeakHopfData) -> WeakHopfData:
    """The dual weak Hopf algebra on the coordinate dual basis.

    Product is convolution (the transpose of Δ), coproduct is the transpose
    of the multiplication, unit is ε, counit is evaluation at 1, and the
    antipode is precomposition with S (the transpose of S's matrix).
    """
    space = H.space
    n = space.dim
    dspace = dual_space(space)
    delta_t = H.coalg.comul_tensor().entries  # [k][i][j]: coeff of e_i⊗e_j in Δ(e_k)
    mul_t = H.alg.mul_tensor().entries        # [i][j][k]: coeff of e_k in e_i·e_j

    conv_entries = [
        [[delta_t[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)
    ]
    dual_alg = AlgebraData.from_tensor(dspace, conv_entries,
                                       [H.coalg.eps_coeff(i) for i in range(n)])

    # Δ*(p_k) = Σ_{i,j} mul[i][j][k] p_i⊗p_j, the unique solution of f(hk)=f₁(h)f₂(k)
    comul_entries = [
        [[mul_t[i][j][k] for j in range(n)] for i in range(n)] for k in range(n)
    ]
    dual_coalg = CoalgebraData.from_tensor(dspace, comul_entries, H.unit.coords)

    dual_s = LinMap(dspace, dspace, H.antipode.transposed_rows())
    return WeakHopfData(WeakBialgebraData(dual_alg, dual_coalg), dual_s)


def same_structure_constants(a: WeakHopfData, b: WeakHopfData) -> bool:
    """Entrywise equality of all five structure tensors (labels ignored)."""
    if a.space.dim != b.space.dim or a.field != b.field:
        return False
    return (
        a.alg.mul.cols == b.alg.mul.cols
        and a.unit.terms == b.unit.terms
        and a.coalg.comul.cols == b.coalg.comul.cols
        and a.coalg.counit.cols == b.coalg.counit.cols
        and a.antipode.cols == b.antipode.cols
    )
