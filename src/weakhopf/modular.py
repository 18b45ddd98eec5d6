"""The weak Hopf checks of a ℚ structure with a non-integral constant, decided
on its exact image in ℤ/M (the modular method: von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 5).  Only such a structure loads this module.

Each statement decided on the image compares two sums of products of entries
of the tables that its family reads of the ℚ structure: m, u, Δ, ε and the
cached Δ(1) and ε∘m; for the weak Hopf axioms also S, ε_t and ε_s; for the
catalogue also S⁻¹ and the bases of H_t and H_s.  All else (Δ², products
with u or S, …) the image computes by the same sums and products.  Let D be
the lcm of the denominators of these entries, A the largest |D·entry|, F the
most table factors in one term and n^k the most terms in one compared entry.
A term of f ≤ F factors times D^F is an integer of absolute value at most
D^(F−f)·A^f, so |D^F·v| ≤ B = n^k·max(A, D)^F for every compared value v.
M is the least integer above 2B prime to D: D is a unit mod M, reduction is
a ring map, and lhs ≡ rhs (mod M) iff D^F·(lhs − rhs) = 0, iff lhs = rhs.
M need not be prime, as nothing is divided.  So a nonzero entry stays
nonzero, and the symmetric residue of D^F·v over D^F is v: a witness prints
as over ℚ.  (F, k) per statement, each table read counting one factor:

* algebra and coalgebra axioms, 4.3–4.6, 4.12–4.15, 4.34, 4.35, S(1)=1 and
  ε∘S=ε: (2, 1);
* (ii), S-antimult, S-anticomult, Δ(1)=(S⊗S)flip(Δ(1)), 4.8–4.11, 4.16–4.20,
  4.32, 4.33 and 4.41b: (3, 2); S-(i) and S-(ii): (3, 3);
* 4.30, 4.31, 4.42 and 4.43: (4, 3); (i), 4.2a/b, 4.36–4.39 and 4.41a: (4, 4);
* (iii), Δ(1)⊗Δ(1) through m and two products with u: (7, 6); S-(iii), Δ²
  through S, m, S and m: (6, 7).

So the weak bialgebra axioms take (F, k) = (7, 6), the weak Hopf axioms
(7, 7) and the catalogue (4, 4).  The rank statements S(Ht)=Hs, S(Hs)=Ht and
Eq 4.7, and the elimination behind H_t, H_s and S⁻¹, stay over ℚ.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .elimination import Subspace
from .scalars import Field
from .structures import AlgebraData, CoalgebraData, WeakBialgebraData, WeakHopfData
from .tensor_space import FinVec, LinMap, Vector, tensor_product

BOUNDS = {"wb": (7, 6), "weak Hopf": (7, 7), "identities": (4, 4)}


class ImageField(Field):
    """ℤ/M for values v with |scale·v| < M/2: ``coerce`` reduces a rational,
    ``fmt`` lifts a residue back to the rational it is the image of."""

    def __init__(self, M: int, scale: int):
        self.characteristic, self.scale, self._inverse = M, scale, {}

    def coerce(self, x):
        M = self.characteristic
        if isinstance(x, int):
            return x % M
        if (inv := self._inverse.get(x.denominator)) is None:
            inv = self._inverse[x.denominator] = pow(x.denominator, -1, M)
        return x.numerator * inv % M

    def fmt(self, a) -> str:
        M = self.characteristic
        r = a * self.scale % M
        return str(Fraction(r - M if 2 * r > M else r, self.scale))


def image(H, family: str, tables: dict):
    """The image in ℤ/M of the weak bialgebra (``family`` "wb") or weak Hopf
    algebra H, with the ``tables`` that the family reads of H reduced."""
    entries = [c for cols in tables.values() for col in cols for c in col.values()]
    D = lcm(*{c.denominator for c in entries})
    F, k = BOUNDS[family]
    M = 2 * H.space.dim ** k * max(D, *(abs(c.numerator) * (D // c.denominator)
                                        for c in entries)) ** F + 1
    while gcd(M, D) != 1:
        M += 1
    field = ImageField(M, D ** F)
    red = {name: [{i: field.coerce(c) for i, c in col.items()} for col in cols]
           for name, cols in tables.items()}
    space = FinVec(field, H.space.labels)
    HH, wb = tensor_product(space, space), H if family == "wb" else H.wb
    ground = FinVec(field, wb.coalg.counit.codomain.labels)
    img = WeakBialgebraData(
        AlgebraData(space, LinMap(HH, space, red["mul"]), Vector(space, red["unit"][0])),
        CoalgebraData(space, LinMap(space, HH, red["comul"]), LinMap(space, ground, red["counit"])))
    img.__dict__.update(delta_one=Vector(HH, red["delta_one"][0]), eps_form=tuple(red["eps_form"]))
    if family == "wb":
        return img
    img = WeakHopfData(img, LinMap(space, space, red["antipode"]))
    img.__dict__.update(eps_t=LinMap(space, space, red["eps_t"]),
                        eps_s=LinMap(space, space, red["eps_s"]))
    if family == "identities":
        img.__dict__.update(
            antipode_inverse=LinMap(space, space, red["S⁻¹"]) if red["S⁻¹"] else None,
            Ht=Subspace(space, dict(zip(H.Ht.basis, red["Ht"]))),
            Hs=Subspace(space, dict(zip(H.Hs.basis, red["Hs"]))))
    return img
