"""The weak Hopf checks of a ℚ structure with a non-integral constant, decided
on its exact image in ℤ/M (the modular method: von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 5).  Only such a structure loads this module.

Each statement decided on the image compares sums of products of entries of
the tables that its family reads of the ℚ structure: m, u, Δ, ε and the cached
Δ(1) and ε∘m (Δ1, εm); for the weak Hopf axioms also S, ε_t and ε_s (εt, εs);
for the catalogue also S⁻¹ and the bases of H_t and H_s (Ht, Hs).  The image
computes all else (Δ², products with u or S, …) by the same sums and products.
Let D_t be the lcm of the denominators of table t and A_t its largest
|D_t·entry|.  ``SIDES`` is the proof: it lists every value that a statement
compares or prints (a witness's h from H_t or H_s too) as "k t₁ … t_f", a sum
of at most n^k terms, each a product of one entry of each t_i.  With s the lcm
over the sides of ∏D_{t_i}, s times such a term is an integer of absolute value
at most its height (s/∏D_{t_i})·∏A_{t_i}, so |s·v| ≤ B, the largest
n^k·height.  M is the least integer above 2B and every A_t that is prime to
every D_t: reduction is a ring map, and lhs ≡ rhs (mod M) iff s·(lhs − rhs) = 0,
iff lhs = rhs.  M need not be prime, as nothing is divided.  So a nonzero entry
stays nonzero, and the symmetric residue of s·v over s is v: a witness prints as
over ℚ.  S(Ht)=Hs, S(Hs)=Ht and the elimination behind H_t, H_s and S⁻¹ stay
over ℚ, and so does Eq 4.7, which reads Hs⊗Ht off their canonical bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .elimination import Subspace
from .scalars import Field
from .structures import AlgebraData, CoalgebraData, WeakBialgebraData, WeakHopfData
from .tensor_space import FinVec, LinMap, Vector, tensor_product

# statement: its sides, each "k tables"; the weak Hopf image also decides the weak bialgebra axioms
_WB = """assoc: 1 m m | 1 m m; unit laws: 1 u m | 0; coassoc: 1 Δ Δ | 1 Δ Δ
    counit laws: 1 Δ ε | 0; (i): 1 m Δ | 4 Δ Δ m m; (ii): 1 m εm | 2 εm Δ εm
    (iii): 6 Δ1 Δ1 u m m u m | 2 u Δ Δ"""
SIDES = {"wb": _WB, "weak Hopf": _WB + """
    S-(i), S-(ii): 3 Δ S m | 0 εt | 0 εs; S-(iii): 7 Δ Δ S m S m | 0 S
    S(1)=1: 1 u S | 0 u; eps∘S=eps: 1 S ε | 0 ε; S-antimult: 1 m S | 2 S S m
    S-anticomult: 1 S Δ | 2 Δ S S; Δ(1)=(S⊗S)flip(Δ(1)): 0 Δ1 | 2 Δ1 S S""", "identities": """
    4.2a/b: 0 Δ | 4 Δ Δ1 m m; 4.3, 4.4: 1 εt εt | 0 εt | 1 εs εs | 0 εs
    4.5, 4.6: 1 εm εt | 1 εs εm | 0 εm; 4.8, 4.9: 2 εt m εt | 1 m εt | 2 εs m εs | 1 m εs
    4.10, 4.11: 1 Ht Δ | 2 Ht Δ1 m | 0 Ht | 1 Hs Δ | 2 Hs Δ1 m | 0 Hs
    4.12, 4.13: 1 Δ εt | 1 Δ εs | 1 Δ1 m; 4.14, 4.15: 1 εt m | 1 εs m | 1 Δ εm
    4.16: 2 Ht Hs m; 4.17, 4.18: 2 Δ1 Δ εt | 2 Δ1 Δ εs | 2 Δ1 Δ1 m
    4.19, 4.20: 2 εt m εt | 2 εt εt m | 2 εs m εs | 2 εs εs m
    4.30-4.33: 0 εt | 0 εs | 3 Δ1 S m ε | 2 Δ1 S εm; 4.34, 4.35: 1 S εt | 1 εs εt | 1 S εs
    4.36-4.39: 4 Δ Δ S m | 1 Δ1 m | 2 Δ1 m S; 4.41a, 4.41b: 4 Δ Δ S⁻¹ m | 2 Δ εt S | 1 Δ1 m
    4.42, 4.43: 3 Ht Δ1 S⁻¹ m | 2 Ht Δ1 m | 3 Hs Δ1 S⁻¹ m | 2 Hs Δ1 m"""}
# each family's distinct sides, as (k, tables)
_SIDES = {family: {(int(k), tuple(t)) for s in text.replace("\n", ";").split(";") if ":" in s
                   for k, *t in map(str.split, s.partition(":")[2].split("|"))}
          for family, text in SIDES.items()}


class ImageField(Field):
    """ℤ/M for values v with |scale·v| < M/2: ``coerce`` reduces a rational,
    ``fmt`` lifts a residue back to the rational it is the image of."""

    def __init__(self, M: int, scale: int):
        self.characteristic, self.scale = M, scale

    def coerce(self, x):
        return x.numerator * pow(x.denominator, -1, M := self.characteristic) % M

    def fmt(self, a) -> str:
        r = a * self.scale % (M := self.characteristic)
        return str(Fraction(r - M if 2 * r > M else r, self.scale))


def image(H, family: str, tables: dict):
    """The image in ℤ/M of the weak bialgebra (``family`` "wb") or weak Hopf
    algebra H, with the ``tables`` that the family reads of H reduced."""
    D, A, n = dict.fromkeys(tables, 1), dict.fromkeys(tables, 0), H.space.dim
    # each distinct (table, entry) once: D, A and the tables with a negative or non-int entry
    entries = {(name, c.numerator, c.denominator, type(c) is int)
               for name, cols in tables.items() for col in cols for c in col.values()}
    for name, _, b, _ in entries:
        D[name] = lcm(D[name], b)
    mixed = {name for name, a, _, is_int in entries if a < 0 or not is_int}
    for name, a, b, _ in entries:
        A[name] = max(A[name], abs(a) * (D[name] // b))
    sides = [(n ** k, prod(map(D.__getitem__, t)), prod(map(A.__getitem__, t)))
             for k, t in _SIDES[family]]
    scale = lcm(*(d for _, d, _ in sides))
    M = 2 * max(*A.values(), *(w * (scale // d) * a for w, d, a in sides)) + 1
    while gcd(M, lcm(*D.values())) != 1:
        M += 1
    inverse = {b: pow(b, -1, M) for _, _, b, _ in entries}
    # a table of ints in [0, M) is its own image; the others are reduced to ints
    red = {name: [{i: c.numerator * inverse[c.denominator] % M for i, c in col.items()}
                  for col in cols] if name in mixed else cols for name, cols in tables.items()}
    field = ImageField(M, scale)
    space = FinVec(field, H.space.labels)
    HH, wb = tensor_product(space, space), H if family == "wb" else H.wb
    ground = FinVec(field, wb.coalg.counit.codomain.labels)
    img = WeakBialgebraData(
        AlgebraData(space, LinMap(HH, space, red["m"]), Vector(space, red["u"][0])),
        CoalgebraData(space, LinMap(space, HH, red["Δ"]), LinMap(space, ground, red["ε"])))
    img.__dict__.update(delta_one=Vector(HH, red["Δ1"][0]), eps_form=tuple(red["εm"]))
    if family == "wb":
        return img
    img = WeakHopfData(img, LinMap(space, space, red["S"]))
    img.__dict__.update(eps_t=LinMap(space, space, red["εt"]),
                        eps_s=LinMap(space, space, red["εs"]))
    if family == "identities":
        img.__dict__.update(
            antipode_inverse=LinMap(space, space, red["S⁻¹"]) if red["S⁻¹"] else None,
            Ht=Subspace(space, dict(zip(H.Ht.basis, red["Ht"]))),
            Hs=Subspace(space, dict(zip(H.Hs.basis, red["Hs"]))))
    return img
