"""JSON export for every workbench object, and the ``linmap`` and ``tensor3``
documents read back.  Scalars are written by the field's formatter, so equal
inputs give equal documents, which `errors.canonical_dumps` writes byte for byte
alike; nested arrays are written straight from sparse columns (`_encode`).
"""

from __future__ import annotations

from itertools import chain
from math import prod

from .errors import MalformedInput, ShapeMismatch
from .scalars import field_name
from .structures import CoalgebraData
from .tensor_space import LinMap, tensor_product


def _encode(field: Field, cols, shape: tuple, inner: int) -> list:
    """The nested array that `_decode` reads as ``cols`` with the same
    ``shape`` and ``inner``, formatting each distinct scalar once."""
    flat = [field.fmt(field.zero())] * prod(shape)
    text = {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            s = text.get(v)
            if s is None:
                s = text[v] = field.fmt(v)
            flat[j * inner + i] = s
    for n in reversed(shape[1:]):
        flat = [flat[k:k + n] for k in range(0, len(flat), n)]
    return flat


def _rows(f: LinMap) -> list:
    """The dense ``rows[codomain][domain]`` matrix of ``f``."""
    return _encode(f.field, f.transposed_rows(), (f.codomain.dim, f.domain.dim), f.domain.dim)


# -- bare linear data --------------------------------------------------------

def linmap_to_json(f: LinMap) -> dict:
    return {"schema": "linmap", "field": field_name(f.field), "domain": list(f.domain.labels),
            "codomain": list(f.codomain.labels), "rows": _rows(f)}


def linmap_from_json(d: dict) -> LinMap:
    from .jsonio import _field, _get, _matrix, _space

    field = _field(d, "")
    dom = _space(field, _get(d, "domain", ""), "domain")
    cod = _space(field, _get(d, "codomain", ""), "codomain")
    return _matrix(_get(d, "rows", ""), dom, cod, "rows")


def tensor3_to_json(f: LinMap) -> dict:
    """The dense structure constants of f, a map X⊗Y → Z written ``pair_to_one``
    (``entries[i][j][k]`` is the coefficient of z_k in (x_i, y_j)) or, when its
    codomain is a tensor product, X → Y⊗Z written ``one_to_pair`` (the
    coefficient of y_j⊗z_k in the image of x_i)."""
    pair = not f.codomain.factors
    spaces = (*f.domain.factors, f.codomain) if pair else (f.domain, *f.codomain.factors)
    if len(spaces) != 3:
        raise ShapeMismatch("a tensor3 document holds a map X⊗Y → Z or X → Y⊗Z")
    return {"schema": "tensor3", "field": field_name(f.field),
            "kind": "pair_to_one" if pair else "one_to_pair",
            "spaces": [list(s.labels) for s in spaces],
            "entries": _encode(f.field, f.cols, tuple(s.dim for s in spaces), f.codomain.dim)}


def tensor3_from_json(d: dict) -> LinMap:
    from .jsonio import _decode, _field, _get, _space

    field, kind, spaces = _field(d, ""), _get(d, "kind", ""), _get(d, "spaces", "")
    if kind not in ("pair_to_one", "one_to_pair"):
        raise MalformedInput(f"kind: expected 'pair_to_one' or 'one_to_pair', got {kind!r}")
    if not isinstance(spaces, list) or len(spaces) != 3:
        raise MalformedInput("spaces: expected three bases")
    X, Y, Z = (_space(field, labels, f"spaces[{i}]") for i, labels in enumerate(spaces))
    pair = kind == "pair_to_one"
    [cols] = _decode(field, (_get(d, "entries", ""), (X.dim, Y.dim, Z.dim), "entries",
                             Z.dim if pair else Y.dim * Z.dim))
    return LinMap(tensor_product(X, Y), Z, cols) if pair else LinMap(X, tensor_product(Y, Z), cols)


# -- structures and actions --------------------------------------------------

def algebra_to_json(A: AlgebraData) -> dict:
    f, n = A.field, A.space.dim
    return {"schema": "algebra", "field": field_name(f), "basis": list(A.space.labels),
            "mul": _encode(f, A.mul.cols, (n, n, n), n),
            "unit": _encode(f, [A.unit.terms], (n,), n)}


def coalgebra_to_json(C: CoalgebraData) -> dict:
    f, n = C.field, C.space.dim
    return {"schema": "coalgebra", "field": field_name(f), "basis": list(C.space.labels),
            "comul": _encode(f, C.comul.cols, (n, n, n), n * n), "counit": _rows(C.counit)[0]}


def weakhopf_to_json(H: WeakHopfData) -> dict:
    return {**algebra_to_json(H.alg), **coalgebra_to_json(H.coalg),
            "schema": "weak-hopf", "antipode": _rows(H.antipode)}


def _action_tensor(act: ActionTensor) -> list:
    """The tensor entries of ``act``: its slices' columns in the order `_action` cuts them."""
    m, n, cols = act.space.dim, act.hopf.space.dim, [s.cols for s in act.slices]
    left = act.side == "left"
    return _encode(act.space.field, chain.from_iterable(cols if left else zip(*cols)),
                   (n, m, m) if left else (m, n, m), m)


def action_to_json(act: ActionTensor, groupoid: FiniteGroupoid | None = None) -> dict:
    carrier = (coalgebra_to_json if isinstance(act.carrier, CoalgebraData)
               else algebra_to_json)(act.carrier)
    out = {"schema": "action", "field": field_name(act.hopf.field), "side": act.side,
           "hopf": weakhopf_to_json(act.hopf), "carrier": carrier,
           "tensor": _action_tensor(act)}
    if groupoid is not None:
        from .groupoid import groupoid_to_spec
        out["groupoid"] = groupoid_to_spec(groupoid)
    return out


def lambda_to_json(lf: LambdaFunctional, groupoid: FiniteGroupoid | None = None,
                   hopf_kind: str | None = None, side: str = "left") -> dict:
    f = lf.hopf.field
    out = {"schema": "lambda", "field": field_name(f), "side": side,
           "hopf": weakhopf_to_json(lf.hopf), "values": [f.fmt(v) for v in lf.values]}
    if groupoid is not None:
        from .groupoid import groupoid_to_spec
        out["groupoid"] = groupoid_to_spec(groupoid)
    if hopf_kind is not None:
        out["hopf_kind"] = hopf_kind
    return out


def gpa_to_json(gpa: GroupoidPartialAction) -> dict:
    from .groupoid import groupoid_to_spec

    C, elements = gpa.coalgebra, gpa.groupoid.elements
    return {"schema": "groupoid-action", "field": field_name(C.field),
            "groupoid": groupoid_to_spec(gpa.groupoid), "coalgebra": coalgebra_to_json(C),
            "projections": {g: _rows(gpa.P(g)) for g in elements},
            "isos": {g: _rows(gpa.theta(g)) for g in elements}}


def triple_to_json(gt: GlobalizationTriple) -> dict:
    return {"schema": "globalization", "field": field_name(gt.partial.hopf.field),
            "partial": action_to_json(gt.partial), "D": coalgebra_to_json(gt.D),
            "global_tensor": _action_tensor(gt.global_act),
            "theta": _rows(gt.theta), "pi": _rows(gt.pi)}
