"""JSON import/export for every workbench object.

All scalar entries are canonical strings produced by the field's formatter,
and `canonical_dumps` sorts keys, so identical inputs serialize to
byte-identical documents.  Loaders check every basis, matrix and tensor
against the declared dimensions before building anything, and report a
mismatch as :class:`MalformedInput` naming its JSON path (``at`` prefixes
the path of a document nested in another).
"""

from __future__ import annotations

import json

from .errors import MalformedInput
from .scalars import Field, field_from_name, field_name
from .tensor_space import FinVec, LinMap, Tensor3
from .weak_hopf import AlgebraData, CoalgebraData, WeakBialgebraData, WeakHopfData


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _matrix_to(field: Field, rows):
    return [[field.fmt(x) for x in row] for row in rows]


def _tensor_to(field: Field, entries):
    return [[[field.fmt(x) for x in row] for row in plane] for plane in entries]


def _shaped(value, shape: tuple, path: str):
    """``value``, once checked to be nested lists of the given shape whose
    leaves are scalar strings or integers."""
    if not shape:
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise MalformedInput(f"{path}: expected a scalar string, got {value!r}")
        return value
    if not isinstance(value, list) or len(value) != shape[0]:
        raise MalformedInput(f"{path}: expected a list of {shape[0]} entries")
    for i, item in enumerate(value):
        _shaped(item, shape[1:], f"{path}[{i}]")
    return value


def _field(d: dict, at: str) -> Field:
    name = d["field"]
    if not isinstance(name, str):
        raise MalformedInput(f"{at}field: expected a field name such as 'Q', got {name!r}")
    return field_from_name(name)


def _space(field: Field, labels, path: str) -> FinVec:
    if not (isinstance(labels, list) and labels and all(isinstance(x, str) for x in labels)
            and len(set(labels)) == len(labels)):
        raise MalformedInput(f"{path}: expected a list of distinct basis labels")
    return FinVec(field, tuple(labels))


def _basis(d: dict, at: str) -> FinVec:
    return _space(_field(d, at), d["basis"], f"{at}basis")


def _algebra(d: dict, space: FinVec, at: str) -> AlgebraData:
    n = space.dim
    return AlgebraData.from_tensor(space, _shaped(d["mul"], (n, n, n), f"{at}mul"),
                                   _shaped(d["unit"], (n,), f"{at}unit"))


def _coalgebra(d: dict, space: FinVec, at: str) -> CoalgebraData:
    n = space.dim
    return CoalgebraData.from_tensor(space, _shaped(d["comul"], (n, n, n), f"{at}comul"),
                                     _shaped(d["counit"], (n,), f"{at}counit"))


# -- bare linear data --------------------------------------------------------

def linmap_to_json(f: LinMap) -> dict:
    field = f.domain.field
    return {
        "schema": "linmap",
        "field": field_name(field),
        "domain": list(f.domain.labels),
        "codomain": list(f.codomain.labels),
        "rows": _matrix_to(field, f.rows),
    }


def linmap_from_json(d: dict) -> LinMap:
    field = _field(d, "")
    dom = _space(field, d["domain"], "domain")
    cod = _space(field, d["codomain"], "codomain")
    return LinMap.from_rows(dom, cod, _shaped(d["rows"], (cod.dim, dom.dim), "rows"))


def tensor3_to_json(t) -> dict:
    field = t.spaces[0].field
    return {
        "schema": "tensor3",
        "field": field_name(field),
        "kind": t.kind,
        "spaces": [list(s.labels) for s in t.spaces],
        "entries": _tensor_to(field, t.entries),
    }


def tensor3_from_json(d: dict):
    field = _field(d, "")
    if not isinstance(d["spaces"], list) or len(d["spaces"]) != 3:
        raise MalformedInput("spaces: expected three bases")
    spaces = tuple(_space(field, labels, f"spaces[{i}]")
                   for i, labels in enumerate(d["spaces"]))
    entries = _shaped(d["entries"], tuple(s.dim for s in spaces), "entries")
    return Tensor3.from_entries(d["kind"], spaces, entries)


# -- structures --------------------------------------------------------------

def algebra_to_json(A: AlgebraData) -> dict:
    f = A.field
    return {
        "schema": "algebra",
        "field": field_name(f),
        "basis": list(A.space.labels),
        "mul": _tensor_to(f, A.mul_tensor().entries),
        "unit": [f.fmt(x) for x in A.unit.coords],
    }


def algebra_from_json(d: dict, at: str = "") -> AlgebraData:
    return _algebra(d, _basis(d, at), at)


def coalgebra_to_json(C: CoalgebraData) -> dict:
    f = C.field
    return {
        "schema": "coalgebra",
        "field": field_name(f),
        "basis": list(C.space.labels),
        "comul": _tensor_to(f, C.comul_tensor().entries),
        "counit": [f.fmt(x) for x in C.counit.rows[0]],
    }


def coalgebra_from_json(d: dict, at: str = "") -> CoalgebraData:
    return _coalgebra(d, _basis(d, at), at)


def weakhopf_to_json(H: WeakHopfData) -> dict:
    f = H.field
    return {
        "schema": "weak-hopf",
        "field": field_name(f),
        "basis": list(H.space.labels),
        "mul": _tensor_to(f, H.alg.mul_tensor().entries),
        "unit": [f.fmt(x) for x in H.unit.coords],
        "comul": _tensor_to(f, H.coalg.comul_tensor().entries),
        "counit": [f.fmt(x) for x in H.coalg.counit.rows[0]],
        "antipode": _matrix_to(f, H.antipode.rows),
    }


def weakhopf_from_json(d: dict, at: str = "") -> WeakHopfData:
    space = _basis(d, at)
    n = space.dim
    wb = WeakBialgebraData(_algebra(d, space, at), _coalgebra(d, space, at))
    antipode = LinMap.from_rows(space, space, _shaped(d["antipode"], (n, n), f"{at}antipode"))
    return WeakHopfData(wb, antipode)


def _carrier_to_json(carrier) -> dict:
    if isinstance(carrier, CoalgebraData):
        return coalgebra_to_json(carrier)
    return algebra_to_json(carrier)


def _carrier_from_json(d: dict, at: str):
    schema = d.get("schema") if isinstance(d, dict) else None
    if schema == "coalgebra":
        return coalgebra_from_json(d, at)
    if schema == "algebra":
        return algebra_from_json(d, at)
    raise MalformedInput(f"{at}schema: the carrier must be a coalgebra or algebra document")


def action_to_json(act: ActionTensor, groupoid: FiniteGroupoid | None = None) -> dict:
    f = act.hopf.field
    out = {
        "schema": "action",
        "field": field_name(f),
        "side": act.side,
        "hopf": weakhopf_to_json(act.hopf),
        "carrier": _carrier_to_json(act.carrier),
        "tensor": _tensor_to(f, act.tensor3().entries),
    }
    if groupoid is not None:
        from .groupoid import groupoid_to_spec
        out["groupoid"] = groupoid_to_spec(groupoid)
    return out


def action_from_json(d: dict, at: str = "") -> ActionTensor:
    from .partial_actions import ActionTensor

    hopf = weakhopf_from_json(d["hopf"], f"{at}hopf.")
    carrier = _carrier_from_json(d["carrier"], f"{at}carrier.")
    side = d["side"]
    if side not in ("left", "right"):
        raise MalformedInput(f"{at}side: expected 'left' or 'right', got {side!r}")
    X = carrier.space
    H = hopf.space
    shape = (H.dim, X.dim, X.dim) if side == "left" else (X.dim, H.dim, X.dim)
    entries = _shaped(d["tensor"], shape, f"{at}tensor")
    slices = []
    for i in range(H.dim):
        if side == "left":
            rows = [[entries[i][j][k] for j in range(X.dim)] for k in range(X.dim)]
        else:
            rows = [[entries[j][i][k] for j in range(X.dim)] for k in range(X.dim)]
        slices.append(LinMap.from_rows(X, X, rows))
    return ActionTensor.from_slices(hopf, carrier, side, slices)


def action_groupoid_from_json(d: dict) -> FiniteGroupoid | None:
    if "groupoid" in d:
        from .groupoid import groupoid_from_spec
        return groupoid_from_spec(d["groupoid"], "groupoid.")
    return None


def lambda_to_json(lf: LambdaFunctional, groupoid: FiniteGroupoid | None = None,
                   hopf_kind: str | None = None, side: str = "left") -> dict:
    f = lf.hopf.field
    out = {
        "schema": "lambda",
        "field": field_name(f),
        "side": side,
        "hopf": weakhopf_to_json(lf.hopf),
        "values": [f.fmt(v) for v in lf.values],
    }
    if groupoid is not None:
        from .groupoid import groupoid_to_spec
        out["groupoid"] = groupoid_to_spec(groupoid)
    if hopf_kind is not None:
        out["hopf_kind"] = hopf_kind
    return out


def lambda_from_json(d: dict):
    """Returns (functional, groupoid_or_None, hopf_kind_or_None, side)."""
    from .groupoid import dual_groupoid_algebra, groupoid_algebra, groupoid_from_spec
    from .partial_actions import LambdaFunctional

    f = _field(d, "")
    G = groupoid_from_spec(d["groupoid"], "groupoid.") if "groupoid" in d else None
    kind = d.get("hopf_kind")
    if "hopf" in d:
        hopf = weakhopf_from_json(d["hopf"])
    elif G is not None and kind in ("kG", "kG-dual"):
        hopf = groupoid_algebra(G, f) if kind == "kG" else dual_groupoid_algebra(G, f)
    else:
        raise MalformedInput("lambda document needs 'hopf' or 'groupoid'+'hopf_kind'")
    lf = LambdaFunctional.from_values(hopf, _shaped(d["values"], (hopf.space.dim,), "values"))
    return lf, G, kind, d.get("side", "left")


def gpa_to_json(gpa: GroupoidPartialAction) -> dict:
    from .groupoid import groupoid_to_spec

    f = gpa.coalgebra.field
    return {
        "schema": "groupoid-action",
        "field": field_name(f),
        "groupoid": groupoid_to_spec(gpa.groupoid),
        "coalgebra": coalgebra_to_json(gpa.coalgebra),
        "projections": {g: _matrix_to(f, gpa.P(g).rows) for g in gpa.groupoid.elements},
        "isos": {g: _matrix_to(f, gpa.theta(g).rows) for g in gpa.groupoid.elements},
    }


def gpa_from_json(d: dict) -> GroupoidPartialAction:
    from .groupoid import groupoid_from_spec
    from .partial_actions import GroupoidPartialAction

    G = groupoid_from_spec(d["groupoid"], "groupoid.")
    C = coalgebra_from_json(d["coalgebra"], "coalgebra.")
    space = C.space
    shape = (space.dim, space.dim)
    projections = {g: LinMap.from_rows(space, space, _shaped(d["projections"][g], shape,
                                                             f"projections.{g}"))
                   for g in G.elements}
    isos = {g: LinMap.from_rows(space, space, _shaped(d["isos"][g], shape, f"isos.{g}"))
            for g in G.elements}
    return GroupoidPartialAction(G, C, projections, isos)


def triple_to_json(gt: GlobalizationTriple) -> dict:
    f = gt.partial.hopf.field
    return {
        "schema": "globalization",
        "field": field_name(f),
        "partial": action_to_json(gt.partial),
        "D": coalgebra_to_json(gt.D),
        "global_tensor": _tensor_to(f, gt.global_act.tensor3().entries),
        "theta": _matrix_to(f, gt.theta.rows),
        "pi": _matrix_to(f, gt.pi.rows),
    }


def triple_from_json(d: dict) -> GlobalizationTriple:
    from .globalization import GlobalizationTriple
    from .partial_actions import ActionTensor

    partial = action_from_json(d["partial"], "partial.")
    D = coalgebra_from_json(d["D"], "D.")
    H = partial.hopf.space
    X = D.space
    entries = _shaped(d["global_tensor"], (X.dim, H.dim, X.dim), "global_tensor")
    slices = []
    for i in range(H.dim):
        rows = [[entries[j][i][k] for j in range(X.dim)] for k in range(X.dim)]
        slices.append(LinMap.from_rows(X, X, rows))
    global_act = ActionTensor.from_slices(partial.hopf, D, "right", slices)
    C = partial.carrier.space
    theta = LinMap.from_rows(C, X, _shaped(d["theta"], (X.dim, C.dim), "theta"))
    pi = LinMap.from_rows(X, X, _shaped(d["pi"], (X.dim, X.dim), "pi"))
    return GlobalizationTriple(partial, D, global_act, theta, pi)


def abelian_group_from_spec(d: dict) -> FiniteAbelianGroup:
    from .groupoid import FiniteAbelianGroup

    return FiniteAbelianGroup(tuple(int(n) for n in d["factors"]))
