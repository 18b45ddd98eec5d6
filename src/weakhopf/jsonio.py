"""JSON import/export for every workbench object.

All scalar entries are canonical strings produced by the field's formatter,
and `canonical_dumps` sorts keys, so identical inputs serialize to
byte-identical documents.  Loaders check every basis, matrix and tensor
against the declared dimensions before building anything, and report a
mismatch as :class:`MalformedInput` naming its JSON path (``at`` prefixes
the path of a document nested in another).  Nested arrays are read straight
into sparse columns (`_decode`) and written straight from them (`_encode`).
"""

from __future__ import annotations

import json
from itertools import chain, compress, count, repeat
from math import prod

from .errors import MalformedInput
from .scalars import Field, field_from_name, field_name
from .structures import AlgebraData, CoalgebraData, WeakBialgebraData, WeakHopfData
from .tensor_space import PAIR_TO_ONE, FinVec, LinMap, Tensor3, Vector, ground, tensor_product


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _leaves(value, shape: tuple, path: str) -> list:
    """The leaves of ``value`` in row-major order, once checked to be nested
    lists of the given shape whose leaves are scalar strings or integers;
    otherwise the first fault, depth first, is raised with its path."""
    level = [value]
    for n in shape:
        if not all(isinstance(v, list) and len(v) == n for v in level):
            break
        level = list(chain.from_iterable(level))
    else:
        if all(t is not bool and issubclass(t, (str, int)) for t in set(map(type, level))):
            return level
    if not shape:
        raise MalformedInput(f"{path}: expected a scalar string, got {value!r}")
    if not isinstance(value, list) or len(value) != shape[0]:
        raise MalformedInput(f"{path}: expected a list of {shape[0]} entries")
    for i, item in enumerate(value):
        _leaves(item, shape[1:], f"{path}[{i}]")


def _decode(field: Field, *arrays) -> list[list[dict]]:
    """The sparse columns of each ``(value, shape, path, inner)`` array: the
    leaf at row-major position t goes to column t // inner under key t % inner.
    Every shape is checked before any scalar is parsed, and each distinct
    scalar string is parsed once per call."""
    leaves = [_leaves(value, shape, path) for value, shape, path, _ in arrays]
    memo, live, out = {}, {}, []   # keyed on strings only, since True == 1 hashes alike
    for ls, (*_, inner) in zip(leaves, arrays):
        for x in dict.fromkeys(ls):
            if x.__class__ is str and x not in memo:
                memo[x] = v = field.parse(x)
                live[x] = bool(v)
        cols = [{} for _ in range(len(ls) // inner)]
        for t in compress(count(), map(live.get, ls, repeat(True))):
            x = ls[t]
            v = memo[x] if x.__class__ is str else field.coerce(x)
            if v:
                cols[t // inner][t % inner] = v
        out.append(cols)
    return out


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


def _matrix(rows, dom: FinVec, cod: FinVec, path: str) -> LinMap:
    """The map whose dense ``rows[codomain][domain]`` matrix is ``rows``."""
    [transpose] = _decode(dom.field, (rows, (cod.dim, dom.dim), path, dom.dim))
    return LinMap(dom, cod, LinMap(cod, dom, transpose).transposed_rows())


def _field(d: dict, at: str) -> Field:
    name = d["field"]
    try:
        return field_from_name(name)
    except MalformedInput as exc:
        raise MalformedInput(f"{at}field: {exc}") from None
    except (AttributeError, ValueError):
        raise MalformedInput(f"{at}field: expected a field name such as 'Q', "
                             f"got {name!r}") from None


def _same_field(d: dict, field: Field, at: str = "") -> None:
    if "field" in d and _field(d, at) != field:
        raise MalformedInput(f"{at}field: the structures are over {field_name(field)}")


def _space(field: Field, labels, path: str) -> FinVec:
    if not (isinstance(labels, list) and labels and all(isinstance(x, str) for x in labels)
            and len(set(labels)) == len(labels)):
        raise MalformedInput(f"{path}: expected a list of distinct basis labels")
    return FinVec(field, tuple(labels))


def _basis(d: dict, at: str) -> FinVec:
    return _space(_field(d, at), d["basis"], f"{at}basis")


def _algebra(d: dict, space: FinVec, at: str) -> AlgebraData:
    n = space.dim
    mul, [unit] = _decode(space.field, (d["mul"], (n, n, n), f"{at}mul", n),
                          (d["unit"], (n,), f"{at}unit", n))
    return AlgebraData(space, LinMap(tensor_product(space, space), space, mul),
                       Vector(space, unit))


def _coalgebra(d: dict, space: FinVec, at: str) -> CoalgebraData:
    n = space.dim
    comul, [counit] = _decode(space.field, (d["comul"], (n, n, n), f"{at}comul", n * n),
                              (d["counit"], (n,), f"{at}counit", n))
    k = ground(space.field)
    return CoalgebraData(space, LinMap(space, tensor_product(space, space), comul),
                         LinMap(space, k, LinMap(k, space, [counit]).transposed_rows()))


def _action(hopf: WeakHopfData, carrier, side: str, entries, path: str) -> ActionTensor:
    """The action whose tensor is ``entries[i][j][k]``, the coefficient of x_k
    in h_i·x_j (left) or x_i↼h_j (right)."""
    from .actions import ActionTensor

    X = carrier.space
    factors = (hopf.space, X) if side == "left" else (X, hopf.space)
    [cols] = _decode(X.field, (entries, (factors[0].dim, factors[1].dim, X.dim), path, X.dim))
    return ActionTensor(hopf, carrier, side, LinMap(tensor_product(*factors), X, cols))


# -- bare linear data --------------------------------------------------------

def linmap_to_json(f: LinMap) -> dict:
    return {"schema": "linmap", "field": field_name(f.field), "domain": list(f.domain.labels),
            "codomain": list(f.codomain.labels), "rows": _rows(f)}


def linmap_from_json(d: dict) -> LinMap:
    field = _field(d, "")
    dom = _space(field, d["domain"], "domain")
    cod = _space(field, d["codomain"], "codomain")
    return _matrix(d["rows"], dom, cod, "rows")


def tensor3_to_json(t) -> dict:
    X, Y, Z = (s.dim for s in t.spaces)
    field = t.spaces[0].field
    return {"schema": "tensor3", "field": field_name(field), "kind": t.kind,
            "spaces": [list(s.labels) for s in t.spaces],
            "entries": _encode(field, t.to_linmap().cols, (X, Y, Z),
                               Z if t.kind == PAIR_TO_ONE else Y * Z)}


def tensor3_from_json(d: dict):
    field = _field(d, "")
    if not isinstance(d["spaces"], list) or len(d["spaces"]) != 3:
        raise MalformedInput("spaces: expected three bases")
    X, Y, Z = spaces = tuple(_space(field, labels, f"spaces[{i}]")
                             for i, labels in enumerate(d["spaces"]))
    pair = d["kind"] == PAIR_TO_ONE
    [cols] = _decode(field, (d["entries"], (X.dim, Y.dim, Z.dim), "entries",
                             Z.dim if pair else Y.dim * Z.dim))
    f = LinMap(tensor_product(X, Y), Z, cols) if pair else LinMap(X, tensor_product(Y, Z), cols)
    return Tensor3.from_linmap(d["kind"], spaces, f)


# -- structures --------------------------------------------------------------

def algebra_to_json(A: AlgebraData) -> dict:
    f, n = A.field, A.space.dim
    return {"schema": "algebra", "field": field_name(f), "basis": list(A.space.labels),
            "mul": _encode(f, A.mul.cols, (n, n, n), n),
            "unit": _encode(f, [A.unit.terms], (n,), n)}


def algebra_from_json(d: dict, at: str = "") -> AlgebraData:
    return _algebra(d, _basis(d, at), at)


def coalgebra_to_json(C: CoalgebraData) -> dict:
    f, n = C.field, C.space.dim
    return {"schema": "coalgebra", "field": field_name(f), "basis": list(C.space.labels),
            "comul": _encode(f, C.comul.cols, (n, n, n), n * n), "counit": _rows(C.counit)[0]}


def coalgebra_from_json(d: dict, at: str = "") -> CoalgebraData:
    return _coalgebra(d, _basis(d, at), at)


def weakhopf_to_json(H: WeakHopfData) -> dict:
    return {**algebra_to_json(H.alg), **coalgebra_to_json(H.coalg),
            "schema": "weak-hopf", "antipode": _rows(H.antipode)}


def weakhopf_from_json(d: dict, at: str = "") -> WeakHopfData:
    space = _basis(d, at)
    wb = WeakBialgebraData(_algebra(d, space, at), _coalgebra(d, space, at))
    return WeakHopfData(wb, _matrix(d["antipode"], space, space, f"{at}antipode"))


def _carrier_from_json(d: dict, at: str):
    schema = d.get("schema") if isinstance(d, dict) else None
    if schema == "coalgebra":
        return coalgebra_from_json(d, at)
    if schema == "algebra":
        return algebra_from_json(d, at)
    raise MalformedInput(f"{at}schema: the carrier must be a coalgebra or algebra document")


def _action_tensor(act: ActionTensor) -> list:
    X, H = act.space.dim, act.hopf.space.dim
    return _encode(act.space.field, act.action.cols,
                   (H, X, X) if act.side == "left" else (X, H, X), X)


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


def action_from_json(d: dict, at: str = "") -> ActionTensor:
    hopf = weakhopf_from_json(d["hopf"], f"{at}hopf.")
    carrier = _carrier_from_json(d["carrier"], f"{at}carrier.")
    _same_field(d, hopf.field, at)
    return _action(hopf, carrier, _side(d["side"], at), d["tensor"], f"{at}tensor")


def _side(side, at: str) -> str:
    if side not in ("left", "right"):
        raise MalformedInput(f"{at}side: expected 'left' or 'right', got {side!r}")
    return side


def action_groupoid_from_json(d: dict) -> FiniteGroupoid | None:
    if "groupoid" in d:
        from .groupoid import groupoid_from_spec
        return groupoid_from_spec(d["groupoid"], "groupoid.")
    return None


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


def lambda_from_json(d: dict):
    """Returns (functional, groupoid_or_None, hopf_kind_or_None, side)."""
    from .groupoid import dual_groupoid_algebra, groupoid_algebra, groupoid_from_spec
    from .partial_actions import LambdaFunctional

    G = groupoid_from_spec(d["groupoid"], "groupoid.") if "groupoid" in d else None
    kind = d.get("hopf_kind")
    if kind not in (None, "kG", "kG-dual"):
        raise MalformedInput(f"hopf_kind: expected 'kG' or 'kG-dual', got {kind!r}")
    if "hopf" in d:
        hopf = weakhopf_from_json(d["hopf"])
    elif G is not None and kind is not None:
        hopf = (groupoid_algebra if kind == "kG" else dual_groupoid_algebra)(G, _field(d, ""))
    else:
        raise MalformedInput("lambda document needs 'hopf' or 'groupoid'+'hopf_kind'")
    _same_field(d, hopf.field)
    n = hopf.space.dim
    [values] = _decode(hopf.field, (d["values"], (n,), "values", n))[0]
    lf = LambdaFunctional.from_values(hopf, [values.get(i, 0) for i in range(n)])
    return lf, G, kind, _side(d.get("side", "left"), "")


def gpa_to_json(gpa: GroupoidPartialAction) -> dict:
    from .groupoid import groupoid_to_spec

    C, elements = gpa.coalgebra, gpa.groupoid.elements
    return {"schema": "groupoid-action", "field": field_name(C.field),
            "groupoid": groupoid_to_spec(gpa.groupoid), "coalgebra": coalgebra_to_json(C),
            "projections": {g: _rows(gpa.P(g)) for g in elements},
            "isos": {g: _rows(gpa.theta(g)) for g in elements}}


def gpa_from_json(d: dict) -> GroupoidPartialAction:
    from .groupoid import groupoid_from_spec
    from .partial_actions import GroupoidPartialAction

    G = groupoid_from_spec(d["groupoid"], "groupoid.")
    C = coalgebra_from_json(d["coalgebra"], "coalgebra.")
    _same_field(d, C.field)
    X = C.space
    projections = {g: _matrix(d["projections"][g], X, X, f"projections.{g}") for g in G.elements}
    isos = {g: _matrix(d["isos"][g], X, X, f"isos.{g}") for g in G.elements}
    return GroupoidPartialAction(G, C, projections, isos)


def triple_to_json(gt: GlobalizationTriple) -> dict:
    return {"schema": "globalization", "field": field_name(gt.partial.hopf.field),
            "partial": action_to_json(gt.partial), "D": coalgebra_to_json(gt.D),
            "global_tensor": _action_tensor(gt.global_act),
            "theta": _rows(gt.theta), "pi": _rows(gt.pi)}


def triple_from_json(d: dict) -> GlobalizationTriple:
    from .globalization import GlobalizationTriple

    partial = action_from_json(d["partial"], "partial.")
    _same_field(d, partial.hopf.field)
    D = coalgebra_from_json(d["D"], "D.")
    global_act = _action(partial.hopf, D, "right", d["global_tensor"], "global_tensor")
    theta = _matrix(d["theta"], partial.carrier.space, D.space, "theta")
    pi = _matrix(d["pi"], D.space, D.space, "pi")
    return GlobalizationTriple(partial, D, global_act, theta, pi)


def abelian_group_from_spec(d: dict) -> FiniteAbelianGroup:
    from .groupoid import FiniteAbelianGroup

    factors = d.get("factors")
    if not isinstance(factors, list) or not factors:
        raise MalformedInput(f"factors: expected a non-empty list of positive integers, "
                             f"got {factors!r}")
    for i, n in enumerate(factors):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise MalformedInput(f"factors[{i}]: expected a positive integer, got {n!r}")
    return FiniteAbelianGroup(tuple(factors))
