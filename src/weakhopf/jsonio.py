"""JSON import of the structures that most commands read.

Loaders check every basis, matrix and tensor against the declared
dimensions before building anything, and report a mismatch as
:class:`MalformedInput` naming its JSON path (``at`` prefixes the path of a
document nested in another).  Nested arrays are read straight into sparse
columns (`_decode`).  The writers are in :mod:`jsonwrite`; a document kind
that one command reads is read in the module of that kind.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from math import prod

from .errors import MalformedInput, forward
from .scalars import Field, field_from_name, field_name
from .structures import AlgebraData, CoalgebraData, WeakBialgebraData, WeakHopfData
from .tensor_space import FinVec, LinMap, Vector, ground, tensor_product

__getattr__ = forward(globals(), {**dict.fromkeys(
    "linmap_to_json linmap_from_json tensor3_to_json tensor3_from_json algebra_to_json "
    "coalgebra_to_json weakhopf_to_json action_to_json lambda_to_json gpa_to_json "
    "triple_to_json".split(), "jsonwrite"), "canonical_dumps": "errors",
    "lambda_from_json": "partial_actions", "gpa_from_json": "groupoid_actions",
    "action_groupoid_from_json": "groupoid_actions", "triple_from_json": "globalization",
    "action_from_json": "actions",
    "abelian_group_from_spec": "groupoid"})


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
    for ls, (_, shape, path, inner) in zip(leaves, arrays):
        for x in dict.fromkeys(ls):
            if x.__class__ is str and x not in memo:
                try:
                    memo[x] = v = field.parse(x)
                except MalformedInput as exc:   # reported at the first leaf holding x
                    at = [ls.index(x) // prod(shape[k + 1:]) % n for k, n in enumerate(shape)]
                    raise MalformedInput(f"{path}{''.join(f'[{i}]' for i in at)}: {exc}") from None
                live[x] = bool(v)
        cols = [{} for _ in range(len(ls) // inner)]
        for t in compress(count(), map(live.get, ls, repeat(True))):
            x = ls[t]
            v = memo[x] if x.__class__ is str else field.coerce(x)
            if v:
                cols[t // inner][t % inner] = v
        out.append(cols)
    return out


def _matrix(rows, dom: FinVec, cod: FinVec, path: str) -> LinMap:
    """The map whose dense ``rows[codomain][domain]`` matrix is ``rows``."""
    [transpose] = _decode(dom.field, (rows, (cod.dim, dom.dim), path, dom.dim))
    return LinMap(dom, cod, LinMap(cod, dom, transpose).transposed_rows())


def _field(d: dict, at: str) -> Field:
    name = _get(d, "field", at)
    try:
        return field_from_name(name)
    except MalformedInput as exc:
        raise MalformedInput(f"{at}field: {exc}") from None


def _same_field(d: dict, field: Field, at: str = "") -> None:
    if "field" in d and _field(d, at) != field:
        raise MalformedInput(f"{at}field: the structures are over {field_name(field)}")


def _space(field: Field, labels, path: str) -> FinVec:
    if not (isinstance(labels, list) and labels and all(isinstance(x, str) for x in labels)
            and len(set(labels)) == len(labels)):
        raise MalformedInput(f"{path}: expected a list of distinct basis labels")
    return FinVec(field, tuple(labels))


def _object(d, at: str) -> dict:
    """``d``, the document at path prefix ``at`` ("hopf."), once checked to be an object."""
    if not isinstance(d, dict):
        raise MalformedInput(f"{at[:-1] or 'document'}: expected an object")
    return d


def _get(d, key: str, at: str):
    """The member ``key`` of the document ``d`` at path prefix ``at``: every
    read of a required member goes through here, so that a missing one is
    named by its path ("hopf.antipode: missing")."""
    if key not in _object(d, at):
        raise MalformedInput(f"{at}{key}: missing")
    return d[key]


def _basis(d: dict, at: str) -> FinVec:
    return _space(_field(d, at), _get(d, "basis", at), f"{at}basis")


def _algebra(d: dict, space: FinVec, at: str) -> AlgebraData:
    n = space.dim
    mul, [unit] = _decode(space.field, (_get(d, "mul", at), (n, n, n), f"{at}mul", n),
                          (_get(d, "unit", at), (n,), f"{at}unit", n))
    return AlgebraData(space, LinMap(tensor_product(space, space), space, mul),
                       Vector(space, unit))


def _coalgebra(d: dict, space: FinVec, at: str) -> CoalgebraData:
    n = space.dim
    comul, [counit] = _decode(space.field, (_get(d, "comul", at), (n, n, n), f"{at}comul", n * n),
                              (_get(d, "counit", at), (n,), f"{at}counit", n))
    k = ground(space.field)
    return CoalgebraData(space, LinMap(space, tensor_product(space, space), comul),
                         LinMap(space, k, LinMap(k, space, [counit]).transposed_rows()))


# -- structures --------------------------------------------------------------

def algebra_from_json(d: dict, at: str = "") -> AlgebraData:
    return _algebra(d, _basis(d, at), at)


def coalgebra_from_json(d: dict, at: str = "") -> CoalgebraData:
    return _coalgebra(d, _basis(d, at), at)


def weakhopf_from_json(d: dict, at: str = "") -> WeakHopfData:
    space = _basis(d, at)
    wb = WeakBialgebraData(_algebra(d, space, at), _coalgebra(d, space, at))
    return WeakHopfData(wb, _matrix(_get(d, "antipode", at), space, space, f"{at}antipode"))


def _side(side, at: str) -> str:
    if side not in ("left", "right"):
        raise MalformedInput(f"{at}side: expected 'left' or 'right', got {side!r}")
    return side


