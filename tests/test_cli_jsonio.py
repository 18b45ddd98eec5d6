import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import (
    grouplike_coalgebra,
    isotropy_lambda_action,
    regular_action,
    two_object_gpa,
)

import weakhopf
from weakhopf import (
    QQ,
    LambdaFunctional,
    PrimeField,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    find_basis_grouplikes,
    groupoid_algebra,
    lambda_action,
    standard_globalization,
    same_structure_constants,
    two_object_iso_groupoid,
    validate_groupoid,
)
from weakhopf.cli import canonical_dumps, main
from weakhopf.errors import MalformedInput
from weakhopf.globalization import triple_from_json
from weakhopf.groupoid_actions import gpa_from_json
from weakhopf.jsonio import action_from_json, coalgebra_from_json, weakhopf_from_json
from weakhopf.jsonwrite import (
    action_to_json,
    coalgebra_to_json,
    gpa_to_json,
    lambda_to_json,
    triple_to_json,
    weakhopf_to_json,
)
from weakhopf.partial_actions import lambda_from_json


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_action_json_round_trip():
    G = disjoint_union_of_cyclic([2, 3])
    act, _ = isotropy_lambda_action(G, QQ, "g1.e")
    doc = action_to_json(act, groupoid=G)
    act2 = action_from_json(doc)
    assert act2.slices == act.slices
    assert act2.side == act.side
    assert canonical_dumps(doc) == canonical_dumps(action_to_json(act2, groupoid=G))


def test_right_action_json_round_trip():
    G = cyclic_group_groupoid(2)
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["e"])
    act = lambda_action(lam, grouplike_coalgebra(QQ, ["c0", "c1"]), "right")
    act2 = action_from_json(action_to_json(act))
    assert act2.slices == act.slices and act2.side == "right"


# kG of Z/2 = {e, g} acting on the span of three grouplikes c0, c1, c2 (dim C ≠ dim H),
# written by hand: the left tensor is entries[i][j][k], the coefficient of c_k in
# h_i·c_j, and the right one entries[j][i][k], the coefficient of c_k in c_j↼h_i
KZ2 = {"schema": "weak-hopf", "field": "Q", "basis": ["e", "g"],
       "mul": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]], "unit": ["1", "0"],
       "comul": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]], "counit": ["1", "1"],
       "antipode": [["1", "0"], ["0", "1"]]}
GROUPLIKES = {"schema": "coalgebra", "field": "Q", "basis": ["c0", "c1", "c2"],
              "comul": [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                        [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
                        [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]],
              "counit": ["1", "1", "1"]}
LAYOUTS = {
    "left": [[["1", "2", "0"], ["0", "3", "0"], ["4", "0", "5"]],
             [["0", "0", "6"], ["-1/2", "7", "0"], ["0", "8", "9"]]],
    "right": [[["1", "2", "0"], ["0", "0", "6"]],
              [["0", "3", "0"], ["-1/2", "7", "0"]],
              [["4", "0", "5"], ["0", "8", "9"]]],
}


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_hand_written_action_decodes_to_the_slices_its_entries_name(side):
    doc = {"schema": "action", "field": "Q", "side": side, "hopf": KZ2, "carrier": GROUPLIKES,
           "tensor": LAYOUTS[side]}
    act = action_from_json(doc)
    # e·c0 = c0 + 2c1, e·c1 = 3c1, e·c2 = 4c0 + 5c2; g·c0 = 6c2, g·c1 = -c0/2 + 7c1,
    # g·c2 = 8c1 + 9c2 (or c_j↼e and c_j↼g on the right)
    assert [s.cols for s in act.slices] == [({0: 1, 1: 2}, {1: 3}, {0: 4, 2: 5}),
                                            ({2: 6}, {0: Fraction(-1, 2), 1: 7}, {1: 8, 2: 9})]
    assert canonical_dumps(action_to_json(act)) == canonical_dumps(doc)


def test_gpa_json_round_trip():
    gpa = two_object_gpa(QQ)
    gpa2 = gpa_from_json(gpa_to_json(gpa))
    assert gpa.same_maps(gpa2)


def test_lambda_json_round_trip():
    G = two_object_iso_groupoid()
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["e"])
    doc = lambda_to_json(lam, groupoid=G, hopf_kind="kG")
    lam2, G2, kind, side = lambda_from_json(doc)
    assert lam2.values == lam.values and kind == "kG" and side == "left"
    # shorthand form: groupoid+kind instead of embedded hopf data
    del doc["hopf"]
    lam3, _, _, _ = lambda_from_json(doc)
    assert lam3.values == lam.values


def test_coalgebra_json_round_trip():
    C = grouplike_coalgebra(QQ, ["a", "b"])
    C2 = coalgebra_from_json(coalgebra_to_json(C))
    assert C2.comul == C.comul and C2.counit == C.counit


def test_linmap_and_tensor3_json_round_trip():
    from weakhopf.jsonwrite import (linmap_from_json, linmap_to_json,
                                    tensor3_from_json, tensor3_to_json)

    H = groupoid_algebra(two_object_iso_groupoid(), QQ)
    f = H.eps_t
    assert linmap_from_json(linmap_to_json(f)) == f
    for t in (H.alg.mul, H.coalg.comul):
        assert tensor3_from_json(tensor3_to_json(t)) == t


@pytest.mark.parametrize("kind", ["pair-to-one", "", None, ["pair_to_one"]],
                         ids=["hyphens", "empty", "null", "list"])
def test_a_tensor3_document_of_an_unknown_kind_is_refused(kind):
    from weakhopf.jsonwrite import tensor3_from_json, tensor3_to_json

    H = groupoid_algebra(two_object_iso_groupoid(), QQ)
    doc = _edit(tensor3_to_json(H.alg.mul), lambda d: d.update(kind=kind))
    with pytest.raises(MalformedInput, match="^kind: expected 'pair_to_one' or 'one_to_pair'"):
        tensor3_from_json(doc)


def test_tensor3_refuses_a_map_with_no_tensor_product_leg():
    from weakhopf.errors import ShapeMismatch
    from weakhopf.jsonwrite import tensor3_to_json

    with pytest.raises(ShapeMismatch, match="X⊗Y → Z or X → Y⊗Z"):
        tensor3_to_json(groupoid_algebra(two_object_iso_groupoid(), QQ).eps_t)


def test_triple_json_round_trip():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["g1.e"])
    act = lambda_action(lam, grouplike_coalgebra(QQ, ["c0", "c1"]), "right")
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    gt2 = triple_from_json(triple_to_json(gt))
    assert gt2.theta == gt.theta and gt2.pi == gt.pi
    assert gt2.global_act.slices == gt.global_act.slices


# -- CLI ----------------------------------------------------------------------

def test_cli_build_and_check(tmp_path, capsys):
    gpath = write(tmp_path, "G.json",
                  {"disjoint_union": [{"group": "Z/2"}, {"group": "Z/3"}]})
    out = str(tmp_path / "H.json")
    assert main(["build", "kG", gpath, "-o", out]) == 0
    H = weakhopf_from_json(json.loads(open(out).read()))
    assert same_structure_constants(H, groupoid_algebra(disjoint_union_of_cyclic([2, 3]), QQ))
    assert main(["check", "weak-hopf", out]) == 0
    text = capsys.readouterr().out
    assert "PASS S-(i)" in text
    assert main(["check", "identities", out]) == 0
    assert main(["check", "hopf", out]) == 2  # genuinely weak: not Hopf
    assert main(["--format", "json", "check", "wb", out]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["ok"] is True


def test_cli_build_dual_and_abelian(tmp_path):
    gpath = write(tmp_path, "G.json", {"elements": ["e"], "mul": [["e", "e", "e"]],
                                       "inv": {"e": "e"}})
    out = str(tmp_path / "Hd.json")
    assert main(["build", "kG-dual", gpath, "-o", out]) == 0
    apath = write(tmp_path, "A.json", {"factors": [3]})
    out2 = str(tmp_path / "Hab.json")
    assert main(["build", "abelian-group", apath, "--field", "Fp:5", "-o", out2]) == 0
    assert main(["check", "weak-hopf", out2]) == 0
    # characteristic divides the order: precondition exit code
    assert main(["build", "abelian-group", apath, "--field", "Fp:3"]) == 4


def test_cli_check_pmc_and_failure_exit_codes(tmp_path, capsys):
    G = disjoint_union_of_cyclic([2, 3])
    act, _ = isotropy_lambda_action(G, QQ, "g1.e")
    apath = write(tmp_path, "act.json", action_to_json(act, groupoid=G))
    assert main(["check", "pmc", apath]) == 0
    capsys.readouterr()
    # corrupt one tensor entry: PMC must fail with a witness, exit code 2
    doc = action_to_json(act)
    doc["tensor"][0][0][0] = "7"
    bad = write(tmp_path, "bad.json", doc)
    assert main(["check", "pmc", bad]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_carrier_with_tensor_like_labels_loads_and_checks(tmp_path, capsys):
    # C⊗C for the basis ("a", "a⊗a") repeats the label "a⊗a⊗a"; the document
    # is valid, so it loads and `whw check pmc` decides it
    C = grouplike_coalgebra(QQ, ["a", "a⊗a"])
    doc = coalgebra_to_json(C)
    assert coalgebra_from_json(doc).comul == C.comul
    act, _ = isotropy_lambda_action(disjoint_union_of_cyclic([2, 3]), QQ, "g1.e", carrier=C)
    path = write(tmp_path, "act.json", action_to_json(act))
    assert main(["check", "pmc", path]) == 0
    out = capsys.readouterr().out
    assert "PASS PMC2" in out and "PASS PMC3" in out


def test_cli_check_lambda(tmp_path, capsys):
    G = two_object_iso_groupoid()
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["e"])
    lpath = write(tmp_path, "lam.json", lambda_to_json(lam, groupoid=G, hopf_kind="kG"))
    assert main(["check", "lambda", lpath]) == 0
    assert "V-is-group" in capsys.readouterr().out


def test_cli_equiv_round_trip(tmp_path):
    gpa = two_object_gpa(QQ)
    path = write(tmp_path, "gpa.json", gpa_to_json(gpa))
    assert main(["equiv", path]) == 0
    # and from the action side
    from weakhopf import to_kG_action
    act = to_kG_action(gpa)
    apath = write(tmp_path, "act.json", action_to_json(act, groupoid=gpa.groupoid))
    assert main(["equiv", apath]) == 0


def test_cli_check_groupoid_action(tmp_path):
    gpa = two_object_gpa(QQ)
    path = write(tmp_path, "gpa.json", gpa_to_json(gpa))
    assert main(["check", "groupoid-action", path]) == 0


def test_cli_dualize(tmp_path, capsys):
    G = disjoint_union_of_cyclic([2, 3])
    act, _ = isotropy_lambda_action(G, QQ, "g1.e")
    apath = write(tmp_path, "act.json", action_to_json(act))
    out = str(tmp_path / "dual.json")
    assert main(["dualize", apath, "-o", out]) == 0
    dual = action_from_json(json.loads(open(out).read()))
    assert dual.side == "right" and dual.is_algebra_action()


def _counting(monkeypatch, fn, *modules):
    """Replace ``fn`` by a counting wrapper in every listed module that
    imports it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted, raising=False)
    return calls


def test_cli_dualize_checks_the_action_once(tmp_path, capsys, monkeypatch):
    import weakhopf.actions
    import weakhopf.cli
    import weakhopf.dualization
    import weakhopf.partial_actions
    from weakhopf.actions import check_partial_module_coalgebra

    calls = _counting(monkeypatch, check_partial_module_coalgebra, weakhopf.cli,
                      weakhopf.dualization, weakhopf.partial_actions, weakhopf.actions)
    act, _ = isotropy_lambda_action(disjoint_union_of_cyclic([2, 3]), QQ, "g1.e")
    assert main(["dualize", write(tmp_path, "act.json", action_to_json(act))]) == 0
    assert len(calls) == 1


def test_cli_equiv_decides_the_pmc_verdict_once(tmp_path, capsys, monkeypatch):
    import weakhopf.actions
    from weakhopf import to_kG_action
    from weakhopf.actions import _mc2_check

    # a groupoid-action document: equiv checks the action itself and again inside
    # from_kG_action; an action document: the round trip gives back its slices,
    # so from_kG_action is not run on them a second time
    gpa = two_object_gpa(QQ)
    for doc in (gpa_to_json(gpa), action_to_json(to_kG_action(gpa), gpa.groupoid)):
        calls = _counting(monkeypatch, _mc2_check, weakhopf.actions)
        assert main(["equiv", write(tmp_path, "doc.json", doc)]) == 0
        assert "PASS from(to(θ,P)) == (θ,P)" in capsys.readouterr().out
        assert len(calls) == 1


@pytest.mark.parametrize("hopf_kind, side, expected", [
    ("kG", "left", 1), ("kG-dual", "left", 1), ("kG", "right", 2)])
def test_cli_check_lambda_evaluates_the_left_conditions_once(
        tmp_path, capsys, monkeypatch, hopf_kind, side, expected):
    import weakhopf.partial_actions
    from weakhopf import dual_groupoid_algebra
    from weakhopf.partial_actions import _lambda_partial

    # the V-group criteria compare with the left verdict, which check_lambda_partial
    # keeps on λ; only a right document needs it decided beside its own
    calls = _counting(monkeypatch, _lambda_partial, weakhopf.partial_actions)
    G = two_object_iso_groupoid()
    H = (groupoid_algebra if hopf_kind == "kG" else dual_groupoid_algebra)(G, QQ)
    lam = LambdaFunctional.indicator(H, ["e"])
    path = write(tmp_path, "lam.json", lambda_to_json(lam, G, hopf_kind, side))
    main(["check", "lambda", path])
    assert "V-group criterion" in capsys.readouterr().out
    assert len(calls) == expected


def test_cli_globalize_checks_the_triple_once(tmp_path, capsys, monkeypatch):
    import weakhopf.cli
    import weakhopf.globalization
    from weakhopf.globalization import check_globalization

    calls = _counting(monkeypatch, check_globalization, weakhopf.cli, weakhopf.globalization)
    H = groupoid_algebra(disjoint_union_of_cyclic([2, 3]), QQ)
    lam = LambdaFunctional.indicator(H, ["g1.e"])
    act = lambda_action(lam, grouplike_coalgebra(QQ, ["c0", "c1"]), "right")
    assert main(["globalize", write(tmp_path, "act.json", action_to_json(act))]) == 0
    assert len(calls) == 1


def test_cli_globalize(tmp_path, capsys):
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["g1.e"])
    act = lambda_action(lam, grouplike_coalgebra(QQ, ["c0", "c1"]), "right")
    apath = write(tmp_path, "act.json", action_to_json(act))
    out = str(tmp_path / "triple.json")
    assert main(["globalize", apath, "--grouplike", "g1.e", "-o", out]) == 0
    gt = triple_from_json(json.loads(open(out).read()))
    assert gt.D.space.dim == 4  # dim C (2) × dim eH (2)
    assert main(["globalize", apath]) == 0  # auto-pick the grouplike


def test_cli_validate_groupoid_and_bad_input(tmp_path, capsys):
    gpath = write(tmp_path, "G.json",
                  {"elements": ["e"], "mul": [["e", "e", "e"]], "inv": {"e": "e"}})
    assert main(["validate-groupoid", gpath]) == 0
    bad = write(tmp_path, "bad.json", {"elements": ["e"], "mul": [], "inv": {"e": "e"}})
    assert main(["validate-groupoid", bad]) == 4  # axiom violation
    notjson = tmp_path / "no.json"
    notjson.write_text("{", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["validate-groupoid", str(notjson)])
    assert exc.value.code == 3
    garbage = write(tmp_path, "garbage.json", {"what": 1})
    assert main(["validate-groupoid", garbage]) == 3


def test_cli_reports_are_deterministic(tmp_path, capsys):
    gpath = write(tmp_path, "G.json", {"disjoint_union": [{"group": "Z/2"}]})
    out = str(tmp_path / "H.json")
    main(["build", "kG", gpath, "-o", out])
    main(["--format", "json", "check", "identities", out])
    first = capsys.readouterr().out
    main(["--format", "json", "check", "identities", out])
    second = capsys.readouterr().out
    assert first == second


# -- malformed input: exit 3 with one line on stderr ------------------------------

def _kG_doc(field=QQ):
    return weakhopf_to_json(groupoid_algebra(disjoint_union_of_cyclic([1, 2]), field))


def _action_doc():
    act, _ = isotropy_lambda_action(disjoint_union_of_cyclic([1, 2]), QQ, "g1.e")
    return action_to_json(act)


def _edit(doc, fn):
    fn(doc)
    return doc


def _lambda_doc():
    G = two_object_iso_groupoid()
    lam = LambdaFunctional.indicator(groupoid_algebra(G, QQ), ["e"])
    return lambda_to_json(lam, groupoid=G, hopf_kind="kG")


MALFORMED = [
    ("zero-denominator", "weak-hopf",
     lambda: _edit(_kG_doc(), lambda d: d["counit"].__setitem__(0, "1/0")), "zero denominator"),
    ("gf-zero-denominator", "weak-hopf",
     lambda: _edit(_kG_doc(PrimeField(7)), lambda d: d["counit"].__setitem__(0, "1/7")),
     "zero denominator"),
    ("antipode-missing-row", "weak-hopf", lambda: _edit(_kG_doc(), lambda d: d["antipode"].pop()),
     "antipode"),
    ("float-scalar", "identities",
     lambda: _edit(_kG_doc(), lambda d: d["mul"][0][0].__setitem__(0, 1.5)), "mul[0][0][0]"),
    ("duplicate-basis", "weak-hopf",
     lambda: _edit(_kG_doc(), lambda d: d["basis"].__setitem__(1, d["basis"][0])), "basis"),
    ("action-short-tensor", "pmc", lambda: _edit(_action_doc(), lambda d: d["tensor"].pop()),
     "tensor"),
    ("nested-antipode", "pmc",
     lambda: _edit(_action_doc(), lambda d: d["hopf"]["antipode"][0].pop()),
     "hopf.antipode[0]"),
    ("carrier-not-a-document", "pmc", lambda: _edit(_action_doc(), lambda d: d.update(carrier=[])),
     "carrier.schema"),
    ("unknown-side", "pmc", lambda: _edit(_action_doc(), lambda d: d.update(side="up")), "side"),
    ("lambda-side-up", "lambda", lambda: _edit(_lambda_doc(), lambda d: d.update(side="up")),
     "side: expected 'left' or 'right', got 'up'"),
    ("lambda-side-3", "lambda", lambda: _edit(_lambda_doc(), lambda d: d.update(side=3)), "side"),
    ("lambda-side-null", "lambda", lambda: _edit(_lambda_doc(), lambda d: d.update(side=None)),
     "side"),
    ("lambda-hopf-kind", "lambda", lambda: _edit(_lambda_doc(), lambda d: d.update(hopf_kind="kH")),
     "hopf_kind: expected 'kG' or 'kG-dual', got 'kH'"),
    ("carrier-counit", "pmc",
     lambda: _edit(_action_doc(), lambda d: d["carrier"]["counit"].append("1")),
     "carrier.counit"),
    ("gpa-projection", "groupoid-action",
     lambda: _edit(gpa_to_json(two_object_gpa(QQ)), lambda d: d["projections"]["e"].pop()),
     "projections.e"),
    ("lambda-values", "lambda", lambda: _edit(_lambda_doc(), lambda d: d["values"].pop()),
     "values"),
    ("group-not-a-string", "lambda",
     lambda: _edit(_lambda_doc(), lambda d: d.update(groupoid={"disjoint_union": [{"group": 5}]})),
     "groupoid.disjoint_union[0].group"),
]

BAD_GROUPS = ["S3", "Z/0", "Z/x", "Z/", "Z3"]

MALFORMED += [
    (f"group-{name.replace('/', '-')}", "lambda",
     lambda name=name: _edit(_lambda_doc(), lambda d: d.update(
         groupoid={"disjoint_union": [{"group": "Z/2"}, {"group": name}]})),
     "groupoid.disjoint_union[1].group")
    for name in BAD_GROUPS
]


def _bad_field(build, nested, value):
    """A document whose ``field`` (in its ``nested`` part, if any) is ``value``."""
    return lambda: _edit(build(), lambda d: (d[nested] if nested else d).update(field=value))


MALFORMED += [
    (f"{nested or 'top'}-field-{name}", kind, _bad_field(build, nested, value),
     f"{nested}.field: " if nested else "field: ")
    for kind, build, nested in [("weak-hopf", _kG_doc, ""), ("pmc", _action_doc, "hopf"),
                                ("pmc", _action_doc, "carrier")]
    for name, value in [("7", 7), ("null", None), ("list", ["Q"]), ("true", True),
                        ("Fp-x", "Fp:x"), ("Fp-4", "Fp:4"), ("Fp-empty", "Fp:")]
]


def _gpa_doc():
    return gpa_to_json(two_object_gpa(QQ))


# the top-level field of an action, λ or groupoid-action document must parse and
# name the field of its structures
MALFORMED += [
    (f"{kind}-top-field-{name}", kind, _bad_field(build, "", value), "MalformedInput: field: ")
    for kind, build in [("pmc", _action_doc), ("lambda", _lambda_doc),
                        ("groupoid-action", _gpa_doc)]
    for name, value in [("Fp-7", "Fp:7"), ("nonsense", "nonsense")]
]


# a carrier over another field than its hopf names its field; a nested document or
# map table that is not an object, or a map table that lacks an element, names its path
MALFORMED += [
    ("carrier-field-Fp-7", "pmc", _bad_field(_action_doc, "carrier", "Fp:7"),
     "MalformedInput: carrier.field: the structures are over Q"),
    ("action-hopf-a-list", "pmc", lambda: _edit(_action_doc(), lambda d: d.update(hopf=[])),
     "MalformedInput: hopf: expected an object"),
    ("lambda-hopf-a-number", "lambda", lambda: _edit(_lambda_doc(), lambda d: d.update(hopf=5)),
     "MalformedInput: hopf: expected an object"),
    ("gpa-coalgebra-a-list", "groupoid-action",
     lambda: _edit(_gpa_doc(), lambda d: d.update(coalgebra=[])),
     "MalformedInput: coalgebra: expected an object"),
    ("gpa-isos-a-list", "groupoid-action", lambda: _edit(_gpa_doc(), lambda d: d.update(isos=[])),
     "MalformedInput: isos: expected an object"),
    ("gpa-projection-missing", "groupoid-action",
     lambda: _edit(_gpa_doc(), lambda d: d["projections"].pop("g")),
     "MalformedInput: projections.g: missing"),
    ("gpa-iso-missing", "groupoid-action", lambda: _edit(_gpa_doc(), lambda d: d["isos"].pop("f")),
     "MalformedInput: isos.f: missing"),
]



def _drop(doc: dict, path: str) -> dict:
    """``doc`` without the member at the dotted ``path``."""
    *outer, key = path.split(".")
    part = doc
    for k in outer:
        part = part[k]
    del part[key]
    return doc


# a required member that is missing is named by its path, at the top level and in a
# nested document of each kind (a weak-hopf document nests none)
MISSING = [("weak-hopf", _kG_doc, "antipode"), ("weak-hopf", _kG_doc, "field"),
           ("pmc", _action_doc, "tensor"), ("pmc", _action_doc, "hopf.antipode"),
           ("pmc", _action_doc, "carrier.counit"), ("lambda", _lambda_doc, "values"),
           ("lambda", _lambda_doc, "hopf.comul"), ("groupoid-action", _gpa_doc, "isos"),
           ("groupoid-action", _gpa_doc, "coalgebra.comul")]
MALFORMED += [
    (f"{kind}-missing-{path}", kind, lambda build=build, path=path: _drop(build(), path),
     f"MalformedInput: {path}: missing")
    for kind, build, path in MISSING
]

@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("argv", [["check", "pmc"], ["check", "mc"], ["dualize"], ["globalize"]],
                         ids=["pmc", "mc", "dualize", "globalize"])
def test_a_carrier_over_another_field_exits_3_with_its_path(tmp_path, capsys, argv, side):
    H = groupoid_algebra(disjoint_union_of_cyclic([1, 2]), QQ)
    act = lambda_action(LambdaFunctional.indicator(H, ["g1.e"]),
                        grouplike_coalgebra(QQ, ["c0", "c1"]), side)
    doc = _edit(action_to_json(act), lambda d: d["carrier"].update(field="Fp:7"))
    assert main([*argv, write(tmp_path, "act.json", doc)]) == 3
    assert capsys.readouterr().err == ("whw: malformed input: MalformedInput: carrier.field: "
                                       "the structures are over Q\n")


def _triple_doc():
    H = groupoid_algebra(disjoint_union_of_cyclic([2, 3]), QQ)
    act = lambda_action(LambdaFunctional.indicator(H, ["g1.e"]),
                        grouplike_coalgebra(QQ, ["c0", "c1"]), "right")
    return triple_to_json(standard_globalization(act, find_basis_grouplikes(act)[0]))


@pytest.mark.parametrize("value,where", [("Fp:7", "field: "), ("nonsense", "field: "),
                                         (None, "field: ")])
def test_globalization_document_field_must_match(value, where):
    with pytest.raises(MalformedInput, match=f"^{where}"):
        triple_from_json(_edit(_triple_doc(), lambda d: d.update(field=value)))
    with pytest.raises(MalformedInput, match="^partial.field: "):
        triple_from_json(_edit(_triple_doc(), lambda d: d["partial"].update(field=value)))


def test_globalization_document_D_field_must_match():
    with pytest.raises(MalformedInput, match="^D.field: the structures are over Q$"):
        triple_from_json(_edit(_triple_doc(), lambda d: d["D"].update(field="Fp:7")))


def test_documents_without_a_top_level_field_still_load(tmp_path, capsys):
    docs = {"pmc": _action_doc(), "lambda": _edit(_lambda_doc(), lambda d: d.update(
        hopf=weakhopf_to_json(groupoid_algebra(two_object_iso_groupoid(), QQ)))),
            "groupoid-action": _gpa_doc()}
    for kind, doc in docs.items():
        del doc["field"]
        assert main(["check", kind, write(tmp_path, f"{kind}.json", doc)]) in (0, 2)
    doc = _triple_doc()
    del doc["field"]
    assert triple_from_json(doc).pi == triple_from_json(_triple_doc()).pi


def test_cli_rejects_a_document_that_is_not_an_object(tmp_path, capsys):
    path = write(tmp_path, "list.json", [1, 2])
    assert main(["equiv", path]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "expected a JSON object" in err


def test_cli_refuses_a_deeply_nested_document_in_a_child_process(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "weakhopf.cli", "check", "weak-hopf", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"whw: cannot read {path}: maximum recursion depth exceeded")


def _z1_z2_lambda_doc():
    """λ = the indicator of g2.e on kG of Z/1 ⊔ Z/2, with values 0, 1, 0."""
    G = disjoint_union_of_cyclic([1, 2])
    lam = LambdaFunctional.indicator(groupoid_algebra(G, QQ), ["g2.e"])
    return lambda_to_json(lam, groupoid=G, hopf_kind="kG")


def _e_f_lambda_doc():
    """λ = the indicator of e on kG of Z/2 = {e, f}."""
    G = validate_groupoid(["e", "f"], {("e", "e"): "e", ("e", "f"): "f", ("f", "e"): "f",
                                       ("f", "f"): "e"}, {"e": "e", "f": "f"})
    lam = LambdaFunctional.indicator(groupoid_algebra(G, QQ), ["e"])
    return lambda_to_json(lam, groupoid=G, hopf_kind="kG")


def _z1_z2_regular_doc():
    G = disjoint_union_of_cyclic([1, 2])
    return action_to_json(regular_action(groupoid_algebra(G, QQ)), groupoid=G)


def _groupoid(spec):
    return lambda d: d.update(groupoid=spec)


Z3 = {"disjoint_union": [{"group": "Z/3"}]}
ONE_OBJECT = {"elements": ["a"], "mul": [["a", "a", "a"]], "inv": {"a": "a"}}

# a document's groupoid must build its hopf, and a groupoid spec that is not
# well formed names the faulty entry
MALFORMED += [
    ("lambda-groupoid-builds-another-hopf", "lambda",
     lambda: _edit(_z1_z2_lambda_doc(), _groupoid(Z3)), "MalformedInput: groupoid: "),
    ("lambda-dual-groupoid-builds-another-hopf", "lambda",
     lambda: _edit(_z1_z2_lambda_doc(), lambda d: d.update(hopf_kind="kG-dual")),
     "MalformedInput: groupoid: "),
    ("lambda-groupoid-same-labels-other-products", "lambda",
     lambda: _edit(_e_f_lambda_doc(), _groupoid(
         {"elements": ["e", "f"], "mul": [["e", "e", "e"], ["f", "f", "f"]],
          "inv": {"e": "e", "f": "f"}})), "MalformedInput: groupoid: "),
    ("lambda-groupoid-same-products-other-labels", "lambda",
     lambda: _edit(_z1_z2_lambda_doc(), _groupoid(
         {"elements": ["x", "y", "z"], "mul": [["x", "x", "x"], ["y", "y", "y"], ["y", "z", "z"],
                                               ["z", "y", "z"], ["z", "z", "y"]],
          "inv": {"x": "x", "y": "y", "z": "z"}})), "MalformedInput: groupoid: "),
    ("equiv-groupoid-builds-another-hopf", "equiv",
     lambda: _edit(_z1_z2_regular_doc(), _groupoid(Z3)), "MalformedInput: groupoid: "),
    ("groupoid-elements-a-string", "lambda",
     lambda: _edit(_z1_z2_lambda_doc(), _groupoid({**ONE_OBJECT, "elements": "a"})),
     "groupoid.elements: "),
    ("groupoid-inv-pairs", "lambda",
     lambda: _edit(_z1_z2_lambda_doc(), _groupoid({**ONE_OBJECT, "inv": [["a", "a"]]})),
     "groupoid.inv: "),
    ("groupoid-integer-elements", "lambda",
     lambda: _edit(_z1_z2_lambda_doc(), _groupoid(
         {"elements": [0], "mul": [[0, 0, 0]], "inv": {"0": 0}})), "groupoid.elements: "),
    ("groupoid-mul-pair", "lambda",
     lambda: _edit(_z1_z2_lambda_doc(), _groupoid({**ONE_OBJECT, "mul": [["a", "a"]]})),
     "groupoid.mul[0]: "),
    ("groupoid-union-entry-a-string", "lambda",
     lambda: _edit(_z1_z2_lambda_doc(), _groupoid({"disjoint_union": ["Z/2"]})),
     "groupoid.disjoint_union[0]: "),
    ("groupoid-not-an-object", "equiv",
     lambda: _edit(_z1_z2_regular_doc(), _groupoid("Z/3")), "groupoid: "),
]


# a scalar whose numerator or denominator would pass Python's 4,300-digit int-string
# limit is refused before Fraction builds 10^|exponent|, and named with its JSON path
HOSTILE_SCALARS = {"exponent": "1e100000000", "negative-exponent": "1e-100000000",
                   "underscored-exponent": "1e1_0000_0000", "5000-digit-integer": "7" * 5000,
                   "5000-digit-denominator": "1/" + "7" * 5000}

MALFORMED += [
    (f"scalar-{name}", "weak-hopf",
     lambda x=x: _edit(_kG_doc(), lambda d: d["antipode"][1].__setitem__(2, x)),
     "MalformedInput: antipode[1][2]: more than 4300 digits in ")
    for name, x in HOSTILE_SCALARS.items()
] + [
    ("scalar-exponent-in-mul", "identities",
     lambda: _edit(_kG_doc(), lambda d: d["mul"][2][0].__setitem__(1, "1e100000000")),
     "mul[2][0][1]: more than 4300 digits in '1e100000000'"),
    ("zero-denominator-path", "weak-hopf",
     lambda: _edit(_kG_doc(), lambda d: d["counit"].__setitem__(2, "1/0")),
     "counit[2]: zero denominator"),
    ("gf-scalar-5000-digit-integer", "weak-hopf",
     lambda: _edit(_kG_doc(PrimeField(7)), lambda d: d["antipode"][1].__setitem__(0, "7" * 5000)),
     "MalformedInput: antipode[1][0]: more than 4300 digits in '7777"),
]


@pytest.mark.parametrize("name,kind,build,where", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_cli_malformed_input_exits_3_with_one_line(tmp_path, capsys, name, kind, build, where):
    path = write(tmp_path, f"{name}.json", build())
    assert main(["equiv", path] if kind == "equiv" else ["check", kind, path]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("whw: malformed input") and where in err


def test_a_missing_nested_member_exits_3_with_its_path_in_a_child_process(tmp_path):
    path = write(tmp_path, "act.json", _drop(_action_doc(), "hopf.antipode"))
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "weakhopf.cli", "check", "pmc", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == "whw: malformed input: MalformedInput: hopf.antipode: missing\n"


def test_cli_zero_denominator_in_a_child_process(tmp_path):
    path = write(tmp_path, "bad.json",
                 _edit(_kG_doc(), lambda d: d["counit"].__setitem__(0, "1/0")))
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "weakhopf.cli", "check", "weak-hopf", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", [*HOSTILE_SCALARS, "GF7-5000-digit-integer"])
def test_a_hostile_scalar_exits_3_in_a_child_process_within_2_seconds(tmp_path, name):
    field = PrimeField(7) if name.startswith("GF7-") else QQ
    x = HOSTILE_SCALARS[name.removeprefix("GF7-")]
    path = write(tmp_path, "bad.json",
                 _edit(_kG_doc(field), lambda d: d["counit"].__setitem__(0, x)))
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "weakhopf.cli", "check", "weak-hopf", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 3 and len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("whw: malformed input: MalformedInput: counit[0]: more than")


def test_a_zero_with_a_huge_exponent_reads_as_zero_in_a_child_process(tmp_path):
    """A zero mantissa is 0 whatever its exponent: the report is that of "0", at once."""
    doc = _kG_doc()
    i, j = next((i, j) for i, row in enumerate(doc["antipode"]) for j, x in enumerate(row)
                if x == "0")
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(x):
        path = write(tmp_path, "H.json", _edit(_kG_doc(), lambda d: d["antipode"][i].__setitem__(j, x)))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "weakhopf.cli", "check", "weak-hopf", path],
                              capture_output=True, text=True, env=env, timeout=60)
        return (proc.returncode, proc.stdout, proc.stderr), time.perf_counter() - start

    zero, _ = run("0")
    huge, seconds = run("0e100000000")
    assert seconds < 2 and huge == zero and zero[0] == 0


@pytest.mark.parametrize("name", BAD_GROUPS)
def test_validate_groupoid_rejects_a_malformed_group_name(tmp_path, capsys, name):
    path = write(tmp_path, "G.json", {"disjoint_union": [{"group": name}]})
    assert main(["validate-groupoid", path]) == 3
    err = capsys.readouterr().err
    assert err == (f"whw: malformed input: MalformedInput: disjoint_union[0].group: "
                   f"expected a group name such as 'Z/2', got {name!r}\n")


# -- field names and abelian-group specs -------------------------------------------

BIG_PRIME = 100000000000000000039    # 21 digits


def _one_element_groupoid(tmp_path):
    return write(tmp_path, "G.json", {"elements": ["e"], "mul": [["e", "e", "e"]],
                                      "inv": {"e": "e"}})


def test_cli_builds_over_a_21_digit_prime_at_once(tmp_path, capsys):
    start = time.perf_counter()
    assert main(["build", "kG", _one_element_groupoid(tmp_path), "--field", f"Fp:{BIG_PRIME}"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["field"] == f"Fp:{BIG_PRIME}"


@pytest.mark.parametrize("p,message", [(561, "561 is not prime"),
                                       (2 ** 89 - 1, "not below 3317044064679887385961981")],
                         ids=["carmichael-561", "mersenne-2^89-1"])
def test_cli_refuses_a_field_that_is_not_a_prime_below_the_bound(tmp_path, capsys, p, message):
    assert main(["build", "kG", _one_element_groupoid(tmp_path), "--field", f"Fp:{p}"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("whw: malformed input") and message in err


@pytest.mark.parametrize("value", ["Fp:x", "Fp:", "nonsense", "GF(4)", "Fp:561"])
def test_cli_names_the_field_option_that_it_refuses(tmp_path, capsys, value):
    assert main(["build", "kG", _one_element_groupoid(tmp_path), "--field", value]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("whw: malformed input: MalformedInput: --field: ")


def test_a_document_field_above_the_bound_names_the_bound(tmp_path, capsys):
    doc = _edit(_action_doc(), lambda d: d["hopf"].update(field=f"Fp:{2 ** 89 - 1}"))
    assert main(["check", "pmc", write(tmp_path, "act.json", doc)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("whw: malformed input: MalformedInput: hopf.field: ")
    assert "not below 3317044064679887385961981" in err


@pytest.mark.parametrize("spec,where", [
    ({"factors": [0]}, "factors[0]"), ({"factors": ["x"]}, "factors[0]"),
    ({"factors": [2, True]}, "factors[1]"), ({"factors": [2, 1.5]}, "factors[1]"),
    ({"factors": 3}, "factors"), ({"factors": []}, "factors"), ({}, "factors")],
    ids=["zero", "string", "bool", "float", "not-a-list", "empty", "missing"])
def test_cli_abelian_group_spec_is_checked(tmp_path, capsys, spec, where):
    assert main(["build", "abelian-group", write(tmp_path, "A.json", spec)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"whw: malformed input: MalformedInput: {where}: expected")


# -- the decoder: nested arrays straight into sparse columns ----------------------

def _algebra_action_doc():
    from weakhopf import dualize_coalgebra_action

    act, _ = isotropy_lambda_action(disjoint_union_of_cyclic([1, 2]), QQ, "g1.e")
    return action_to_json(dualize_coalgebra_action(act, check=False))


def _set(doc, keys, value):
    """``doc`` with the entry at the key path ``keys`` replaced by ``value``."""
    inner = doc
    for k in keys[:-1]:
        inner = inner[k]
    inner[keys[-1]] = value
    return doc


@pytest.mark.parametrize("build,load,keys,path", [
    (_kG_doc, weakhopf_from_json, ("mul", 2, 2, 0), "mul[2][2][0]"),
    (_algebra_action_doc, action_from_json, ("carrier", "mul", 1, 1, 1), "carrier.mul[1][1][1]"),
    (_action_doc, action_from_json, ("tensor", 2, 1, 1), "tensor[2][1][1]"),
    (_lambda_doc, lambda_from_json, ("values", 3), "values[3]"),
    (lambda: gpa_to_json(two_object_gpa(QQ)), gpa_from_json, ("projections", "g^-1", 0, 0),
     "projections.g^-1[0][0]"),
], ids=["mul", "carrier-mul", "tensor", "values", "projections"])
def test_a_true_leaf_is_rejected_after_a_one_was_decoded(build, load, keys, path):
    """True == 1 and hashes alike, so a memo of parsed scalars keyed on leaf
    values would take True for the "1" decoded before it."""
    from weakhopf.errors import MalformedInput

    doc = build()
    assert '"1"' in json.dumps(doc)
    with pytest.raises(MalformedInput) as exc:
        load(_set(doc, keys, True))
    assert str(exc.value) == f"{path}: expected a scalar string, got True"


def test_json_int_leaves_are_accepted():
    doc = _kG_doc()
    ints = json.loads(json.dumps(doc).replace('"0"', "0").replace('"1"', "1"))
    assert ints["mul"][0][0][0] == 1 and ints["counit"] == [1, 1, 1]
    H = weakhopf_from_json(ints)
    assert canonical_dumps(weakhopf_to_json(H)) == canonical_dumps(doc)
    act = _action_doc()
    act["tensor"] = [[[int(x) for x in row] for row in plane] for plane in act["tensor"]]
    assert canonical_dumps(action_to_json(action_from_json(act))) == canonical_dumps(_action_doc())


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("text", ["1", " 1", "+1", "2/2", "1 ", "3/3"])
def test_every_spelling_of_one_decodes_to_one(field, text):
    doc = _kG_doc(field)
    H = weakhopf_from_json(doc)
    doc["counit"] = [text] * len(doc["counit"])
    doc["unit"] = [text if x == "1" else x for x in doc["unit"]]
    H2 = weakhopf_from_json(doc)
    assert H2.coalg.counit == H.coalg.counit and H2.unit == H.unit


def test_gf7_scalars_decode_as_before():
    from weakhopf.errors import MalformedInput

    doc = _kG_doc(PrimeField(7))
    doc["counit"][0] = "3 mod 7"
    doc["counit"][1] = "10"
    H = weakhopf_from_json(doc)
    assert H.coalg.counit.cols[0] == {0: 3} and H.coalg.counit.cols[1] == {0: 3}
    assert weakhopf_to_json(H)["counit"][:2] == ["3", "3"]
    doc["counit"][2] = "1/7"
    with pytest.raises(MalformedInput, match=r"zero denominator in '1/7' over GF\(7\)"):
        weakhopf_from_json(doc)


@pytest.mark.parametrize("where,expected", [
    # shapes are checked per loader group before anything in the group is parsed
    (lambda d: d["unit"].pop(), "unit: expected a list of 3 entries"),
    (lambda d: d["mul"][2].pop(), "mul[2]: expected a list of 3 entries"),
    # a later group's shape fault comes after an earlier group's parse fault
    (lambda d: d["comul"][0].pop(), "mul[0][1][1]: not a rational number: 'x'"),
    (lambda d: d["antipode"].pop(), "mul[0][1][1]: not a rational number: 'x'"),
    (lambda d: d["counit"].__setitem__(1, None), "mul[0][1][1]: not a rational number: 'x'"),
], ids=["unit", "mul", "comul", "antipode", "counit"])
def test_a_parse_fault_and_a_later_shape_fault_report_the_first_fault(where, expected):
    doc = _kG_doc()
    doc["mul"][0][1][1] = "x"
    doc["mul"][1][2][0] = "y"
    where(doc)
    with pytest.raises(ValueError) as exc:
        weakhopf_from_json(doc)
    assert str(exc.value) == expected


@pytest.mark.parametrize("field,scalar", [
    (PrimeField(7), "1.5"), (PrimeField(7), ""), (PrimeField(7), "3/x"), (PrimeField(7), "3/"),
    (PrimeField(7), "3/ mod 7"), (QQ, "abc"),
], ids=["gf7-decimal", "gf7-empty", "gf7-letter-denominator", "gf7-empty-denominator",
        "gf7-empty-denominator-mod", "q-letters"])
def test_an_unparseable_scalar_exits_3_naming_its_path(tmp_path, capsys, field, scalar):
    doc = _edit(_kG_doc(field), lambda d: d["mul"][0][0].__setitem__(0, scalar))
    assert main(["check", "weak-hopf", write(tmp_path, "H.json", doc)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert "mul[0][0][0]" in err and repr(scalar) in err


def _round_trip_cases(field):
    from weakhopf import (FiniteAbelianGroup, abelian_group_weak_hopf, dual_groupoid_algebra,
                          dualize_coalgebra_action)
    from weakhopf.jsonio import algebra_from_json
    from weakhopf.jsonwrite import (algebra_to_json, linmap_from_json, linmap_to_json,
                                    tensor3_from_json, tensor3_to_json)

    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, field)
    Hd = dual_groupoid_algebra(disjoint_union_of_cyclic([1, 2]), field)
    avg = abelian_group_weak_hopf(FiniteAbelianGroup((5,)), field)
    lam = LambdaFunctional.indicator(H, ["g1.e"])
    left, _ = isotropy_lambda_action(G, field, "g1.e")
    right = lambda_action(lam, grouplike_coalgebra(field, ["c0", "c1"]), "right")
    gt = standard_globalization(right, find_basis_grouplikes(right)[0])
    return [
        ("linmap", linmap_to_json(Hd.eps_t), linmap_from_json, linmap_to_json),
        ("tensor3-mul", tensor3_to_json(avg.alg.mul), tensor3_from_json, tensor3_to_json),
        ("tensor3-comul", tensor3_to_json(avg.coalg.comul), tensor3_from_json, tensor3_to_json),
        ("algebra", algebra_to_json(Hd.alg), algebra_from_json, algebra_to_json),
        ("coalgebra", coalgebra_to_json(Hd.coalg), coalgebra_from_json, coalgebra_to_json),
        ("weak-hopf", weakhopf_to_json(avg), weakhopf_from_json, weakhopf_to_json),
        ("weak-hopf-dual", weakhopf_to_json(Hd), weakhopf_from_json, weakhopf_to_json),
        ("action-left", action_to_json(left, groupoid=G), action_from_json,
         lambda a: action_to_json(a, groupoid=G)),
        ("action-right", action_to_json(right), action_from_json, action_to_json),
        ("action-algebra", action_to_json(dualize_coalgebra_action(left, check=False)),
         action_from_json, action_to_json),
        ("lambda", lambda_to_json(lam, groupoid=G, hopf_kind="kG", side="right"),
         lambda_from_json, lambda r: lambda_to_json(*r)),
        ("groupoid-action", gpa_to_json(two_object_gpa(field)), gpa_from_json, gpa_to_json),
        ("globalization", triple_to_json(gt), triple_from_json, triple_to_json),
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_every_schema_round_trips_byte_identically(field):
    for name, doc, load, dump in _round_trip_cases(field):
        text = canonical_dumps(doc)
        assert canonical_dumps(dump(load(json.loads(text)))) == text, name


# -- repeated runs in one process ---------------------------------------------------

def test_repeated_cli_runs_in_one_process_match_fresh_processes(tmp_path, capsys, monkeypatch):
    import weakhopf.cli

    monkeypatch.setenv("COLUMNS", "80")
    good = write(tmp_path, "H.json", _kG_doc())
    bad = write(tmp_path, "bad.json", _edit(_kG_doc(), lambda d: d["antipode"].pop()))
    act = write(tmp_path, "act.json", _action_doc())
    dual = str(tmp_path / "dual.json")
    runs = [["check", "weak-hopf", good], ["check", "weak-hopf", bad],
            ["dualize", act, "-o", dual], ["--help"], ["check", "weak-hopf", good]]
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    for argv in runs + runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        emitted = open(dual).read() if "dualize" in argv else None
        proc = subprocess.run([sys.executable, "-m", "weakhopf.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=60)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert emitted is None or open(dual).read() == emitted


# -- the command line, read by the command table ------------------------------------

FORMS = [   # argv, the attributes the handler receives besides `fn`
    (["validate-groupoid", "G.json"], {"path": "G.json"}),
    (["build", "kG", "G.json"], {"kind": "kG", "spec": "G.json", "field": "Q", "output": None}),
    (["build", "kG-dual", "G.json", "--field", "Fp:7", "-o", "H.json"],
     {"kind": "kG-dual", "spec": "G.json", "field": "Fp:7", "output": "H.json"}),
    (["build", "abelian-group", "A.json", "--field=Fp:5", "--output=H.json"],
     {"kind": "abelian-group", "spec": "A.json", "field": "Fp:5", "output": "H.json"}),
    (["build", "--field", "Fp:7", "kG", "-o", "H.json", "G.json"],
     {"kind": "kG", "spec": "G.json", "field": "Fp:7", "output": "H.json"}),
    *[(["check", kind, "IN.json"], {"kind": kind, "path": "IN.json"})
      for kind in ["weak-hopf", "wb", "identities", "hopf", "mc", "pmc", "ma", "pma", "lambda",
                   "groupoid-action"]],
    (["--format", "json", "check", "pmc", "IN.json"],
     {"format": "json", "kind": "pmc", "path": "IN.json"}),
    (["--format=json", "equiv", "IN.json"], {"format": "json", "path": "IN.json"}),
    (["--format", "text", "equiv", "IN.json"], {"path": "IN.json"}),
    (["dualize", "A.json"], {"path": "A.json", "output": None}),
    (["dualize", "A.json", "-o", "D.json"], {"path": "A.json", "output": "D.json"}),
    (["dualize", "-o=D.json", "A.json"], {"path": "A.json", "output": "D.json"}),
    (["globalize", "A.json", "--grouplike", "g1.e", "-o", "T.json"],
     {"path": "A.json", "grouplike": "g1.e", "output": "T.json"}),
    (["--format", "json", "globalize", "A.json", "--grouplike=g=h", "--output", "T.json"],
     {"format": "json", "path": "A.json", "grouplike": "g=h", "output": "T.json"}),
    (["globalize", "A.json", "-o", "first.json", "-o", "T.json"],
     {"path": "A.json", "grouplike": None, "output": "T.json"}),
]


@pytest.mark.parametrize("argv,expected", FORMS, ids=[" ".join(argv) for argv, _ in FORMS])
def test_every_documented_form_dispatches_its_arguments(monkeypatch, argv, expected):
    from weakhopf import cli

    command = next(word for word in argv if word in cli.COMMANDS)
    handler, spec = cli.COMMANDS[command]
    received = []

    def fake(args):
        received.append(args)
        return [], None

    if isinstance(handler, str):   # "module.function": replaced where main looks it up
        module, name = handler.split(".")
        owner = importlib.import_module(f"weakhopf.{module}")
        assert callable(getattr(owner, name)) and name.endswith("_command")
        monkeypatch.setattr(owner, name, fake)
    else:
        assert handler is cli._cmd_check and command == "check"
        monkeypatch.setitem(cli.COMMANDS, command, (fake, spec))
    monkeypatch.setattr(cli, "_load", lambda path: {"read": path})
    assert main(argv) == 0
    [args] = received
    path = expected.get("path", expected.get("spec"))
    assert vars(args) == {"format": "text", "command": command, **expected,
                          "doc": {"read": path}}


USAGE_ERRORS = [    # argv, the usage line's program, the error after "whw: error: "
    ([], "whw", "the following arguments are required: command"),
    (["bogus", "x.json"], "whw", "argument command: invalid choice: 'bogus' (choose from "
     "'validate-groupoid', 'build', 'check', 'equiv', 'dualize', 'globalize')"),
    (["check", "bogus", "x.json"], "whw check", "argument kind: invalid choice: 'bogus'"),
    (["build", "kG-bogus", "G.json"], "whw build", "argument kind: invalid choice: 'kG-bogus'"),
    (["--format", "xml", "check", "pmc", "x.json"], "whw",
     "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["--format=yaml", "equiv", "x.json"], "whw", "argument --format: invalid choice: 'yaml'"),
    (["check", "pmc"], "whw check", "the following arguments are required: path"),
    (["build"], "whw build", "the following arguments are required: kind, spec"),
    (["equiv", "a.json", "b.json"], "whw equiv", "unrecognized arguments: b.json"),
    (["dualize", "a.json", "-o"], "whw dualize", "argument -o/--output: expected one argument"),
    (["--format"], "whw", "argument --format: expected one argument"),
    (["globalize", "a.json", "--bogus", "1"], "whw globalize", "unrecognized arguments: --bogus"),
    (["check", "pmc", "a.json", "--format", "json"], "whw check",
     "unrecognized arguments: --format"),
    (["dualize", "a.json", "--grouplike", "g"], "whw dualize",
     "unrecognized arguments: --grouplike"),
    (["build", "kG", "G.json", "--fi", "Q"], "whw build", "unrecognized arguments: --fi"),
    (["-o", "x.json", "equiv", "a.json"], "whw", "unrecognized arguments: -o"),
]


@pytest.mark.parametrize("argv,prog,message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "no command" for argv, _, _ in USAGE_ERRORS])
def test_a_usage_error_exits_64_with_the_usage_line_and_one_error_line(
        capsys, argv, prog, message):
    import weakhopf.cli

    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (64, "")
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: {prog} [-h]") and error.startswith(f"whw: error: {message}")
    assert err.endswith("\n")
    src = os.path.dirname(os.path.dirname(weakhopf.cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "weakhopf.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (64, "", err)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["build", "--help"],
                                  ["--format", "json", "check", "pmc", "-h"]])
def test_help_prints_the_module_docstring_and_exits_0(capsys, argv):
    import weakhopf.cli

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == (weakhopf.cli.__doc__, "")


# -- write failures: exit 74 with one line on stderr ---------------------------------

def _whw_child(argv, stdout):
    """A ``whw`` child with its stdout block-buffered, as it is when not a terminal."""
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "weakhopf.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=dict(env, PYTHONPATH=src),
                          timeout=60)


def _closed_pipe():
    """The write end of a pipe whose read end is closed, as ``| head -c 0`` leaves it."""
    read, write_end = os.pipe()
    os.close(read)
    return write_end


WRITE_FAILURES = [   # id, argv after the document names are filled in, stdout, what fails
    ("missing-directory", ["build", "kG", "G.json", "-o", "MISSING"], None,
     "MISSING: No such file or directory"),
    ("dev-full", ["build", "kG", "G.json", "-o", "/dev/full"], None,
     "/dev/full: No space left on device"),
    ("stdout-dev-full", ["--format", "json", "check", "weak-hopf", "H.json"], "/dev/full",
     "stdout: No space left on device"),
    ("stdout-closed-pipe", ["--format", "json", "check", "weak-hopf", "H.json"], "closed",
     "stdout: Broken pipe"),
    # a document larger than the stdout buffer fails while it is printed, not at the flush
    ("stdout-closed-pipe-while-printing", ["build", "kG", "G16.json"], "closed",
     "stdout: Broken pipe"),
]


@pytest.mark.parametrize("argv,stdout,message", [case[1:] for case in WRITE_FAILURES],
                         ids=[case[0] for case in WRITE_FAILURES])
def test_a_write_failure_exits_74_with_one_line(tmp_path, argv, stdout, message):
    paths = {"G.json": _one_element_groupoid(tmp_path),
             "H.json": write(tmp_path, "H.json", _kG_doc()),
             "G16.json": write(tmp_path, "G16.json", {"disjoint_union": [{"group": "Z/8"}] * 2}),
             "MISSING": str(tmp_path / "missing" / "x.json")}
    argv = [paths.get(a, a) for a in argv]
    if stdout == "closed":
        stdout = _closed_pipe()
        try:
            proc = _whw_child(argv, stdout)
        finally:
            os.close(stdout)
    elif stdout:
        with open(stdout, "w") as fh:
            proc = _whw_child(argv, fh)
    else:
        proc = _whw_child(argv, subprocess.DEVNULL)
    assert proc.returncode == 74
    assert proc.stderr == f"whw: cannot write {message.replace('MISSING', paths['MISSING'])}\n"


def test_main_reports_an_output_it_cannot_open(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x.json")
    assert main(["build", "kG", _one_element_groupoid(tmp_path), "-o", missing]) == 74
    assert capsys.readouterr() == ("", f"whw: cannot write {missing}: No such file or directory\n")
