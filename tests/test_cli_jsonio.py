import json
import os
import subprocess
import sys

import pytest

from conftest import (
    grouplike_coalgebra,
    isotropy_lambda_action,
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
)
from weakhopf.cli import main
from weakhopf.jsonio import (
    action_from_json,
    action_to_json,
    canonical_dumps,
    coalgebra_from_json,
    coalgebra_to_json,
    gpa_from_json,
    gpa_to_json,
    lambda_from_json,
    lambda_to_json,
    triple_from_json,
    triple_to_json,
    weakhopf_from_json,
    weakhopf_to_json,
)


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_action_json_round_trip():
    G = disjoint_union_of_cyclic([2, 3])
    act, _ = isotropy_lambda_action(G, QQ, "g1.e")
    doc = action_to_json(act, groupoid=G)
    act2 = action_from_json(doc)
    assert act2.action == act.action
    assert act2.side == act.side
    assert canonical_dumps(doc) == canonical_dumps(action_to_json(act2, groupoid=G))


def test_right_action_json_round_trip():
    G = cyclic_group_groupoid(2)
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["e"])
    act = lambda_action(lam, grouplike_coalgebra(QQ, ["c0", "c1"]), "right")
    act2 = action_from_json(action_to_json(act))
    assert act2.action == act.action and act2.side == "right"


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
    from weakhopf.jsonio import (linmap_from_json, linmap_to_json,
                                 tensor3_from_json, tensor3_to_json)

    H = groupoid_algebra(two_object_iso_groupoid(), QQ)
    f = H.eps_t
    assert linmap_from_json(linmap_to_json(f)) == f
    t = H.alg.mul_tensor()
    assert tensor3_from_json(tensor3_to_json(t)) == t


def test_triple_json_round_trip():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["g1.e"])
    act = lambda_action(lam, grouplike_coalgebra(QQ, ["c0", "c1"]), "right")
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    gt2 = triple_from_json(triple_to_json(gt))
    assert gt2.theta == gt.theta and gt2.pi == gt.pi
    assert gt2.global_act.action == gt.global_act.action


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
    import weakhopf.cli
    import weakhopf.dualization
    import weakhopf.partial_actions
    from weakhopf.partial_actions import check_partial_module_coalgebra

    calls = _counting(monkeypatch, check_partial_module_coalgebra,
                      weakhopf.cli, weakhopf.dualization, weakhopf.partial_actions)
    act, _ = isotropy_lambda_action(disjoint_union_of_cyclic([2, 3]), QQ, "g1.e")
    assert main(["dualize", write(tmp_path, "act.json", action_to_json(act))]) == 0
    assert len(calls) == 1


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
    ("carrier-counit", "pmc",
     lambda: _edit(_action_doc(), lambda d: d["carrier"]["counit"].append("1")),
     "carrier.counit"),
    ("gpa-projection", "groupoid-action",
     lambda: _edit(gpa_to_json(two_object_gpa(QQ)), lambda d: d["projections"]["e"].pop()),
     "projections.e"),
    ("lambda-values", "lambda", lambda: _edit(_lambda_doc(), lambda d: d["values"].pop()),
     "values"),
]


def test_cli_rejects_a_document_that_is_not_an_object(tmp_path, capsys):
    path = write(tmp_path, "list.json", [1, 2])
    assert main(["equiv", path]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "expected a JSON object" in err


@pytest.mark.parametrize("name,kind,build,where", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_cli_malformed_input_exits_3_with_one_line(tmp_path, capsys, name, kind, build, where):
    path = write(tmp_path, f"{name}.json", build())
    assert main(["check", kind, path]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("whw: malformed input") and where in err


def test_cli_zero_denominator_in_a_child_process(tmp_path):
    path = write(tmp_path, "bad.json",
                 _edit(_kG_doc(), lambda d: d["counit"].__setitem__(0, "1/0")))
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "weakhopf.cli", "check", "weak-hopf", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
