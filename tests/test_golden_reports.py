"""Byte-for-byte regression test for canonical CLI output.

Every case builds its input document through the public API (or `whw build`),
runs `whw --format json ...` on it and compares the emitted document and the
printed report with the strings stored in ``golden_reports.json``.  The
corrupted documents pin the exact witness strings of failing checks.  The
``api`` cases do the same for checkers the CLI does not reach (the H_t/H_s
propositions, induced actions, corrupted globalization triples and the
λ-verdict slots), printing their reports as canonical JSON.

The golden file was written by running this module as a script
(``python tests/test_golden_reports.py``); regenerate it only for an
intended change of the report or document format.
"""

import importlib.util
import json
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import (
    ENTRIES,
    grouplike_coalgebra,
    isotropy_lambda_action,
    projector_onto_labels,
    regular_action,
    two_object_gpa,
)
from test_globalization import closing_example_one, closing_example_two, mutated_triples

from weakhopf import (
    QQ,
    ActionTensor,
    AlgebraData,
    CoalgebraData,
    FiniteAbelianGroup,
    FinVec,
    GlobalizationTriple,
    LambdaFunctional,
    LinMap,
    Vector,
    WeakBialgebraData,
    WeakHopfData,
    abelian_group_weak_hopf,
    check_globalization,
    check_ht_hs_propositions,
    check_lambda_global,
    check_lambda_partial,
    check_partial_module_algebra,
    check_partial_module_coalgebra,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    dual_globalization_transfer,
    dual_groupoid_algebra,
    dualize_coalgebra_action,
    dualize_right_coalgebra_action,
    field_from_name,
    find_basis_grouplikes,
    groupoid_algebra,
    induce_partial_action,
    lambda_action,
    standard_globalization,
    tensor_product,
    two_object_iso_groupoid,
)
from weakhopf.cli import canonical_dumps, main
from weakhopf.groupoid import groupoid_to_spec
from weakhopf.jsonio import action_from_json
from weakhopf.jsonwrite import (
    action_to_json,
    coalgebra_to_json,
    gpa_to_json,
    lambda_to_json,
    linmap_to_json,
    weakhopf_to_json,
)
from weakhopf.weak_hopf import _on_image

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

SPECS = {
    "kG-Z2+Z3": ("kG", {"disjoint_union": [{"group": "Z/2"}, {"group": "Z/3"}]}, "Q"),
    "kG-dual-iso": ("kG-dual", groupoid_to_spec(two_object_iso_groupoid()), "Q"),
    "abelian-3": ("abelian-group", {"factors": [3]}, "Q"),
    "kG-Z2+Z2-gf7": ("kG", {"disjoint_union": [{"group": "Z/2"}, {"group": "Z/2"}]},
                     "Fp:7"),
}
# GF(2) and GF(3) twins, where the characteristic divides a group order; the
# averaged example needs N = 3 invertible, so abelian-3 has no GF(3) twin
for _name in ("kG-Z2+Z3", "kG-dual-iso", "abelian-3"):
    for _p in (2,) if _name == "abelian-3" else (2, 3):
        SPECS[f"{_name}-gf{_p}"] = (*SPECS[_name][:2], f"Fp:{_p}")
# the averaged example over GF(3), at N = 4
SPECS["abelian-4-gf3"] = ("abelian-group", {"factors": [4]}, "Fp:3")


def _run(argv, capsys):
    code = main(argv)
    return f"exit {code}\n" + capsys.readouterr().out


def _run_with_stderr(argv, capsys):
    """Exit code, stdout and the one-line stderr message of a failing run."""
    code = main(argv)
    captured = capsys.readouterr()
    return f"exit {code}\n{captured.out}stderr: {captured.err}"


def _build(tmp_path, name, capsys):
    kind, spec, field = SPECS[name]
    spec_path = tmp_path / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / f"{name}.json"
    assert main(["build", kind, str(spec_path), "--field", field, "-o", str(out)]) == 0
    capsys.readouterr()
    return out


# one structure-tensor entry set to a new value; on kG-Z2+Z3 "mul" makes
# g1.e·g2.e gain a g2.e term
ENTRY_CORRUPTIONS = {
    "counit": (("counit", 0), "2"),
    "unit": (("unit", 2), "1"),
    "mul": (("mul", 0, 1, 1), "1"),
    "unit[0]=2": (("unit", 0), "2"),
    "mul[0][1][1]=2": (("mul", 0, 1, 1), "2"),
    "comul[1][0][1]=2": (("comul", 1, 0, 1), "2"),
}

# one corrupted document per check evaluated by Sweedler sums of products,
# on (kG)* of the two-object groupoid and the averaged example over ℚ and
# GF(3): check → (structure, entry, new value); each fails its check
SWEEDLER_BREAKS = {
    "(i)": ("kG-dual-iso", ("comul", 0, 3, 2), "2"),
    "Eq 4.2a": ("kG-dual-iso-gf3", ("comul", 0, 3, 2), "2"),
    "Eq 4.2b": ("abelian-3", ("mul", 1, 1, 2), "2"),
    "(iii)a": ("abelian-4-gf3", ("mul", 1, 1, 3), "1"),
    "(iii)b": ("kG-dual-iso", ("comul", 2, 2, 2), "1"),
    "Eq 4.17": ("kG-dual-iso-gf3", ("counit", 0), "0"),
    "Eq 4.18": ("abelian-3", ("counit", 0), "4"),
    "Eq 4.36": ("abelian-4-gf3", ("unit", 0), "0"),
    "Eq 4.37": ("kG-dual-iso", ("antipode", 2, 1), "1"),
    "Eq 4.38": ("kG-dual-iso-gf3", ("antipode", 2, 2), "1"),
    "Eq 4.39": ("abelian-3", ("antipode", 1, 1), "2"),
    "Eq 4.41a": ("abelian-4-gf3", ("antipode", 2, 2), "2"),
    "Eq 4.42": ("kG-dual-iso", ("antipode", 2, 2), "1"),
    "Eq 4.43": ("kG-dual-iso-gf3", ("antipode", 3, 3), "1"),
}


def _entry_part(entry, value) -> str:
    return entry[0] + "".join(f"[{i}]" for i in entry[1:]) + f"={value}"


ENTRY_CORRUPTIONS.update({_entry_part(entry, value): (entry, value)
                          for _, entry, value in SWEEDLER_BREAKS.values()})


def _corrupted(tmp_path, name, capsys, part):
    doc = json.loads(_build(tmp_path, name, capsys).read_text(encoding="utf-8"))
    if part in ENTRY_CORRUPTIONS:
        (*path, last), value = ENTRY_CORRUPTIONS[part]
        target = doc
        for key in path:
            target = target[key]
        target[last] = value
    else:  # swap the first two columns of the antipode
        for row in doc["antipode"]:
            row[0], row[1] = row[1], row[0]
    out = tmp_path / f"{name}.{part}.json"
    out.write_text(canonical_dumps(doc), encoding="utf-8")
    return out


def _action_doc(tmp_path, field, corrupt):
    G = disjoint_union_of_cyclic([2, 3])
    act, _ = isotropy_lambda_action(G, field, "g1.e")
    doc = action_to_json(act)
    if corrupt:
        doc["tensor"][0][0][0] = "7"
    out = tmp_path / f"action-{field!r}-{corrupt}.json"
    out.write_text(canonical_dumps(doc), encoding="utf-8")
    return out


def _dual_doc(tmp_path, capsys, field, corrupt):
    out = tmp_path / f"dual-{field!r}-{corrupt}.json"
    main(["dualize", str(_action_doc(tmp_path, field, False)), "-o", str(out)])
    capsys.readouterr()
    if corrupt:
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc["tensor"][0][1][1] = "3"
        out.write_text(canonical_dumps(doc), encoding="utf-8")
    return out


def _corpus():
    """``bench/corpus.py``, loaded by its path: ``bench/`` is not a package."""
    if "bench_corpus" not in sys.modules:
        path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
        spec = importlib.util.spec_from_file_location("bench_corpus", path)
        sys.modules["bench_corpus"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["bench_corpus"])
    return sys.modules["bench_corpus"]


def _drawn(seed: int) -> WeakHopfData:
    """A ℚ structure drawn as ``conftest.draw_structure`` draws one, from a seeded
    ``random.Random``: every structure constant from ``ENTRIES[QQ]``, which holds
    1/3 and -5/2, and the identity as antipode, on 2 or 3 basis vectors."""
    rng, n = random.Random(seed), 2 + seed % 2
    H = FinVec(QQ, tuple(f"h{i}" for i in range(n)))
    HH = tensor_product(H, H)

    def draw(dom, cod):
        return LinMap.from_rows(dom, cod, [[rng.choice(ENTRIES[QQ]) for _ in range(dom.dim)]
                                           for _ in range(cod.dim)])

    alg = AlgebraData(H, draw(HH, H), Vector.from_coords(H, [rng.choice(ENTRIES[QQ])
                                                             for _ in range(n)]))
    coalg = CoalgebraData(H, draw(H, HH), draw(H, FinVec(QQ, ("k0",))))
    return WeakHopfData(WeakBialgebraData(alg, coalg), LinMap.identity(H))


# M for `check weak-hopf` and for `check identities` on the averaged example of Z/5 over
# ℚ when one height served every table: the least integers above 2·5²¹ and 2·5¹² prime
# to 5 (D = 5, max(A, D) = 25); per-table heights give this document its own moduli
ADVERSARIAL_SHIFT = 953674316406251 * 488281251


def _structure_doc(name: str) -> dict:
    """``drawn-<seed>``, ``averaged-Z<N> <corruption of bench/corpus.py>``, or the averaged
    example of Z/5 with its counit at 1 moved by a multiple of both moduli above."""
    if name.startswith("drawn-"):
        return weakhopf_to_json(_drawn(int(name[6:])))
    stem, corruption = name.split()
    H = abelian_group_weak_hopf(FiniteAbelianGroup((int(stem[10:]),)), QQ)
    if corruption != "adversarial":
        return weakhopf_to_json(_corpus()._WEAK_HOPF_CORRUPTIONS[corruption][0](H))
    doc = weakhopf_to_json(H)
    doc["counit"][0] = str(int(doc["counit"][0]) + ADVERSARIAL_SHIFT)
    return doc


STRUCTURE_DOCS = [f"drawn-{seed}" for seed in range(1, 13)] + [
    f"averaged-Z{N} {corruption}" for N in (4, 5)
    for corruption in ("double-antipode", "double-counit", "double-unit")] + [
    "averaged-Z5 adversarial"]


def _write(tmp_path, name, doc):
    out = tmp_path / name
    out.write_text(canonical_dumps(doc), encoding="utf-8")
    return out


def _hopf(kind):
    """The weak Hopf algebra and groupoid behind the ``kG`` / ``kG-dual`` cases."""
    if kind == "kG":
        G = disjoint_union_of_cyclic([2, 3])
        return groupoid_algebra(G, QQ), G
    G = two_object_iso_groupoid()
    return dual_groupoid_algebra(G, QQ), G


def _regular_json(kind, side, corrupt, dual):
    """The regular action of ``kind`` on its own coalgebra, or (``dual``) its
    transpose on the convolution algebra; corrupted in one tensor entry."""
    act = regular_action(_hopf(kind)[0], side)
    if dual:
        act = (dualize_coalgebra_action if side == "left"
               else dualize_right_coalgebra_action)(act, check=False)
    doc = action_to_json(act)
    if corrupt:
        doc["tensor"][0][1][0] = "3"
    return doc


def _regular_doc(tmp_path, kind, side, corrupt, dual):
    return _write(tmp_path, f"regular-{kind}-{side}-{dual}-{corrupt}.json",
                  _regular_json(kind, side, corrupt, dual))


def _lambda_doc(tmp_path, kind, side, corrupt):
    H, G = _hopf(kind)
    lam = LambdaFunctional.indicator(H, ["g1.e" if kind == "kG" else "p_e"])
    doc = lambda_to_json(lam, G, kind, side)
    if corrupt:
        doc["values"][1] = "2"
    return _write(tmp_path, f"lambda-{kind}-{side}-{corrupt}.json", doc)


# one-entry corruptions of the two-object document, (map, element, row,
# column) → new value; between them they fail every groupoid-action condition
# that a correct document passes.  `equiv` stops on each with exit 4
# (NotDirectSum or NotSymmetric) before it prints a report.
GPA_BREAKS = {
    "projections.e[0][0]=0": (("projections", "e", 0, 0), "0"),
    "projections.e[0][0]=2": (("projections", "e", 0, 0), "2"),
    "projections.e[0][1]=1": (("projections", "e", 0, 1), "1"),
    "isos.e[0][0]=0": (("isos", "e", 0, 0), "0"),
    "projections.e[1][0]=1": (("projections", "e", 1, 0), "1"),
}
GPA_CONDITIONS = ("theta-support", "(i)-projection", "(i)-comulti", "(i)-quasi-a",
                  "(i)-quasi-b", "(ii)-theta-objects", "Eq 1", "Eq 2", "Eq 4", "Lemma-(i)a",
                  "Lemma-(i)b", "Lemma-(iii)", "theta-iso")


def _gpa_doc(tmp_path, corrupt):
    doc = gpa_to_json(two_object_gpa(QQ))
    if corrupt == "theta":   # θ_g sends x_e to 2·x_f
        doc["isos"]["g"][1][0] = "2"
    elif corrupt == "projection":   # P_g = id, invisible in the kG action
        doc["projections"]["g"][0][0] = "1"
    elif corrupt:
        (part, g, i, j), value = GPA_BREAKS[corrupt]
        doc[part][g][i][j] = value
    return _write(tmp_path, f"gpa-{corrupt}.json", doc)


def _closing_doc(tmp_path, corrupt):
    doc = action_to_json(closing_example_one())
    if corrupt:   # c1↼δ_{g1.e} = c0 + c1
        doc["tensor"][1][0][0] = "1"
    return _write(tmp_path, f"closing-{corrupt}.json", doc)


def _corrupted_left_regular():
    """The regular left action of (kG)* for the two-object groupoid with
    p_g also sending p_e to itself."""
    act = regular_action(_hopf("kG-dual")[0])
    slices = list(act.slices)
    cols = list(slices[2].cols)
    cols[0] = {0: QQ.one()}
    slices[2] = LinMap(act.space, act.space, cols)
    return ActionTensor.from_slices(act.hopf, act.carrier, "left", slices)


def _mutated_triple(mutation):
    """A corrupted standard globalization of a closing example: one of
    ``mutated_triples``, or one column of the global action or of π replaced."""
    act = (closing_example_two if mutation == "global-slice-two" else closing_example_one)()
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    if mutation not in ("global-slice-one", "global-slice-two", "pi-column"):
        return dict(mutated_triples(gt))[mutation]
    if mutation == "pi-column":
        cols = list(gt.pi.cols)
        cols[0] = {2: QQ.from_int(2)}
        return GlobalizationTriple(gt.partial, gt.D, gt.global_act, gt.theta,
                                   LinMap(gt.D.space, gt.D.space, cols))
    slices = list(gt.global_act.slices)
    cols = list(slices[0].cols)
    cols[0] = {1 if mutation == "global-slice-one" else 2: QQ.one()}
    slices[0] = LinMap(gt.D.space, gt.D.space, cols)
    global_act = ActionTensor.from_slices(act.hopf, gt.D, "right", slices)
    return GlobalizationTriple(gt.partial, gt.D, global_act, gt.theta, gt.pi)


def _induced(example, field):
    """``induce_partial_action`` on a regular action: (kZ/2)* through the
    projection of "induce corrupted", or kG of Z/2 ⊔ Z/3 onto the g2.* basis."""
    if example == "kZ2-dual":
        H = dual_groupoid_algebra(cyclic_group_groupoid(2), field)
        proj = LinMap.from_rows(H.space, H.space, [[2, 1], [-2, -1]])
    else:
        H = groupoid_algebra(disjoint_union_of_cyclic([2, 3]), field)
        proj = projector_onto_labels(H.space, [l for l in H.space.labels
                                               if l.startswith("g2.")])
    return induce_partial_action(regular_action(H), proj)


def _api_output(name) -> str:
    if name == "ht-hs corrupted":
        docs = [check_ht_hs_propositions(_corrupted_left_regular()).to_json()]
    elif name == "induce corrupted":
        # π = v·f with v = p_e - p_a grouplike in (kZ/2)* and f = 2p_e* + p_a*
        H = dual_groupoid_algebra(cyclic_group_groupoid(2), QQ)
        proj = LinMap.from_rows(H.space, H.space, [[2, 1], [-2, -1]])
        res = induce_partial_action(regular_action(H), proj)
        docs = [res.report.to_json(), res.symmetric.line()]
    elif name.startswith("induce structures"):
        *_, example, field = name.split()
        res = _induced(example, field_from_name(field))
        docs = [action_to_json(res.action), coalgebra_to_json(res.D),
                linmap_to_json(res.inclusion)]
    elif name == "partial verdict slots":
        docs = []
        for kind in ("kG", "kG-dual"):
            for side in ("left", "right"):
                for dual, check in ((False, check_partial_module_coalgebra),
                                    (True, check_partial_module_algebra)):
                    v = check(action_from_json(_regular_json(kind, side, True, dual)))
                    docs += [v.symmetric.line(), v.globality.line()]
    elif name.startswith("lambda"):
        H = groupoid_algebra(two_object_iso_groupoid(), QQ)
        lam = LambdaFunctional.from_values(H, [1, 0, 1, 2])
        glob = check_lambda_global(lam)
        docs = [glob.report.to_json(), glob.globality.line()]
        for side in ("left", "right"):
            v = check_lambda_partial(lam, side)
            docs += [v.report.to_json(), v.symmetric.line(), v.globality.line()]
    else:
        bad = _mutated_triple(name.split()[-1])
        if name.startswith("globalization"):
            docs = [check_globalization(bad).to_json()]
        else:
            res = dual_globalization_transfer(bad)
            docs = [res.coalgebra_report.to_json(), res.algebra_report.to_json()]
    return canonical_dumps(docs) + "\n"


API_CASES = ["ht-hs corrupted", "induce corrupted", "lambda verdicts",
             "partial verdict slots"] + [
    f"{what} {mutation}" for what in ("globalization", "dual-transfer")
    for mutation in ("corrupt-pi", "corrupt-theta", "break-generation")] + [
    f"dual-transfer {mutation}"
    for mutation in ("global-slice-one", "global-slice-two", "pi-column")] + [
    f"induce structures {example} {field}" for example in ("kZ2-dual", "kG-Z2+Z3")
    for field in ("Q", "Fp:3")]


FIELDS = ("Q", "Fp:7", "Fp:2", "Fp:3")


def _cases():
    cases = []
    for name in SPECS:
        cases.append((f"build {name}", "build", name))
        for kind in ("weak-hopf", "identities", "hopf"):
            cases.append((f"{kind} {name}", kind, name))
    for name in ("kG-Z2+Z3", "kG-Z2+Z3-gf2", "kG-Z2+Z3-gf3"):
        for part in ("counit", "antipode", "unit", "mul"):
            for kind in ("weak-hopf", "identities"):
                cases.append((f"{kind} {name} corrupted {part}", kind, (name, part)))
    # Δ(1) ≠ 1⊗1 on both: between them these fail (i), (iii)a, (iii)b, assoc,
    # coassoc, S-(iii), S-antimult, S-anticomult and Eq 4.2a/b, 4.17, 4.18
    for name in ("kG-dual-iso", "abelian-3", "kG-dual-iso-gf2", "kG-dual-iso-gf3",
                 "abelian-3-gf2"):
        for part in ("unit[0]=2", "mul[0][1][1]=2", "comul[1][0][1]=2", "antipode"):
            for kind in ("weak-hopf", "identities"):
                cases.append((f"{kind} {name} corrupted {part}", kind, (name, part)))
    for name, entry, value in SWEEDLER_BREAKS.values():
        part = _entry_part(entry, value)
        for kind in ("weak-hopf", "identities"):
            cases.append((f"{kind} {name} corrupted {part}", kind, (name, part)))
    for field in FIELDS:
        for corrupt in (False, True):
            tag = f"{field}{' corrupted' if corrupt else ''}"
            cases.append((f"pmc {tag}", "pmc", (field, corrupt)))
            cases.append((f"pma {tag}", "pma", (field, corrupt)))
    for kind in ("mc", "ma", "lambda", "pmc regular", "pma regular"):
        for hopf in ("kG", "kG-dual"):
            for side in ("left", "right"):
                for corrupt in (False, True):
                    cases.append((f"{kind} {hopf} {side}{' corrupted' if corrupt else ''}",
                                  kind.split()[0], (hopf, side, corrupt)))
    for corrupt in (False, True):
        tag = " corrupted" if corrupt else ""
        cases.append((f"groupoid-action two-object{tag}", "groupoid-action",
                      corrupt and "theta"))
        cases.append((f"equiv two-object{tag}", "equiv", corrupt and "projection"))
        cases.append((f"globalize closing-one{tag}", "globalize", corrupt))
    for part in GPA_BREAKS:
        cases.append((f"groupoid-action two-object corrupted {part}", "groupoid-action", part))
    for field in FIELDS:
        cases.append((f"dualize {field}", "dualize", field))
    for problem in ("wrong-side", "not-partial"):
        cases.append((f"dualize {problem}", "dualize", problem))
    for name in STRUCTURE_DOCS:
        for kind in ("weak-hopf", "identities"):
            cases.append((f"{kind} {name}", kind, ("doc", name)))
    cases.append(("equiv lambda-derived", "equiv", "lambda"))
    cases += [(f"api {name}", "api", name) for name in API_CASES]
    return cases


CASES = _cases()


def _output(kind, arg, tmp_path, capsys) -> str:
    if kind == "build":
        return _build(tmp_path, arg, capsys).read_text(encoding="utf-8")
    if kind == "api":
        return _api_output(arg)
    command = ["check", kind]
    if kind in ("mc", "ma", "pmc", "pma") and len(arg) == 3:
        path = _regular_doc(tmp_path, *arg, dual=kind in ("ma", "pma"))
    elif kind == "lambda":
        path = _lambda_doc(tmp_path, *arg)
    elif kind == "groupoid-action":
        path = _gpa_doc(tmp_path, arg)
    elif kind == "equiv":
        command = ["equiv"]
        if arg == "lambda":
            G = disjoint_union_of_cyclic([2, 2])
            act, _ = isotropy_lambda_action(G, QQ, "g1.e")
            path = _write(tmp_path, "lambda-derived.json", action_to_json(act, G))
        else:
            path = _gpa_doc(tmp_path, arg)
    elif kind == "dualize" and arg == "wrong-side":
        path = _regular_doc(tmp_path, "kG", "right", False, dual=False)
        return _run_with_stderr(["--format", "json", "dualize", str(path)], capsys)
    elif kind == "dualize" and arg == "not-partial":
        path = _action_doc(tmp_path, QQ, True)
        return _run_with_stderr(["--format", "json", "dualize", str(path)], capsys)
    elif kind == "dualize":
        command = ["dualize"]
        path = _action_doc(tmp_path, field_from_name(arg), False)
    elif kind == "globalize":
        command = ["globalize"]
        path = _closing_doc(tmp_path, arg)
    elif kind in ("pmc", "pma"):
        field = field_from_name(arg[0])
        path = (_action_doc(tmp_path, field, arg[1]) if kind == "pmc"
                else _dual_doc(tmp_path, capsys, field, arg[1]))
    elif isinstance(arg, tuple) and arg[0] == "doc":
        path = _write(tmp_path, f"{arg[1]}.json", _structure_doc(arg[1]))
    elif isinstance(arg, tuple):
        path = _corrupted(tmp_path, arg[0], capsys, arg[1])
    else:
        path = _build(tmp_path, arg, capsys)
    return _run(["--format", "json", *command, str(path)], capsys)


@pytest.mark.parametrize("label,kind,arg", CASES, ids=[c[0] for c in CASES])
def test_golden_output(label, kind, arg, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _output(kind, arg, tmp_path, capsys) == golden[label]


def test_no_case_stores_an_explicit_zero(tmp_path, capsys, monkeypatch):
    """Every map and vector built while producing the golden outputs holds
    nonzero entries only, which is what makes sparse equality exact."""
    init_map, init_vector = LinMap.__init__, Vector.__init__

    def checked_map(self, domain, codomain, cols):
        cols = tuple(cols)
        assert all(x for col in cols for x in col.values())
        init_map(self, domain, codomain, cols)

    def checked_vector(self, space, terms):
        assert all(terms.values())
        init_vector(self, space, terms)

    monkeypatch.setattr(LinMap, "__init__", checked_map)
    monkeypatch.setattr(Vector, "__init__", checked_vector)
    for n, (label, kind, arg) in enumerate(CASES):
        work = tmp_path / str(n)
        work.mkdir()
        _output(kind, arg, work, capsys)


def test_each_sweedler_check_fails_in_its_corrupted_goldens():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for check, (name, entry, value) in SWEEDLER_BREAKS.items():
        reports = [golden[f"{kind} {name} corrupted {_entry_part(entry, value)}"]
                   for kind in ("weak-hopf", "identities")]
        assert any(f'"label":"{check}","passed":false' in text for text in reports), check


def test_each_groupoid_action_condition_fails_in_a_corrupted_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reports = [golden[f"groupoid-action two-object corrupted {part}"] for part in GPA_BREAKS]
    for check in GPA_CONDITIONS:
        assert any(f'"label":"{check}","passed":false' in text for text in reports), check


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(c[0] for c in CASES)
    assert any('"passed":false' in text and "witness" in text for text in golden.values())


# the modulus M of each family's image (``modular.image``): the least integer above
# 2B prime to every D_t, with D_t the lcm of the denominators and A_t the largest
# |D_t·entry| of table t, s the lcm over the family's sides (``modular.SIDES``) of
# ∏D_t, and B the largest n^k·(s/∏D_t)·∏A_t over its sides "k tables"
MODULI = {
    # the averaged example of Z/3: n = 3, (D, A) = (3, 1) for Δ and Δ(1), (1, 3) for ε
    # and ε∘m, (1, 1) for every other table, so s = 9
    "averaged-Z3": {"wb": 1459,             # 2·3⁶ + 1, side "6 Δ1 Δ1 u m m u m" of (iii)
                    "weak Hopf": 4375,      # 2·3⁷ + 1, side "7 Δ Δ S m S m" of S-(iii)
                    "identities": 487},     # 2·3³·3·3 + 1, side "3 Δ1 S m ε" of 4.30/4.31
    # drawn-2: n = 2, (D, A) = (1, 2) for m, (6, 15) for Δ, (2, 5) for ε, (1, 3) for ε∘m,
    # (1, 1) for S and (1, 0) for the zero unit, Δ(1), ε_t, ε_s, H_t and H_s, so s = 36
    "drawn-2": {"wb": 28801,                # 2·2⁴·15²·2² + 1, side "4 Δ Δ m m" of (i)
                "weak Hopf": 230401,        # 2·2⁷·15²·2² + 1, side "7 Δ Δ S m S m" of S-(iii)
                "identities": 14401},       # 2·2⁴·15²·2 + 1, side "4 Δ Δ S m" of 4.36-4.39
}


@pytest.mark.parametrize("name", sorted(MODULI))
def test_each_family_gets_the_modulus_of_its_height_bound(name):
    """Pins each family's bound, not its proof: a side with a table or a power of n
    fewer changes that M."""
    H = _drawn(2) if name == "drawn-2" else abelian_group_weak_hopf(FiniteAbelianGroup((3,)), QQ)
    assert {family: _on_image(H.wb if family == "wb" else H, family).field.characteristic
            for family in MODULI[name]} == MODULI[name]


# the digest over the SHA-256 of every benchmark output of seeds 1-3 (exit code,
# stdout, stderr and written document of each job, and each corpus document)
OUTPUT_DIGEST = "d340065ed54ed8f9829a8270af7a2c2947729d08e1e803913234d2235b0b7750"


def test_benchmark_outputs_of_seeds_1_to_3_are_byte_identical():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_hashes.py"
    proc = subprocess.run([sys.executable, str(tool), "--seed", "1", "--seed", "2", "--seed", "3",
                           "--digest-only"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("digest of 651 output hashes (sparse-ladder, dense-coproduct, "
                           f"action-pipeline; seeds [1, 2, 3]): {OUTPUT_DIGEST}\n")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    def _drain(buffer: io.StringIO) -> str:
        text = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return text

    class _Capsys(io.StringIO):
        """The part of pytest's capsys fixture that `_output` uses."""

        def readouterr(self):
            return type("Captured", (), {"out": _drain(self), "err": _drain(err)})

    cap, err, out = _Capsys(), io.StringIO(), {}
    with contextlib.redirect_stdout(cap), contextlib.redirect_stderr(err):
        for label, kind, arg in CASES:
            with tempfile.TemporaryDirectory() as tmp:
                out[label] = _output(kind, arg, pathlib.Path(tmp), cap)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(out)} cases to {GOLDEN}")

