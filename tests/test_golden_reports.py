"""Byte-for-byte regression test for canonical CLI output.

Every case builds its input document through the public API (or `whw build`),
runs `whw --format json ...` on it and compares the emitted document and the
printed report with the strings stored in ``golden_reports.json``.  The
corrupted documents pin the exact witness strings of failing checks.

The golden file was written by running this module as a script
(``python tests/test_golden_reports.py``); regenerate it only for an
intended change of the report or document format.
"""

import json
import pathlib

import pytest

from conftest import isotropy_lambda_action

from weakhopf import QQ, PrimeField, disjoint_union_of_cyclic, two_object_iso_groupoid
from weakhopf.cli import main
from weakhopf.groupoid import groupoid_to_spec
from weakhopf.jsonio import action_to_json, canonical_dumps

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

SPECS = {
    "kG-Z2+Z3": ("kG", {"disjoint_union": [{"group": "Z/2"}, {"group": "Z/3"}]}, "Q"),
    "kG-dual-iso": ("kG-dual", groupoid_to_spec(two_object_iso_groupoid()), "Q"),
    "abelian-3": ("abelian-group", {"factors": [3]}, "Q"),
    "kG-Z2+Z2-gf7": ("kG", {"disjoint_union": [{"group": "Z/2"}, {"group": "Z/2"}]},
                     "Fp:7"),
}


def _run(argv, capsys):
    code = main(argv)
    return f"exit {code}\n" + capsys.readouterr().out


def _build(tmp_path, name, capsys):
    kind, spec, field = SPECS[name]
    spec_path = tmp_path / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / f"{name}.json"
    assert main(["build", kind, str(spec_path), "--field", field, "-o", str(out)]) == 0
    capsys.readouterr()
    return out


def _corrupted(tmp_path, name, capsys, part):
    doc = json.loads(_build(tmp_path, name, capsys).read_text(encoding="utf-8"))
    if part == "counit":
        doc["counit"][0] = "2"
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


def _cases():
    cases = []
    for name in SPECS:
        cases.append((f"build {name}", "build", name))
        for kind in ("weak-hopf", "identities", "hopf"):
            cases.append((f"{kind} {name}", kind, name))
    for part in ("counit", "antipode"):
        for kind in ("weak-hopf", "identities"):
            cases.append((f"{kind} kG-Z2+Z3 corrupted {part}", kind, ("kG-Z2+Z3", part)))
    for field in ("Q", "Fp:7"):
        for corrupt in (False, True):
            tag = f"{field}{' corrupted' if corrupt else ''}"
            cases.append((f"pmc {tag}", "pmc", (field, corrupt)))
            cases.append((f"pma {tag}", "pma", (field, corrupt)))
    return cases


CASES = _cases()


def _output(kind, arg, tmp_path, capsys) -> str:
    if kind == "build":
        return _build(tmp_path, arg, capsys).read_text(encoding="utf-8")
    if kind in ("pmc", "pma"):
        field = QQ if arg[0] == "Q" else PrimeField(7)
        path = (_action_doc(tmp_path, field, arg[1]) if kind == "pmc"
                else _dual_doc(tmp_path, capsys, field, arg[1]))
    elif isinstance(arg, tuple):
        path = _corrupted(tmp_path, arg[0], capsys, arg[1])
    else:
        path = _build(tmp_path, arg, capsys)
    return _run(["--format", "json", "check", kind, str(path)], capsys)


@pytest.mark.parametrize("label,kind,arg", CASES, ids=[c[0] for c in CASES])
def test_golden_output(label, kind, arg, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _output(kind, arg, tmp_path, capsys) == golden[label]


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(c[0] for c in CASES)
    assert any('"passed":false' in text and "witness" in text for text in golden.values())


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    class _Capsys(io.StringIO):
        """The part of pytest's capsys fixture that `_output` uses."""

        def readouterr(self):
            text = self.getvalue()
            self.seek(0)
            self.truncate()
            return type("Captured", (), {"out": text})

    cap, out = _Capsys(), {}
    with contextlib.redirect_stdout(cap):
        for label, kind, arg in CASES:
            with tempfile.TemporaryDirectory() as tmp:
                out[label] = _output(kind, arg, pathlib.Path(tmp), cap)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(out)} cases to {GOLDEN}")
