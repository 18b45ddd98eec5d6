"""What a `whw` process imports, and the lazily resolved package namespace.

Each command imports only the modules it runs, so a process started for one
document does not pay for loading the rest of the package.  The closure
tests run each command in a fresh interpreter and list the modules it has
added to `sys.modules` once `cli.main` returns.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import grouplike_coalgebra, isotropy_lambda_action, two_object_gpa

import weakhopf
from weakhopf import (
    QQ,
    FiniteAbelianGroup,
    LambdaFunctional,
    abelian_group_weak_hopf,
    disjoint_union_of_cyclic,
    dualize_coalgebra_action,
    groupoid_algebra,
    lambda_action,
    two_object_iso_groupoid,
)
from weakhopf.jsonwrite import action_to_json, gpa_to_json, lambda_to_json, weakhopf_to_json

# the package's exports, module by module, by the names that each module offers
# (the records and the action checkers are defined in `structures` and `actions`
# and imported by `weak_hopf` and `partial_actions`)
EXPORTS = {
    "scalars": "QQ Field PrimeField RationalField field_from_name",
    "tensor_space": "FinVec LinMap Subspace Vector ground image_basis "
                    "left_inverse_on_image tensor_product",
    "weak_hopf": "AlgebraData CoalgebraData WeakBialgebraData WeakHopfData "
                 "check_identities check_weak_bialgebra check_weak_hopf "
                 "dual_convolution_algebra dualize eps_s eps_t is_hopf "
                 "same_structure_constants",
    "groupoid": "FiniteAbelianGroup FiniteGroupoid abelian_group_weak_hopf "
                "cyclic_group_groupoid disjoint_union_of_cyclic dual_groupoid_algebra "
                "groupoid_algebra groupoid_from_spec trivial_groupoid "
                "two_object_iso_groupoid validate_groupoid",
    "partial_actions": "ActionTensor GroupoidPartialAction LambdaFunctional "
                       "check_dual_k_partial_action_criterion check_ht_hs_propositions "
                       "check_k_partial_action_group_criterion check_lambda_global "
                       "check_lambda_partial check_module_algebra check_module_coalgebra "
                       "check_partial_module_algebra check_partial_module_coalgebra "
                       "from_kG_action induce_partial_action lambda_action to_kG_action "
                       "validate_groupoid_partial_action",
    "dualization": "dualize_coalgebra_action dualize_right_coalgebra_action "
                   "undualize_algebra_action undualize_left_algebra_action",
    "globalization": "GlobalizationTriple GrouplikeElement check_globalization "
                     "dual_globalization_transfer find_basis_grouplikes "
                     "standard_globalization",
    "report": "CheckResult Report",
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


# -- the lazy namespace ------------------------------------------------------------

@pytest.mark.parametrize("module,name", EXPORTED)
def test_every_export_is_the_module_object(module, name):
    assert getattr(weakhopf, name) is getattr(importlib.import_module(f"weakhopf.{module}"),
                                              name)


def test_all_and_dir_list_every_export():
    names = {name for _, name in EXPORTED}
    assert set(weakhopf.__all__) == names and len(weakhopf.__all__) == len(names)
    assert names <= set(dir(weakhopf))
    namespace = {}
    exec("from weakhopf import *", namespace)
    assert names <= set(namespace)


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_checker"):
        weakhopf.no_such_checker
    with pytest.raises(ImportError):
        exec("from weakhopf import no_such_checker", {})
    assert weakhopf.__version__ == "0.1.0"


def test_no_definition_is_named_only_by_the_tests():
    """``tools/test_only_names.py`` finds no definition in ``src/`` that only
    the tests name, but the H_t/H_s checker that no command runs yet."""
    path = Path(__file__).resolve().parent.parent / "tools" / "test_only_names.py"
    spec = importlib.util.spec_from_file_location("test_only_names", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    groups = tool.unreferenced()
    assert groups["named only by tests/"] == [
        "groupoid_actions.check_ht_hs_propositions (function)"]
    assert groups["named nowhere"] == []


# -- names that moved, reached through the modules that the benchmark names --------

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    """``bench/tracing.py``, loaded by its path: ``bench/`` is not a package."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = sys.modules["bench_tracing"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_benchmark_target_resolves_through_the_module_it_names():
    tracing = _tracing()
    for module, path, *_ in tracing.TARGETS:
        owner, name, raw = tracing._resolve(importlib.import_module(f"weakhopf.{module}"), path)
        assert raw is not None, (module, path)


def test_every_name_the_benchmark_corpus_imports_resolves():
    tree = ast.parse((ROOT / "bench" / "corpus.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: getattr(importlib.import_module(node.module),
                                                    alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module.startswith("weakhopf") for alias in node.names}
    assert {"LinMap", "CoalgebraData", "gpa_to_json"} <= set(imported)
    # and every attribute that it reads off them, such as CoalgebraData.from_tensor
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in imported:
            assert hasattr(imported[node.value.id], node.attr), (node.value.id, node.attr)


def _reached_by_name() -> set:
    """(module, name) for each name that bench/, tools/ or tests/ read off a
    weakhopf module by name: the tracer's targets, imports, and EXPORTS above."""
    pairs = {(module, path.split(".")[0]) for module, path, *_ in _tracing().TARGETS}
    for path in [*ROOT.glob("bench/*.py"), *ROOT.glob("tools/*.py"), *ROOT.glob("tests/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("weakhopf."):
                pairs |= {(node.module.split(".")[1], alias.name) for alias in node.names}
    return pairs | set(EXPORTED)


def test_each_forwarded_name_is_reached_and_is_its_new_modules_object():
    reached, forwarded = _reached_by_name(), 0
    for stem in sorted(p.stem for p in (ROOT / "src" / "weakhopf").glob("[!_]*.py")):
        module = importlib.import_module(f"weakhopf.{stem}")
        if "__getattr__" not in vars(module):
            continue
        for name, new in inspect.getclosurevars(module.__getattr__).nonlocals["moved"].items():
            assert (stem, name) in reached, f"{stem}.{name} is forwarded for no reader"
            assert getattr(module, name) is getattr(importlib.import_module(f"weakhopf.{new}"),
                                                    name)
            forwarded += 1
    assert forwarded, "no module forwards a name"


# -- the import closure of each command --------------------------------------------

RUN_AND_LIST = """
import contextlib, io, json, sys
before = set(sys.modules)
from weakhopf import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - before)}))
"""

WEAK_HOPF_ONLY = {"groupoid", "actions", "partial_actions", "dualization", "globalization",
                  "groupoid_actions", "jsonwrite"}
NOT_ACTIONS = {"dualization", "globalization", "elimination", "jsonwrite"}
CHECKERS = {"weak_hopf", "axioms", "identities"}  # the weak Hopf axiom and identity checkers
NEVER = {"dense"}   # the dense-list adapters, which no command runs
FAMILIES = {"partial_actions", "groupoid_actions"}  # λ, induced and groupoid partial actions


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    act, _ = isotropy_lambda_action(G, QQ, "g1.e")
    G2 = two_object_iso_groupoid()
    lam = LambdaFunctional.indicator(groupoid_algebra(G2, QQ), ["e"])
    right = lambda_action(LambdaFunctional.indicator(H, ["g1.e"]),
                          grouplike_coalgebra(QQ, ["c0", "c1"]), "right")
    docs = {"G": {"disjoint_union": [{"group": "Z/2"}, {"group": "Z/3"}]},
            "H": weakhopf_to_json(H), "act": action_to_json(act),
            "lam": lambda_to_json(lam, groupoid=G2, hopf_kind="kG"),
            "right": action_to_json(right),
            "dual": action_to_json(dualize_coalgebra_action(act)),
            "gpa": gpa_to_json(two_object_gpa(QQ)),
            # kG of one group is a Hopf algebra, which `check hopf` passes
            "kZ3": weakhopf_to_json(groupoid_algebra(disjoint_union_of_cyclic([3]), QQ)),
            # the averaged example holds 1/3 in its coproduct
            "avg": weakhopf_to_json(abelian_group_weak_hopf(FiniteAbelianGroup((3,)), QQ))}
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return d


def _added(argv):
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    proc = subprocess.run([sys.executable, "-c", RUN_AND_LIST, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0, argv
    return set(out["added"])


CLOSURES = [     # (argv with document names, modules it must load, modules it must not)
    (["--help"], set(),
     {"jsonio", "structures", "tensor_space", "scalars", "report", "elimination"}
     | CHECKERS | WEAK_HOPF_ONLY),
    (["check", "weak-hopf", "H.json"], {"structures", "weak_hopf", "axioms", "elimination"},
     WEAK_HOPF_ONLY | {"identities"}),
    (["check", "weak-hopf", "avg.json"], {"structures", "weak_hopf"},
     WEAK_HOPF_ONLY | {"identities"}),
    (["check", "wb", "H.json"], {"weak_hopf", "axioms"}, WEAK_HOPF_ONLY | {"identities"}),
    (["check", "hopf", "kZ3.json"], {"weak_hopf"}, WEAK_HOPF_ONLY | {"identities"}),
    (["check", "identities", "H.json"], {"weak_hopf", "identities"}, WEAK_HOPF_ONLY),
    (["check", "pmc", "act.json"], {"structures", "actions"},
     NOT_ACTIONS | {"groupoid"} | CHECKERS | FAMILIES),
    (["check", "pma", "dual.json"], {"structures", "actions"},
     NOT_ACTIONS | {"groupoid"} | CHECKERS | FAMILIES),
    (["check", "lambda", "lam.json"], {"partial_actions"},
     {"actions", "groupoid_actions"} | NOT_ACTIONS | CHECKERS),
    (["check", "groupoid-action", "gpa.json"], {"groupoid_actions", "elimination"},
     {"actions", "partial_actions"} | NOT_ACTIONS - {"elimination"} | CHECKERS),
    (["equiv", "gpa.json"], {"groupoid_actions", "actions", "groupoid"},
     {"partial_actions"} | NOT_ACTIONS - {"elimination"} | CHECKERS),
    (["dualize", "act.json"], {"dualization"}, {"globalization", "groupoid"} | CHECKERS | FAMILIES),
    (["globalize", "right.json"], {"globalization", "axioms"},
     {"groupoid", "weak_hopf"} | FAMILIES),
    (["build", "kG", "G.json"], {"structures", "groupoid", "jsonwrite"},
     {"actions", "dualization", "globalization", "report", "jsonio", "elimination"}
     | CHECKERS | FAMILIES),
    (["validate-groupoid", "G.json"], {"groupoid", "report"},
     {"jsonio", "elimination"} | CHECKERS | FAMILIES | WEAK_HOPF_ONLY - {"groupoid"}),
]


@pytest.mark.parametrize("argv,needed,absent", CLOSURES,
                         ids=[" ".join(argv) for argv, _, _ in CLOSURES])
def test_command_imports_only_what_it_runs(documents, argv, needed, absent):
    argv = [str(documents / a) if a.endswith(".json") else a for a in argv]
    added = _added(argv)
    loaded = {m.split(".", 1)[1] for m in added if m.startswith("weakhopf.")}
    assert needed <= loaded
    assert not loaded & (absent | NEVER), sorted(loaded & (absent | NEVER))
    # the records are plain classes and the command table is read without argparse:
    # no command pays for importing these
    assert not added & {"dataclasses", "inspect", "typing",
                        "argparse", "gettext", "locale", "textwrap"}, sorted(added)
    # only a document that holds a non-integral rational needs `fractions`
    if argv[-1].endswith("avg.json"):
        assert "fractions" in added
    else:
        assert not added & {"fractions", "decimal", "numbers"}, sorted(added)


def test_no_module_imports_cli():
    """Under ``python -m weakhopf.cli`` the running ``cli`` is ``__main__``, so a
    module that imported ``weakhopf.cli`` would compile it a second time: no
    import statement, forwarding table or handler name in the package names it."""
    for path in sorted((ROOT / "src" / "weakhopf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("weakhopf").strip(".")
                assert "cli" not in ({module} if module else {a.name for a in node.names}), \
                    path.name
            elif isinstance(node, ast.Import):
                assert "weakhopf.cli" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "forward":
                values = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
                assert "cli" not in values, path.name
    from weakhopf import cli
    assert all(isinstance(handler, str) and not handler.startswith("cli.") or
               handler is cli._cmd_check for handler, _ in cli.COMMANDS.values())


def test_closure_lines_lists_what_a_job_compiles_and_never_calls(documents):
    """``tools/closure_lines.py --by-function`` on one ``check weak-hopf`` job:
    each function that the job compiles and never calls, with its lines."""
    spec = importlib.util.spec_from_file_location("closure_lines",
                                                  ROOT / "tools" / "closure_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    closure = tool.job_closure(["check", "weak-hopf", str(documents / "H.json")], documents)
    listing = tool.by_function([closure])
    names = {name for _, _, name in listing}
    assert [n for n, _, _ in listing] == sorted((n for n, _, _ in listing), reverse=True)
    assert sum(n for n, _, _ in listing) == sum(sum(idle.values()) for _, idle in closure.values())
    from weakhopf.weak_hopf import is_hopf
    assert (len(inspect.getsource(is_hopf).splitlines()), 1, "weak_hopf.is_hopf") in listing
    assert "cli._emit" in names and "weak_hopf.check_weak_hopf" not in names
    assert not any(name.startswith(("identities.", "dense.")) for name in names)
    # summed over the jobs that compile a function and never call it
    assert tool.by_function([closure, closure]) == [(2 * n, 2, name) for n, _, name in listing]
