"""What a `whw` process imports, and the lazily resolved package namespace.

Each command imports only the modules it runs, so a process started for one
document does not pay for loading the rest of the package.  The closure
tests run each command in a fresh interpreter and list the `weakhopf.*`
modules it has loaded once `cli.main` returns.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

from conftest import grouplike_coalgebra, isotropy_lambda_action

import weakhopf
from weakhopf import (
    QQ,
    LambdaFunctional,
    disjoint_union_of_cyclic,
    groupoid_algebra,
    lambda_action,
    two_object_iso_groupoid,
)
from weakhopf.jsonio import action_to_json, lambda_to_json, weakhopf_to_json

# the package's exports, module by module
EXPORTS = {
    "scalars": "QQ Field PrimeField RationalField field_from_name",
    "tensor_space": "FinVec LinMap Subspace Tensor3 Vector ground image_basis "
                    "left_inverse_on_image swap_map tensor_product",
    "weak_hopf": "AlgebraData CoalgebraData HopfVerdict WeakBialgebraData WeakHopfData "
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


# -- the import closure of each command --------------------------------------------

RUN_AND_LIST = """
import contextlib, io, json, sys
from weakhopf import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "loaded": sorted(
    m.split(".", 1)[1] for m in sys.modules if m.startswith("weakhopf."))}))
"""

WEAK_HOPF_ONLY = {"groupoid", "partial_actions", "dualization", "globalization"}
NOT_ACTIONS = {"dualization", "globalization"}


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
    docs = {"H": weakhopf_to_json(H), "act": action_to_json(act),
            "lam": lambda_to_json(lam, groupoid=G2, hopf_kind="kG"),
            "right": action_to_json(right)}
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return d


def _loaded(argv):
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    proc = subprocess.run([sys.executable, "-c", RUN_AND_LIST, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0, argv
    return set(out["loaded"])


CLOSURES = [     # (argv with document names, modules it must load, modules it must not)
    (["--help"], set(), {"jsonio", "weak_hopf", "tensor_space", "scalars"} | WEAK_HOPF_ONLY),
    (["check", "weak-hopf", "H.json"], {"weak_hopf"}, WEAK_HOPF_ONLY),
    (["check", "identities", "H.json"], {"weak_hopf"}, WEAK_HOPF_ONLY),
    (["check", "pmc", "act.json"], {"partial_actions"}, NOT_ACTIONS | {"groupoid"}),
    (["check", "lambda", "lam.json"], {"partial_actions"}, NOT_ACTIONS),
    (["dualize", "act.json"], {"dualization"}, {"globalization", "groupoid"}),
    (["globalize", "right.json"], {"globalization"}, {"groupoid"}),
]


@pytest.mark.parametrize("argv,needed,absent", CLOSURES,
                         ids=[" ".join(argv) for argv, _, _ in CLOSURES])
def test_command_imports_only_what_it_runs(documents, argv, needed, absent):
    argv = [str(documents / a) if a.endswith(".json") else a for a in argv]
    loaded = _loaded(argv)
    assert needed <= loaded
    assert not loaded & absent, sorted(loaded & absent)
