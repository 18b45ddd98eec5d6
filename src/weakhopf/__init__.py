"""Exact structure-constant workbench for weak Hopf algebras and their
partial actions on coalgebras: example constructors, axiom and identity
checkers, dualization and globalization.  Each name is imported from its
module on first use, so a ``whw`` process loads only the modules it runs."""

import importlib

_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
