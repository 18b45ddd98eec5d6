"""Exact structure-constant workbench for weak Hopf algebras and their
partial actions on coalgebras: example constructors, axiom and identity
checkers, dualization and globalization.  Each name is imported from its
module on first use, so a ``whw`` process loads only the modules it runs."""

from .errors import forward

_EXPORTS = {
    "scalars": "QQ Field PrimeField RationalField field_from_name",
    "tensor_space": "FinVec LinMap Vector ground tensor_product",
    "elimination": "Subspace left_inverse_on_image",
    "dense": "image_basis",
    "structures": "AlgebraData CoalgebraData WeakBialgebraData WeakHopfData "
                  "dual_convolution_algebra eps_s eps_t same_structure_constants",
    "weak_hopf": "check_weak_bialgebra check_weak_hopf dualize is_hopf",
    "identities": "check_identities",
    "groupoid": "FiniteAbelianGroup FiniteGroupoid abelian_group_weak_hopf "
                "cyclic_group_groupoid disjoint_union_of_cyclic dual_groupoid_algebra "
                "groupoid_algebra groupoid_from_spec trivial_groupoid "
                "two_object_iso_groupoid validate_groupoid",
    "actions": "ActionTensor check_module_algebra check_module_coalgebra "
               "check_partial_module_algebra check_partial_module_coalgebra",
    "partial_actions": "LambdaFunctional check_dual_k_partial_action_criterion "
                       "check_k_partial_action_group_criterion check_lambda_global "
                       "check_lambda_partial lambda_action",
    "groupoid_actions": "GroupoidPartialAction check_ht_hs_propositions from_kG_action "
                        "induce_partial_action to_kG_action validate_groupoid_partial_action",
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

__getattr__ = forward(globals(), _MODULE_OF)


def __dir__():
    return sorted(set(globals()) | set(__all__))
