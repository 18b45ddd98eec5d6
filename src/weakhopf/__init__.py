"""Exact structure-constant workbench for weak Hopf algebras and their
partial actions on coalgebras: example constructors, axiom and identity
checkers, dualization and globalization."""

from .scalars import QQ, Field, PrimeField, RationalField, field_from_name
from .tensor_space import (
    FinVec,
    LinMap,
    Subspace,
    Tensor3,
    Vector,
    ground,
    image_basis,
    left_inverse_on_image,
    swap_map,
    tensor_product,
)
from .weak_hopf import (
    AlgebraData,
    CoalgebraData,
    HopfVerdict,
    WeakBialgebraData,
    WeakHopfData,
    check_identities,
    check_weak_bialgebra,
    check_weak_hopf,
    dualize,
    eps_s,
    eps_t,
    is_hopf,
    same_structure_constants,
)
from .groupoid import (
    FiniteAbelianGroup,
    FiniteGroupoid,
    abelian_group_weak_hopf,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    dual_groupoid_algebra,
    groupoid_algebra,
    groupoid_from_spec,
    trivial_groupoid,
    two_object_iso_groupoid,
    validate_groupoid,
)
from .partial_actions import (
    ActionTensor,
    GroupoidPartialAction,
    LambdaFunctional,
    check_dual_k_partial_action_criterion,
    check_ht_hs_propositions,
    check_k_partial_action_group_criterion,
    check_lambda_global,
    check_lambda_partial,
    check_module_algebra,
    check_module_coalgebra,
    check_partial_module_algebra,
    check_partial_module_coalgebra,
    from_kG_action,
    induce_partial_action,
    lambda_action,
    to_kG_action,
    validate_groupoid_partial_action,
)
from .dualization import (
    DualPairing,
    dual_convolution_algebra,
    dualize_coalgebra_action,
    dualize_right_coalgebra_action,
    undualize_algebra_action,
    undualize_left_algebra_action,
)
from .globalization import (
    GlobalizationTriple,
    GrouplikeElement,
    check_globalization,
    dual_globalization_transfer,
    find_basis_grouplikes,
    standard_globalization,
)
from .report import CheckResult, Report

__version__ = "0.1.0"
