"""Exact trigonometric Dunkl operator calculus for irreducible root systems,
with the special hypergeometric spectral data and its verification suites."""

from .coeff import (
    K,
    KP,
    RF_ONE,
    RF_ZERO,
    CouplingVector,
    EvaluationError,
    RatFunc,
    couplings,
    parse_ratfunc,
)
from .rootsys import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    RootSystem,
    RootSystemSpec,
    build_root_system,
    reflect,
    root_system,
)
from .laurent import (
    DivisibilityError,
    Laurent,
    Localized,
    divided_difference,
    exact_divide,
    inner_product,
    is_w_invariant,
    laurent_from_json,
    localized_from_json,
    orbit_sum,
    weight_function,
    weyl_act,
)
from .dunkl import (
    ResonanceError,
    SymH,
    conjugation_check,
    dunkl_apply,
    hamiltonian_apply,
    invariant_apply,
    jacobi,
    lk_apply,
    mu_tilde,
    norm_sq,
    pair_with_xi,
    rho,
    rho_norm,
)
from .special import (
    INFINITY,
    SpecialExponentReport,
    c_dual,
    c_dual_pairing,
    consecutive_relations,
    dk2_apply,
    e8_exponent_difference,
    indicial_membership,
    kplus_membership,
    monodromy_spec,
    quadratic_residual,
    reducibility_check,
    schwarz_table,
    special_exponents,
    special_system_rhs,
    verify_quadratic,
    weight_squared,
)
from .verify import SUITES, run_all, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
