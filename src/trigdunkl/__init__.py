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
    RootSystemSpec,
    pair_with_xi,
    reflect,
    root_system,
)
from .laurent import (
    DivisibilityError,
    Laurent,
    Localized,
    divided_difference,
    inner_product,
    is_w_invariant,
    laurent_from_json,
    orbit_sum,
    weight_function,
)
from .dunkl import (
    ResonanceError,
    SymH,
    TriangularityError,
    conjugation_check,
    dunkl_apply,
    hamiltonian_apply,
    invariant_apply,
    jacobi,
    lk_apply,
    mu_tilde,
    norm_sq,
    rho,
    rho_norm,
)
from .special import (
    INFINITY,
    SpecialExponentReport,
    consecutive_relations,
    dk2_apply,
    e8_exponent_difference,
    kplus_membership,
    monodromy_spec,
    schwarz_table,
    special_exponents,
    verify_quadratic,
)
from .verify import SUITES, run_all, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
