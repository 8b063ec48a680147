"""Norms of idempotent indicator functions on finite groups.

Character-sum norms and closed two-coset forms on abelian groups, exact cb
multiplier norms with re-checkable certificates and witnesses on any finite
group, the gamma2 solver for literal matrices, the combinatorial detectors
behind the classification theorems, and exhaustive per-group sweeps.
"""

from .bs import (
    THRESHOLDS,
    MeasureFormResult,
    Thresholds,
    annihilator,
    bs_norm,
    mu_values,
    predicted_norm,
    two_coset_norm,
    verify_measure_form,
)
from .groups import (
    CosetAnalysis,
    Group,
    GroupAxiomError,
    analyze_cosets,
    builtin_group,
    is_subgroup,
    load_cayley_file,
    load_cayley_group,
    make_abelian_group,
    parse_group,
    stabilizer,
    subset_elements,
    subset_mask,
    translate_left,
)
from .multiplier import (
    cb_norm,
    closure_claim_check,
    forbidden_pattern_search,
    has_progression_property,
    multiplier_matrix,
)
from .schur import (
    Certificate,
    Gamma2Bounds,
    Gamma2ConvergenceError,
    WitnessPair,
    check_certificate,
    forbidden_pattern,
    gamma2,
    operator_norm,
    orthogonal_witness,
    pattern_norm_identities,
    symmetric_eigenvalues,
    witness_lower_bound,
)
from .sweep import (
    ClassificationRecord,
    SweepReport,
    VerificationSummary,
    canonical_form,
    classify,
    run_verification,
    sweep,
)
from .witness import (
    SupNormCheck,
    WitnessTriple,
    envelope_identities,
    find_witness,
    sup_norm_check,
    witness_integral,
    witness_norm_bound,
)

__version__ = "0.1.0"
