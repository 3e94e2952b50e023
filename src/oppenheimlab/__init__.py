"""Numerical laboratory for series-expansion digit laws, exact weak laws,
and index-1 stable limit laws."""

__version__ = "0.15.0"

from .errors import (
    AccuracyError,
    ConditionCheckError,
    DomainError,
    PoleError,
)
from .specfun import (
    EULER_GAMMA,
    c2_discrete,
    c2_discrete_quad,
    cin,
    cosine_integral,
    gauss_2f1_unit,
    lemma_a1,
)
from .distributions import (
    DistributionFamily,
    centering_b,
    centering_b_quad,
    char_components,
    char_components_quad,
    discrete_beta_family,
    discrete_beta_pmf,
    family_from_config,
    mobius_clamped_family,
    mobius_remark2_family,
    proposition_2_4_profile,
    reciprocal_char,
    uniform_family,
)
from .expansions import (
    DigitSequence,
    extract_digits,
    ratio_path,
    ratios,
)
from .weights import (
    WeightScheme,
    cesaro_scheme,
    check_theorem_3_2_conditions,
    check_theorem_4_1_conditions,
    iterated_mean,
    iterated_scheme,
    power_alpha_scheme,
    weights_row,
)
from .limitlaw import (
    StableLimitLaw,
    cdf,
    cdf_many,
    char_fn,
    ks_distance,
    levy_cf_law,
    sample,
    sample_many,
)
from .experiments import (
    ExperimentConfig,
    RunRecord,
    centering_constants,
    char_distance_check,
    distributional_run,
    exact_weak_law_run,
    gamma_from_harmonic,
    load_record,
    replication_rng,
    save_record,
    v_samples,
)
