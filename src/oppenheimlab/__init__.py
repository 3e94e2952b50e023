"""Numerical laboratory for series-expansion digit laws, exact weak laws,
and index-1 stable limit laws."""

__version__ = "0.29.0"

import ctypes


def _reuse_freed_heap() -> None:
    """Let glibc's malloc serve blocks below 32 MB from its heap and keep up
    to 64 MB of freed heap.  By default it maps every block above 128 kB
    afresh and gives freed heap above the top back to the kernel, so numpy's
    temporaries fault their pages in again on every allocation.  On a run,
    that is the chunks of ``sample_many`` and ``ks_distance``: three 2e6-draw
    passes of both took about 3,800 minor faults, not 8,400, and ran 1-5 %
    faster.  Set on import, so every caller of the package gets it.  A C
    library without mallopt is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), \
        ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_reuse_freed_heap()

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
    sample_many,
)
from .experiments import (
    ExperimentConfig,
    RunRecord,
    centering_constants,
    char_distance_check,
    distributional_run,
    exact_weak_law_run,
    load_record,
    replication_rng,
    save_record,
    v_samples,
)
