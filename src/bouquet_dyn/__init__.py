"""Fixed points, periods and entropy for monotone self-maps of a bouquet
of circles, driven by the induced action on the fundamental group."""

from .errors import (
    BudgetError,
    DegenerateMapError,
    InconsistencyError,
    InputError,
    LiftConstructionError,
)
from .homology import (
    LefschetzTable,
    abelianize,
    lefschetz,
    mat_pow,
    mif_check,
    mobius,
    norm1,
    periodic_lefschetz,
    powers,
    trace,
)
from .periods import (
    FixCountTable,
    PeriodCertificate,
    criteria_delaylowgrow,
    criteria_doubling,
    criteria_lowgrow,
    dominant_periods,
    fix_counts,
    fmbig_test,
    lefschetz_fix_check,
    lefschetz_per_count,
    per_census,
)
from .pl_oracle import (
    PLLift,
    build_lift,
    count_fixed,
    cover_growth,
    iterate_lift,
    mono_cover_size,
)
from .spectral import (
    SpectrumReport,
    char_poly,
    dominant_test,
    eigenvalues,
    entropy_limit,
    entropy_spectral,
    m0_bound,
)
from .words import (
    BRANCH_FREE,
    Letter,
    MapAction,
    Word,
    action,
    apply_endo,
    chi,
    first_letter,
    gamma,
    iterate_action,
    orientation,
    word,
)

__version__ = "0.1.0"
