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
    PowerSequences,
    abelianize,
)
from .periods import (
    Conclusion,
    FixCountTable,
    PeriodCertificate,
    dominant_periods,
    fix_counts,
    fmbig_test,
    lefschetz_fix_check,
    per_census,
    period_certificates,
)
from .pl_oracle import (
    PLLift,
    build_lift,
    oracle_counts,
)
from .spectral import (
    SpectrumReport,
    dominant_test,
    eigenvalues,
    entropy_limit,
    m0_bound,
)
from .words import (
    BRANCH_FREE,
    Letter,
    MapAction,
    Word,
    action,
    apply_endo,
    branch_period_under,
    chi,
    first_letter,
    gamma,
    iterate_action,
    orientation,
    word,
)

__version__ = "0.1.0"
