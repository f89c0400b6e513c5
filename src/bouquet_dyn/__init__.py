"""Fixed points, periods and entropy for monotone self-maps of a bouquet
of circles, driven by the induced action on the fundamental group.

The top level holds what the README example uses; everything else is
imported from its submodule."""

from .homology import PowerSequences, abelianize
from .periods import fix_counts, per_census
from .pl_oracle import build_lift, oracle_counts
from .spectral import eigenvalues
from .words import action

__version__ = "0.1.0"
