"""Fixed points, periods and entropy for monotone self-maps of a bouquet
of circles, driven by the induced action on the fundamental group.

The top level holds the census, homology and spectrum names that the
README example uses; everything else, the piecewise-linear oracle's
`build_lift` and `oracle_counts` included, is imported from its
submodule, so importing the package does not load the oracle."""

from .homology import PowerSequences, abelianize
from .periods import fix_counts, per_census
from .spectral import eigenvalues
from .words import action

__version__ = "0.1.0"
