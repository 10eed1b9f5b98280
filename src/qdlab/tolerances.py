"""Named tolerances of the library's numerical gates and their property tests.

The `--check` margins in `cli.py` and the figure1 searches' stopping widths
(1e-9 in time, 1e-7 in log-ratio) are not here: each is set where it is used.
"""

# Plain linear-algebra identities (unitarity drift, trace preservation,
# reconstruction residuals).
ALGEBRAIC = 1e-10

# Spectral quantities: eigenvalue moduli of unitaries, argument comparisons.
SPECTRAL = 1e-8

# State normalization, unit axes and exact linear bijections (Bloch roundtrip).
NORM = 1e-12

# Inequality slack for spectral-arc checks; dims <= 6 are accurate to ~1e-12,
# so this leaves two orders of margin.
ARC_CHECK = 1e-9

# A unitary eigenvalue argument this close to -pi is folded to +pi.
BRANCH_FOLD = 1e-12

# Equal pairwise inner products and the cos_theta ranges of equiangular directions.
GEOMETRY = 1e-9

# How far past the arc bound a counterexample must be, in the sweep and the recheck.
SEARCH_MARGIN = 1e-6

# Smallest golden-section rel_tol: a few ulps of the bracket, which rounding
# still shrinks to; below it the search can stall forever.
GOLDEN_REL_TOL = 1e-15
