"""Every numerical tolerance of the package, named by the decision it makes.

A kernel's rank, whether J = +-I_p, whether a coefficient lies in
ker(I_p - J) and where a point sits against the radii R_a and R_a^p are all
threshold decisions; each reads its threshold here.  Roles that share a value
keep separate names, so moving one moves no other.  Only constants live here.
"""

# -- equality ---------------------------------------------------------------

# Two slice units, or a point and a plane, are equal up to this (relative to
# the size compared where a size is at hand): rounding of unit-norm arithmetic.
UNIT_EQ = 1e-9
# `CDElement.isclose`: coefficientwise agreement of two results of exact-up-to-
# rounding arithmetic.
ELEMENT_CLOSE = 1e-12

# -- ranks and subspaces ----------------------------------------------------

# A singular value of L_s at most this fraction of the largest is zero: the
# rank rule of kernel_of_left_mult and is_zero_divisor.
KERNEL_SV_CUTOFF = 1e-9
# Subspace.from_span keeps singular values above this, relative to the size
# compared (the largest one): a spanning set is exact data, so only rounding goes.
SPAN_RANK_CUTOFF = 1e-12
# A Subspace basis is orthonormal when its Gram matrix is this close to the
# identity in every entry.
ORTHONORMAL = 1e-10
# A ratio-group coefficient or a nonzero table value counts toward a radius
# when its size (its norm for R_a, its distance from ker(I_p - J) for
# R_a^{p,J}) exceeds this fraction of its norm.
PERP_THRESHOLD = 1e-10

# -- slice geometry ---------------------------------------------------------

# A size below this (absolute, or as a fraction of the size it is compared
# with) is degenerate: sin(alpha) at +-e8, a coinciding theta pair, an empty
# half of a kernel vector.
DEGENERATE = 1e-12
# find_companion and cker_membership accept a curve or companion whose
# residuals are below this (relative to the sizes involved).
CURVE_ACCEPT = 1e-8
# from_polar and psi accept alpha up to pi plus this: pi itself rounds up.
ALPHA_SLACK = 1e-15
# Random frames resample a draw whose vector norm is below this.
SAMPLE_MIN_NORM = 1e-6
# random_hyper_pair resamples sin(alpha) or sin(theta1 - theta2) below this,
# so the pair is workable for frame recovery.
SAMPLE_MIN_SIN = 1e-3

# -- membership -------------------------------------------------------------

# Default Boundary half-width of the two-disk rule (contains, classify,
# domain_contains, and the contains/figure --band).
MEMBERSHIP_BAND = 1e-9
# Default exclusion half-width of a convergence scan around the radii: wide
# enough that a finite number of terms decides every scored point.
SCAN_BAND = 0.05

# -- evaluation -------------------------------------------------------------

# Default Converged threshold on the term norms (evaluate_*, convergence_scan,
# the eval/scan --tol).
EVAL_TOL = 1e-8
# Nonzero term norms in a row below the tol that make Converged.
EVAL_WINDOW = 50
# A term norm above this is Diverged.
EVAL_BLOWUP = 1e6
# A channel image below this fraction of its input is rounding dust of a
# formally dead direction and is dropped.  Membership calls a point Boundary
# when its code moves as the floor of R_a^{p,J} drops from PERP_THRESHOLD to
# this one.
CHANNEL_DUST = 1e-13

# -- display ----------------------------------------------------------------

# kernel and decompose print a coefficient below this times their scale as 0.
DISPLAY_DUST = 1e-12
