"""Numerical margins and tolerance profiles used across the library."""

# Minimal pairwise gap |e^{iq_j} - e^{iq_k}| below which a torus element is
# treated as non-regular.  The charts only exist on the regular part.
REGULARITY_GAP = 1e-6

# Eigenphase matching treats two cyclic rotations whose sums of squared
# circular distances differ by less than this as a tie it cannot resolve.
MATCH_TIE_TOL = 1e-12

# Smallest admissible eigenvalue for "positive definite" inputs.
PD_FLOOR = 1e-10

# Central-difference step is FD_STEP_SCALE * (1 + |x|); the constant is the
# cube root of double rounding, which balances truncation against rounding
# for second-order differences.
FD_STEP_SCALE = 6.1e-6

# Nested (Jacobi-identity) differences need a larger outer step because the
# inner bracket values themselves carry O(h^2) noise.
FD_OUTER_STEP_SCALE = 3e-4

# Discarded-part threshold for strict subspace projections.
STRICT_PROJECTION_TOL = 1e-10

# Tolerance profiles for the check harness (relative defects).
PROFILES = {
    "strict": 1e-10,   # analytic-derivative paths
    "default": 1e-6,   # first-order finite-difference paths
    "nested": 1e-4,    # nested finite differences (Jacobi)
}
