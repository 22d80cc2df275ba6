"""Numerical margins and the tolerance levels of the check registry."""

# Minimal pairwise gap |e^{iq_j} - e^{iq_k}| below which a torus element is
# treated as non-regular.  The charts only exist on the regular part.
REGULARITY_GAP = 1e-6

# Eigenphase matching treats two cyclic rotations whose sums of squared
# circular distances differ by less than this as a tie it cannot resolve.
MATCH_TIE_TOL = 1e-12

# Smallest admissible eigenvalue for "positive definite" inputs.
PD_FLOOR = 1e-10

# A central-difference step is scale * (1 + |x|) per member (phase.fd_step);
# the default scale is the cube root of double rounding, which balances
# truncation against rounding for second-order differences.
FD_STEP_SCALE = 6.1e-6

# The scale of jacobiator's outer level of nested (Jacobi-identity)
# differences, larger because the inner bracket values carry O(h^2) noise.
FD_OUTER_STEP_SCALE = 3e-4

# Discarded-part threshold for strict subspace projections.
STRICT_PROJECTION_TOL = 1e-10

# Tolerance levels of the check registry (relative defects), one per error
# model; each registry row names the level of the computation it checks.
EXACT = 1e-12      # closed-form algebra: rounding of O(n^3) flops on O(1) data
ANALYTIC = 1e-10   # analytic gradients or power traces: rounding amplified by L^k, eigh
RK4 = 1e-8         # the RK4 oracle: step-polynomial error plus rounding
FD = 1e-6          # one central-difference level: O(h^2) truncation, eps/h rounding
NESTED = 1e-4      # nested differences: the outer step divides inner FD noise

# Unitarity guard, per dimension: the exact flow's |g^dagger g - 1|, and the
# certification of the reduction g = eta e^{iq} eta^dagger, which gates both
# its residual |eta e^{iq} eta^dagger - g| and |eta^dagger eta - 1|.  Each is
# a few eps in each of n^2 entries, about n eps in the Frobenius norm; 1e-13
# leaves a factor of about 450 per dimension.
UNITARY_TOL = 1e-13
