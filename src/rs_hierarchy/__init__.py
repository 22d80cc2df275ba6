"""Bi-Hamiltonian structure of free geodesic motion on U(n), its Poisson
reduction, and the trigonometric spin Ruijsenaars / Sutherland charts,
together with a numerical verification harness."""

__version__ = "0.1.0"

from .algebra import (NotPositiveDefiniteError, RegularityError, SubspaceError,
                      TorusReg, chol_upper, dual_basis, pairing, r_apply, split_ub)
from .brackets import (Bracket, jacobi_defect, jacobiator, pb1_full, pb1_red,
                       pb2_full, pb2_red, pb_rs, pb_suth)
from .coords import from_rs, from_suth, solve_bplus, to_rs, to_suth
from .dynamics import (AmbiguousMatchError, CertificationError, Trajectory, flow,
                       h_rs, h_suth2, hk, reduce_point, trajectory)
from .phase import (FullPoint, Observable, RedPoint, RSPoint, SuthPoint,
                    grad_full, grad_red, grad_rs, grad_suth,
                    hamiltonian_observable, invariant_observable, sample_point)

__all__ = [
    "TorusReg", "RegularityError", "NotPositiveDefiniteError", "SubspaceError",
    "pairing", "split_ub", "r_apply", "chol_upper",
    "dual_basis",
    "FullPoint", "RedPoint", "RSPoint", "SuthPoint", "Observable",
    "grad_full", "grad_red", "grad_rs", "grad_suth",
    "invariant_observable", "hamiltonian_observable", "sample_point",
    "Bracket", "pb1_full", "pb2_full", "pb1_red", "pb2_red", "pb_rs", "pb_suth",
    "jacobi_defect", "jacobiator",
    "to_rs", "from_rs", "solve_bplus", "to_suth", "from_suth",
    "hk", "flow", "reduce_point", "trajectory", "Trajectory", "AmbiguousMatchError",
    "CertificationError",
    "h_rs", "h_suth2",
    "__version__",
]
