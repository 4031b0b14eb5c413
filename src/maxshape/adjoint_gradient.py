"""State and adjoint eigenproblem solves, reduced derivative, Riesz gradient.

Both bilinear forms are symmetric, so the adjoint eigenproblem is the state
problem with another normalization: m(q; u, z) = -dJ/dlambda gives
z = (lambda_target - lambda) * u, and no second eigensolve is needed.  The
multiplier is zero at every discrete eigenpair (Kikuchi, CMAME 64, 1987):
G^T times the first pencil row A u + B psi = lambda M u gives L psi = 0, as
G^T A = 0, G^T B = L and G^T M u = B^T u = 0, and L = B^T G is positive
definite.  So the adjoint multiplier chi = (lambda_target - lambda) psi is
zero, and the form part of the reduced derivative is
-(a'(u, z) - lambda m'(u, z)) = (lambda - lambda_target) lambda'.

Derivatives are (V, 2) arrays of nodal coefficients.  The Riesz map solves
with the control Gram H, the scalar H1 block that both components carry,
for both component columns at once, so the gradient is a (V, 2) array
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import LinearSolveFailure
from .eigensolver import (
    EigenSelection,
    MixedEigenPair,
    select_and_normalize,
    solve_gevp,
)
from .fem_assembly import (
    AssembledForms,
    DofMap,
    apply_dirichlet,
    assemble_forms,
    assemble_shape_derivative,
)
from .mesh_io import Mesh
from .objective import ObjectiveParams, derivative_q
from .reference_transform import DeformationField


@dataclass
class AdjointPair:
    """Adjoint eigenfunction z = scale * u of the normalized state, with
    scale = lambda_target - lambda: m(q; u, z) = -dJ/dlambda."""

    z: np.ndarray
    scale: float


@dataclass
class QGradient:
    """Riesz representative of the reduced derivative in the control space:
    its (V, 2) nodal coefficients and its H1 norm."""

    vector: np.ndarray
    norm_q: float


def state_forms(mesh: Mesh, dofs: DofMap,
                q: DeformationField) -> AssembledForms:
    """The forms of the state problem at deformation q, reduced to the
    free DOFs of dofs: the pencil solve_state solves.

    Raises:
        InadmissibleDeformation: jacobian <= 0 on some triangle.
    """
    return apply_dirichlet(assemble_forms(mesh, dofs, q), dofs)


def solve_state(forms: AssembledForms, dofs: DofMap, sel: EigenSelection,
                v0: np.ndarray | None = None,
                block: np.ndarray | None = None) -> MixedEigenPair:
    """Solve the constrained eigenvalue problem posed by state_forms.

    Returns the selected, normalized pair with a full-length u (zeros on
    constrained DOFs).  Its block holds the reduced u columns of the pairs
    up to the selected one's upper neighbour; pass it as block to the next
    solve at a nearby deformation to start that solve warm.  Without a
    block the solve is cold, from v0.  Either keeps only the index + 2
    lowest pairs that the selection and the block use (solve_gevp's
    count), and a warm one records its mode_overlap with the block.

    Raises:
        InsufficientSpectrum: a cold solve missed a pair below the shift
            (solve_gevp), so index would not count from the smallest.
    """
    pairs = solve_gevp(forms, sel, v0=v0, block=block, count=sel.index + 2)
    pair = select_and_normalize(pairs, sel, forms.M)
    overlap = math.nan if block is None else abs(
        float(block[:, sel.index] @ (forms.M @ pair.u)))
    return replace(pair, u=dofs.expand_edge(pair.u), mode_overlap=overlap)


def solve_adjoint(state: MixedEigenPair,
                  lambda_target: float) -> AdjointPair:
    """Adjoint pair by exact scaling of the state eigenfunction."""
    scale = lambda_target - state.lam
    return AdjointPair(z=scale * state.u, scale=scale)


def reduced_derivative(mesh: Mesh, q: DeformationField,
                       state: MixedEigenPair, adjoint: AdjointPair,
                       params: ObjectiveParams,
                       gram: sp.spmatrix) -> np.ndarray:
    """Full derivative of the reduced cost, cost terms plus form terms: its
    (V, 2) coefficients on the nodal basis of the control space."""
    return derivative_q(mesh, q, params, gram) - assemble_shape_derivative(
        mesh, q, state.u, adjoint.z, state.lam)


def riesz_gradient(functional: np.ndarray, gram: sp.spmatrix,
                   solve: Callable[[np.ndarray], np.ndarray]) -> QGradient:
    """Invert the H1 Riesz map of the control space.

    The control space carries no boundary conditions.  functional holds
    the (V, 2) nodal coefficients of a derivative, gram is the scalar H1
    block H that both components carry, and solve a prefactored solver of
    H for (V, 2) right-hand sides (e.g. splu(H).solve); none of them
    depends on the deformation.

    Raises:
        LinearSolveFailure: relative residual above 1e-10.
    """
    if not np.any(functional):
        return QGradient(vector=np.zeros(functional.shape), norm_q=0.0)
    # C order like every control: np.vdot copies a Fortran-order array
    x = np.ascontiguousarray(solve(functional))
    res = (np.linalg.norm(gram @ x - functional)
           / np.linalg.norm(functional))
    if res > 1e-10:
        raise LinearSolveFailure(f"Riesz solve residual {res:.3e} > 1e-10")
    # By the Riesz identity the squared norm is the duality pairing.
    norm_sq = float(np.vdot(functional, x))
    return QGradient(vector=x, norm_q=float(np.sqrt(max(norm_sq, 0.0))))
