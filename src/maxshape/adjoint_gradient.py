"""State and adjoint eigenproblem solves, reduced derivative, Riesz gradient.

Both bilinear forms of the eigenvalue problem are symmetric, so the adjoint
eigenproblem coincides with the state problem and only the normalization of
the adjoint pair differs: m(q; u, z) must equal the negative eigenvalue
derivative of the cost, giving z = (lambda_target - lambda) * u.  This exact
scaling is the only path: no second eigensolve is needed.
"""

from __future__ import annotations

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
    DofMap,
    ShapeFunctional,
    apply_dirichlet,
    assemble_forms,
    assemble_shape_derivative,
)
from .mesh_io import Mesh
from .objective import ObjectiveParams, derivative_q
from .reference_transform import DeformationField


@dataclass
class AdjointPair:
    """Adjoint eigenfunction and multiplier.

    scale is the factor relating the adjoint to the normalized state
    eigenfunction: z = scale * u with scale = lambda_target - lambda, which
    realizes the normalization m(q; u, z) = -dJ/dlambda.
    """

    z: np.ndarray
    chi: np.ndarray
    scale: float


@dataclass
class QGradient:
    """Riesz representative of the reduced derivative in the control space."""

    field: DeformationField
    norm_q: float

    @property
    def vector(self) -> np.ndarray:
        return self.field.flat


def solve_state(mesh: Mesh, dofs: DofMap, q: DeformationField,
                sel: EigenSelection, v0: np.ndarray | None = None,
                block: np.ndarray | None = None) -> MixedEigenPair:
    """Solve the constrained eigenvalue problem at deformation q.

    Returns the selected, normalized pair with full-length coefficient
    vectors (zeros on constrained DOFs).  Its block holds the reduced
    [u; psi] columns of the pairs up to the selected one's upper neighbour;
    pass it as block to the next solve at a nearby deformation to start
    that solve warm.  Without a block the solve is cold, from v0.
    """
    forms = apply_dirichlet(assemble_forms(mesh, dofs, q), dofs)
    pairs = solve_gevp(forms, sel, v0=v0, block=block)
    pair = select_and_normalize(pairs, sel, forms.M)
    return replace(pair, u=dofs.expand_edge(pair.u),
                   psi=dofs.expand_vertex(pair.psi))


def solve_adjoint(state: MixedEigenPair,
                  lambda_target: float) -> AdjointPair:
    """Adjoint pair by exact scaling of the state eigenfunction."""
    scale = lambda_target - state.lam
    return AdjointPair(z=scale * state.u, chi=scale * state.psi, scale=scale)


def reduced_derivative(mesh: Mesh, dofs: DofMap, q: DeformationField,
                       state: MixedEigenPair, adjoint: AdjointPair,
                       params: ObjectiveParams,
                       gram: sp.spmatrix) -> ShapeFunctional:
    """Full derivative of the reduced cost: form terms plus cost terms."""
    form_part = assemble_shape_derivative(mesh, dofs, q, state, adjoint,
                                          state.lam)
    cost_part = derivative_q(mesh, q, params, gram)
    return form_part + cost_part


def riesz_gradient(mesh: Mesh, functional: ShapeFunctional,
                   gram: sp.spmatrix,
                   solve: Callable[[np.ndarray], np.ndarray]) -> QGradient:
    """Invert the H1 Riesz map of the control space.

    The control space carries no boundary conditions.  gram is its Gram
    matrix and solve a prefactored solver of it (e.g. splu(...).solve);
    neither depends on the deformation.

    Raises:
        LinearSolveFailure: relative residual above 1e-10.
    """
    rhs = functional.flat
    if not np.any(rhs):
        return QGradient(field=DeformationField.zero(mesh), norm_q=0.0)
    x = solve(rhs)
    res = np.linalg.norm(gram @ x - rhs) / np.linalg.norm(rhs)
    if res > 1e-10:
        raise LinearSolveFailure(f"Riesz solve residual {res:.3e} > 1e-10")
    # By the Riesz identity the squared norm is the duality pairing.
    norm_sq = float(rhs @ x)
    return QGradient(field=DeformationField.from_flat(mesh, x),
                     norm_q=float(np.sqrt(max(norm_sq, 0.0))))
