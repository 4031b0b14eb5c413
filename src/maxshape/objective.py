"""Cost functional: eigenvalue targeting, H1 regularization, log barrier.

    J(q, lam) = 1/2 |lam - lam_*|^2
              + alpha/2 (||q||^2 + ||grad q||^2)
              - beta * integral of ln(J_q - eps)

The barrier keeps the deformation locally injective (jacobian above eps).
Its q-derivative uses the factor 1/(J_q - eps), the actual derivative of
the integrand; with eps = 1e-4 the difference to 1/J_q is tiny, but only
the consistent form passes finite-difference validation.

The regularization reads the control-space Gram matrix H = mass +
stiffness (V x V), which both components of q carry: alpha/2 times the sum
of q.values * (H @ q.values).  The q-derivative is returned as its (V, 2)
nodal coefficients.

Only the target term depends on the state: state_free_terms computes the
other two once per control, and evaluate adds the target term for any lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh_io import Mesh
from .reference_transform import (
    DeformationField,
    jacobian_derivative,
    require_jacobian_above,
    sum_to_nodes,
)


@dataclass
class ObjectiveParams:
    """Target eigenvalue and regularization weights."""

    lambda_target: float
    alpha: float = 100.0
    beta: float = 1e-6
    epsilon: float = 1e-4

    def __post_init__(self):
        if not 0 < self.lambda_target < math.inf:
            raise ValueError("lambda_target must be finite and > 0")
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and >= 0")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1) so that q = 0 is feasible")


def state_free_terms(mesh: Mesh, q: DeformationField,
                     params: ObjectiveParams,
                     gram: sp.spmatrix) -> tuple[float, float] | None:
    """The terms of the cost that do not depend on the state at q: the H1
    regularization and the log barrier; None where the jacobian is
    <= epsilon somewhere (the barrier is infeasible).

    The regularization reads the control-space Gram matrix gram, the
    scalar H1 block H that both components of q carry, i.e. the same
    quadrature used everywhere else (exact for piecewise-linear q).
    """
    jac = q.jacobian
    if jac.min() <= params.epsilon:
        return None
    reg = 0.5 * params.alpha * float(np.vdot(q.values, gram @ q.values))
    barrier = -params.beta * float(mesh.areas @ np.log(jac - params.epsilon))
    return reg, barrier


def evaluate(terms: tuple[float, float] | None, lam: float,
             params: ObjectiveParams) -> float:
    """Value of the cost functional at eigenvalue lam, given the control's
    state_free_terms; +inf signals barrier infeasibility (terms None).

    The sum runs (target + reg) + barrier, so the value is monotone in the
    target term in floating point too.
    """
    if terms is None:
        return math.inf
    reg, barrier = terms
    target = 0.5 * (lam - params.lambda_target) ** 2
    return target + reg + barrier


def derivative_q(mesh: Mesh, q: DeformationField,
                 params: ObjectiveParams,
                 gram: sp.spmatrix) -> np.ndarray:
    """Partial q-derivative of the cost functional: its (V, 2) coefficients
    on the nodal basis of the control space.

    gram is the control-space Gram matrix H of the H1 regularization,
    applied to each component of q.

    Raises:
        InadmissibleDeformation: jacobian <= epsilon somewhere.
    """
    jac = q.jacobian
    require_jacobian_above(jac, params.epsilon)
    factor = -params.beta * mesh.areas / (jac - params.epsilon)
    return sum_to_nodes(mesh, factor[:, None, None] * jacobian_derivative(q),
                        initial=params.alpha * (gram @ q.values))
