"""Batched deformation calculus for the method of mappings.

The control is a continuous piecewise-linear displacement field q on the
reference mesh; the physical domain is the image of x + q(x).  Its gradient
is constant per triangle, so all kinematic quantities (deformation gradient,
jacobian, inverse transpose) are per-triangle as well and are computed for
all triangles at once.  The mesh coordinates are never moved: the
deformation enters assembly only through these factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleDeformation
from .mesh_io import Mesh

_IDENTITY = np.eye(2)


@dataclass
class DeformationField:
    """Per-vertex displacement, the control variable of the optimization."""

    mesh: Mesh
    values: np.ndarray  # (V, 2)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.mesh.n_vertices, 2):
            raise ValueError(
                f"values shape {self.values.shape} does not match mesh "
                f"({self.mesh.n_vertices} vertices)")

    @classmethod
    def zero(cls, mesh: Mesh) -> "DeformationField":
        return cls(mesh, np.zeros((mesh.n_vertices, 2)))

    @classmethod
    def from_flat(cls, mesh: Mesh, vec: np.ndarray) -> "DeformationField":
        return cls(mesh, np.asarray(vec, dtype=np.float64).reshape(-1, 2))

    @property
    def flat(self) -> np.ndarray:
        """Coefficients as a flat vector (x0, y0, x1, y1, ...)."""
        return self.values.reshape(-1)


def require_jacobian_above(jac: np.ndarray, floor: float) -> None:
    """Check that every per-triangle jacobian exceeds floor.

    Raises:
        InadmissibleDeformation: the smallest jacobian is <= floor.
    """
    bad = int(np.argmin(jac))
    if jac[bad] <= floor:
        raise InadmissibleDeformation(float(jac[bad]), bad, floor)


def gradient_all(q: DeformationField) -> np.ndarray:
    """(T, 2, 2) displacement gradients on every triangle at once."""
    vals = q.values[q.mesh.triangles]                   # (T, 3, 2)
    return vals.transpose(0, 2, 1) @ q.mesh.barycentric_gradients


def kinematics(q: DeformationField) -> tuple[np.ndarray, np.ndarray]:
    """J (T,) and DF^-T (T, 2, 2) on every triangle, for DF = I + grad q.

    Raises:
        InadmissibleDeformation: J <= 0 on some triangle.
    """
    df = _IDENTITY + gradient_all(q)
    jac = df[:, 0, 0] * df[:, 1, 1] - df[:, 0, 1] * df[:, 1, 0]
    require_jacobian_above(jac, 0.0)
    inv_t = np.stack([df[:, 1, 1], -df[:, 1, 0], -df[:, 0, 1], df[:, 0, 0]],
                     axis=1).reshape(-1, 2, 2) / jac[:, None, None]
    return jac, inv_t


def pulled_gradients(mesh: Mesh, inv_t: np.ndarray) -> np.ndarray:
    """(T, 3, 2) transformed hat-function gradients DF^-T grad(lam_v)."""
    return mesh.barycentric_gradients @ np.ascontiguousarray(
        inv_t.transpose(0, 2, 1))


def jacobian_derivative(mesh: Mesh, jac: np.ndarray,
                        inv_t: np.ndarray) -> np.ndarray:
    """(T, 3, 2) derivatives of J in the nodal directions e_c grad(lam_v)^T.

    Entry [t, v, c] is J (DF^-T grad lam_v)_c on triangle t.
    """
    return jac[:, None, None] * pulled_gradients(mesh, inv_t)


def inv_t_derivative(mesh: Mesh, inv_t: np.ndarray,
                     weight: np.ndarray) -> np.ndarray:
    """(T, 3, 2) derivatives of <weight, DF^-T> in the nodal directions.

    The derivative of DF^-T in the direction e_c grad(lam_v)^T is
    -(DF^-T grad lam_v)(DF^-1 e_c)^T, so entry [t, v, c], its pairing with
    the (T, 2, 2) weight, is row v, column c of -(DF^-T grad lam) weight DF^-1.
    """
    df_inv = np.ascontiguousarray(inv_t.transpose(0, 2, 1))
    return -(pulled_gradients(mesh, inv_t) @ (weight @ df_inv))


def sum_to_nodes(mesh: Mesh, per_node: np.ndarray,
                 initial: np.ndarray | None = None) -> np.ndarray:
    """(V, 2) sums of the (T, 3, 2) per-triangle nodal values [t, v, c] at
    vertex triangles[t, v], component c, added to initial in triangle-major
    order (as np.add.at would, in one bincount)."""
    slots = (2 * mesh.triangles[:, :, None] + np.arange(2)).ravel()
    values = per_node.ravel()
    if initial is not None:
        slots = np.concatenate([np.arange(2 * mesh.n_vertices), slots])
        values = np.concatenate([np.ravel(initial), values])
    return np.bincount(slots, values,
                       minlength=2 * mesh.n_vertices).reshape(-1, 2)


def jacobian_all(q: DeformationField) -> np.ndarray:
    """(T,) jacobians det(I + grad q), one per triangle (any sign)."""
    g = gradient_all(q)
    return (1.0 + g[:, 0, 0]) * (1.0 + g[:, 1, 1]) - g[:, 0, 1] * g[:, 1, 0]


def jacobian_range(q: DeformationField) -> tuple[float, float]:
    """Extremes (min, max) of the deformation jacobian over all triangles."""
    j = jacobian_all(q)
    return float(j.min()), float(j.max())
