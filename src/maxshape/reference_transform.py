"""Batched deformation calculus for the method of mappings.

The control is a continuous piecewise-linear displacement field q on the
reference mesh; the physical domain is the image of x + q(x).  Its gradient
is constant per triangle, so all kinematic quantities (deformation gradient,
jacobian, pulled hat gradients) are per-triangle as well.  The field owns
them, computed for all triangles at once; no layer forms DF^-1, as vectors
pull back through the adjugate.  The mesh coordinates are never moved:
the deformation enters assembly only through these factors.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InadmissibleDeformation
from .mesh_io import Mesh

class DeformationField:
    """Per-vertex displacement, the control variable of the optimization.

    values is a private, read-only (V, 2) copy, so each cached factor below
    is computed at most once per field; adjugate_gradients on every call.
    """

    def __init__(self, mesh: Mesh, values: np.ndarray):
        values = np.array(values, dtype=np.float64, order="C")
        if values.shape != (mesh.n_vertices, 2):
            raise ValueError(f"values shape {values.shape} does not match "
                             f"mesh ({mesh.n_vertices} vertices)")
        values.setflags(write=False)
        self.mesh = mesh
        self.values = values

    @cached_property
    def gradient(self) -> np.ndarray:
        """(T, 2, 2) displacement gradients grad q on every triangle."""
        vals = self.values[self.mesh.triangles]          # (T, 3, 2)
        return vals.transpose(0, 2, 1) @ self.mesh.barycentric_gradients

    @cached_property
    def jacobian(self) -> np.ndarray:
        """(T,) jacobians J = det(I + grad q), one per triangle (any sign)."""
        g = self.gradient
        return (1.0 + g[:, 0, 0]) * (1.0 + g[:, 1, 1]) - g[:, 0, 1] * g[:, 1, 0]

    def adjugate_gradients(self, vertices: tuple[int, ...] = (0, 1, 2)
                           ) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each local vertex v in vertices, the x and y components, each
        (T,), of its hat gradient pulled through the adjugate,
        h_v = adj(DF)^T grad lam_v = J DF^-T grad lam_v: for
        DF = [[a, b], [c, d]], h = (d g_x - c g_y, a g_y - b g_x).

        Raises:
            InadmissibleDeformation: J <= 0 on some triangle, on every call.
        """
        require_jacobian_above(self.jacobian, 0.0)
        g = self.gradient
        a, b, c, d = 1.0 + g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], 1.0 + g[:, 1, 1]
        grads = self.mesh.barycentric_gradients
        return [(d * gx - c * gy, a * gy - b * gx)
                for gx, gy in (grads[:, v].T for v in vertices)]

    @cached_property
    def pulled_gradients(self) -> np.ndarray:
        """(T, 3, 2) hat gradients DF^-T grad lam_v, adjugate_gradients / J;
        raises as that does."""
        pulled = np.empty((len(self.jacobian), 3, 2))
        for v, (hx, hy) in enumerate(self.adjugate_gradients()):
            pulled[:, v, 0], pulled[:, v, 1] = hx, hy
        pulled /= self.jacobian[:, None, None]
        return pulled


def require_jacobian_above(jac: np.ndarray, floor: float) -> None:
    """Check that every per-triangle jacobian exceeds floor.

    Raises:
        InadmissibleDeformation: the smallest jacobian is <= floor.
    """
    bad = int(np.argmin(jac))
    if jac[bad] <= floor:
        raise InadmissibleDeformation(float(jac[bad]), bad, floor)


def jacobian_derivative(q: DeformationField) -> np.ndarray:
    """(T, 3, 2) derivatives of J in the nodal directions e_c grad(lam_v)^T.

    Entry [t, v, c] is J (DF^-T grad lam_v)_c on triangle t.
    """
    return q.jacobian[:, None, None] * q.pulled_gradients


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


def jacobian_range(q: DeformationField) -> tuple[float, float]:
    """Extremes (min, max) of the deformation jacobian over all triangles."""
    return float(q.jacobian.min()), float(q.jacobian.max())


def metric_floor(q: DeformationField) -> float:
    """kappa = min over triangles of J sigma_min(DF^-T)^2, the largest
    kappa with J |DF^-T g|^2 >= kappa |g|^2 for every vector g on every
    triangle: the P1 stiffness matrix in the deformed metric is at least
    kappa times the reference one.

    sigma_min(DF^-T) = 1 / sigma_max(DF), and for DF = [[a, b], [c, d]]
    sigma_max = (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2, the
    closed form from the Frobenius norm f and J: its two terms have
    squares that sum to 2 f^2 and differ by 4 J, and their sum does not
    cancel.  J must be > 0 on every triangle.
    """
    df = np.eye(2) + q.gradient
    a, b, c, d = df[:, 0, 0], df[:, 0, 1], df[:, 1, 0], df[:, 1, 1]
    sigma_max = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    return float((q.jacobian / sigma_max ** 2).min())
