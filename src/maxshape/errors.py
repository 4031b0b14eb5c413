"""Exception hierarchy shared by all maxshape modules."""


class MaxshapeError(Exception):
    """Base class for all errors raised by this package."""


# -- mesh I/O ---------------------------------------------------------------

class MeshError(MaxshapeError):
    """Base class for mesh construction and parsing errors."""


class UnsupportedVersion(MeshError):
    """MSH file is not Gmsh 2.2 ASCII."""


class MalformedSection(MeshError):
    """An MSH section (or triangle geometry) could not be interpreted."""


class EmptyMesh(MeshError):
    """The input contains no triangles."""


class NonManifoldEdge(MeshError):
    """An edge is shared by more than two triangles."""


class DimensionMismatch(MeshError):
    """An output field length matches neither vertex nor cell count."""


class UnsupportedTopology(MeshError):
    """The mesh has a hole or more than one connected component.

    The solver assumes that the gradients, one per free vertex, span
    ker A, which holds on a connected, simply connected domain; each hole
    adds a harmonic field at lam = 0 that no path removes.
    """


# -- deformation calculus ---------------------------------------------------

class InadmissibleDeformation(MaxshapeError):
    """The deformation jacobian is at or below its floor on some triangle.

    The floor is 0 for assembly and the barrier offset epsilon for the
    barrier derivative.  Objective evaluation treats it as an infinite
    value, which makes line searches backtrack.
    """

    def __init__(self, jacobian: float, triangle: int, floor: float):
        self.jacobian = jacobian
        self.triangle = triangle
        super().__init__(
            f"jacobian {jacobian:.3e} <= {floor:g} on triangle {triangle}")


# -- eigenvalue solver ------------------------------------------------------

class EigenSolverError(MaxshapeError):
    """Base class for generalized eigenvalue solver failures."""


class FactorizationFailed(EigenSolverError):
    """The shift-invert solve's A - sigma*M could not be factorized."""


class NoConvergence(EigenSolverError):
    """The Krylov iteration did not converge to the requested accuracy."""


class InsufficientSpectrum(EigenSolverError):
    """Fewer finite eigenvalues were found than requested."""


# -- gradient and optimization ----------------------------------------------

class LinearSolveFailure(MaxshapeError):
    """A sparse linear solve did not reach the required residual."""


class LineSearchFailed(MaxshapeError):
    """No Armijo step was accepted within the trial budget."""


class DegenerateCurvature(MaxshapeError):
    """(y, B y) <= 0: the inverse Hessian lost positive definiteness.

    With damping in place this indicates a bug, not a runtime condition.
    """


# -- configuration ----------------------------------------------------------

class ConfigError(MaxshapeError):
    """The run configuration is invalid or incomplete."""
