"""2D Maxwell eigenvalue shape optimization.

Deforms a reference domain (method of mappings) with a damped inverse BFGS
method, driven by adjoint shape gradients of a mixed Nedelec/Lagrange
eigenvalue discretization, until a selected eigenvalue hits its target.
"""

__version__ = "0.1.0"

from .adjoint_gradient import (
    reduced_derivative,
    riesz_gradient,
    solve_adjoint,
    solve_state,
    state_forms,
)
from .bfgs_optimizer import (
    BfgsHistory,
    OptimizeStatus,
    OptimizerConfig,
    apply_inverse_hessian,
    armijo,
    damp,
    optimize,
)
from .eigensolver import EigenSelection, select_and_normalize, solve_gevp
from .fem_assembly import (
    DofMap,
    apply_dirichlet,
    assemble_control_gram,
    assemble_forms,
    assemble_shape_derivative,
)
from .mesh_io import Mesh, generate_unit_square, parse_msh, write_vtk
from .objective import ObjectiveParams, derivative_q, evaluate
from .problem import MaxwellShapeProblem
from .reference_transform import DeformationField, jacobian_range

__all__ = [
    "BfgsHistory", "DeformationField", "DofMap", "EigenSelection",
    "MaxwellShapeProblem", "Mesh", "ObjectiveParams", "OptimizeStatus",
    "OptimizerConfig", "apply_dirichlet", "apply_inverse_hessian", "armijo",
    "assemble_control_gram", "assemble_forms", "assemble_shape_derivative",
    "damp", "derivative_q", "evaluate", "generate_unit_square",
    "jacobian_range", "optimize", "parse_msh", "reduced_derivative",
    "riesz_gradient", "select_and_normalize", "solve_adjoint", "solve_gevp",
    "solve_state", "state_forms", "write_vtk",
]
