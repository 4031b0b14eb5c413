"""Reduced optimization problem: the glue between FEM, eigensolver and BFGS.

MaxwellShapeProblem owns everything that is deformation-independent (mesh,
DOF maps, the start vector of its first eigensolve, and the only copy of
the control-space Gram matrix, the scalar H1 block H that both components
of a control carry, and of its factorization) plus two states whose blocks
start every later eigensolve warm: the anchor, the state where the reduced
derivative last ran, and the last solved state.  It also keeps the last
deformation field, with its state-free cost terms and, until a state solve
takes them, the state forms a cost floor assembled: each control's
kinematics, regularization, barrier and forms are computed once.  The
Gram, its factor, the shortest reference edge and the reference
stiffness bound of the cost floor are built at first use: a problem that
only solves states (a lambda0 probe, ``maxshape eigs``) builds none of
them, and one that never takes a Riesz gradient (``check_gradient``)
never factors the Gram.  It alone chains state, adjoint, reduced
derivative and Riesz map, and exposes the six methods the optimizer
drives: gradient, evaluate, cost_floor, q_apply (the Gram map),
jacobian_range and step_limit.  Controls, steps, Riesz gradients and
derivatives all cross this interface as (V, 2) arrays of nodal
coefficients, one row per vertex; the Gram acts on their columns.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import adjoint_gradient, objective
from .eigensolver import (
    SYMMETRIC_LU,
    EigenSelection,
    MixedEigenPair,
    ritz_ceiling,
)
from .errors import EigenSolverError, InadmissibleDeformation
from .fem_assembly import (
    AssembledForms,
    DofMap,
    assemble_control_gram,
    stiffness_floor,
)
from .mesh_io import Mesh
from .objective import ObjectiveParams
from .reference_transform import DeformationField, jacobian_range, metric_floor

log = logging.getLogger(__name__)


class MaxwellShapeProblem:
    """Eigenvalue-targeting shape problem on a fixed reference mesh.

    ``gram``, its factor and the shortest reference edge are cached
    properties, each built once at its first use.
    """

    def __init__(self, mesh: Mesh, params: ObjectiveParams,
                 sel: EigenSelection, seed: int = 0):
        self.mesh = mesh
        self.params = params
        if sel.shift is None:
            # Keep the spectral transform target near the eigenvalue we chase.
            sel = replace(sel, shift=0.9 * params.lambda_target)
        self.sel = sel
        self.dofs = DofMap.from_mesh(mesh)
        # Arnoldi start vector (free edges) of the first, cold, state solve
        self._v0 = self.dofs.free.edge_draw(seed)
        # the last field made, with its state-free cost terms and, until a
        # solve takes them, its forms; the last solved field and its state
        # pair; the state where derivative_functional last ran
        self._field: DeformationField | None = None
        self._terms: tuple[DeformationField, tuple | None] | None = None
        self._forms: tuple[DeformationField, AssembledForms] | None = None
        self._last_state: tuple[DeformationField, MixedEigenPair] | None = None
        self._anchor: MixedEigenPair | None = None

    # -- control space, built at first use ---------------------------------

    @cached_property
    def gram(self) -> sp.csr_matrix:
        """The control-space Gram matrix: the scalar H1 block H (V x V)
        that both components of a control carry."""
        return assemble_control_gram(self.mesh)

    @cached_property
    def _h_lu(self):
        return spla.splu(self.gram.tocsc(), **SYMMETRIC_LU)

    @cached_property
    def _h_min(self) -> float:
        """The shortest reference edge."""
        ends = self.mesh.vertices[self.mesh.edges]
        return float(np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).min())

    @cached_property
    def _l0_floor(self) -> float:
        """A lower bound of the smallest eigenvalue of the reference P1
        stiffness matrix on the free vertices."""
        return stiffness_floor(self.mesh, self.dofs)

    # -- control helpers ----------------------------------------------------

    def zero_control(self) -> np.ndarray:
        return np.zeros((self.mesh.n_vertices, 2))

    def field(self, q: np.ndarray) -> DeformationField:
        """The deformation field of control q: the same object as the last
        call's for an equal control, so every layer reads one set of
        kinematic factors per control.

        Raises:
            ValueError: q is not a (V, 2) array.
        """
        if self._field is None or not np.array_equal(q, self._field.values):
            self._field = DeformationField(self.mesh, q)
        return self._field

    def _state_free_terms(self, field: DeformationField):
        """objective.state_free_terms of field, computed once per field."""
        if self._terms is None or self._terms[0] is not field:
            self._terms = (field, objective.state_free_terms(
                self.mesh, field, self.params, self.gram))
        return self._terms[1]

    def _assembled(self, field: DeformationField) -> AssembledForms:
        """The state forms at field, assembled once for a cost floor and
        the solve that may follow it."""
        if self._forms is None or self._forms[0] is not field:
            self._forms = None      # freed before the next assembly
            self._forms = (field, adjoint_gradient.state_forms(
                self.mesh, self.dofs, field))
        return self._forms[1]

    # -- problem protocol ---------------------------------------------------

    def solve_state(self, q: np.ndarray) -> MixedEigenPair:
        """State eigenpair at control q.

        The last solved control and its pair are kept: a call at an equal
        control returns that same pair without assembling or solving.  The
        Armijo trial that accepts a step has thus already solved the state
        the optimizer needs at the new iterate.  The first solve is cold;
        every later one starts warm from the anchor's block, the state
        where derivative_functional last ran, or from the kept pair's
        before there is an anchor.  Armijo trials lie on a ray from the
        anchor and finite-difference points around it, nearer than the
        last trial.  A solve that raises stores nothing, so the next one
        starts from the same block.
        """
        last = self._last_state
        if last is not None and np.array_equal(q, last[0].values):
            log.debug("reused state: lam=%.10g", last[1].lam)
            return last[1]
        start = self._anchor if self._anchor is not None else (
            None if last is None else last[1])
        field = self.field(q)
        forms = self._assembled(field)
        self._forms = None          # the solve takes them
        state = adjoint_gradient.solve_state(
            forms, self.dofs, self.sel, v0=self._v0,
            block=None if start is None else start.block)
        self._last_state = (field, state)
        log.debug("solved state: lam=%.10g residual=%.2e divergence=%.2e "
                  "gap=%.3e", state.lam, state.residual, state.divergence,
                  state.gap)
        return state

    def gradient(self, q: np.ndarray
                 ) -> tuple[adjoint_gradient.QGradient, MixedEigenPair]:
        """H1 Riesz gradient of the reduced cost at q, and its state."""
        functional, state = self.derivative_functional(q)
        return adjoint_gradient.riesz_gradient(
            functional, self.gram, self._h_lu.solve), state

    def evaluate(self, q: np.ndarray, lam: float | None = None) -> float:
        """Objective value at control q; +inf on infeasible/unsolvable points."""
        terms = self._state_free_terms(self.field(q))
        if terms is None:
            return math.inf
        if lam is None:
            try:
                lam = self.solve_state(q).lam
            except (EigenSolverError, InadmissibleDeformation) as exc:
                log.debug("treating solver failure as infeasible: %s", exc)
                return math.inf
        return objective.evaluate(terms, lam, self.params)

    def cost_floor(self, q: np.ndarray) -> float:
        """A lower bound of evaluate(q) that solves no state; +inf where
        evaluate is +inf for the jacobian check.

        It is the objective at lam = lambda_target, where the target term
        is 0, or, once there is an anchor, at theta (1 + tol) where that is
        lower: theta (eigensolver.ritz_ceiling of the anchor's block and
        the state forms at q) bounds the tracked eigenvalue at q from
        above, as L = B^T G at q is at least kappa_q
        (reference_transform.metric_floor) times the reference stiffness,
        whose eigenvalues are at least l_0 (fem_assembly.stiffness_floor);
        tol, the selection's relative residual tolerance, covers the
        solve's error.  Rounding keeps the bound, as the target term and
        the sum are monotone in lam below lambda_target.  The forms stay
        for a solve at q.
        """
        field = self.field(q)
        terms = self._state_free_terms(field)
        lam = self.params.lambda_target
        theta = eps = kappa = math.nan
        if terms is not None and self._anchor is not None:
            kappa = metric_floor(field)
            theta, eps = ritz_ceiling(
                self._assembled(field), self._anchor.block, self.sel.index,
                kappa * self._l0_floor)
            lam = min(lam, theta * (1.0 + self.sel.tol))
        floor = objective.evaluate(terms, lam, self.params)
        log.debug("cost floor: R=%.10g theta=%.10g eps=%.3e kappa=%.6g "
                  "floor=%.10g", math.inf if terms is None else sum(terms),
                  theta, eps, kappa, floor)
        return floor

    def q_apply(self, v: np.ndarray) -> np.ndarray:
        """The Gram map: (u, v)_Q = vdot(u, q_apply(v)), H applied to each
        component of v."""
        return self.gram @ v

    def q_norm(self, u: np.ndarray) -> float:
        return math.sqrt(max(float(np.vdot(u, self.q_apply(u))), 0.0))

    def jacobian_range(self, q: np.ndarray) -> tuple[float, float]:
        return jacobian_range(self.field(q))

    def step_limit(self, d: np.ndarray) -> float:
        """h_min / max_v |d_v|: the step t at which q + t d first moves a
        vertex by the shortest reference edge."""
        return self._h_min / float(np.linalg.norm(d, axis=1).max())

    # -- derived quantities -------------------------------------------------

    def derivative_functional(self, q: np.ndarray
                              ) -> tuple[np.ndarray, MixedEigenPair]:
        """Reduced derivative, (V, 2) nodal coefficients, and the state it
        was computed from, which becomes the anchor of later state
        solves."""
        state = self._anchor = self.solve_state(q)
        adjoint = adjoint_gradient.solve_adjoint(state,
                                                 self.params.lambda_target)
        functional = adjoint_gradient.reduced_derivative(
            self.mesh, self.field(q), state, adjoint, self.params, self.gram)
        return functional, state
