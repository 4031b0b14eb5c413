"""Damped inverse limited-memory BFGS in the control-space inner product.

The inverse Hessian approximation B_k is never stored as a matrix.  Each
update keeps only the damped step d~, the gradient difference y, their
Gram products Q d~ and Q y, rho = 1 / (d~, y)_Q and (y, y)_Q; the two-loop
recursion applies B_k over the stored pairs starting from
B_0 = gamma_k * identity, where gamma_k = (d~, y)_Q / (y, y)_Q of the
newest pair (Nocedal & Wright, Numerical Optimization, eq. 7.20 and
Algorithm 7.4; Shanno & Phua, Math. Prog. 14, 1978).  Only the first
iterate, which has no pairs, uses B_0 = b0_scale * identity.  Powell-style
damping of the step keeps every stored curvature (d~, y) positive, so B_k
stays positive definite and -B_k g is always a descent direction.

All inner products here are taken in the control space's H1 inner product
(u, v)_Q = vdot(u, Q v).  The caller applies the Gram Q; with the products
stored beside the pairs, the recursion takes plain dot products only, each
an np.vdot over all entries, so controls may be arrays of any one shape.
"""

from __future__ import annotations

import enum
import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateCurvature, LineSearchFailed

log = logging.getLogger(__name__)

# The first search's first trial step, as a fraction of the step limit.
FIRST_STEP = 0.5


@dataclass
class OptimizerConfig:
    """Stopping rule, line search and damping parameters."""

    tol: float = 1e-7
    k_max: int = 100
    gamma: float = 0.1
    rho_ls: float = 0.1
    ls_max: int = 10
    xi: float = 0.2
    m_mem: int = 20
    b0_scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")
        if not 0.0 < self.gamma < 0.5:
            raise ValueError("gamma must lie in (0, 0.5)")
        if not 0.0 < self.rho_ls < 1.0:
            raise ValueError("rho_ls must lie in (0, 1)")
        if not 0.0 < self.xi < 1.0:
            raise ValueError("xi must lie in (0, 1)")
        if self.ls_max < 1 or self.m_mem < 1 or self.k_max < 0:
            raise ValueError("ls_max, m_mem must be >= 1 and k_max >= 0")
        if not 0 < self.b0_scale < math.inf:
            raise ValueError("b0_scale must be finite and > 0")


@dataclass(frozen=True)
class _DampedPair:
    d_tilde: np.ndarray
    y: np.ndarray
    qd: np.ndarray     # Q d~
    qy: np.ndarray     # Q y
    rho: float         # 1 / (d~, y)_Q
    yy: float          # (y, y)_Q


class BfgsHistory:
    """The last m_mem damped pairs (d~, y), which alone define B_k.

    B_k is B_0 = gamma * identity followed by one inverse BFGS update per
    stored pair, oldest first.  At capacity a push drops the oldest pair,
    which restarts the chain one pair later.  Every stored curvature
    (d~, y) is positive, so gamma > 0 and each truncated chain is again
    positive definite.
    """

    def __init__(self, b0_scale: float, m_mem: int = 20):
        if b0_scale <= 0:
            raise ValueError("b0_scale must be > 0")
        if m_mem < 1:
            raise ValueError("m_mem must be >= 1")
        self.b0_scale = b0_scale
        self.pairs: deque[_DampedPair] = deque(maxlen=m_mem)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def gamma(self) -> float:
        """Scale of B_0: (d~, y)_Q / (y, y)_Q of the newest pair, or
        b0_scale while no pair is stored."""
        if not self.pairs:
            return self.b0_scale
        newest = self.pairs[-1]
        return 1.0 / (newest.rho * newest.yy)

    def push(self, d_tilde: np.ndarray, y: np.ndarray, qd: np.ndarray,
             qy: np.ndarray) -> None:
        """Store a damped pair with its Gram products qd = Q d~ and
        qy = Q y; the oldest pair is dropped at capacity.

        Raises:
            DegenerateCurvature: (d~, y) <= 0, which damping must prevent.
        """
        s1 = float(np.vdot(d_tilde, qy))
        if s1 <= 0.0:
            raise DegenerateCurvature(f"stored curvature {s1:.3e} <= 0")
        self.pairs.append(_DampedPair(
            d_tilde=np.array(d_tilde, copy=True), y=np.array(y, copy=True),
            qd=np.array(qd, copy=True), qy=np.array(qy, copy=True),
            rho=1.0 / s1, yy=float(np.vdot(y, qy))))


def apply_inverse_hessian(hist: BfgsHistory, g: np.ndarray) -> np.ndarray:
    """Evaluate B_k g by the two-loop recursion over the stored pairs.

    Each pair, newest outermost, maps the operator B of the pairs before it
    to (I - rho d~ y^T Q) B (I - rho y d~^T Q) + rho d~ d~^T Q (Nocedal,
    Math. Comp. 35, 1980; Nocedal & Wright, Algorithm 7.4); the innermost
    B is B_0 = hist.gamma * identity.
    """
    v = np.array(g, dtype=np.float64, copy=True)
    alphas = []
    for p in reversed(hist.pairs):
        alphas.append(p.rho * float(np.vdot(p.qd, v)))
        v -= alphas[-1] * p.y
    v *= hist.gamma
    for p, a in zip(hist.pairs, reversed(alphas)):
        v += (a - p.rho * float(np.vdot(p.qy, v))) * p.d_tilde
    return v


def damp(y: np.ndarray, qy: np.ndarray, d_tilde: np.ndarray,
         hist: BfgsHistory, xi: float) -> tuple[np.ndarray, float]:
    """Powell damping of the step against the current operator.

    qy is Q y.  Returns (d~', theta) with d~' = theta*d~ + (1-theta)*B_k y,
    which guarantees (y, d~')_Q >= xi * (y, B_k y)_Q > 0.

    Raises:
        DegenerateCurvature: (y, B_k y) <= 0 (operator invariant broken).
    """
    by = apply_inverse_hessian(hist, y)
    yby = float(np.vdot(qy, by))
    if yby <= 0.0:
        raise DegenerateCurvature(f"(y, B y) = {yby:.3e} <= 0")
    yd = float(np.vdot(qy, d_tilde))
    if yd >= xi * yby:
        return np.array(d_tilde, copy=True), 1.0
    theta = (1.0 - xi) * yby / (yby - yd)
    return theta * d_tilde + (1.0 - theta) * by, theta


def armijo(j_eval: Callable[[np.ndarray], float], q: np.ndarray,
           d: np.ndarray, g_dot_d: float, cfg: OptimizerConfig,
           j0: float | None = None, t0: float = 1.0,
           floor: Callable[[np.ndarray], float] | None = None,
           ) -> tuple[float, np.ndarray, float]:
    """Backtracking line search on t in {t0, t0*rho, t0*rho^2, ...}.

    Accepts the first t with j(q + t*d) <= j(q) + gamma*t*(grad, d)_Q.
    Evaluations returning +inf (barrier violation, solver failure) simply
    fail the test.  The first trial step t0 must lie in (0, 1]; the
    default t0 = 1 tries the full step first.  floor, if given, is a
    lower bound of j_eval that is cheaper to take: a trial whose floor
    lies above the right-hand side fails the test without calling j_eval.

    Raises:
        ValueError: t0 outside (0, 1].
        LineSearchFailed: no step accepted within ls_max trials, or d is
            not a descent direction.
    """
    if not 0.0 < t0 <= 1.0:
        raise ValueError(f"t0 must lie in (0, 1], got {t0!r}")
    if g_dot_d >= 0.0:
        raise LineSearchFailed(
            f"not a descent direction: (grad, d)_Q = {g_dot_d:.3e} >= 0")
    if j0 is None:
        j0 = j_eval(q)
    t = t0
    for _ in range(cfg.ls_max + 1):
        q_new = q + t * d
        rhs = j0 + cfg.gamma * t * g_dot_d
        j_floor = -math.inf if floor is None else floor(q_new)
        if j_floor > rhs:
            log.debug("armijo trial: t=%g floor=%.10g rhs=%.10g rejected "
                      "without a state solve", t, j_floor, rhs)
        else:
            j_new = j_eval(q_new)
            log.debug("armijo trial: t=%g j=%.10g rhs=%.10g", t, j_new, rhs)
            if j_new <= rhs:
                return t, q_new, j_new
        t *= cfg.rho_ls
    raise LineSearchFailed(
        f"no Armijo step within {cfg.ls_max} backtracking trials")


@dataclass
class IterationRecord:
    """One row of the optimization log."""

    k: int
    lam: float
    j_value: float
    grad_norm: float
    step: float
    theta: float
    jq_min: float
    jq_max: float
    cos_angle: float = math.nan  # cosine of the angle between d and -grad
    # trials of this iterate's Armijo search, those rejected by their
    # cost floor without a state solve included
    ls_trials: int = 0
    gamma: float = math.nan  # scale of this iterate's B_0
    t0: float = math.nan  # first trial step of this iterate's Armijo search
    # the state's |u_a^T M u| with the tracked vector it started from
    # (MixedEigenPair.mode_overlap): near 0 where the index swapped modes
    mode_overlap: float = math.nan


class OptimizeStatus(enum.Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"
    STALLED = "stalled"


def optimize(problem, q0: np.ndarray, cfg: OptimizerConfig,
             callback: Callable[[int, np.ndarray, IterationRecord], None] | None = None,
             ) -> tuple[np.ndarray, list[IterationRecord], OptimizeStatus]:
    """Damped inverse BFGS loop on the reduced problem.

    Controls, steps and gradients share one array shape, any shape, and
    every inner product is an np.vdot.  `problem` provides six methods:
    gradient(q), the Riesz gradient (with .vector and .norm_q) and the
    state eigenpair (with .lam and .mode_overlap) at q; evaluate(q,
    lam=None), the objective, +inf where infeasible, with lam the known
    eigenvalue at q;
    cost_floor(q), a lower bound of evaluate(q) that solves no state, so
    that an Armijo trial it already rejects costs no eigensolve; q_apply(v),
    the Gram map Q v of the control inner product (u, v)_Q = vdot(u, Q v);
    jacobian_range(q); and step_limit(d), the step t at which q + t d first
    moves some vertex by one shortest reference edge.  Each iterate applies
    Q to d, y and a damped d~ (an undamped d~ = t d stores t Q d).  One
    IterationRecord per visited iterate; the terminal one has step 0, no t0.

    The first Armijo search starts at min(1, FIRST_STEP * step_limit(d)),
    so its first trial moves no vertex by more than half the shortest
    reference edge; with b0_scale = 1/alpha, a first search from t = 1
    spent most of its trials on folded meshes and over-long steps.  Every
    later search starts at min(1, t_prev / rho_ls), one backtracking factor
    longer than the last accepted step t_prev (Nocedal & Wright, Numerical
    Optimization, sec. 3.5), so the searches return to the full step once
    the quasi-Newton scaling gamma_k makes full steps acceptable.
    """
    hist = BfgsHistory(b0_scale=cfg.b0_scale, m_mem=cfg.m_mem)
    records: list[IterationRecord] = []
    ls_trials = 0

    def trial_floor(x: np.ndarray) -> float:
        # armijo takes each trial's floor once, evaluated or not
        nonlocal ls_trials
        ls_trials += 1
        return problem.cost_floor(x)

    q = np.array(q0, dtype=np.float64, copy=True)
    grad, state = problem.gradient(q)
    j_val = problem.evaluate(q, lam=state.lam)

    status = OptimizeStatus.ITERATION_CAP
    k = 0
    while True:
        jq_min, jq_max = problem.jacobian_range(q)
        rec = IterationRecord(k=k, lam=state.lam, j_value=j_val,
                              grad_norm=grad.norm_q, step=0.0, theta=1.0,
                              jq_min=jq_min, jq_max=jq_max, gamma=hist.gamma,
                              mode_overlap=state.mode_overlap)
        if grad.norm_q <= cfg.tol:
            status = OptimizeStatus.CONVERGED
            records.append(rec)
            break
        if k >= cfg.k_max:
            status = OptimizeStatus.ITERATION_CAP
            records.append(rec)
            break

        gvec = grad.vector
        d = -apply_inverse_hessian(hist, gvec)
        if k == 0:
            t0 = min(1.0, FIRST_STEP * problem.step_limit(d))
        rec.t0 = t0
        qd = problem.q_apply(d)
        g_dot_d = float(np.vdot(gvec, qd))
        d_norm = math.sqrt(max(float(np.vdot(d, qd)), 0.0))
        if d_norm > 0 and grad.norm_q > 0:
            rec.cos_angle = -g_dot_d / (d_norm * grad.norm_q)

        ls_trials = 0
        try:
            t, q_new, j_new = armijo(problem.evaluate, q, d, g_dot_d, cfg,
                                     j0=j_val, t0=t0, floor=trial_floor)
        except LineSearchFailed:
            status = OptimizeStatus.STALLED
            rec.ls_trials = ls_trials
            records.append(rec)
            break

        grad_new, state_new = problem.gradient(q_new)

        d_step = t * d                     # equals q_new - q
        y = grad_new.vector - gvec
        qy = problem.q_apply(y)
        if float(np.vdot(y, qy)) > 0.0:
            d_damped, theta = damp(y, qy, d_step, hist, cfg.xi)
            hist.push(d_damped, y, t * qd if theta == 1.0
                      else problem.q_apply(d_damped), qy)
        else:
            theta = 1.0                    # no curvature information

        rec.step = t
        rec.theta = theta
        rec.ls_trials = ls_trials
        records.append(rec)
        log.info("iterate k=%d lam=%.10g J=%.6e |g|_Q=%.3e t=%g ls_trials=%d "
                 "overlap=%.3g gamma=%g t0=%g", k, rec.lam, rec.j_value,
                 rec.grad_norm, t, ls_trials, rec.mode_overlap, rec.gamma, t0)
        if callback is not None:
            callback(k, q_new, rec)

        q = q_new
        state = state_new
        grad = grad_new
        j_val = j_new
        t0 = min(1.0, t / cfg.rho_ls)
        k += 1

    return q, records, status


def write_iteration_csv(records: Sequence[IterationRecord]) -> str:
    """Render records as CSV ('.' decimal, ',' separator, header row)."""
    lines = ["k,lambda,j_value,grad_norm,step,theta,jq_min,jq_max"]
    for r in records:
        lines.append(",".join([
            str(r.k),
            _fmt(r.lam), _fmt(r.j_value), _fmt(r.grad_norm),
            _fmt(r.step), _fmt(r.theta), _fmt(r.jq_min), _fmt(r.jq_max),
        ]))
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")
