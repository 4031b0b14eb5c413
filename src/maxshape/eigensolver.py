"""Generalized eigenvalue solver for the mixed saddle-point pencil.

The discrete problem is K x = lam * Mt x with

    K  = [[A, B], [B^T, 0]],      Mt = [[M, 0], [0, 0]],

posed by the forms A, M and B^T on free DOFs.  Its finite eigenpairs are
the pairs of (A, M) on divergence-free edge vectors (B^T u = 0), and
every path solves on edge vectors.  The identities B = M G and A G = 0
(curl grad = 0 on the Whitney/P1 pair; Boffi, Acta Numerica 19, 2010)
make the gradients G phi the kernel of A.  A pencil too small for
Arnoldi (solve_gevp) runs the symmetric-definite eigh(A, M) and drops
those gradient pairs, the lowest, by their count.  With S = A - sigma*M
the identities give S G = -sigma B, so S^{-1} M maps a gradient G phi to
-G phi / sigma and a divergence-free mode to u / (lam - sigma), and
F = S^{-1} M + I/sigma maps the gradient to 0 exactly and the mode to
theta = lam / (sigma (lam - sigma)) (Ericsson & Ruhe, Math. Comp. 35,
1980).  Every other path factors S alone.

The shift sigma is positive.  A cold solve runs Arnoldi on F, drops the
Ritz values theta ~ 0 (the gradients) and maps the others back by
lam = sigma^2 theta / (sigma theta - 1).  As lam grows, theta falls to
1/sigma, so a mode below sigma/2 (theta < 1/sigma) is ranked behind every
mode above sigma.  The inertia of S's factor counts the eigenvalues below
sigma, which the Ritz pairs must hold, or the solve raises.

A warm solve, handed a block of vectors from a nearby deformation, runs
block subspace iteration with Rayleigh-Ritz on the block and a fixed
random guard column (Saad, Numerical Methods for Large Eigenvalue
Problems, 2nd ed., ch. 5) on S^{-1} M.  The shift first rises to just
below the block's lowest Rayleigh quotient, never below the configured
one; sigma below is the shift a path factors at.  The start
block is filtered once by F, which annihilates gradients and scales each
divergence-free mode by theta, never 0.  A step Y = S^{-1} M X takes the
products M Y and A Y, and the next block X C has M X C = (M Y) C.

Every dense block of edge vectors, the start block, each step's blocks
and their products, the returned u, A u, M u and B^T u and
MixedEigenPair.block, is column-contiguous (Fortran order), the layout
SuperLU's solves read and write: a column is one contiguous vector, and
the column reductions and small Gram products of a step stream through
memory.  scipy's sparse products read and write row-major blocks, so
_products copies a block to that layout once for all the products a step
takes and returns each product column-contiguous again.

Every path returns eigenvalues and edge vectors u, each checked as
(lam, [u; 0]) against the pencil: G^T times its first row gives
L psi = lam B^T u = 0 at an eigenpair (Kikuchi, CMAME 64, 1987), with
L = B^T G the P1 stiffness matrix in the deformed metric.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dsygvd

from .errors import FactorizationFailed, InsufficientSpectrum, NoConvergence
from .fem_assembly import AssembledForms

log = logging.getLogger(__name__)

# Largest ||B^T u|| / ||M u|| a divergence-free (spurious-free) pair may show.
DIVERGENCE_TOL = 1e-6

# Iteration cap of a warm block solve; a cold solve keeps ARPACK's default.
BLOCK_MAXITER = 100

# A warm solve with a positive shift factors S at the larger of the shift
# and (1 - WARM_SHIFT_MARGIN) times its block's lowest Rayleigh quotient:
# just below the tracked pairs, which then converge by the ratio
# (lam - sigma) / (lam' - sigma), lam' the first eigenvalue above the
# block, about 0.01 on the square instead of 0.05 at 0.9 lam*.
WARM_SHIFT_MARGIN = 0.01

# SuperLU settings for the symmetric A - sigma*M: minimum degree on the
# pattern of A^T + A with diagonal pivots and symmetric mode (SuperLU Users'
# Guide; Li, ACM TOMS 31, 2005) gives about half the fill of the general
# default, COLAMD on A^T A with partial pivoting.  Threshold 0 takes every
# diagonal pivot unless it is exactly zero; small pivots of the indefinite
# A - sigma*M are not guarded, so the pencil residual check in solve_gevp
# catches an inaccurate factorization.  scipy's supernode settings,
# panel_size 20 and relax 10, are sized for wide supernodes; those of these
# 2-D matrices are a few columns wide, and single-column panels factor
# 22-31 % faster at the same fill (deformed squares at n = 16, 32 and 64,
# 2-vCPU VM).
SYMMETRIC_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    panel_size=1, relax=4, options=dict(SymmetricMode=True))
# A - sigma*M on free DOFs arrives in its pattern's minimum-degree numbering
# (fem_assembly.DofMap), the order MMD_AT_PLUS_A would compute, so
# SuperLU keeps it at the same fill instead of ordering every matrix again.
PATTERN_ORDER_LU = dict(SYMMETRIC_LU, permc_spec="NATURAL")

_TINY = np.finfo(float).tiny


class ShiftInvert:
    """The cold solve's F = S^{-1} M + I/sigma on edge vectors or column
    blocks (module docstring) from one LU of S = A - sigma*M; applies
    counts its calls.  sigma must be positive (S = A is singular on the
    gradients at 0) and no eigenvalue of (A, M).

    below is the number of finite eigenvalues below sigma, by Sylvester's
    law of inertia on the factor of S (Parlett, The Symmetric Eigenvalue
    Problem, 1998, sec. 3.3): with diagonal pivots in symmetric mode,
    P S P^T = L U with U = D L^T, so S has as many negative eigenvalues
    as U's diagonal has negative entries.  Those are the eigenvalues of
    (A, M) below sigma > 0 and the gradients, one per free vertex,
    S G = -sigma M G, which below leaves out.

    Raises:
        FactorizationFailed: the factorization failed.
    """

    def __init__(self, forms: AssembledForms, sigma: float):
        self.applies = 0
        self.m = forms.M
        self.sigma = sigma
        self.edge = _factor_shift(forms, sigma)
        # U's first access makes SuperLU convert both L and U to CSC, which
        # the factor keeps until it is freed: the read costs memory and
        # time (tools/solve_anatomy.py)
        self.below = (int(np.count_nonzero(self.edge.U.diagonal() < 0.0))
                      - forms.BT.shape[0])

    def apply(self, x: np.ndarray) -> np.ndarray:
        self.applies += 1
        return self.edge.solve(self.m @ x) + x / self.sigma


def _factor_shift(forms: AssembledForms, sigma: float):
    try:
        return spla.splu(forms.edge_shift(sigma), **PATTERN_ORDER_LU)
    except RuntimeError as exc:
        raise FactorizationFailed(
            f"factorization of A - sigma*M failed at sigma={sigma:g}: "
            f"{exc}") from exc


@dataclass
class MixedEigenPair:
    """Eigenvalue and edge-space eigenvector (the multiplier is 0).

    Invariants after select_and_normalize: u^T M u = 1 and the
    largest-magnitude entry of u is positive.  divergence,
    ||B^T u|| / ||M u||, at most DIVERGENCE_TOL certifies the pair as
    divergence-free (spurious-free).  gap is the distance to the nearest
    other computed eigenvalue (NaN if none).  block, set by
    select_and_normalize, holds the reduced u columns of the computed pairs
    up to the selected one's upper neighbour, column-contiguous: the warm
    start of solve_gevp at a nearby deformation.  mode_overlap, set by a
    warm state solve (adjoint_gradient.solve_state), is |u_a^T M u| for u_a
    the start block's column of the selected index: near 1 where the index
    keeps its mode, near 0 where two modes swapped ranks (NaN after a cold
    solve).
    """

    lam: float
    u: np.ndarray
    residual: float
    divergence: float = math.nan
    gap: float = math.nan
    block: np.ndarray | None = None
    mode_overlap: float = math.nan


@dataclass
class EigenSelection:
    """Which eigenpair to compute and how accurately.

    index counts finite eigenvalues from the smallest: every solve returns
    the lowest finite pairs, ascending (solve_gevp).  A cold solve raises
    rather than miss one, and a warm one relies on its guard column.
    shift, finite, > 0 and no eigenvalue, is the cold solve's transform
    target and the floor of a warm one's.  A cold Arnoldi solve sees
    eigenvalues above shift/2 only, and raises where it misses one below
    the shift: always where one lies below shift/2.  nev, the pairs
    solve_gevp returns without a count or a block (as ``maxshape eigs``
    runs it), defaults to max(6, index + 3) and is at least index + 2, the
    pairs solve_gevp checks and select_and_normalize stacks.
    """

    index: int = 0
    shift: float | None = None
    nev: int | None = None
    tol: float = 1e-5

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("index must be >= 0")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")
        if self.shift is not None and not 0 < self.shift < math.inf:
            raise ValueError("shift must be finite and > 0")
        if self.nev is not None and self.nev < self.index + 2:
            raise ValueError(
                "nev must be >= index + 2: a solve checks pairs index +- 1, "
                "and select_and_normalize stacks index + 2")

    @property
    def nev_effective(self) -> int:
        return self.nev if self.nev is not None else max(6, self.index + 3)


def solve_gevp(forms: AssembledForms, sel: EigenSelection,
               v0: np.ndarray | None = None,
               block: np.ndarray | None = None,
               count: int | None = None) -> list[MixedEigenPair]:
    """Compute the lowest count finite eigenpairs, sorted ascending.

    Every path returns these pairs.  count defaults to index + 2 when a
    block is given, else to the selection's nev.  A cold solve (no block)
    runs Arnoldi on F = S^{-1} M + I/sigma from v0, an edge vector, at the
    selection's shift sigma > 0, S = A - sigma*M, for count + c Ritz pairs,
    c the eigenvalues below sigma by the inertia of S's factor
    (ShiftInvert.below); unless all c lie below sigma among them, it
    raises.  A warm solve starts block
    shift-invert iteration from block, reduced u columns such as
    MixedEigenPair.block of a solve at a nearby deformation, at a shift no
    lower than sigma: it rises to (1 - WARM_SHIFT_MARGIN) times the lowest
    Rayleigh quotient of the block's columns when that is larger.  Any
    pencil of at most 2 count + 12 DOFs leaves Arnoldi no room: the dense
    eigh(A, M) on the free edges solves it, block or not.

    Each returned eigenvector u is normalized to u^T M u = 1 and carries
    the relative pencil residual of (lam, [u; 0]) and its divergence
    certificate ||B^T u|| / ||M u||.  The pairs the selection uses, index
    and its neighbours index +- 1, satisfy the residual bound of the
    selection tolerance; the others only report their residual.

    Raises:
        ValueError: no shift, or a v0 or block of the wrong shape.
        FactorizationFailed: A - sigma*M is singular.
        NoConvergence: ARPACK failed, the iteration hit its cap or stalled,
            a warm Rayleigh-Ritz step met a non-finite value or failed, or a
            used pair exceeds the residual tolerance.
        InsufficientSpectrum: fewer finite eigenvalues than requested, or
            a cold Arnoldi solve found fewer than c pairs below sigma: F
            ranks some of the lowest pairs behind the ones above sigma.
    """
    if sel.shift is None:
        raise ValueError("EigenSelection.shift must be set before solving")
    n, n_e = forms.layout.n, forms.layout.n_edge
    if v0 is not None and len(v0) != n_e:
        raise ValueError(f"v0 of length {len(v0)} cannot start a solve on "
                         f"{n_e} edge DOFs")
    if count is None:
        count = sel.index + 2 if block is not None else sel.nev_effective
    if block is not None and (block.ndim != 2 or block.shape[0] != n_e
                              or block.shape[1] + 1 < count):
        raise ValueError(f"block of shape {block.shape} cannot start "
                         f"{count} pairs on {n_e} edge DOFs")
    if n_e == 0:
        raise InsufficientSpectrum("no free edge DOFs")
    sigma = float(sel.shift)

    # Arnoldi's room: ARPACK returns at most n_edge - 2 pairs (Lehoucq 1998)
    if n <= 2 * count + 12:
        lams, u, au, mu, btu = _dense_finite_spectrum(forms, count)
    elif block is None:
        lams, u, au, mu, btu = _arpack_finite_spectrum(forms, sigma, count,
                                                       sel, v0)
    else:
        lams, u, au, mu, btu = _block_finite_spectrum(forms, sigma, count,
                                                      sel, block)

    # the residual and certificate do not depend on the scale of u
    btu_norm, mu_norm = _column_norms(btu), _column_norms(mu)
    res = _residuals(au, mu, lams, btu_norm, mu_norm)
    div = btu_norm / mu_norm
    nrm = np.sqrt(np.einsum("ij,ij->j", u, mu))
    used = np.abs(np.arange(len(lams)) - sel.index) <= 1
    bad = ~(nrm > 0) | (used & ~(res <= sel.tol))
    if bad.any():
        i = int(np.argmax(bad))
        if not nrm[i] > 0:
            raise NoConvergence(f"eigenvector {i} has no positive mass norm")
        raise NoConvergence(
            f"eigenpair {i} (lam={lams[i]:.6g}) residual {res[i]:.2e} "
            f"exceeds tol {sel.tol:.2e}")
    return [MixedEigenPair(lam=float(lams[i]), u=u[:, i] / nrm[i],
                           residual=float(res[i]), divergence=float(div[i]))
            for i in range(len(lams))]


def _lowest(forms: AssembledForms, lams: np.ndarray, vecs: np.ndarray,
            count: int):
    """The count lowest eigenvalues, ascending, and u, A u, M u, B^T u."""
    if len(lams) < count:
        raise InsufficientSpectrum(
            f"found {len(lams)} finite eigenvalues, requested {count}")
    order = np.argsort(lams)[:count]
    u = np.asfortranarray(vecs[:, order])
    return (lams[order], u, *_products(u, forms.A, forms.M, forms.BT))


def _products(x: np.ndarray, *mats) -> list[np.ndarray]:
    """mat @ x for each sparse mat, column-contiguous like the block x
    (module docstring).  scipy's sparse products read a row-major block,
    so x is copied to that layout once for all of them, a column at a
    time: on these tall, narrow blocks numpy's whole-block copy is slower
    (48 against 25 us for 12160 x 3, 2-vCPU VM)."""
    rows = np.empty(x.shape)
    for j in range(x.shape[1]):
        rows[:, j] = x[:, j]
    return [np.asfortranarray(mat @ rows) for mat in mats]


def _combine(y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The block y @ c, column-contiguous: the transposed product makes
    BLAS write it in that layout."""
    return (c.T @ y.T).T


def _column_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of a vector or of each column of a block."""
    return np.sqrt(np.einsum("ij,ij->j" if x.ndim == 2 else "i,i->", x, x))


def _residuals(au: np.ndarray, mu: np.ndarray, lams,
               btu_norm: np.ndarray | None = None,
               mu_norm: np.ndarray | None = None):
    """The relative residual of each pair (lam, u), u a vector or the
    columns of a block: ||A u - lam M u|| / (|lam| ||M u||) and, given
    ||B^T u||, the pencil residual ||K x - lam Mt x|| / (|lam| ||Mt x||) at
    x = [u; 0], where K x - lam Mt x = [A u - lam M u; B^T u] and
    Mt x = [M u; 0].  mu_norm, if given, is ||M u||."""
    num = _column_norms(au - mu * lams)
    if btu_norm is not None:
        num = np.hypot(num, btu_norm)
    if mu_norm is None:
        mu_norm = _column_norms(mu)
    return num / np.maximum(np.abs(lams) * mu_norm, _TINY)


def _dense_finite_spectrum(forms: AssembledForms, count: int):
    """The lowest count finite pairs (_lowest) by the dense eigh(A, M)."""
    lams, vecs = scipy.linalg.eigh(forms.A.toarray(), forms.M.toarray())
    # A G = 0 and M is positive definite, so the gradients are the lowest
    # pairs (lam ~ 0), which B^T u = 0 removes: one per free vertex, as
    # many as dim ker A on a connected, simply connected mesh (a hole adds
    # a lam ~ 0 harmonic pair, which stays).
    grads = forms.BT.shape[0]
    return _lowest(forms, lams[grads:], vecs[:, grads:], count)


def _arpack_finite_spectrum(forms: AssembledForms, sigma: float, count: int,
                            sel: EigenSelection, v0: np.ndarray | None):
    """As _dense_finite_spectrum, by Arnoldi on F (module docstring) for
    count + c Ritz pairs, c from the inertia of S's factor
    (ShiftInvert.below): the c below sigma and the lowest count above."""
    op = ShiftInvert(forms, sigma)
    n = forms.layout.n_edge
    linear = spla.LinearOperator((n, n), matvec=op.apply, dtype=float)
    # No spare pairs: F maps gradients to theta = 0, which the |theta|
    # filter drops, and ranks the pairs above sigma by their distance to
    # it; the count check confirms that it kept the c below sigma.
    k = min(count + op.below, n - 2)
    ncv = min(n, 3 * k + 8)
    if v0 is None:
        # fixed starting vector keeps repeated solves bit-identical
        v0 = np.random.default_rng(0).standard_normal(n)
    try:
        theta, x = spla.eigs(linear, k=k, which="LM", v0=v0, ncv=ncv,
                             tol=sel.tol * 1e-2)
    except spla.ArpackError as exc:     # ArpackNoConvergence included
        raise NoConvergence(f"ARPACK failed: {exc}") from exc
    finally:
        # L and U: the CSC copies the inertia read made
        if log.isEnabledFor(logging.DEBUG):
            log.debug("arpack solve: sigma=%.6g n=%d k=%d ncv=%d below=%d "
                      "fill=%d op_applies=%d", sigma, n, k, ncv, op.below,
                      op.edge.L.nnz + op.edge.U.nnz, op.applies)

    keep = np.abs(sigma * theta.real) >= 10.0 * sel.tol
    theta = theta.real[keep]
    lams = sigma * sigma * theta / (sigma * theta - 1.0)
    found = int(np.count_nonzero(lams < sigma))
    if found < op.below:
        raise InsufficientSpectrum(
            f"{op.below} eigenvalues lie below the shift {sigma:g}, but only "
            f"{found} of the {len(lams)} Ritz pairs: F ranks them behind "
            f"pairs above the shift, and every one below {0.5 * sigma:g}, "
            f"half the shift, behind all; lower eigen.shift")
    return _lowest(forms, lams, x.real[:, keep], count)


def _block_finite_spectrum(forms: AssembledForms, sigma: float, count: int,
                           sel: EigenSelection, block: np.ndarray):
    """The lowest count pairs by block subspace iteration on
    edge vectors (module docstring), ascending, with their A u, M u and
    B^T u.

    S is factored at the warm shift (_warm_shift), which is sigma from
    there on, in the debug line too.  Each iteration replaces X by the
    Ritz vectors of (A, M) on S^{-1} M X until the count lowest Ritz pairs
    meet the residual tolerance.  The block converges to the pairs nearest
    sigma; keeping the lowest, as every path does, keeps the cold ranking
    where sigma lies above the tracked pair.  S^{-1} M grows the
    gradient parts rounding leaves against a kept pair farther than sigma
    from the shift: while a kept Ritz vector's ||B^T u|| / ||M u|| then
    exceeds tol / 100, the next step applies F.  An inexact factor of S
    can keep the residual from converging: a step whose largest kept
    residual exceeds tol and half its value six steps before ends the
    solve as stalled.  The log's applies count the start filter's solves.
    """
    a, m = forms.A, forms.M
    # the guard has a component in any mode that moved next to the shift
    # since the block, which the block alone would miss
    p = block.shape[1]
    x = np.empty((forms.layout.n_edge, p + 1), order="F")
    x[:, :p], x[:, p:] = block, forms.layout.guard
    ax, mx = _products(x, a, m)
    sigma = _warm_shift(x[:, :p], ax[:, :p], mx[:, :p], sigma)
    edge = _factor_shift(forms, sigma)
    x = edge.solve(mx) + x / sigma                  # F x
    (mx,) = _products(x, m)
    iterations, gradients, residuals = 0, False, []

    try:
        while iterations < BLOCK_MAXITER:
            iterations += 1
            y = edge.solve(mx)
            if gradients:
                y += x / sigma                      # F x
            ay, my = _products(y, a, m)
            ar, mr = y.T @ ay, y.T @ my
            if not (np.isfinite(ar).all() and np.isfinite(mr).all()):
                raise NoConvergence(
                    f"block Rayleigh-Ritz met a non-finite value at "
                    f"iteration {iterations}")
            # the LAPACK routine scipy.linalg.eigh(a, b) calls, without its checks
            w, c, info = dsygvd(0.5 * (ar + ar.T), 0.5 * (mr + mr.T),
                                overwrite_a=1, overwrite_b=1)
            if info != 0:
                raise NoConvergence(
                    f"block Rayleigh-Ritz failed: LAPACK dsygvd info {info}")
            x, mx = _combine(y, c), _combine(my, c)
            # dsygvd sorts ascending: the first count Ritz pairs are the
            # lowest
            w, az, mz = w[:count], _combine(ay, c[:, :count]), mx[:, :count]
            mz_norm = _column_norms(mz)
            res = _residuals(az, mz, w, mu_norm=mz_norm).max()
            residuals.append(res)
            if len(residuals) > 6 and res > max(sel.tol,
                                                0.5 * residuals[-7]):
                raise NoConvergence(
                    f"block iteration stalled: residual {res:.2e} did not "
                    f"halve over 6 steps, {iterations} iterations")
            # an F step leaves one solve's rounding: the next may stop
            check = not gradients and np.abs(w - sigma).max() > sigma
            if check or res <= sel.tol:
                (btz,) = _products(x[:, :count], forms.BT)
            gradients = check and np.any(
                _column_norms(btz) > 1e-2 * sel.tol * mz_norm)
            if not gradients and res <= sel.tol:
                return w, x[:, :count], az, mz, btz
    finally:
        log.debug("block solve: sigma=%.6g n=%d iterations=%d applies=%d",
                  sigma, forms.layout.n, iterations,
                  (iterations + 1) * x.shape[1])
    raise NoConvergence(
        f"block iteration did not converge in {BLOCK_MAXITER} iterations")


def _warm_shift(block: np.ndarray, a_block: np.ndarray, m_block: np.ndarray,
                sigma: float) -> float:
    """The shift a warm solve factors at: the larger of sigma and
    (1 - WARM_SHIFT_MARGIN) times the lowest Rayleigh quotient
    u^T A u / u^T M u of the block's columns, given A block and M block.
    So the shift only rises toward the tracked pairs.  A block with
    gradient parts, which lower its quotients, keeps sigma."""
    quotients = (np.einsum("ij,ij->j", block, a_block)
                 / np.einsum("ij,ij->j", block, m_block))
    lifted = (1.0 - WARM_SHIFT_MARGIN) * float(quotients.min())
    return lifted if lifted > sigma else sigma      # a NaN keeps sigma


def ritz_ceiling(forms: AssembledForms, block: np.ndarray, index: int,
                 l_floor: float) -> tuple[float, float]:
    """An upper bound of the index-th finite eigenvalue of forms' pencil
    from a block X of edge vectors, index < X's columns, without a solve;
    and the eps it used.

    l_floor must not exceed the smallest eigenvalue of L = B^T G.  P =
    I - G L^{-1} B^T projects M-orthogonally onto the divergence-free
    vectors, A P = A, and (P X)^T M (P X) = X^T M X - (B^T X)^T L^{-1} B^T X,
    which is at least X^T M X - eps I with eps = ||B^T X||_2^2 / l_floor.
    Courant-Fischer on the span of P X (Parlett, The Symmetric Eigenvalue
    Problem, 1998) and X^T A X positive semidefinite make the index-th
    eigenvalue theta of (X^T A X, X^T M X - eps I) at least lambda_index.
    Returns (inf, eps) where X^T M X - eps I is not positive definite.
    """
    # BLAS's Gram products round by the layout: one layout, one result
    block = np.asfortranarray(block)
    btx, mx, ax = _products(block, forms.BT, forms.M, forms.A)
    eps = float(np.linalg.eigvalsh(btx.T @ btx)[-1]) / l_floor
    mr = block.T @ mx
    try:
        # eigh reads the lower triangles only
        theta = scipy.linalg.eigh(block.T @ ax, mr - eps * np.eye(len(mr)),
                                  eigvals_only=True)
    except np.linalg.LinAlgError:
        return math.inf, eps
    return float(theta[index]), eps


def select_and_normalize(pairs: list[MixedEigenPair], sel: EigenSelection,
                         m_mat: sp.spmatrix) -> MixedEigenPair:
    """Pick the requested pair, normalize it and record its spectral gap.

    The eigenvector is rescaled to u^T M u = 1 with the largest-magnitude
    entry of u positive (a deterministic representative).  The gap, the
    distance to the nearest other computed eigenvalue, is stored on the
    result.  A divergence certificate above DIVERGENCE_TOL is logged as a
    warning, not raised.  The result's block stacks the u columns of the
    pairs up to index + 1: the warm start of the next solve.

    Raises:
        InsufficientSpectrum: index beyond the computed list.
    """
    if sel.index >= len(pairs):
        raise InsufficientSpectrum(
            f"index {sel.index} outside the {len(pairs)} computed pairs")
    chosen = pairs[sel.index]
    scale = np.sqrt(chosen.u @ (m_mat @ chosen.u))
    if chosen.u[np.argmax(np.abs(chosen.u))] < 0:
        scale = -scale
    u = chosen.u / scale

    gap = min((abs(chosen.lam - p.lam) for i, p in enumerate(pairs)
               if i != sel.index), default=math.nan)

    if chosen.divergence > DIVERGENCE_TOL:
        log.warning("divergence certificate %.3e above %.1e at lam=%.6g",
                    chosen.divergence, DIVERGENCE_TOL, chosen.lam)

    # the transpose of the stacked rows is column-contiguous
    block = np.array([p.u for p in pairs[:sel.index + 2]]).T
    return MixedEigenPair(lam=chosen.lam, u=u, residual=chosen.residual,
                          divergence=chosen.divergence, gap=gap, block=block)
