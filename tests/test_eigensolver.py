import dataclasses
import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from maxshape import (
    DeformationField,
    DofMap,
    EigenSelection,
    apply_dirichlet,
    assemble_forms,
    generate_unit_square,
    select_and_normalize,
    solve_gevp,
)
import maxshape.eigensolver as es
from maxshape.errors import (
    FactorizationFailed,
    InsufficientSpectrum,
    NoConvergence,
)
from maxshape.fem_assembly import stiffness_floor
from maxshape.mesh_io import Mesh
from maxshape.reference_transform import jacobian_range

from conftest import (
    L_SHAPE_SPECTRUM,
    SQUARE_SPECTRUM,
    gradient_incidence,
    implied_multiplier,
    l_shape,
    random_feasible_control,
    saddle_pencil,
    zero_field,
)


def qz_lowest(forms, count):
    """The count lowest finite eigenvalues, ascending, by QZ on the whole
    saddle pencil: the oracle of the sparse paths."""
    k_mat, mt = saddle_pencil(forms)
    alpha, beta = scipy.linalg.eig(k_mat.toarray(), mt.toarray(),
                                   right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-8 * np.abs(beta).max()
    return np.sort((alpha[finite] / beta[finite]).real)[:count]


def _reduced_forms(mesh, q=None):
    dofs = DofMap.from_mesh(mesh)
    field = q if q is not None else zero_field(mesh)
    return apply_dirichlet(assemble_forms(mesh, dofs, field), dofs), dofs


@pytest.fixture(scope="module")
def square16_forms():
    mesh = generate_unit_square(16)
    forms, _ = _reduced_forms(mesh)
    return forms


@pytest.fixture(scope="module")
def grad16():
    """G on the free DOFs of the 16 x 16 square: the layout of
    square16_forms and of deformed16."""
    mesh = generate_unit_square(16)
    return gradient_incidence(mesh, DofMap.from_mesh(mesh))


@pytest.fixture(scope="module")
def square16_pairs(square16_forms):
    sel = EigenSelection(nev=7, shift=9.0, tol=1e-8)
    return solve_gevp(square16_forms, sel)


def smooth_control(mesh, amplitude):
    """A smooth interior deformation that splits the double pi^2 pair."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    bump = np.sin(np.pi * x) * np.sin(np.pi * y)
    return DeformationField(mesh, amplitude * np.column_stack(
        [x * bump, 0.5 * np.sin(2.0 * np.pi * x) * np.sin(np.pi * y)]))


def block_of(pairs):
    """Reduced u columns of pairs: a warm block for solve_gevp."""
    return np.column_stack([p.u for p in pairs])


@pytest.fixture
def inflated_residual(monkeypatch):
    """Make solve_gevp see a residual of 1 for its pair number i."""
    def inflate(i):
        real = es._residuals

        def residuals(au, mu, lams, btu_norm=None, mu_norm=None):
            res = real(au, mu, lams, btu_norm, mu_norm)
            if btu_norm is not None:  # solve_gevp's check of the pairs it returns
                res[i] = 1.0
            return res

        monkeypatch.setattr(es, "_residuals", residuals)
    return inflate


class TestSolveGevp:
    def test_smallest_matches_separation_of_variables(self, square16_pairs):
        lam = np.array([p.lam for p in square16_pairs])
        np.testing.assert_allclose(lam, SQUARE_SPECTRUM, rtol=0.02)

    def test_sorted_ascending(self, square16_pairs):
        lam = [p.lam for p in square16_pairs]
        assert lam == sorted(lam)

    def test_residual_invariant(self, square16_pairs):
        for p in square16_pairs:
            assert p.residual <= 1e-8

    def test_divergence_free_certificate(self, square16_forms, square16_pairs):
        b_mat, m_mat = square16_forms.B, square16_forms.M
        for p in square16_pairs:
            assert np.linalg.norm(b_mat.T @ p.u) <= \
                1e-6 * np.linalg.norm(m_mat @ p.u)
            # the stored certificate is the same quantity
            fresh = np.linalg.norm(b_mat.T @ p.u) / np.linalg.norm(m_mat @ p.u)
            assert p.divergence == pytest.approx(fresh, rel=1e-12)
            assert p.divergence <= 1e-6

    def test_residual_of_u_and_zero_multiplier(self, square16_forms,
                                               square16_pairs, grad16):
        # the residual from A u, M u and B^T u is that of the mixed pencil
        # at x = [u; 0], B^T u rows included: checked on a vector with a
        # gradient part, whose B^T u is not zero
        forms = square16_forms
        p = square16_pairs[0]
        phi = np.random.default_rng(2).standard_normal(forms.B.shape[1])
        u = p.u + 0.1 * (grad16 @ phi)
        x = np.concatenate([u, np.zeros(forms.B.shape[1])])
        k_mat, mt = saddle_pencil(forms)
        mx = mt @ x
        want = (np.linalg.norm(k_mat @ x - p.lam * mx)
                / (p.lam * np.linalg.norm(mx)))
        got = es._residuals(forms.A @ u, forms.M @ u, p.lam,
                            np.linalg.norm(forms.BT @ u))
        assert np.linalg.norm(forms.BT @ u) > 0.1 * np.linalg.norm(
            forms.A @ u - p.lam * (forms.M @ u))
        assert got == pytest.approx(want, rel=1e-12)

    def test_mass_normalization(self, square16_forms, square16_pairs):
        for p in square16_pairs:
            assert p.u @ (square16_forms.M @ p.u) == pytest.approx(1.0, abs=1e-10)

    def test_m_orthogonality_across_gaps(self, square16_forms, square16_pairs):
        m_mat = square16_forms.M
        pairs = square16_pairs
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                if abs(pairs[i].lam - pairs[j].lam) >= 1.0:
                    assert abs(pairs[i].u @ (m_mat @ pairs[j].u)) <= 1e-6

    def test_shift_independence(self, square16_forms):
        # both shifts lie below 2 lam_t, where a cold solve sees every pair
        lam_t = np.pi ** 2
        selected = []
        for sigma in (0.5 * lam_t, 1.5 * lam_t):
            sel = EigenSelection(nev=7, shift=sigma, tol=1e-8)
            pairs = solve_gevp(square16_forms, sel)
            selected.append(pairs[0].lam)
        assert abs(selected[0] - selected[1]) <= 10 * 1e-8 * abs(selected[0])

    def test_dense_and_arpack_agree(self):
        # The 8 x 8 square runs shift-invert ARPACK; its eigenvalues must
        # agree with the dense eigh(A, M) on the free edges to solver tol
        # and with QZ on the whole saddle pencil.
        # Inputs: the undeformed square, and a deformation near the jacobian
        # floor (J_min ~ 0.1); shift 13 puts two pairs below it, so
        # A - sigma*M is indefinite beyond its gradients for the
        # symmetric-mode LU, yet lies below twice the lowest eigenvalue
        # (9.04 deformed), where a cold solve sees every pair.
        mesh = generate_unit_square(8)
        deformed = random_feasible_control(mesh, np.random.default_rng(1),
                                           0.06)
        assert 0.05 < jacobian_range(deformed)[0] < 0.15
        for field in (None, deformed):
            forms, _ = _reduced_forms(mesh, field)
            for shift in (9.0, 13.0):
                sel = EigenSelection(nev=6, shift=shift, tol=1e-9)
                sparse = [p.lam for p in solve_gevp(forms, sel)]
                assert len(sparse) == 6
                np.testing.assert_allclose(sparse, dense_finite(forms)[:6],
                                           rtol=1e-7, atol=0.0)
                np.testing.assert_allclose(sparse, qz_lowest(forms, 6),
                                           rtol=1e-10, atol=0.0)

    def test_arpack_failure_raises_no_convergence(self, square16_forms,
                                                  nan_on_solve):
        # a NaN in the fifth apply of F makes ARPACK itself fail
        nan_on_solve(5)
        with pytest.raises(NoConvergence, match="ARPACK"):
            solve_gevp(square16_forms,
                       EigenSelection(nev=8, shift=9.35, tol=1e-8))

    def test_symmetric_lu_fill(self, monkeypatch):
        # The factor of A - sigma*M, the only one a cold solve makes, holds
        # well under the fill of the symmetric-mode LU of the saddle matrix
        # K - sigma*Mt it replaces.
        mesh = generate_unit_square(32)
        factors = []

        class SpyLinalg:
            def __getattr__(self, name):
                return getattr(spla, name)

            def splu(self, mat, **kwargs):
                lu = spla.splu(mat, **kwargs)
                factors.append(lu)
                return lu

        monkeypatch.setattr(es, "spla", SpyLinalg())
        deformed = random_feasible_control(mesh, np.random.default_rng(3),
                                           0.1 / 32)
        for q in (None, deformed):
            forms, _ = _reduced_forms(mesh, q)
            factors.clear()
            solve_gevp(forms, EigenSelection(nev=6, shift=9.0, tol=1e-8))
            assert len(factors) == 1
            k_mat, mt = saddle_pencil(forms)
            saddle = spla.splu((k_mat - 9.0 * mt).tocsc(), **es.SYMMETRIC_LU)
            fill = sum(lu.L.nnz + lu.U.nnz for lu in factors)
            assert fill <= 0.6 * (saddle.L.nnz + saddle.U.nnz)

    def test_supernode_settings_keep_fill_and_accuracy(self):
        # SYMMETRIC_LU's panel_size and relax against scipy's defaults on
        # A - sigma*M of a deformed n = 32 pencil: the same ordering and
        # pivots, so the fill stays within 1 % and a solve stays accurate.
        mesh = generate_unit_square(32)
        q = random_feasible_control(mesh, np.random.default_rng(3), 0.1 / 32)
        mat = _reduced_forms(mesh, q)[0].edge_shift(9.3)
        tuned = spla.splu(mat, **es.SYMMETRIC_LU)
        default = spla.splu(mat, **{k: v for k, v in es.SYMMETRIC_LU.items()
                                    if k not in ("panel_size", "relax")})
        fill = default.L.nnz + default.U.nnz
        assert abs(tuned.L.nnz + tuned.U.nnz - fill) <= 0.01 * fill
        b = np.random.default_rng(4).standard_normal(mat.shape[0])
        x = tuned.solve(b)
        assert np.linalg.norm(mat @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_debug_line_per_arpack_solve(self, square16_forms, caplog):
        sel = EigenSelection(nev=6, shift=9.0, tol=1e-8)
        with caplog.at_level(logging.DEBUG, logger="maxshape.eigensolver"):
            solve_gevp(square16_forms, sel)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "maxshape.eigensolver"]
        assert len(lines) == 1
        n_e = square16_forms.layout.n_edge
        match = re.fullmatch(
            r"arpack solve: sigma=9 n=(\d+) k=(\d+) ncv=(\d+) below=(\d+) "
            r"fill=(\d+) op_applies=(\d+)", lines[0])
        assert match is not None, lines[0]
        # Arnoldi runs on edge vectors
        assert int(match[1]) == n_e
        # a solve without a count asks for nev + c pairs with 3 k + 8 Krylov
        # vectors; no eigenvalue of the square lies below 9, so c = 0
        assert (int(match[2]), int(match[3])) == (sel.nev, 3 * sel.nev + 8)
        assert int(match[4]) == 0
        # the factor of A - sigma*M alone, at least its diagonal, and
        # less than the square of its size
        assert n_e <= int(match[5]) < n_e ** 2
        # F packs the pairs above sigma toward 1/sigma, its value at
        # infinity: one Arnoldi pass of ncv vectors and one implicit restart
        assert 0 < int(match[6]) <= 2 * (3 * sel.nev + 8)

    def test_warm_start_deterministic(self, square16_forms):
        sel = EigenSelection(nev=6, shift=9.0, tol=1e-8)
        rng = np.random.default_rng(7)
        v0 = rng.standard_normal(square16_forms.layout.n_edge)
        a = solve_gevp(square16_forms, sel, v0=v0.copy())
        b = solve_gevp(square16_forms, sel, v0=v0.copy())
        for pa, pb in zip(a, b):
            assert pa.lam == pb.lam
            np.testing.assert_array_equal(pa.u, pb.u)

    def test_wrong_length_v0_raises(self, square16_forms):
        # v0 is an edge vector: the pencil's size is rejected too
        sel = EigenSelection(nev=6, shift=9.0, tol=1e-8)
        n_e = square16_forms.layout.n_edge
        for n in (n_e - 1, n_e + 1, square16_forms.layout.n):
            with pytest.raises(ValueError, match="v0"):
                solve_gevp(square16_forms, sel, v0=np.ones(n))

    def test_wrong_shape_block_raises(self):
        # checked before the dispatch: the 2 x 2 square, small enough for
        # the dense path, rejects the block it would ignore
        forms, _ = _reduced_forms(generate_unit_square(2))
        n_e = forms.layout.n_edge
        sel = EigenSelection(nev=6, shift=9.0, tol=1e-8)
        for block in (np.ones((n_e + 1, 2)), np.ones(n_e),
                      np.ones((n_e, 0))):
            with pytest.raises(ValueError, match="block of shape"):
                solve_gevp(forms, sel, block=block)

    def test_dispatch_by_arnoldi_room(self, arnoldi_requests, monkeypatch):
        # a pencil of at most 2 wanted + 12 DOFs solves dense, a larger one
        # by ARPACK cold and by block iteration warm
        dense, real = [], es._dense_finite_spectrum

        def spy(forms, count):
            dense.append((forms.layout.n, count))
            return real(forms, count)

        monkeypatch.setattr(es, "_dense_finite_spectrum", spy)
        sel = EigenSelection(nev=7, shift=9.0, tol=1e-8)
        square2, _ = _reduced_forms(generate_unit_square(2))
        cold = solve_gevp(square2, sel, count=2)
        solve_gevp(square2, sel)
        # a block sets count to index + 2 on the dense path too, not to
        # nev
        warm = solve_gevp(square2, sel, block=block_of(cold[:2]))
        assert dense == [(9, 2), (9, 7), (9, 2)] and arnoldi_requests == []
        assert [p.lam for p in warm] == [p.lam for p in cold]
        for pw, pc in zip(warm, cold):
            np.testing.assert_array_equal(pw.u, pc.u)
        dense.clear()
        square4, _ = _reduced_forms(generate_unit_square(4))
        cold = solve_gevp(square4, sel, count=2)
        assert arnoldi_requests == [(2, 14)]
        warm = solve_gevp(square4, sel, block=block_of(cold), count=2)
        assert dense == [] and arnoldi_requests == [(2, 14)]
        for pw, pc in zip(warm, cold):
            assert abs(pw.lam - pc.lam) <= 1e-8 * pc.lam

    @pytest.mark.parametrize("path", ["dense", "cold", "warm"])
    def test_every_path_returns_the_lowest_pairs(self, path, square16_forms,
                                                 square16_finite,
                                                 arnoldi_requests):
        # the lowest count pairs wherever the shift lies: the 2 x 2 square's
        # 8.81 and 9.6 lie far below sigma = 50, whose nearest are 48 and
        # 57.6; the 16 x 16 square's 9.85 and 9.87 lie below sigma = 15
        # (c = 2), whose nearest is 19.76
        if path == "dense":
            forms, _ = _reduced_forms(generate_unit_square(2))
            pairs = solve_gevp(forms, EigenSelection(nev=2, shift=50.0,
                                                     tol=1e-8))
            want, requests = dense_finite(forms)[:2], []
        else:
            sel = EigenSelection(nev=8, shift=15.0, tol=1e-8)
            pairs = solve_gevp(square16_forms, sel, count=2)
            if path == "warm":
                pairs = solve_gevp(square16_forms, sel,
                                   block=block_of(pairs))
            want, requests = square16_finite[:2], [(4, 20)]
        np.testing.assert_allclose([p.lam for p in pairs], want, rtol=1e-10,
                                   atol=0.0)
        assert arnoldi_requests == requests

    def test_insufficient_spectrum(self):
        # n=2: 8 free edges, 1 free vertex -> exactly 7 finite eigenvalues.
        mesh = generate_unit_square(2)
        forms, _ = _reduced_forms(mesh)
        pairs = solve_gevp(forms, EigenSelection(nev=7, shift=10.0, tol=1e-8))
        assert len(pairs) == 7
        with pytest.raises(InsufficientSpectrum):
            solve_gevp(forms, EigenSelection(nev=8, shift=10.0, tol=1e-8))

    def test_shift_required(self, square16_forms):
        with pytest.raises(ValueError):
            solve_gevp(square16_forms, EigenSelection(nev=6, tol=1e-8))

    @pytest.mark.parametrize("i", [2, 5])
    def test_unused_pair_residual_is_only_reported(self, square16_forms,
                                                   inflated_residual, i):
        # index 0 uses pairs 0 and 1; any other pair just reports its residual
        inflated_residual(i)
        pairs = solve_gevp(square16_forms,
                           EigenSelection(nev=6, shift=9.0, tol=1e-8))
        assert len(pairs) == 6
        assert pairs[i].residual == 1.0
        assert all(p.residual <= 1e-8 for j, p in enumerate(pairs) if j != i)

    @pytest.mark.parametrize("index, i", [(0, 0), (0, 1), (2, 1), (2, 3)])
    def test_used_pair_residual_raises(self, square16_forms,
                                       inflated_residual, index, i):
        inflated_residual(i)
        with pytest.raises(NoConvergence, match=f"eigenpair {i} "):
            solve_gevp(square16_forms,
                       EigenSelection(index=index, nev=6, shift=9.0, tol=1e-8))


class TestShiftInvert:
    """The cold operator F = S^{-1} M + I/sigma on edge vectors against
    direct factorizations of the saddle, and the cold solve against QZ."""

    @pytest.mark.parametrize("deformed", [False, True])
    def test_matches_saddle_lu(self, deformed):
        # F x = T x + P x / sigma: the edge blocks of (K - sigma*Mt)^{-1}
        # and of (K_0 + Mt)^{-1}, K_0 = K with A = 0, at [M x; 0].  T is
        # P S^{-1} M, and P, the M-orthogonal projection onto B^T u = 0,
        # keeps a mode and maps a gradient to 0, as F does.
        mesh = generate_unit_square(32)
        q = (random_feasible_control(mesh, np.random.default_rng(3), 0.1 / 32)
             if deformed else None)
        forms, _ = _reduced_forms(mesh, q)
        sigma = 9.3
        op = es.ShiftInvert(forms, sigma)
        k_mat, mt = saddle_pencil(forms)
        n, n_e = k_mat.shape[0], forms.layout.n_edge
        shifted = spla.splu((k_mat - sigma * mt).tocsc())
        k_0 = k_mat.tolil()
        k_0[:n_e, :n_e] = 0.0
        projection = spla.splu((k_0 + mt).tocsc())
        rng = np.random.default_rng(5)
        for x in (rng.standard_normal(n_e), rng.standard_normal((n_e, 3))):
            rhs = np.zeros((n,) + x.shape[1:])
            rhs[:n_e] = forms.M @ x
            want = (shifted.solve(rhs)[:n_e]
                    + projection.solve(rhs)[:n_e] / sigma)
            got = op.apply(x)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("deformed", [False, True])
    def test_cold_solve_matches_qz(self, deformed):
        # the 16 x 16 square takes the ARPACK path; QZ on the whole saddle
        # pencil is the oracle
        mesh = generate_unit_square(16)
        q = (random_feasible_control(mesh, np.random.default_rng(3), 0.1 / 16)
             if deformed else None)
        forms, _ = _reduced_forms(mesh, q)
        sigma = 9.0
        pairs = solve_gevp(forms, EigenSelection(nev=8, shift=sigma,
                                                 tol=1e-8))
        want = qz_lowest(forms, 8)
        got = np.array([p.lam for p in pairs])
        assert len(got) == 8
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
        assert all(p.divergence <= 1e-6 for p in pairs)

    @pytest.mark.parametrize("n, deformed, sigma", [(12, False, 9.0),
                                                    (16, True, 15.0)])
    def test_cold_sizing_matches_qz(self, n, deformed, sigma):
        # ARPACK computes exactly nev + c Ritz pairs.  On the 12 x 12
        # square at sigma = 9 the 4th wanted pair (39.178) lies 1.8e-3
        # below its split partner; at sigma = 15 the wanted pairs lie on
        # both sides of the shift, c = 2 of them below it.
        mesh = generate_unit_square(n)
        q = (random_feasible_control(mesh, np.random.default_rng(3), 0.1 / n)
             if deformed else None)
        forms, _ = _reduced_forms(mesh, q)
        sel = EigenSelection(nev=4, shift=sigma, tol=1e-8)
        pairs = solve_gevp(forms, sel)
        got = np.array([p.lam for p in pairs])
        assert len(got) == 4
        want = qz_lowest(forms, 4)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
        assert all(p.residual <= sel.tol for p in pairs[:sel.index + 2])
        assert all(p.divergence <= es.DIVERGENCE_TOL for p in pairs)

    def test_factorization_failure_raises(self, square16_forms,
                                          monkeypatch):
        calls = []

        class FailingLinalg:
            def __getattr__(self, attr):
                return getattr(spla, attr)

            def splu(self, mat, **kwargs):
                calls.append(mat.shape)
                raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(es, "spla", FailingLinalg())
        with pytest.raises(FactorizationFailed, match=re.escape("A - sigma")):
            solve_gevp(square16_forms,
                       EigenSelection(nev=6, shift=9.0, tol=1e-8))
        assert len(calls) == 1

    def test_strip_without_free_vertex(self):
        # A one-cell-wide strip: every vertex lies on the boundary, so there
        # is no gradient pair to drop.  The 319 free edges of 160 cells
        # leave Arnoldi room; the 11 of 6 cells do not.  The 160-cell
        # strip's lowest eigenvalue is about pi^2 / 160^2 = 3.9e-4, so the
        # shift 5e-4 lies below twice it, where a cold solve sees every
        # pair.
        for cells, n in ((160, 319), (6, 11)):
            x = np.arange(cells + 1, dtype=float)
            vertices = np.concatenate(
                [np.column_stack([x, np.zeros_like(x)]),
                 np.column_stack([x, np.ones_like(x)])])
            lo = np.arange(cells)
            hi = lo + cells + 1
            triangles = np.concatenate(
                [np.column_stack([lo, lo + 1, hi + 1]),
                 np.column_stack([lo, hi + 1, hi])])
            forms, dofs = _reduced_forms(Mesh(vertices, triangles))
            assert dofs.free.n == dofs.free.n_edge
            assert saddle_pencil(forms)[0].shape[0] == n
            pairs = solve_gevp(forms, EigenSelection(nev=6, shift=5e-4,
                                                     tol=1e-9))
            assert len(pairs) == 6
            for p, lam in zip(pairs, qz_lowest(forms, 6)):
                assert abs(p.lam - lam) <= 1e-8 * abs(lam)
                assert p.u.shape == (dofs.free.n_edge,)


@pytest.fixture
def arnoldi_requests(monkeypatch):
    """The (k, ncv) of each spla.eigs call the eigensolver makes."""
    requests = []

    class SpyLinalg:
        def __getattr__(self, name):
            return getattr(spla, name)

        def eigs(self, op, k, **kwargs):
            requests.append((k, kwargs["ncv"]))
            return spla.eigs(op, k, **kwargs)

    monkeypatch.setattr(es, "spla", SpyLinalg())
    return requests


def dense_finite(forms):
    """The finite eigenvalues of (A, M), ascending, by the dense eigh."""
    return scipy.linalg.eigh(forms.A.toarray(), forms.M.toarray(),
                             eigvals_only=True)[forms.BT.shape[0]:]


def dense_below(forms, sigma):
    return int(np.count_nonzero(dense_finite(forms) < sigma))


@pytest.fixture(scope="module")
def square16_finite(square16_forms):
    return dense_finite(square16_forms)


class TestColdStateSolve:
    """A cold state solve (solve_gevp with a count) asks ARPACK for
    count + c Ritz pairs of F, c the eigenvalues below sigma by the inertia
    of the factor of A - sigma*M, and raises where they leave one below
    sigma out: F ranks a pair at distance d below sigma by 1/d - 1/sigma
    and one above it by 1/d + 1/sigma, so every pair below sigma/2 ranks
    behind all pairs above sigma."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("index", [0, 1])
    def test_lowest_pairs_of_the_spectrum(self, n, index, arnoldi_requests):
        forms, _ = _reduced_forms(generate_unit_square(n))
        sel = EigenSelection(index=index, nev=8, shift=9.0, tol=1e-8)
        spectrum = solve_gevp(forms, sel)
        state = solve_gevp(forms, sel, count=index + 2)
        k = index + 2
        assert arnoldi_requests == [(8, 32), (k, 3 * k + 8)]
        assert len(state) == k
        for ps, pt in zip(spectrum, state):
            assert abs(pt.lam - ps.lam) <= 1e-10 * ps.lam
            assert pt.residual <= sel.tol

    @pytest.mark.parametrize("sigma, k", [(9.0, 2), (15.0, 4)])
    def test_count_below_the_shift(self, square16_forms, square16_finite,
                                   arnoldi_requests, sigma, k):
        # the square's lowest pairs are 9.85, 9.87 and 19.76: sigma = 15
        # adds the two below it to the request
        pairs = solve_gevp(square16_forms,
                           EigenSelection(nev=8, shift=sigma, tol=1e-8),
                           count=2)
        assert arnoldi_requests == [(k, 3 * k + 8)]
        np.testing.assert_allclose([p.lam for p in pairs[:2]],
                                   square16_finite[:2], rtol=1e-10, atol=0.0)

    def test_far_shift_raises(self, square16_forms, arnoldi_requests):
        # the five pairs nearest sigma = 30 keep only 19.76 of the three
        # below it
        with pytest.raises(InsufficientSpectrum,
                           match=r"3 eigenvalues lie below the shift 30, "
                                 r"but only 1 .*lower eigen\.shift"):
            solve_gevp(square16_forms,
                       EigenSelection(nev=8, shift=30.0, tol=1e-8), count=2)
        assert arnoldi_requests == [(5, 23)]

    def test_crowded_shift_raises(self, square16_forms, arnoldi_requests):
        # 9.85 lies above 17.7 / 2, but F ranks it (1/7.85 - 1/17.7 =
        # 0.071) behind 19.76, the two near 39.5 and the two near 49.3
        # (above 0.088): the four Ritz pairs hold none of the two below
        with pytest.raises(InsufficientSpectrum,
                           match=r"2 eigenvalues lie below the shift 17\.7, "
                                 r"but only 0 of the 4 Ritz pairs"):
            solve_gevp(square16_forms,
                       EigenSelection(nev=8, shift=17.7, tol=1e-8), count=2)
        assert arnoldi_requests == [(4, 20)]

    def test_spectrum_solve_is_checked(self, square16_forms,
                                       arnoldi_requests):
        # the same shift without a count asks for nev + c pairs, which
        # must hold the c below sigma too
        with pytest.raises(InsufficientSpectrum,
                           match=r"3 eigenvalues lie below the shift 30, "
                                 r"but only 1 .*lower eigen\.shift"):
            solve_gevp(square16_forms,
                       EigenSelection(nev=5, shift=30.0, tol=1e-8))
        assert arnoldi_requests == [(8, 32)]

    def test_negative_shift_raises(self, square16_forms, arnoldi_requests):
        # for sigma < 0, F maps a mode to theta in (1/sigma, 0), nearest 0
        # for the lowest: Arnoldi would return the highest modes, and no
        # count catches it, as none lies below sigma.  The selection refuses
        # the shift before any solve starts.
        with pytest.raises(ValueError, match=re.escape("shift must be finite "
                                                       "and > 0")):
            solve_gevp(square16_forms,
                       EigenSelection(nev=6, shift=-2.5, tol=1e-8))
        assert arnoldi_requests == []

    def test_dense_path_counts_its_own(self, arnoldi_requests):
        # n = 4 runs ARPACK: its lowest pairs 9.58 and 9.83 lie below
        # sigma = 12, and the 4 Ritz pairs keep them; the 9 Ritz pairs at
        # sigma = 60 leave out the three of the 7 below it that lie below 30,
        # half the shift
        forms, _ = _reduced_forms(generate_unit_square(4))
        assert dense_below(forms, 12.0) == 2
        pairs = solve_gevp(forms, EigenSelection(nev=6, shift=12.0, tol=1e-8),
                           count=2)
        assert len(pairs) == 2
        np.testing.assert_allclose([p.lam for p in pairs],
                                   dense_finite(forms)[:2], rtol=1e-10)
        with pytest.raises(InsufficientSpectrum, match="shift 60"):
            solve_gevp(forms, EigenSelection(nev=6, shift=60.0, tol=1e-8),
                       count=2)
        assert arnoldi_requests == [(4, 20), (9, 35)]
        # n = 2 leaves Arnoldi no room and runs dense: 8.81, 9.6 and 20.29
        # lie below sigma = 21, and the dense solve needs no count of them
        forms, _ = _reduced_forms(generate_unit_square(2))
        assert dense_below(forms, 21.0) == 3
        pairs = solve_gevp(forms, EigenSelection(nev=6, shift=21.0, tol=1e-8),
                           count=2)
        np.testing.assert_allclose([p.lam for p in pairs],
                                   dense_finite(forms)[:2], rtol=1e-10,
                                   atol=0.0)
        assert len(arnoldi_requests) == 2

    @pytest.mark.parametrize("mesh", [generate_unit_square(8),
                                      generate_unit_square(12), l_shape(6)],
                             ids=["square8", "square12", "l_shape6"])
    @pytest.mark.parametrize("deformed", [False, True])
    def test_inertia_count_matches_dense(self, mesh, deformed):
        q = (random_feasible_control(mesh, np.random.default_rng(5), 0.02)
             if deformed else None)
        forms, _ = _reduced_forms(mesh, q)
        for sigma in (1.0, 9.0, 9.9, 15.0, 30.0, 50.0):
            op = es.ShiftInvert(forms, sigma)
            # diagonal pivots: the factor is a congruence of S
            np.testing.assert_array_equal(op.edge.perm_r, op.edge.perm_c)
            assert op.below == dense_below(forms, sigma), sigma


class TestLShapeReference:
    """Cold solves on Dauge's L-shape at q = 0 against its reference values:
    a non-convex domain whose lowest eigenfunction is singular at the
    re-entrant corner (r^(2/3)), so lam_1 converges at order 4/3 and the
    smooth others at order 2."""

    SEL = EigenSelection(nev=5, shift=1.0, tol=1e-9)

    @pytest.fixture(scope="class")
    def forms8(self):
        return _reduced_forms(l_shape(8))[0]

    @pytest.fixture(scope="class")
    def ladder(self, forms8):
        return {8: solve_gevp(forms8, self.SEL),
                16: solve_gevp(_reduced_forms(l_shape(16))[0], self.SEL)}

    def test_below_reference(self, ladder):
        for pairs in ladder.values():
            assert np.all(np.array([p.lam for p in pairs]) < L_SHAPE_SPECTRUM)

    def test_observed_orders(self, ladder):
        err = {n: L_SHAPE_SPECTRUM - [p.lam for p in pairs]
               for n, pairs in ladder.items()}
        order = np.log2(err[8] / err[16])
        assert 1.2 <= order[0] <= 1.5
        assert np.all((1.8 <= order[1:]) & (order[1:] <= 2.2)), order

    def test_certificates(self, ladder):
        for pairs in ladder.values():
            assert all(p.divergence <= 1e-6 for p in pairs)

    def test_dense_agrees_with_sparse(self, forms8, ladder):
        np.testing.assert_allclose(
            [p.lam for p in ladder[8]], dense_finite(forms8)[:self.SEL.nev],
            rtol=1e-10, atol=0.0)


class TestWarmBlock:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("step", ["1e-3", "h/10"])
    def test_warm_matches_cold(self, n, step):
        mesh = generate_unit_square(n)
        h = 1e-3 if step == "1e-3" else 0.1 / n
        sel = EigenSelection(nev=8, shift=9.35, tol=1e-8)
        base = smooth_control(mesh, 0.05)
        d = smooth_control(mesh, 1.0).values[:, ::-1]
        moved = DeformationField(mesh, base.values + h * d / np.abs(d).max())
        start = solve_gevp(_reduced_forms(mesh, base)[0], sel)
        forms, _ = _reduced_forms(mesh, moved)
        warm = solve_gevp(forms, sel, block=block_of(start[:2]))
        cold = solve_gevp(forms, sel)
        assert len(warm) == 2
        for pw, pc in zip(warm, cold):
            assert abs(pw.lam - pc.lam) <= 1e-8 * pc.lam
            assert pw.residual <= 1e-8
            assert pw.divergence <= 1e-6
            assert pw.u @ (forms.M @ pw.u) == pytest.approx(1.0, abs=1e-10)

    def test_deficient_block_finds_the_lowest_pair(self):
        # A block without the lowest mode, made of cold pairs 1 and 2 at the
        # same point: only the fresh guard column can bring pair 0 back.
        mesh = generate_unit_square(16)
        forms, _ = _reduced_forms(mesh, smooth_control(mesh, 0.05))
        sel = EigenSelection(nev=8, shift=9.35, tol=1e-8)
        cold = solve_gevp(forms, sel)
        assert cold[1].lam - cold[0].lam > 1e-3     # the pi^2 pair is split
        warm = solve_gevp(forms, sel, block=block_of(cold[1:3]))
        assert abs(warm[0].lam - cold[0].lam) <= 1e-8 * cold[0].lam
        assert abs(warm[1].lam - cold[1].lam) <= 1e-8 * cold[1].lam

    def test_shift_above_the_pair_keeps_the_cold_index(self):
        # sigma = 17.7 lies nearer lambda_2 than the split pi^2 pair; the two
        # pairs nearest sigma would put lambda_1 at index 0.
        mesh = generate_unit_square(16)
        sel = EigenSelection(nev=8, shift=17.7, tol=1e-8)
        start = solve_gevp(_reduced_forms(mesh, smooth_control(mesh, 0.04))[0],
                           sel)
        forms, _ = _reduced_forms(mesh, smooth_control(mesh, 0.05))
        cold = solve_gevp(forms, sel)
        assert cold[2].lam - sel.shift < sel.shift - cold[1].lam
        warm = solve_gevp(forms, sel, block=block_of(start[:2]))
        for pw, pc in zip(warm, cold[:2]):
            assert abs(pw.lam - pc.lam) <= 1e-8 * pc.lam

    def test_debug_line_per_block_solve(self, square16_forms, square16_pairs,
                                        caplog):
        sel = EigenSelection(nev=6, shift=9.0, tol=1e-8)
        with caplog.at_level(logging.DEBUG, logger="maxshape.eigensolver"):
            solve_gevp(square16_forms, sel,
                       block=block_of(square16_pairs[:2]))
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "maxshape.eigensolver"]
        assert len(lines) == 1
        n = square16_forms.A.shape[0] + square16_forms.B.shape[1]
        match = re.fullmatch(
            r"block solve: sigma=(\S+) n=(\d+) iterations=(\d+) "
            r"applies=(\d+)", lines[0])
        assert match is not None, lines[0]
        # the warm shift lies between the configured one and the block's
        # lowest Rayleigh quotient, here its lowest eigenvalue
        assert sel.shift <= float(match[1]) < square16_pairs[0].lam
        assert int(match[2]) == n
        assert int(match[3]) >= 1
        # two pairs plus the guard, filtered once, then once per iteration
        assert int(match[4]) == 3 * (int(match[3]) + 1)

    def test_iteration_cap_raises(self, square16_pairs, monkeypatch):
        monkeypatch.setattr(es, "BLOCK_MAXITER", 1)
        mesh = generate_unit_square(16)
        forms, _ = _reduced_forms(mesh, smooth_control(mesh, 0.05))
        sel = EigenSelection(nev=6, shift=9.0, tol=1e-8)
        with pytest.raises(NoConvergence, match="1 iterations"):
            solve_gevp(forms, sel, block=block_of(square16_pairs[:2]))


@pytest.fixture(scope="module")
def deformed16():
    """The reduced pencil of a 16 x 16 square at a random deformation."""
    mesh = generate_unit_square(16)
    q = random_feasible_control(mesh, np.random.default_rng(3), 0.1 / 16)
    forms, _ = _reduced_forms(mesh, q)
    return forms


def certificate(forms, u):
    """||B^T u|| / ||M u|| of each column of u."""
    return (np.linalg.norm(forms.BT @ u, axis=0)
            / np.linalg.norm(forms.M @ u, axis=0))


class TestWarmEdgeIteration:
    """The warm path's S^{-1} M on edge vectors and its gradient filter
    F = S^{-1} M + I / sigma, S = A - sigma*M."""

    sigma = 9.3

    def edge_lu(self, forms):
        return spla.splu(forms.edge_shift(self.sigma), **es.SYMMETRIC_LU)

    def test_filter_annihilates_gradients(self, deformed16, grad16):
        forms = deformed16
        rng = np.random.default_rng(6)
        g = grad16 @ rng.standard_normal((forms.B.shape[1], 3))
        fg = self.edge_lu(forms).solve(forms.M @ g) + g / self.sigma
        assert np.all(np.linalg.norm(fg, axis=0)
                      <= 1e-10 * np.linalg.norm(g, axis=0))

    def test_divergence_free_stays_divergence_free(self, deformed16, grad16):
        forms = deformed16
        r = np.random.default_rng(7).standard_normal((forms.layout.n_edge, 2))
        # M-orthogonal projection onto B^T u = 0: u = r - G L^{-1} B^T r
        lap = (forms.BT @ grad16).tocsc()
        u = r - grad16 @ spla.spsolve(lap, forms.BT @ r)
        assert np.all(certificate(forms, u) <= 1e-12)
        y = self.edge_lu(forms).solve(forms.M @ u)
        assert np.all(certificate(forms, y) <= 1e-10)

    @pytest.mark.parametrize("shift", [4.0, 9.3])
    def test_polluted_block_converges_to_the_cold_pairs(self, deformed16,
                                                        grad16, shift):
        # F removes the block's gradient part before the iteration.  At
        # sigma = 4 both pairs lie farther than sigma from the shift, where
        # S^{-1} M alone lets gradients (theta = -1/sigma) outgrow them.
        forms = deformed16
        sel = EigenSelection(nev=6, shift=shift, tol=1e-10)
        cold = solve_gevp(forms, sel)
        block = block_of(cold[:2])
        phi = np.random.default_rng(8).standard_normal((forms.B.shape[1], 2))
        block += 10.0 * (grad16 @ phi)
        warm = solve_gevp(forms, sel, block=block)
        assert len(warm) == 2
        for pw, pc in zip(warm, cold):
            assert abs(pw.lam - pc.lam) <= 1e-10 * pc.lam
            assert pw.divergence <= 1e-10
            psi = implied_multiplier(forms, grad16, pw.lam, pw.u)
            assert np.abs(psi).max() <= 1e-8 * np.abs(pw.u).max()

    def test_far_neighbour_stays_divergence_free(self):
        # On the 1 x 0.5 rectangle the upper neighbour 4 pi^2 lies farther
        # than sigma from the shift: S^{-1} M lets the gradient parts that
        # rounding leaves outgrow it, unless a step applies F again.
        forms, sel, block = far_neighbour_case()
        cold = solve_gevp(forms, sel)
        assert cold[1].lam - sel.shift > 3.0 * sel.shift
        warm = solve_gevp(forms, sel, block=block)
        for pw, pc in zip(warm, cold):
            assert abs(pw.lam - pc.lam) <= 1e-10 * pc.lam
            assert pw.divergence <= 1e-10

    def test_warm_and_cold_factor_once(self, deformed16, monkeypatch):
        factors = []

        class SpyLinalg:
            def __getattr__(self, name):
                return getattr(spla, name)

            def splu(self, mat, **kwargs):
                factors.append(mat.shape)
                return spla.splu(mat, **kwargs)

        monkeypatch.setattr(es, "spla", SpyLinalg())
        forms = deformed16
        sel = EigenSelection(nev=6, shift=self.sigma, tol=1e-8)
        cold = solve_gevp(forms, sel)
        assert factors == [(forms.layout.n_edge,) * 2]
        factors.clear()
        solve_gevp(forms, sel, block=block_of(cold[:2]))
        assert factors == [(forms.layout.n_edge,) * 2]


class TestWarmShift:
    """A warm solve factors S at the larger of the configured shift and
    (1 - WARM_SHIFT_MARGIN) times its block's lowest Rayleigh quotient."""

    @staticmethod
    def warm_shift(forms, block, sigma):
        return es._warm_shift(block, forms.A @ block, forms.M @ block, sigma)

    def test_rises_to_just_below_the_lowest_quotient(self, square16_forms,
                                                     square16_pairs):
        block = block_of(square16_pairs[:2])
        lam0 = square16_pairs[0].lam
        assert self.warm_shift(square16_forms, block, 9.0) == pytest.approx(
            (1.0 - es.WARM_SHIFT_MARGIN) * lam0, rel=1e-12)

    @pytest.mark.parametrize("sigma", [9.8, 12.0, 30.0])
    def test_shift_kept_above_the_lift_or_below_zero(
            self, square16_forms, square16_pairs, sigma):
        block = block_of(square16_pairs[:2])
        assert self.warm_shift(square16_forms, block, sigma) == sigma

    def test_gradient_polluted_block_keeps_the_shift(self, square16_forms,
                                                     square16_pairs, grad16):
        forms = square16_forms
        phi = np.random.default_rng(8).standard_normal((forms.B.shape[1], 2))
        block = block_of(square16_pairs[:2]) + 10.0 * (grad16 @ phi)
        assert self.warm_shift(forms, block, 9.0) == 9.0

    def test_fewer_iterations_and_the_cold_pairs(self, deformed16,
                                                 square16_pairs, monkeypatch,
                                                 caplog):
        # a block from the undeformed square at the random deformation
        sel = EigenSelection(nev=6, shift=9.0, tol=1e-10)
        block = block_of(square16_pairs[:2])

        def warm_solve():
            caplog.clear()
            with caplog.at_level(logging.DEBUG,
                                 logger="maxshape.eigensolver"):
                pairs = solve_gevp(deformed16, sel, block=block)
            line = caplog.records[-1].getMessage()
            return (pairs, float(re.search(r"sigma=(\S+)", line)[1]),
                    int(re.search(r"iterations=(\d+)", line)[1]))

        warm, sigma, iterations = warm_solve()
        monkeypatch.setattr(es, "_warm_shift", lambda a, b, mb, s: s)
        _, configured_sigma, configured_iterations = warm_solve()
        assert configured_sigma == sel.shift < sigma
        assert iterations <= configured_iterations
        cold = solve_gevp(deformed16, sel)
        for pw, pc in zip(warm, cold):
            assert abs(pw.lam - pc.lam) <= 1e-10 * pc.lam
            assert pw.divergence <= 1e-6


class _Counted:
    """A sparse matrix whose products with vectors and blocks are counted
    in counts[name]; every other attribute is the matrix's."""

    def __init__(self, mat, counts, name):
        self.mat, self.counts, self.name = mat, counts, name

    def __matmul__(self, x):
        self.counts[self.name] += 1
        return self.mat @ x

    def __getattr__(self, attr):
        return getattr(self.mat, attr)


def far_neighbour_case():
    """The 1 x 0.5 rectangle at a smooth deformation, its selection and a
    warm block from the undeformed rectangle: the upper neighbour 4 pi^2
    lies farther than sigma from the shift, so the warm solve takes F
    steps."""
    square = generate_unit_square(16)
    mesh = Mesh(square.vertices * [1.0, 0.5], square.triangles)
    sel = EigenSelection(nev=6, shift=9.3, tol=1e-8)
    start = solve_gevp(_reduced_forms(mesh)[0], sel)
    forms, _ = _reduced_forms(mesh, smooth_control(mesh, 0.03))
    return forms, sel, block_of(start[:2])


class TestWarmProducts:
    """The warm loop's true products: one M Y and one A Y per step."""

    @pytest.mark.parametrize("case", ["square", "far neighbour"])
    def test_one_product_per_iteration(self, case, square16_pairs, caplog):
        # The start block costs M twice (the filter and the first step's
        # M X) and A once (its Rayleigh quotients, the warm shift), each
        # iteration, F step or not, M Y and A Y once.
        if case == "square":
            mesh = generate_unit_square(16)
            forms, _ = _reduced_forms(mesh, smooth_control(mesh, 0.05))
            sel = EigenSelection(nev=6, shift=9.0, tol=1e-8)
            block = block_of(square16_pairs[:2])
        else:
            forms, sel, block = far_neighbour_case()
        counts = {"A": 0, "M": 0}
        counted = dataclasses.replace(
            forms, A=_Counted(forms.A, counts, "A"),
            M=_Counted(forms.M, counts, "M"))
        with caplog.at_level(logging.DEBUG, logger="maxshape.eigensolver"):
            warm = solve_gevp(counted, sel, block=block)
        k = int(re.search(r"iterations=(\d+)", caplog.records[-1].getMessage())
                [1])
        assert counts == {"A": k + 1, "M": k + 2}
        cold = solve_gevp(forms, sel)
        for pw, pc in zip(warm, cold):
            assert abs(pw.lam - pc.lam) <= 1e-10 * pc.lam

    @pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6])
    def test_inexact_factor_never_returns_a_failing_pair(
            self, deformed16, monkeypatch, caplog, delta):
        # A factor of S + delta*|diag S| solves a perturbed S Y = M X:
        # the residual of true products keeps a failing pair from being
        # returned, and a residual that stops falling ends the solve early.
        forms = deformed16
        sel = EigenSelection(nev=6, shift=9.3, tol=1e-8)
        block = block_of(solve_gevp(forms, sel)[:2])

        class PerturbedLinalg:
            def __getattr__(self, name):
                return getattr(spla, name)

            def splu(self, mat, **kwargs):
                bump = sp.diags(delta * np.abs(mat.diagonal()))
                return spla.splu((mat + bump).tocsc(), **kwargs)

        monkeypatch.setattr(es, "spla", PerturbedLinalg())
        try:
            with caplog.at_level(logging.DEBUG,
                                 logger="maxshape.eigensolver"):
                warm = solve_gevp(forms, sel, block=block)
        except NoConvergence as exc:
            assert "stalled" in str(exc)
            k = re.search(r"iterations=(\d+)",
                          caplog.records[-1].getMessage())
            assert int(k[1]) <= 10
            return
        for p in warm:
            residual = es._residuals(forms.A @ p.u, forms.M @ p.u, p.lam,
                                     np.linalg.norm(forms.BT @ p.u))
            assert residual <= sel.tol


class TestBlockLayout:
    """Dense blocks are column-contiguous (module docstring); a block's
    memory order changes no bit of a result."""

    @pytest.mark.parametrize("case", ["square", "far neighbour"])
    def test_warm_solve_ignores_the_block_order(self, case, deformed16,
                                                 square16_pairs):
        if case == "square":
            forms, sel = deformed16, EigenSelection(nev=6, shift=9.0, tol=1e-8)
            block = block_of(square16_pairs[:2])
        else:
            forms, sel, block = far_neighbour_case()
        rows = solve_gevp(forms, sel, block=np.ascontiguousarray(block))
        columns = solve_gevp(forms, sel, block=np.asfortranarray(block))
        assert len(rows) == len(columns) == 2
        for pr, pc in zip(rows, columns):
            assert (pr.lam, pr.residual, pr.divergence) == (
                pc.lam, pc.residual, pc.divergence)
            assert np.array_equal(pr.u, pc.u)

    def test_ritz_ceiling_ignores_the_block_order(self, square16_forms,
                                                  square16_pairs, grad16):
        forms = square16_forms
        phi = np.random.default_rng(4).standard_normal((forms.B.shape[1], 2))
        block = block_of(square16_pairs[:2]) + 1e-3 * (grad16 @ phi)
        mesh = generate_unit_square(16)
        l_floor = stiffness_floor(mesh, DofMap.from_mesh(mesh))
        rows = es.ritz_ceiling(forms, np.ascontiguousarray(block), 0, l_floor)
        columns = es.ritz_ceiling(forms, np.asfortranarray(block), 0, l_floor)
        assert rows[1] > 0.0 and math.isfinite(rows[0])
        assert rows == columns

    def test_anchor_block_is_column_contiguous(self, square16_forms,
                                               square16_pairs):
        sel = EigenSelection(index=1, nev=7, shift=9.0, tol=1e-8)
        block = select_and_normalize(square16_pairs, sel,
                                     square16_forms.M).block
        assert block.shape == (square16_forms.layout.n_edge, 3)
        assert block.flags.f_contiguous


class TestRayleighRitzFailures:
    """A warm solve whose Rayleigh-Ritz step cannot run raises
    NoConvergence, the error a caller treats as an unsolvable point."""

    def test_non_finite_solve_raises_no_convergence(self, deformed16,
                                                    nan_on_solve):
        # the start filter's solve is the factor's first, the first
        # iteration's its second
        sel = EigenSelection(nev=6, shift=9.3, tol=1e-8)
        block = block_of(solve_gevp(deformed16, sel)[:2])
        nan_on_solve(2)
        with pytest.raises(NoConvergence, match="non-finite"):
            solve_gevp(deformed16, sel, block=block)

    def test_lapack_failure_raises_no_convergence(self, deformed16,
                                                  monkeypatch):
        sel = EigenSelection(nev=6, shift=9.3, tol=1e-8)
        block = block_of(solve_gevp(deformed16, sel)[:2])
        real = es.dsygvd

        def failing(a, b, **kwargs):
            w, c, _ = real(a, b, **kwargs)
            return w, c, 3

        monkeypatch.setattr(es, "dsygvd", failing)
        with pytest.raises(NoConvergence, match="info 3"):
            solve_gevp(deformed16, sel, block=block)

    def test_rayleigh_ritz_matches_eigh(self, deformed16):
        # dsygvd is the LAPACK routine scipy.linalg.eigh(a, b) calls
        rng = np.random.default_rng(9)
        y = rng.standard_normal((deformed16.layout.n_edge, 3))
        a, m = y.T @ (deformed16.A @ y), y.T @ (deformed16.M @ y)
        a, m = 0.5 * (a + a.T), 0.5 * (m + m.T)
        w, c = scipy.linalg.eigh(a, m)
        w_got, c_got, info = es.dsygvd(a.copy(), m.copy(), overwrite_a=1,
                                       overwrite_b=1)
        assert info == 0
        np.testing.assert_array_equal(w_got, w)
        np.testing.assert_array_equal(c_got, c)


class TestSelectAndNormalize:
    def test_rescaling(self, square16_forms, square16_pairs):
        from maxshape.eigensolver import MixedEigenPair

        base = square16_pairs[0]
        doubled = [MixedEigenPair(lam=base.lam, u=2.0 * base.u,
                                  residual=base.residual)]
        sel = EigenSelection(index=0, nev=6, shift=9.0)
        out = select_and_normalize(doubled, sel, square16_forms.M)
        assert out.lam == base.lam
        assert out.u @ (square16_forms.M @ out.u) == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_sign_convention(self, square16_forms, square16_pairs):
        from maxshape.eigensolver import MixedEigenPair

        base = square16_pairs[0]
        sel = EigenSelection(index=0, nev=6, shift=9.0)
        plus = select_and_normalize(
            [MixedEigenPair(base.lam, base.u, base.residual)],
            sel, square16_forms.M)
        minus = select_and_normalize(
            [MixedEigenPair(base.lam, -base.u, base.residual)],
            sel, square16_forms.M)
        np.testing.assert_array_equal(plus.u, minus.u)
        assert plus.u[np.argmax(np.abs(plus.u))] > 0

    def test_block_holds_the_used_pairs(self, square16_forms, square16_pairs):
        sel = EigenSelection(index=1, nev=7, shift=9.0)
        out = select_and_normalize(square16_pairs, sel, square16_forms.M)
        np.testing.assert_array_equal(out.block, block_of(square16_pairs[:3]))

    def test_gap_recorded_without_gap_min(self, square16_pairs,
                                          square16_forms):
        lams = [p.lam for p in square16_pairs]
        for index in (0, 3):
            out = select_and_normalize(
                square16_pairs, EigenSelection(index=index, nev=7, shift=9.0),
                square16_forms.M)
            others = lams[:index] + lams[index + 1:]
            assert out.gap == min(abs(lams[index] - l) for l in others)
        alone = select_and_normalize(square16_pairs[:1],
                                     EigenSelection(nev=6, shift=9.0),
                                     square16_forms.M)
        assert np.isnan(alone.gap)

    def test_index_out_of_range(self, square16_pairs, square16_forms):
        sel = EigenSelection(index=0, nev=6, shift=9.0)
        with pytest.raises(InsufficientSpectrum):
            select_and_normalize(square16_pairs[:1],
                                 EigenSelection(index=3, nev=6, shift=9.0),
                                 square16_forms.M)


class TestEigenSelectionValidation:
    def test_nev_vs_index(self):
        with pytest.raises(ValueError):
            EigenSelection(index=4, nev=5)

    def test_positive_tol(self):
        with pytest.raises(ValueError):
            EigenSelection(tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_tol_finite(self, tol):
        # tol = nan would run ARPACK to its iteration cap
        with pytest.raises(ValueError, match="tol"):
            EigenSelection(tol=tol)

    def test_default_nev(self):
        assert EigenSelection(index=0).nev_effective == 6
        assert EigenSelection(index=7).nev_effective == 10

    @pytest.mark.parametrize("shift", [0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_shift_finite_and_not_zero(self, shift):
        # A - shift*M is singular at 0, and the warm filter divides by it
        with pytest.raises(ValueError, match="shift"):
            EigenSelection(shift=shift)

    def test_negative_shift_raises(self):
        # a negative shift would pick the highest modes (see
        # TestColdStateSolve).  An unset shift is accepted:
        # MaxwellShapeProblem derives one.
        with pytest.raises(ValueError, match=re.escape("shift must be finite "
                                                       "and > 0")):
            EigenSelection(shift=-2.5)
        assert EigenSelection().shift is None
