"""Tests for the stencil-walk donor search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.donorsearch import _solve_clamped, donor_search
from repro.connectivity.interpolation import interpolate
from repro.grids.generators import (
    airfoil_ogrid,
    annulus_grid,
    cartesian_background,
)


def uniform_xyz(ni=11, nj=9, dx=1.0, dy=1.0):
    return cartesian_background("bg", (0, 0), (dx * (ni - 1), dy * (nj - 1)),
                                (ni, nj)).xyz


class TestUniformGrid:
    def test_exact_cells_and_fracs(self):
        xyz = uniform_xyz()
        pts = np.array([[2.5, 3.25], [0.1, 0.9], [9.99, 7.99]])
        r = donor_search(xyz, pts)
        assert r.found.all()
        assert r.cells[0].tolist() == [2, 3]
        assert np.allclose(r.fracs[0], [0.5, 0.25])

    def test_reconstruction(self):
        xyz = uniform_xyz()
        rng = np.random.default_rng(0)
        pts = rng.uniform([0, 0], [10, 8], size=(200, 2))
        r = donor_search(xyz, pts)
        assert r.found.all()
        recon = r.cells + r.fracs
        assert np.allclose(recon, pts, atol=1e-8)

    def test_outside_points_not_found(self):
        xyz = uniform_xyz()
        pts = np.array([[-1.0, 4.0], [11.0, 4.0], [5.0, -2.0]])
        r = donor_search(xyz, pts)
        assert not r.found.any()

    def test_mixed_inside_outside(self):
        xyz = uniform_xyz()
        pts = np.array([[5.0, 4.0], [50.0, 4.0]])
        r = donor_search(xyz, pts)
        assert r.found.tolist() == [True, False]


class TestWarmStart:
    def test_good_guess_converges_in_one_step(self):
        xyz = uniform_xyz()
        pts = np.array([[7.3, 2.6]])
        cold = donor_search(xyz, pts)
        warm = donor_search(xyz, pts, guesses=np.array([[7, 2]]))
        assert warm.found.all()
        assert warm.steps[0] == 1
        assert warm.steps[0] <= cold.steps[0]

    def test_nearby_guess_cheaper_than_cold(self):
        """The nth-level-restart effect: donors moved by ~1 cell cost
        far fewer walk steps than searches from scratch."""
        xyz = uniform_xyz(41, 41)
        rng = np.random.default_rng(1)
        pts = rng.uniform([1, 1], [39, 39], size=(100, 2))
        cold = donor_search(xyz, pts)
        nearby = cold.cells + rng.integers(-1, 2, size=cold.cells.shape)
        warm = donor_search(xyz, pts, guesses=nearby)
        assert warm.found.all()
        assert warm.total_steps < 0.5 * cold.total_steps

    def test_out_of_range_guess_clipped(self):
        xyz = uniform_xyz()
        r = donor_search(xyz, np.array([[5.0, 4.0]]),
                         guesses=np.array([[999, -999]]))
        assert r.found.all()


class TestCurvilinear:
    def test_annulus_reconstruction(self):
        g = annulus_grid("mid", ni=81, nj=21, r_inner=1.0, r_outer=3.0,
                         center=(0.0, 0.0))
        rng = np.random.default_rng(2)
        theta = rng.uniform(0.1, 2 * np.pi - 0.1, 50)
        rad = rng.uniform(1.1, 2.9, 50)
        pts = np.stack([rad * np.cos(theta), rad * np.sin(theta)], axis=-1)
        r = donor_search(g.xyz, pts)
        assert r.found.all()
        recon = interpolate(g.xyz, r.cells, r.fracs)
        assert np.allclose(recon, pts, atol=2e-3)  # bilinear on curved cells

    def test_airfoil_ogrid_finds_field_points(self):
        g = airfoil_ogrid("near", ni=121, nj=31, radius=2.0)
        pts = np.array([[1.5, 0.3], [0.5, -0.8], [-0.5, 0.2]])
        r = donor_search(g.xyz, pts)
        assert r.found.all()

    def test_point_inside_airfoil_body_not_found(self):
        """The airfoil interior is outside the O-grid's mapped region."""
        g = airfoil_ogrid("near", ni=121, nj=31, radius=2.0)
        r = donor_search(g.xyz, np.array([[0.5, 0.0]]))
        assert not r.found.any()

    def test_point_beyond_outer_radius_not_found(self):
        g = airfoil_ogrid("near", ni=61, nj=21, radius=1.5)
        r = donor_search(g.xyz, np.array([[5.0, 5.0]]))
        assert not r.found.any()


class TestWindowedSearch:
    """The distributed protocol walks only inside a rank's cell window."""

    def test_escape_reports_hint(self):
        xyz = uniform_xyz(21, 21)
        # Window covers cells i in [0, 9]; target lives at i ~ 15.
        r = donor_search(
            xyz,
            np.array([[15.5, 10.2]]),
            guesses=np.array([[5, 10]]),
            cell_lo=np.array([0, 0]),
            cell_hi=np.array([9, 19]),
        )
        assert not r.found.any()
        # Hint points beyond the window toward the target.
        assert r.cells[0, 0] >= 9

    def test_window_hit(self):
        xyz = uniform_xyz(21, 21)
        r = donor_search(
            xyz,
            np.array([[5.5, 10.2]]),
            cell_lo=np.array([0, 0]),
            cell_hi=np.array([9, 19]),
        )
        assert r.found.all()


class TestSteps3D:
    def test_3d_uniform(self):
        g = cartesian_background("bg", (0, 0, 0), (5, 5, 5), (6, 6, 6))
        pts = np.array([[2.5, 3.5, 1.25], [0.5, 0.5, 4.5]])
        r = donor_search(g.xyz, pts)
        assert r.found.all()
        assert np.allclose(r.cells + r.fracs, pts, atol=1e-6)

    def test_3d_outside(self):
        g = cartesian_background("bg", (0, 0, 0), (5, 5, 5), (6, 6, 6))
        r = donor_search(g.xyz, np.array([[9.0, 2.0, 2.0]]))
        assert not r.found.any()

    def test_3d_solve_matches_deleted_minor_adjugate(self):
        """The cofactor solve is bit-identical to building each minor
        with ``np.delete``, near-singular Jacobians included."""

        def reference(J, r):
            det = np.linalg.det(J)
            det = np.where(
                np.abs(det) < 1e-14, np.where(det < 0, -1e-14, 1e-14), det
            )
            adj = np.empty_like(J)
            for i in range(3):
                for j in range(3):
                    m = np.delete(np.delete(J, i, axis=1), j, axis=2)
                    cof = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
                    adj[:, j, i] = ((-1) ** (i + j)) * cof
            return np.einsum("nij,nj->ni", adj, r) / det[:, None]

        rng = np.random.default_rng(7)
        J = rng.normal(size=(300, 3, 3)) * 10.0 ** rng.integers(-6, 6, (300, 1, 1))
        J[:100, 2] = J[:100, 1] * (1 + 1e-15)  # near-singular
        J[100:150, :, 0] = 0.0  # singular: determinant clamped
        r = rng.normal(size=(300, 3))
        got = _solve_clamped(J, r)
        assert np.array_equal(got.view(np.int64), reference(J, r).view(np.int64))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 9.99), st.floats(0.01, 7.99))
    def test_any_interior_point_found(self, x, y):
        xyz = uniform_xyz()
        r = donor_search(xyz, np.array([[x, y]]))
        assert r.found.all()
        assert (r.fracs >= 0).all() and (r.fracs <= 1).all()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 6.2), st.floats(1.15, 2.85))
    def test_annulus_found_property(self, theta, rad):
        g = annulus_grid("mid", ni=61, nj=17, r_inner=1.0, r_outer=3.0,
                         center=(0.0, 0.0))
        pt = np.array([[rad * np.cos(theta), rad * np.sin(theta)]])
        r = donor_search(g.xyz, pt)
        assert r.found.all()


def wavy_grid(ni, nj, amp, kx, ky, theta=0.0, shift=(0.0, 0.0)):
    """A random *smooth* curvilinear grid: a cartesian sheet with
    sinusoidal coordinate waves, rigidly rotated by ``theta`` and
    translated by ``shift``.  ``amp <= 0.3`` keeps every cell a convex
    quad, so the multilinear cell maps tile the domain without overlap
    and a donor (cell, frac) pair is unique away from cell faces."""
    i = np.arange(ni, dtype=float)[:, None] * np.ones((1, nj))
    j = np.ones((ni, 1)) * np.arange(nj, dtype=float)[None, :]
    x = i + amp * np.sin(2.0 * np.pi * kx * j / (nj - 1))
    y = j + amp * np.sin(2.0 * np.pi * ky * i / (ni - 1))
    c, s = np.cos(theta), np.sin(theta)
    return np.stack(
        [c * x - s * y + shift[0], s * x + c * y + shift[1]], axis=-1
    )


class TestRoundTripProperties:
    """ISSUE satellite: (cell, frac) -> physical point -> search must
    recover the donor on random smooth curvilinear grids, and warm
    (nth-level-restart) searches must beat cold ones after small grid
    motion."""

    @settings(max_examples=40, deadline=None)
    @given(
        amp=st.floats(0.0, 0.3),
        kx=st.integers(1, 3),
        ky=st.integers(1, 3),
        theta=st.floats(0.0, 0.6),
        ci=st.integers(0, 10),
        cj=st.integers(0, 8),
        fa=st.floats(0.05, 0.95),
        fb=st.floats(0.05, 0.95),
    )
    def test_single_donor_roundtrip(self, amp, kx, ky, theta, ci, cj, fa, fb):
        xyz = wavy_grid(12, 10, amp, kx, ky, theta)
        cells = np.array([[ci, cj]])
        fracs = np.array([[fa, fb]])
        pt = interpolate(xyz, cells, fracs)
        r = donor_search(xyz, pt)
        assert r.found.all()
        assert r.cells.tolist() == cells.tolist()
        assert np.allclose(r.fracs, fracs, atol=1e-6)
        # ... and the recovered donor reproduces the physical point.
        assert np.allclose(interpolate(xyz, r.cells, r.fracs), pt, atol=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(
        amp=st.floats(0.0, 0.25),
        kx=st.integers(1, 3),
        ky=st.integers(1, 3),
        seed=st.integers(0, 1_000),
    )
    def test_batch_roundtrip(self, amp, kx, ky, seed):
        ni, nj = 17, 13
        xyz = wavy_grid(ni, nj, amp, kx, ky)
        rng = np.random.default_rng(seed)
        n = 50
        cells = np.stack(
            [rng.integers(0, ni - 1, n), rng.integers(0, nj - 1, n)], axis=-1
        )
        fracs = rng.uniform(0.05, 0.95, size=(n, 2))
        pts = interpolate(xyz, cells, fracs)
        r = donor_search(xyz, pts)
        assert r.found.all()
        assert (r.cells == cells).all()
        assert np.allclose(r.fracs, fracs, atol=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(
        amp=st.floats(0.0, 0.2),
        angle=st.floats(0.002, 0.02),
        dx=st.floats(-0.2, 0.2),
        dy=st.floats(-0.2, 0.2),
        seed=st.integers(0, 1_000),
    )
    def test_warm_restart_beats_cold_after_small_motion(
        self, amp, angle, dx, dy, seed
    ):
        """Move the grid by a sub-cell rigid motion; re-searching from
        the previous donors (warm) must take strictly fewer total walk
        steps than re-searching from scratch (cold)."""
        xyz0 = wavy_grid(41, 41, amp, 2, 2)
        rng = np.random.default_rng(seed)
        pts = rng.uniform([6.0, 6.0], [34.0, 34.0], size=(80, 2))
        before = donor_search(xyz0, pts)
        assert before.found.all()

        # Rigid motion about the grid centre + small translation.
        centre = xyz0.reshape(-1, 2).mean(axis=0)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        xyz1 = (xyz0 - centre) @ rot.T + centre + np.array([dx, dy])

        cold = donor_search(xyz1, pts)
        warm = donor_search(xyz1, pts, guesses=before.cells)
        assert cold.found.all() and warm.found.all()
        # Same donors either way ...
        assert (warm.cells == cold.cells).all()
        # ... but the restart pays strictly fewer walk steps.
        assert warm.total_steps < cold.total_steps
