import cmath
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import ellipk

from lejaflip import (
    boundary_samples,
    canonical_disk_leja,
    circle_flip_stats,
    compact_flip_stats,
    ellipse_exterior_map,
    estimate_alper_constant,
    greedy_leja,
    lebesgue_constant,
    sup_norm_on_circle,
    transport_sequence,
)
from lejaflip.flip import _log_node_weights
from lejaflip.transport import ExteriorMap, _capacity_scaled, _scaled_boundary


def alper_closed_form(a, b):
    """Independent quadrature oracle for the ellipse kernel integral.

    For Phi(z) = c1 z + c2/z the integrand collapses to c2 / |c1 e^it - c2|
    (independent of w), whose integral is a complete elliptic integral.
    """
    c1, c2 = (a + b) / 2, (a - b) / 2
    if c2 == 0:
        return 0.0
    m = 4 * c1 * c2 / (c1 + c2) ** 2
    return float(4 * c2 / (c1 + c2) * ellipk(m))


def alper_by_angle(mp, w_grid, t_grid):
    """estimate_alper_constant one w angle at a time, the substituted node in Python complex arithmetic."""
    mp = _capacity_scaled(mp)
    zt = np.exp(1j * (2.0 * np.pi * np.arange(t_grid) / t_grid))
    phi_t, dphi_t = mp(zt), mp.derivative(zt)
    h = 2.0 * np.pi / t_grid
    best = 0.0
    for j in range(w_grid):
        z = cmath.exp(1j * (2.0 * np.pi * j / w_grid))
        pz, pp, pm = mp(z), mp(z * cmath.exp(1j * h)), mp(z * cmath.exp(-1j * h))
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.abs(dphi_t / (phi_t - pz) - 1.0 / (zt - z))
        d1 = (pp - pm) / (2.0 * h)
        d2 = (pp - 2.0 * pz + pm) / h**2
        phi1 = d1 / (1j * z)
        phi2 = (d2 + z * phi1) / (1j * z) ** 2
        integrand[np.abs(zt - z).argmin()] = abs(phi2 / (2.0 * phi1))
        value = float(np.sum(integrand)) * h
        if value > best:
            best = value
    return best


class TestEllipseMap:
    def test_identity_case(self):
        mp = ellipse_exterior_map(1.0, 1.0)
        assert mp(1j) == pytest.approx(1j, abs=1e-15)

    def test_axis_images(self):
        mp = ellipse_exterior_map(1.2, 0.8)
        assert mp(1.0) == pytest.approx(1.2, abs=1e-15)
        assert mp(1j) == pytest.approx(0.8j, abs=1e-15)

    def test_boundary_parametrization(self):
        mp = ellipse_exterior_map(2.0, 1.0)
        t = 2 * np.pi * np.arange(256) / 256
        img = mp(np.exp(1j * t))
        assert np.max(np.abs((img.real / 2.0) ** 2 + img.imag**2 - 1.0)) <= 1e-12

    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError):
            ellipse_exterior_map(0.8, 1.2)
        with pytest.raises(ValueError):
            ellipse_exterior_map(1.0, 0.0)


class TestTransport:
    def test_identity_images(self):
        mp = ellipse_exterior_map(1.0, 1.0)
        section = canonical_disk_leja(8)
        ts = transport_sequence(mp, section)
        assert np.allclose(ts.images, section.points, atol=1e-15)

    def test_canonical_four(self):
        mp = ellipse_exterior_map(1.2, 0.8)
        ts = transport_sequence(mp, canonical_disk_leja(4))
        assert np.allclose(ts.images, [1.2, -1.2, 0.8j, -0.8j], atol=1e-14)

    def test_single_point(self):
        mp = ellipse_exterior_map(1.5, 1.0)
        ts = transport_sequence(mp, canonical_disk_leja(1))
        assert ts.images.shape == (1,)


class TestDistortion:
    def test_chord_ratio_window(self):
        # the measured constants for this family are the semi-axes themselves
        a, b = 1.2, 0.8
        mp = ellipse_exterior_map(a, b)
        rng = np.random.default_rng(0)
        z = np.exp(2j * np.pi * rng.random(10_000))
        w = np.exp(2j * np.pi * rng.random(10_000))
        keep = np.abs(z - w) > 1e-12
        z, w = z[keep], w[keep]
        ratios = np.abs(mp(z) - mp(w)) / np.abs(z - w)  # the chord ratio |Phi(z) - Phi(w)| / |z - w|
        assert ratios.min() >= b * (1 - 1e-9)
        assert ratios.max() <= a * (1 + 1e-9)


class TestSupOnCompact:
    def test_identity_matches_circle(self):
        section = canonical_disk_leja(12)
        ts = transport_sequence(ellipse_exterior_map(1.0, 1.0), section)
        sups, _ = compact_flip_stats(ts)
        for p in (1, 5, 12):
            circle = sup_norm_on_circle(section, p)
            assert sups[p - 1] == pytest.approx(circle.value, abs=1e-9)

    def test_identity_roots_of_unity(self):
        ts = transport_sequence(ellipse_exterior_map(1.0, 1.0), canonical_disk_leja(16))
        sups, _ = compact_flip_stats(ts)
        for p in (1, 9):
            assert sups[p - 1] == pytest.approx(1.0, abs=1e-9)

    def test_refuses_vacuous_scans(self):
        ts = transport_sequence(ellipse_exterior_map(1.2, 0.8), canonical_disk_leja(8))
        # 8 nodes: degree 7 needs more than 7 pi angles
        for kwargs in ({"boundary_grid": 0}, {"boundary_grid": -1}, {"boundary_grid": 21}, {"refine_iters": -1}):
            with pytest.raises(ValueError):
                compact_flip_stats(ts, **kwargs)

    def test_own_node_floor(self):
        ts = transport_sequence(ellipse_exterior_map(1.3, 0.7), canonical_disk_leja(9))
        sups, _ = compact_flip_stats(ts)
        for p in (1, 4, 9):
            assert sups[p - 1] >= 1.0

    def test_growth_slope_below_one(self):
        mp = ellipse_exterior_map(1.2, 0.8)
        sizes = [4, 8, 16, 32, 64, 128]
        worst = []
        for n in sizes:
            ts = transport_sequence(mp, canonical_disk_leja(n))
            sups, _ = compact_flip_stats(ts, refine_iters=0)
            assert np.all(np.isfinite(sups))
            worst.append(sups.max())
        slope = np.polyfit(np.log(sizes), np.log(worst), 1)[0]
        assert slope < 1.0


class TestCapacityScaling:
    @pytest.mark.parametrize("a, b, e", [(30.0, 1.0, 4), (3.0, 0.2, 1), (1.2, 0.8, 0), (1.0, 1.0, 0), (0.3, 0.1, -2)])
    def test_power_of_two_keeps_every_bit(self, a, b, e):
        # s = 2**-e with e = round(log2 c1): mantissas stay, exponents drop by e
        ts = transport_sequence(ellipse_exterior_map(a, b), canonical_disk_leja(64))
        nodes, curve, node_ts = _scaled_boundary(ts)
        t = 2 * np.pi * np.arange(97) / 97
        for want, got in ((ts.images, nodes), (ts.map.on_circle(t), curve(t)), (ts.map.on_circle(0.7), curve(0.7))):
            for part in ("real", "imag"):
                m0, e0 = np.frexp(getattr(np.asarray(want), part))
                m1, e1 = np.frexp(getattr(np.asarray(got), part))
                assert np.array_equal(m1, m0)
                assert np.array_equal(e1[m0 != 0], e0[m0 != 0] - e)
        assert np.array_equal(node_ts, np.angle(ts.source.points))

    @pytest.mark.parametrize("a, b", [(30.0, 1.0), (1.2, 0.8)])
    def test_bench_ellipses_keep_the_power_of_two(self, a, b):
        # (N-1)*|ln c1| of the scaled map stays within 200: 32 for 30x1 at N = 1024
        mp = ellipse_exterior_map(a, b)
        scaled = _capacity_scaled(mp)
        for n in (2, 1024, 2048):
            ts = transport_sequence(mp, canonical_disk_leja(n))
            assert np.array_equal(_scaled_boundary(ts)[0], scaled(ts.source.points))

    @pytest.mark.parametrize("a, n", [(50.0, 2048), (100.0, 1024), (100.0, 2048), (300.0, 2048), (700.0, 1024)])
    def test_thin_ellipses_scale_to_capacity_one(self, a, n):
        # the power of two leaves the scaled capacity up to sqrt(2) off 1, and the
        # node weights would drift by (N-1)*|ln c1|, past the kernel's e^(+-280)
        mp = ellipse_exterior_map(a, 1.0)
        scaled = _capacity_scaled(mp)
        assert (n - 1) * abs(np.log(scaled.c1)) > 200.0
        ts = transport_sequence(mp, canonical_disk_leja(n))
        nodes, curve, _ = _scaled_boundary(ts)
        exact = ExteriorMap(1.0, scaled.c2 / scaled.c1)
        assert np.array_equal(nodes, exact(ts.source.points))
        assert np.array_equal(curve(np.array([0.1, 2.0])), exact.on_circle(np.array([0.1, 2.0])))
        weights = _log_node_weights(nodes)
        assert np.all(np.abs(weights) < 50.0)
        assert np.max(np.abs(nodes - ts.images / mp.c1)) < 1e-14  # the same map to rounding, on a curve of size 2

    def test_thin_ellipse_lebesgue_matches_mpmath(self):
        mp = ellipse_exterior_map(30.0, 1.0)
        ts = transport_sequence(mp, canonical_disk_leja(64))
        _, report = compact_flip_stats(ts)
        z = mp.on_circle(report.argmax_angle)
        with mpmath.workdps(40):
            nodes = [mpmath.mpc(c.real, c.imag) for c in ts.images]
            at = mpmath.mpc(z.real, z.imag)
            total = mpmath.fsum(
                mpmath.fprod(abs(at - other) / abs(node - other) for other in nodes if other != node) for node in nodes
            )
        assert report.constant == pytest.approx(float(total), rel=1e-12)


class TestLebesgueOnCompact:
    def test_identity_matches_circle(self):
        section = canonical_disk_leja(9)
        ts = transport_sequence(ellipse_exterior_map(1.0, 1.0), section)
        _, compact = compact_flip_stats(ts)
        circle = lebesgue_constant(section)
        assert compact.constant == pytest.approx(circle.constant, abs=1e-9)

    def test_single_node(self):
        ts = transport_sequence(ellipse_exterior_map(1.2, 0.8), canonical_disk_leja(1))
        assert compact_flip_stats(ts)[1].constant == 1.0

    def test_increasing_in_n(self):
        mp = ellipse_exterior_map(1.2, 0.8)
        values = []
        for p in (3, 4, 5, 6):
            ts = transport_sequence(mp, canonical_disk_leja(2**p - 1))
            values.append(compact_flip_stats(ts, refine_iters=10)[1].constant)
        assert np.all(np.isfinite(values))
        assert all(v1 > v0 for v0, v1 in zip(values, values[1:]))


class TestAlperConstant:
    def test_circle_is_zero(self):
        for r in (1.0, 1e-310):  # unscaled, the subnormal radius overflowed the kernel quotients to inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert estimate_alper_constant(ellipse_exterior_map(r, r), 256, 256) <= 1e-6

    def test_matches_quadrature_oracle(self):
        a, b = 1.2, 0.8
        est = estimate_alper_constant(ellipse_exterior_map(a, b), 256, 512)
        assert est == pytest.approx(alper_closed_form(a, b), abs=1e-5)

    def test_grid_doubling_stability(self):
        mp = ellipse_exterior_map(1.2, 0.8)
        coarse = estimate_alper_constant(mp, 256, 256)
        fine = estimate_alper_constant(mp, 512, 512)
        assert abs(fine - coarse) <= 1e-3

    def test_monotone_in_eccentricity(self):
        mild = estimate_alper_constant(ellipse_exterior_map(1.2, 0.8), 256, 256)
        strong = estimate_alper_constant(ellipse_exterior_map(2.0, 1.0), 256, 256)
        assert 0.0 < mild < strong

    @pytest.mark.parametrize("a, b", [(1.2, 0.8), (30.0, 1.0), (2.0, 1.0)])
    @pytest.mark.parametrize("w_grid, t_grid", [(300, 256), (1024, 1024)])  # a short last block; 4-row blocks
    def test_blocks_match_a_loop_over_single_angles(self, a, b, w_grid, t_grid):
        mp = ellipse_exterior_map(a, b)
        want = alper_by_angle(mp, w_grid, t_grid)
        assert estimate_alper_constant(mp, w_grid, t_grid) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            estimate_alper_constant(ellipse_exterior_map(1.2, 0.8), 128, 512)


class TestRatioEnvelope:
    def test_transport_ratio_bounded_by_product_envelope(self):
        # transported/source FLIP ratio at matched parameters stays below
        # (a/b) * (sup/inf over the grid of the full chord-product ratio)
        mp = ellipse_exterior_map(1.2, 0.8)
        base_grid = np.exp(2j * np.pi * (np.arange(700) + 0.5) / 700)
        for n in (3, 7, 16, 33, 64, 128):
            section = canonical_disk_leja(n)
            src = section.points
            img = np.asarray(mp(src))
            # drop samples that (nearly) coincide with a node; the chord
            # quotient has a removable singularity there
            grid = base_grid[np.min(np.abs(base_grid[:, None] - src[None, :]), axis=1) > 1e-9]
            prod_ratio = np.prod(np.abs((mp(grid)[:, None] - img[None, :]) / (grid[:, None] - src[None, :])), axis=1)
            envelope = prod_ratio.max() / prod_ratio.min()
            worst = 0.0
            for p in (1, max(1, n // 2), n):
                num = np.prod(np.abs(mp(grid)[:, None] - np.delete(img, p - 1)[None, :]), axis=1)
                den = np.prod(np.abs(grid[:, None] - np.delete(src, p - 1)[None, :]), axis=1)
                src_w = np.prod(np.abs(src[p - 1] - np.delete(src, p - 1)))
                img_w = np.prod(np.abs(img[p - 1] - np.delete(img, p - 1)))
                ratio = (num / img_w) / (den / src_w)
                worst = max(worst, float(ratio.max()))
            assert np.isfinite(worst)
            assert worst <= (1.2 / 0.8) * envelope * (1 + 1e-9)


class TestGreedyOnEllipse:
    def test_single_seed_point(self):
        boundary = boundary_samples(ellipse_exterior_map(1.2, 0.8), 512)
        section = greedy_leja(boundary, 1, seed_index=0)
        assert section.points[0] == boundary.samples[0]

    def test_greedy_section_on_ellipse_boundary(self):
        mp = ellipse_exterior_map(1.2, 0.8)
        boundary = boundary_samples(mp, 4096)
        section = greedy_leja(boundary, 32)
        from lejaflip import validate_leja

        assert validate_leja(section, boundary).max_violation <= 10.0 / 4096
        # images live on the ellipse
        pts = section.points
        assert np.max(np.abs((pts.real / 1.2) ** 2 + (pts.imag / 0.8) ** 2 - 1)) <= 1e-10
