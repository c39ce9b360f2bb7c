import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from lejaflip import (
    UNIFORM_FLIP_BOUND,
    LejaSection,
    canonical_disk_leja,
    circle_flip_stats,
    circle_samples,
    compact_flip_stats,
    ellipse_exterior_map,
    flip_direct,
    greedy_leja,
    lebesgue_constant,
    special_n_statistics,
    sup_norm_on_circle,
    transport_sequence,
    validate_leja,
)
from lejaflip import flip as flip_module
from lejaflip.core import binary_decompose
from lejaflip.flip import _boundary_stats, _Dyadic, _Flips, _log_node_weights, _scan, _unit_circle, default_grid
from lejaflip.transport import _scaled_boundary


def unit_rng_points(rng, count):
    return np.exp(2j * np.pi * rng.random(count))


def _points(z):
    """The identity curve: a kernel on it takes boundary points as its parameters, on coordinates."""
    return z


def nested_block_section(n, chooser):
    """A valid non-canonical section: each power-of-two block scaled by an
    admissible root of -1 picked by ``chooser(q, p_q)``."""
    exps = binary_decompose(n)
    pts = canonical_disk_leja(1 << exps[0]).points
    scale = 1.0 + 0j
    for q, p in enumerate(exps[1:], start=1):
        scale *= chooser(q, exps[q - 1])
        pts = np.concatenate([pts, scale * canonical_disk_leja(1 << p).points])
    return LejaSection(pts)


def omega0(points):
    """The root of -1 attached to a node set of odd size: minus the last block's c = exp(2 pi i g/2**s)."""
    d = _Dyadic.of(points)
    return -np.exp(2j * np.pi * d.blocks[-1][1] / (1 << d.s))


def _turning_chooser(q, p):
    """An admissible root of -1 per block of :func:`nested_block_section`, not the canonical one."""
    return np.exp(1j * np.pi * (2 * (q % (1 << p)) + 1) / (1 << p))


class TestFlipDirect:
    def test_node_value(self):
        pts = canonical_disk_leja(4).points
        assert flip_direct(pts, 1, pts[0]) == pytest.approx(1.0, abs=1e-14)

    def test_two_nodes_at_zero(self):
        assert flip_direct([1.0, -1.0], 1, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            flip_direct([1.0, 1.0, -1.0], 1, 0.3)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            flip_direct([1.0, -1.0], 3, 0.3)

    def test_roots_of_unity_modulus_identity(self):
        # |l_k| = (1/m) |z^m - 1| / |z - z_k| on the m-th roots of unity
        m = 16
        pts = np.exp(2j * np.pi * np.arange(m) / m)
        rng = np.random.default_rng(0)
        for z in unit_rng_points(rng, 20):
            for k in (1, 5, m):
                want = abs(z**m - 1) / abs(z - pts[k - 1]) / m
                assert abs(flip_direct(pts, k, z)) == pytest.approx(want, rel=1e-12)

    def test_kronecker_delta_many_sections(self):
        big = canonical_disk_leja(256).points
        rng = np.random.default_rng(7)
        for n in range(1, 33):
            pts = big[:n]
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    want = 1.0 if k == l else 0.0
                    assert abs(flip_direct(pts, k, pts[l - 1]) - want) <= 1e-10
        for n in (64, 100, 128, 200, 256):
            pts = big[:n]
            for k in rng.integers(1, n + 1, size=16):
                for l in range(1, n + 1):
                    want = 1.0 if k == l else 0.0
                    assert abs(flip_direct(pts, int(k), pts[l - 1]) - want) <= 1e-10

    def test_partition_of_unity(self):
        rng = np.random.default_rng(1)
        for n in (5, 12, 33, 64):
            pts = canonical_disk_leja(n).points
            for z in rng.normal(size=(16, 2)) @ np.array([1.0, 1j]) * 0.4:
                total = sum(flip_direct(pts, k, z) for k in range(1, n + 1))
                assert abs(total - 1.0) <= 1e-10


def block_flips(nodes, ts, ks):
    """|l_{ks[i]}(exp(i*ts[i]))| from the block-formula evaluator of a node set at dyadic angles."""
    flips = _Flips(np.asarray(nodes, dtype=complex))
    assert flips.dyadic is not None
    return flips.dyadic.own(np.asarray(ts, dtype=float), np.asarray(ks), flips.inv_w)


def allones_representative(p1, ell, y):
    """The paper's |l_k(z_k*y)| for a first-block node z_k of a section of length 2**(p1+1) - 1.

    w = exp(i*pi*(2*ell+1)/2**p1) is the node's label omega0/z_k:
    |1 - w| / 2**(p1+1) * |y**2**(p1+1) - 1| / (|y - 1| |y - w|).
    """
    w, m = np.exp(1j * np.pi * (2 * ell + 1) / 2**p1), 2 ** (p1 + 1)
    return abs(1.0 - w) / m * abs(y**m - 1.0) / (abs(y - 1.0) * abs(y - w))


class TestRootsOfUnityFlip:
    def test_node_value_via_series(self):
        # at its node the own block's quotient takes its limit 2**p, the power sum
        # sum_j z_k**(m-1-j) z**j at z = z_k
        pts = canonical_disk_leja(8).points
        assert block_flips(pts, [0.0], [0])[0] == pytest.approx(1.0, abs=1e-14)
        assert block_flips(pts, np.angle(pts), np.arange(8)) == pytest.approx(np.ones(8), abs=1e-14)

    def test_matches_direct(self):
        rng = np.random.default_rng(2)
        m = 32
        pts = np.exp(2j * np.pi * np.arange(m) / m)
        ts = rng.uniform(0.0, 2.0 * np.pi, 10)
        for k in (1, 7, 32):
            want = [abs(flip_direct(pts, k, np.exp(1j * t))) for t in ts]
            assert block_flips(pts, ts, np.full(10, k - 1)) == pytest.approx(want, rel=1e-11)


class TestStructured:
    def test_matches_direct_spot(self):
        # every node, the later blocks' too
        rng = np.random.default_rng(3)
        for n in (3, 5, 6, 7, 9, 12, 13, 100, 255):
            section = canonical_disk_leja(n)
            ts = rng.uniform(0.0, 2.0 * np.pi, 8)
            got = block_flips(section.points, np.repeat(ts, n), np.tile(np.arange(n), 8))
            direct = np.array([abs(flip_direct(section.points, k + 1, np.exp(1j * t))) for t in ts for k in range(n)])
            assert np.all(np.abs(direct - got) <= 1e-9 * np.maximum(1.0, direct) + 1e-12)

    def test_node_value(self):
        section = canonical_disk_leja(6)
        assert block_flips(section.points, [np.angle(section.points[1])], [1])[0] == pytest.approx(1.0, abs=1e-12)

    def test_non_canonical_sections(self):
        # block scalings other than the canonical ones still give valid
        # sections; the block factorization must follow the observed scalings
        rng = np.random.default_rng(8)

        for n in (6, 11, 13, 21, 44, 100):
            section = nested_block_section(n, _turning_chooser)
            assert validate_leja(section, circle_samples(64 * n)).max_violation <= 1e-9
            ts = rng.uniform(0.0, 2.0 * np.pi, 6)
            got = block_flips(section.points, np.repeat(ts, n), np.tile(np.arange(n), 6))  # recognised as dyadic
            want = [abs(flip_direct(section.points, k + 1, np.exp(1j * t))) for t in ts for k in range(n)]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestAllOnesBlock:
    # closed form cos(pi/2^(p1+2)) / (2^p1 sin(pi/2^(p1+2))) at z = z_k exp(i pi/2^(p1+1)),
    # where the label omega0/z_k of node k is exp(i pi/2^p1)
    @pytest.mark.parametrize("p1", [2, 4, 6])
    def test_closed_form(self, p1):
        y = np.exp(1j * np.pi / 2 ** (p1 + 1))
        want = math.cos(math.pi / 2 ** (p1 + 2)) / (2**p1 * math.sin(math.pi / 2 ** (p1 + 2)))
        assert allones_representative(p1, 0, y) == pytest.approx(want, rel=1e-12)
        section = canonical_disk_leja(2 ** (p1 + 1) - 1)
        k = int(np.argmin(np.abs(section.points - omega0(section.points) / np.exp(1j * np.pi / 2**p1))))
        got = block_flips(section.points, [np.angle(section.points[k]) + np.pi / 2 ** (p1 + 1)], [k])[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_is_a_flip_modulus_after_rotation(self):
        # |l_k(z_k * y)| of the section of length 2^(p1+1)-1 equals the
        # representative evaluated at y, where omega0 / z_k picks the label
        p1 = 3
        n = 2 ** (p1 + 1) - 1
        section = canonical_disk_leja(n)
        omega = omega0(section.points)
        rng = np.random.default_rng(4)
        for k in range(1, 2**p1 + 1):
            ratio = omega / section.points[k - 1]
            ell = int(round((np.angle(ratio) / np.pi * 2**p1 - 1) / 2)) % 2**p1
            for y in unit_rng_points(rng, 4):
                lhs = abs(flip_direct(section.points, k, section.points[k - 1] * y))
                rhs = allones_representative(p1, ell, y)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
                t = np.angle(section.points[k - 1]) + np.angle(y)
                assert block_flips(section.points, [t], [k - 1])[0] == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestBlockEvaluator:
    """The per-node refinement probes of a node set at dyadic angles: popcount(N) + 2 sines per point."""

    @pytest.mark.parametrize("name", ["canonical-255", "canonical-4095", "turned-255"])
    def test_matches_40_digit_values(self, name):
        # the exact dyadic node set's FLIPs; at a refined argmax the angle's rounding
        # does not move |l_k| to first order, while at a random angle t, where it does by
        # up to N ulps, the reference point is the evaluator's: exp(2*pi*i*u), u = t/(2*pi)
        # rounded once
        kind, n = name.split("-")
        n = int(n)
        section = canonical_disk_leja(n) if kind == "canonical" else nested_block_section(n, _turning_chooser)
        nodes = section.points
        flips = _Flips(nodes)
        dy = flips.dyadic
        assert dy is not None
        probed = np.array([0, 1, n // 3, n - 1])  # node n - 1 is a block of one
        _, node_arg, _ = _boundary_stats(nodes, _unit_circle, np.angle(nodes), None, 40, probed)
        ts = np.concatenate([node_arg[probed], np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, 2 * probed.size)])
        ks = np.tile(probed, 3)
        got = dy.own(ts, ks, flips.inv_w)
        with mpmath.workdps(40):
            exact = [mpmath.expjpi(mpmath.mpf(2 * int(m)) / (1 << dy.s)) for m in dy.m]
            for i, (t, k) in enumerate(zip(ts, ks)):
                at = mpmath.expj(t) if i < probed.size else mpmath.expjpi(2 * mpmath.mpf(t / (2.0 * np.pi)))
                want = mpmath.fprod(abs(at - o) / abs(exact[k] - o) for j, o in enumerate(exact) if j != k)
                assert got[i] == pytest.approx(float(want), rel=1e-13, abs=0.0), (i, k)

    def test_node_values(self):
        # each FLIP is 1 at its own node, through the quotient's limit, and vanishes
        # at the others to the rounding of the angle; no RuntimeWarning at d = 0
        for nodes in (
            canonical_disk_leja(3).points,
            canonical_disk_leja(100).points,
            nested_block_section(44, _turning_chooser).points,
        ):
            n = nodes.size
            own = block_flips(nodes, np.angle(nodes), np.arange(n))
            assert own == pytest.approx(np.ones(n), abs=1e-13)
            for step in (-1e-12, 1e-12):  # tiny turns on either side keep their relative accuracy
                assert block_flips(nodes, np.angle(nodes) + step, np.arange(n)) == pytest.approx(np.ones(n), abs=1e-9)
            others = block_flips(nodes, np.repeat(np.angle(nodes), n), np.tile(np.arange(n), n))
            others[:: n + 1] = 0.0
            assert others.max() <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_angles(self, bad):
        flips = _Flips(canonical_disk_leja(13).points)
        with pytest.raises(ValueError, match="FLIP moduli leave double range"):
            flips.dyadic.own(np.array([0.5, bad]), np.array([0, 1]), flips.inv_w)

    def test_huge_angles_stay_in_range(self):
        # whole turns are taken off before any power of two multiplies the turn, so nothing overflows
        got = block_flips(canonical_disk_leja(37).points, [1e300, -1e300, 2.0**60], [0, 36, 5])
        assert np.all((got >= 0.0) & (got <= UNIFORM_FLIP_BOUND))

    def test_probes_take_the_block_formula_exactly_when_dyadic(self, monkeypatch):
        taken = []
        tile_own, block_own = _Flips.own, _Dyadic.own
        monkeypatch.setattr(_Flips, "own", lambda self, *a: taken.append("tile") or tile_own(self, *a))
        monkeypatch.setattr(_Dyadic, "own", lambda self, *a: taken.append("block") or block_own(self, *a))
        cases = {
            "canonical-7": (canonical_disk_leja(7).points, "block"),  # N < 32: a tile scan, block probes
            "canonical-100": (canonical_disk_leja(100).points, "block"),
            "turned-21": (nested_block_section(21, _turning_chooser).points, "block"),
            "rotated-100": (canonical_disk_leja(100, np.exp(0.3j)).points, "tile"),
            "random-20": (unit_rng_points(np.random.default_rng(6), 20), "tile"),
        }
        for name, (nodes, probe) in cases.items():
            taken.clear()
            circle_flip_stats(nodes, per_node_refine=True)
            assert set(taken) == {probe}, name
        taken.clear()
        ts = transport_sequence(ellipse_exterior_map(1.2, 0.8), canonical_disk_leja(16))
        compact_flip_stats(ts)
        assert set(taken) == {"tile"}


class TestSupNorm:
    def test_constant_polynomial(self):
        est = sup_norm_on_circle([1.0 + 0j], 1)
        assert est.value == 1.0

    def test_roots_of_unity_sup_is_one(self):
        for p in (2, 5):
            section = canonical_disk_leja(2**p)
            for k in (1, 2**p):
                est = sup_norm_on_circle(section, k)
                assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_small_section_below_uniform_bound(self):
        est = sup_norm_on_circle(canonical_disk_leja(3), 1)
        assert 1.0 <= est.value <= UNIFORM_FLIP_BOUND

    def test_value_matches_argmax(self):
        section = canonical_disk_leja(13)
        for k in (1, 4, 8):
            est = sup_norm_on_circle(section, k)
            at_arg = abs(flip_direct(section.points, k, np.exp(1j * est.argmax_angle)))
            assert est.value >= at_arg - 1e-12
            assert est.value == pytest.approx(at_arg, rel=1e-9)

    def test_greedy_sections_bounded(self):
        rng = np.random.default_rng(5)
        sizes = np.unique(np.geomspace(2, 512, 50).astype(int))
        for n in sizes:
            boundary = circle_samples(64 * int(n))
            seed = int(rng.integers(0, boundary.samples.size))
            section = greedy_leja(boundary, int(n), seed)
            sups, _ = circle_flip_stats(section, refine_iters=0)
            assert sups.max() <= UNIFORM_FLIP_BOUND + 1e-6


class TestLebesgue:
    def test_single_node(self):
        assert lebesgue_constant([1.0 + 0j]).constant == 1.0

    def test_roots_of_unity_bounds(self):
        for p in (2, 4, 6):
            rep = lebesgue_constant(canonical_disk_leja(2**p))
            assert 1.0 <= rep.constant <= float(np.sum(rep.per_node_sup)) + 1e-9
            assert float(np.sum(rep.per_node_sup)) == pytest.approx(2**p, rel=1e-6)

    def test_special_identity_p3(self):
        rep = lebesgue_constant(canonical_disk_leja(7))
        assert rep.constant == pytest.approx(7.0, rel=1e-6)

    def test_triangle_inequality(self):
        for n in (5, 9, 31):
            rep = lebesgue_constant(canonical_disk_leja(n))
            assert rep.constant <= float(np.sum(rep.per_node_sup)) + 1e-9
            assert rep.constant <= 2.0 * n + 1e-6


class TestSpecialN:
    def test_p2_window(self):
        stats = special_n_statistics(2)
        assert stats.sum_sup > 3.0
        assert stats.max_sup <= 2.0 + 1e-6

    def test_p4_lower_bound(self):
        stats = special_n_statistics(4)
        assert stats.max_sup >= 4.0 * math.cos(math.pi / 8) / math.pi - 1e-6

    def test_avg_trend(self):
        assert special_n_statistics(8).avg_sup < special_n_statistics(4).avg_sup

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            special_n_statistics(1)

    @pytest.mark.parametrize("p", range(2, 12))
    def test_max_sup_is_the_closed_form(self, p):
        # c05's closed form cos(x) / (2**(p-1) sin x), x = pi/2**(p+1), attained by the first block
        x = math.pi / 2 ** (p + 1)
        closed_form = math.cos(x) / (2 ** (p - 1) * math.sin(x))
        assert special_n_statistics(p).max_sup == pytest.approx(closed_form, rel=1e-13, abs=0.0)

    def test_lebesgue_matches_plain_scan(self):
        # per-node refinement does not touch the Lebesgue maximum
        _, report = circle_flip_stats(canonical_disk_leja(15))
        assert special_n_statistics(4).lebesgue == report.constant


class TestRefusesVacuousScans:
    @pytest.mark.parametrize("grid", [0, -3])
    def test_grid_below_one(self, grid):
        section = canonical_disk_leja(6)
        with pytest.raises(ValueError):
            circle_flip_stats(section, coarse_grid=grid)
        with pytest.raises(ValueError):
            sup_norm_on_circle(section, 1, coarse_grid=grid)

    def test_grid_that_cannot_resolve_degree_n_minus_1(self):
        # 6 nodes: degree 5 needs more than 5 pi angles; 16 is the first grid that passes
        section = canonical_disk_leja(6)
        with pytest.raises(ValueError, match="degree 5"):
            circle_flip_stats(section, coarse_grid=15)
        with pytest.raises(ValueError, match="degree 5"):
            sup_norm_on_circle(section, 1, coarse_grid=15)
        assert circle_flip_stats(section, coarse_grid=16)[1].constant >= 1.0

    def test_nan_moduli_raise(self):
        # 1e200 * disk points: the squared distances overflow and used to give
        # NaN moduli, which the floor at 1 would report as a passing sup; at
        # 1e-200 every sup was inf.  Both node sets leave the kernel's range.
        disk = np.sqrt(np.random.default_rng(20).random(20)) * unit_rng_points(np.random.default_rng(21), 20)
        for scale in (1e200, 1e-200):
            for per_node_refine in (False, True):
                with pytest.raises(ValueError, match="double range"):
                    circle_flip_stats(scale * disk, refine_iters=0, per_node_refine=per_node_refine)
            with pytest.raises(ValueError, match="double range"):
                sup_norm_on_circle(scale * disk, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan), complex(-np.inf, 1.0)])
    def test_non_finite_nodes_and_points_are_refused(self, bad):
        # the kernel refuses them before any maximum is taken, so no NaN reaches a report
        nodes = canonical_disk_leja(8).points
        wrong = nodes.copy()
        wrong[3] = bad
        with pytest.raises(ValueError, match="node weights leave double range"):
            circle_flip_stats(wrong, refine_iters=0)
        with pytest.raises(ValueError, match="node weights leave double range"):
            sup_norm_on_circle(wrong, 2)
        curve = lambda t: np.where(t > 3.0, bad, _unit_circle(t))  # noqa: E731
        for per_node_refine in (False, True):
            with pytest.raises(ValueError, match="FLIP moduli leave double range"):
                _boundary_stats(nodes, curve, np.angle(nodes), None, 0, np.arange(8 if per_node_refine else 0))
        with np.errstate(all="ignore"):
            probes = [(_Flips(nodes, _points), 1j, complex(bad))]  # points; angles on the circle
            probes += [(_Flips(nodes), 0.5, t) for t in (np.nan, np.inf, -np.inf)]
            for flips, good, t in probes:
                with pytest.raises(ValueError, match="FLIP moduli leave double range"):
                    flips.lebesgue_at(t)
                with pytest.raises(ValueError, match="FLIP moduli leave double range"):
                    flips.own(np.array([good, t]), np.array([0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0), complex(-np.inf, 1.0)])
    def test_non_finite_circle_nodes_warn_nothing(self, bad):
        # a non-finite node has no dyadic angle: the circle kernel refuses it without a RuntimeWarning
        nodes = canonical_disk_leja(64).points.copy()
        nodes[5] = bad
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="node weights leave double range"):
                _Flips(nodes)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowed_products_are_refused(self):
        # node weights in range, but 1e200 away the squared distances overflow
        nodes = canonical_disk_leja(8).points
        far = lambda t: 1e200 * _unit_circle(t)  # noqa: E731
        with pytest.raises(ValueError, match="FLIP moduli leave double range"):
            _boundary_stats(nodes, far, np.angle(nodes), None, 0, np.arange(0))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="FLIP moduli leave double range"):
            _Flips(nodes, far).own(np.array([0.1, 0.2]), np.array([0, 1]))

    def test_negative_refine(self):
        section = canonical_disk_leja(6)
        with pytest.raises(ValueError):
            circle_flip_stats(section, refine_iters=-5)
        with pytest.raises(ValueError):
            sup_norm_on_circle(section, 1, refine_iters=-1)


def _assert_refused(nodes):
    """The kernel refuses a node set whose log-weights leave (-280, 280), and reports nothing for it."""
    with pytest.raises(ValueError, match="node weights leave double range"):
        _Flips(nodes)


def _conjugate_symmetric(rng, n):
    """n unit nodes in conjugate pairs, with 1 or -1 when n is odd: each |l_k| has a mirror twin."""
    ang = rng.uniform(0.05, np.pi - 0.05, n // 2)
    nodes = np.concatenate([np.exp(1j * ang), np.exp(-1j * ang)])
    return np.append(nodes, 1.0 if rng.random() < 0.5 else -1.0) if n % 2 else nodes


def _conjugate_tie_case():
    """The 2228th conjugate-symmetric draw from seed 0: N = 63 on 2768 angles.

    Node 62 (-1) attains 592.1634307521864 at the mirror points 824 and 1944,
    which lie in different runs of the default tile.  Its unweighted entry is
    larger at 1944, while the weighted moduli round equal.
    """
    rng = np.random.default_rng(0)
    for _ in range(2228):
        nodes = _conjugate_symmetric(rng, int(rng.integers(8, 80)))
        grid = int(rng.integers(max(64, 16 * nodes.size), 64 * nodes.size + 1))
        if rng.random() < 0.5:
            grid -= grid % 2
    return nodes, grid


def _scan_case(name):
    """Nodes, boundary curve, node parameters and scan grid of a named case."""
    if name == "canonical-256":  # every node lies on the grid
        nodes = canonical_disk_leja(256).points
        return nodes, _unit_circle, np.angle(nodes), default_grid(256)
    if name == "single-node":  # |l_1| = 1: every grid point ties
        nodes = np.exp(1j * np.array([0.3]))
        return nodes, _unit_circle, np.angle(nodes), default_grid(1)
    if name == "single-node-on-grid":  # every grid point ties, the node's own one too
        grid = default_grid(1)
        nodes = _unit_circle(2.0 * np.pi * np.array([1000]) / grid)
        return nodes, _unit_circle, np.angle(nodes), grid
    if name == "random-100":
        nodes = unit_rng_points(np.random.default_rng(9), 100)
        return nodes, _unit_circle, np.angle(nodes), default_grid(100)
    if name == "ellipse-30x1-128":  # unscaled: node log-weights near 350, which the kernel refuses
        ts = transport_sequence(ellipse_exterior_map(30.0, 1.0), canonical_disk_leja(128))
        return ts.images, ts.map.on_circle, np.angle(ts.source.points), default_grid(128)
    if name == "conjugate-tie-63":
        nodes, grid = _conjugate_tie_case()
        return nodes, _unit_circle, np.angle(nodes), grid
    # scaled to capacity about 1; a grid above pi*(N-1)
    # keeps the one-tile scan small
    return (*_scaled_boundary(transport_sequence(ellipse_exterior_map(30.0, 1.0), canonical_disk_leja(1024))), 4096)


class TestScanEngine:
    @pytest.mark.parametrize(
        "name",
        [
            "canonical-256",
            "single-node",
            "single-node-on-grid",
            "random-100",
            "ellipse-30x1-128",
            "scaled-ellipse-30x1-1024",
            "conjugate-tie-63",
        ],
    )
    def test_independent_of_tile_width(self, name, monkeypatch):
        nodes, curve, _, grid = _scan_case(name)
        if name == "ellipse-30x1-128":
            return _assert_refused(nodes)
        base = _scan(_Flips(nodes, curve), grid)
        refined = sup_norm_on_circle(nodes, nodes.size, grid).argmax_angle if curve is _unit_circle else None
        for tile in (64, 1 << 16, grid * nodes.size):  # 64-point tiles; the default; one tile for the whole grid
            monkeypatch.setattr(flip_module, "_TILE", tile)
            got = _scan(_Flips(nodes, curve), grid)
            for want, have in zip(base, got):
                assert np.array_equal(want, have)
            if refined is not None:  # the golden refinement starts from the grid argmax
                assert sup_norm_on_circle(nodes, nodes.size, grid).argmax_angle == refined
        if name == "conjugate-tie-63":  # the first grid point of the largest unweighted entry
            assert base[0][62] == 592.1634307521864 and base[1][62] == 2.0 * np.pi * 1944 / grid
        if name == "canonical-256":
            # roots of unity: each FLIP peaks at its own node, a hit column
            assert np.all(base[0] == 1.0)
            assert np.allclose(np.exp(1j * base[1]), nodes, atol=1e-12)
        if name.startswith("single-node"):  # ties go to the smallest angle, even past the node's own
            assert base[0][0] == 1.0 and base[1][0] == 0.0 and base[3] == 0.0

    def test_scaled_scan_matches_log_domain_scan(self):
        # the thin ellipse at N=1024: unscaled, its node weights reach e^2800
        # and are refused; scaled by 1/16, the scan agrees with the log-domain
        # oracle at every grid point
        ts = transport_sequence(ellipse_exterior_map(30.0, 1.0), canonical_disk_leja(1024))
        nodes, curve, _ = _scaled_boundary(ts)
        _assert_refused(ts.images)
        node_max, node_arg, leb_max, leb_arg = _scan(_Flips(nodes, curve), 4096)
        ang = 2.0 * np.pi * np.arange(4096) / 4096
        want_max, want_leb = np.zeros(nodes.size), np.zeros(4096)
        for j in range(0, 4096, 256):
            vals = _abs_flip_matrix_log(nodes, curve(ang[j : j + 256]))
            np.maximum(want_max, vals.max(axis=0), out=want_max)
            want_leb[j : j + 256] = vals.sum(axis=1)
        assert np.allclose(node_max, want_max, rtol=1e-11, atol=0.0)
        assert leb_max == pytest.approx(want_leb.max(), rel=1e-11)
        # each reported parameter is a grid point where the oracle attains the maximum
        at_arg = _abs_flips_at_points_log(nodes, curve(node_arg), np.arange(nodes.size))
        assert np.allclose(at_arg, node_max, rtol=1e-11, atol=0.0)
        assert want_leb[int(np.rint(leb_arg / (2.0 * np.pi) * 4096))] == pytest.approx(leb_max, rel=1e-11)

    @pytest.mark.parametrize("a", [100.0, 300.0])
    def test_thinner_ellipses_run_on_the_exact_capacity(self, a):
        # the power of two nearest 1/c1 would leave log-weights near -475 (100x1)
        # and 340 (300x1) at N = 2048; divided by c1 they stay in range
        ts = transport_sequence(ellipse_exterior_map(a, 1.0), canonical_disk_leja(2048))
        nodes, curve, _ = _scaled_boundary(ts)
        rng = np.random.default_rng(int(a))
        ts = rng.uniform(0.0, 2.0 * np.pi, 256)
        ks = rng.integers(0, nodes.size, 256)
        with np.errstate(all="ignore"):
            got = _Flips(nodes, curve).own(ts, ks)
        assert np.allclose(got, _abs_flips_at_points_log(nodes, curve(ts), ks), rtol=1e-10, atol=0.0)


def _whole_set_scan(flips, grid):
    """The scan as it was before it streamed its grid in chunks: the planes of the
    whole grid at once, its hits by brute force, and the running maxima with their
    angles and the Lebesgue maximum updated after every tile.  A node's maximum
    is taken unweighted, the tile's values-plane entry, so its angle is the first
    grid point of its largest entry, and weighted once at the end."""
    ang = 2.0 * np.pi * np.arange(grid) / grid
    bpts = flips.curve(ang)
    cuts = [*range(0, grid, flips.width), grid]
    planes = np.ones((2, 2, grid))
    planes[:, 0] = bpts.real, bpts.imag
    hit_j, hit_k = np.nonzero(bpts[:, None] == flips.nodes[None, :])
    edges = np.searchsorted(hit_j, cuts)
    rows = np.arange(flips.n)
    node_top = np.zeros(flips.n)
    node_arg = np.zeros(flips.n)
    leb_max, leb_arg = 0.0, 0.0
    with np.errstate(all="ignore"):
        for start, stop, i, j in zip(cuts, cuts[1:], edges, edges[1:]):
            vals, sums = flips.tile(planes[..., start:stop], hit_j[i:j] - start)
            arg = vals.argmax(axis=1)
            cand = vals[rows, arg]
            upd = cand > node_top
            node_top[upd] = cand[upd]
            node_arg[upd] = ang[start + arg[upd]]
            m = int(np.argmax(sums))
            if sums[m] > leb_max:
                leb_max, leb_arg = float(sums[m]), float(ang[start + m])
    node_max = node_top * flips.inv_w
    first = (node_max[hit_k] < 1.0) | ((node_max[hit_k] == 1.0) & (ang[hit_j] < node_arg[hit_k]))
    node_max[hit_k[first]] = 1.0
    node_arg[hit_k[first]] = ang[hit_j[first]]
    return node_max, node_arg, leb_max, leb_arg


def _stream_case(name):
    """Nodes, curve, node parameters and grid of a streamed-scan case."""
    if name in ("canonical-256", "random-100", "ellipse-30x1-128", "single-node", "conjugate-tie-63"):
        return _scan_case(name)
    if name == "scaled-ellipse-30x1-1024":  # 64-point runs, two chunks
        return (*_scan_case(name)[:3], 1 << 14)
    if name == "mid-cell-ellipse-30x1-65":
        # twin Lebesgue maxima at t and -t, on 4174 = 2 mod 4 angles: one lies mid-cell, the
        # other on a coarse point; a cell bound four times too small (degree (N - 1)/2, which
        # holds on the circle but not on an ellipse) skips the first one's cell
        section = canonical_disk_leja(65)
        return (*_scaled_boundary(transport_sequence(ellipse_exterior_map(30.0, 1.0), section)), 4174)
    if name.startswith("default-"):  # default grids and more: the scan samples every r-th point first, r > 1
        if name == "default-rotated-256":
            nodes = canonical_disk_leja(256, np.exp(0.3j)).points
            return nodes, _unit_circle, np.angle(nodes), default_grid(256)
        if name == "default-random-100-4x":
            nodes = _scan_case("random-100")[0]
            return nodes, _unit_circle, np.angle(nodes), 4 * default_grid(100)
        a, b, n = {"default-ellipse-30x1-256": (30.0, 1.0, 256), "default-ellipse-1.2x0.8-128": (1.2, 0.8, 128)}[name]
        return (*_scaled_boundary(transport_sequence(ellipse_exterior_map(a, b), canonical_disk_leja(n))), default_grid(n))
    if name == "late-off-circle":  # a custom curve, on the circle in the first chunks only
        nodes = _scan_case("random-100")[0]
        return nodes, lambda t: _unit_circle(t) * np.where(t > 5.0, 1.0 + 1e-9, 1.0), np.angle(nodes), 1 << 14
    # 1024-point runs and a one-point run, which takes gemv: at 8193 it is a chunk
    # of its own, at 9217 it ends the second chunk
    nodes = canonical_disk_leja(64).points
    return nodes, _unit_circle, np.angle(nodes), int(name.split("-")[1])


def _count_columns(monkeypatch):
    """Record the points (N-entry columns) of every :meth:`_Flips.tile` and :meth:`_Flips._own_tile` call."""
    columns = []
    for name in ("tile", "_own_tile"):
        real = getattr(_Flips, name)

        def spy(self, planes, *rest, _real=real):
            columns.append(planes.shape[-1])
            return _real(self, planes, *rest)

        monkeypatch.setattr(_Flips, name, spy)
    return columns


class TestStreamedScan:
    """The scan holds one chunk of its grid at a time and still gives the whole-set scan's numbers."""

    @pytest.mark.parametrize(
        "name",
        [
            "canonical-256",
            "scaled-ellipse-30x1-1024",
            "random-100",
            "ellipse-30x1-128",
            "single-node",
            "grid-8193",
            "grid-9217",
            "late-off-circle",
            "default-ellipse-30x1-256",
            "default-ellipse-1.2x0.8-128",
            "default-rotated-256",
            "default-random-100-4x",
            "mid-cell-ellipse-30x1-65",
            "conjugate-tie-63",
        ],
    )
    def test_matches_the_whole_set_scan(self, name, monkeypatch):
        nodes, curve, _, grid = _stream_case(name)
        if name == "ellipse-30x1-128":
            return _assert_refused(nodes)
        flips = _Flips(nodes, curve)
        want = _whole_set_scan(flips, grid)
        for chunk in (1, 1 << 13, 1 << 30):  # one run per chunk; the default; one chunk for the whole grid
            monkeypatch.setattr(flip_module, "_CHUNK", chunk)
            got = _scan(flips, grid)
            for w, g in zip(want, got):
                assert np.array_equal(w, g)
            if name == "conjugate-tie-63":  # a tie across runs: the larger unweighted entry's point
                assert got[1][62] == 2.0 * np.pi * 1944 / grid
        ang = 2.0 * np.pi * np.arange(grid) / grid
        hits = {"canonical-256": 256, "scaled-ellipse-30x1-1024": 1024, "default-ellipse-30x1-256": 256}
        hits.update({"default-ellipse-1.2x0.8-128": 128, "mid-cell-ellipse-30x1-65": 2})  # t = 0 and pi
        assert np.isin(curve(ang), nodes).sum() == hits.get(name, 1 if name.startswith("grid") else 0)
        # every N-entry column the tile and the own tile take: below one per grid point, the
        # whole scan, wherever the grid has more than 16 points per node and 2**18 elements
        columns = _count_columns(monkeypatch)
        monkeypatch.setattr(flip_module, "_CHUNK", 1 << 13)
        _scan(flips, grid)
        assert (sum(columns) < grid) == (name not in ("single-node", "conjugate-tie-63")), sum(columns)

    @pytest.mark.parametrize("name", ["circle", "scaled-ellipse-30x1"])
    def test_peak_memory_does_not_grow_with_the_grid(self, name):
        section = canonical_disk_leja(64)
        if name == "circle":
            nodes, curve = section.points, _unit_circle
        else:
            nodes, curve, _ = _scaled_boundary(transport_sequence(ellipse_exterior_map(30.0, 1.0), section))
        flips = _Flips(nodes, curve)
        peaks = []
        for grid in (1 << 14, 1 << 18):  # a whole-grid point set would take 16 MB more at 2^18
            tracemalloc.start()
            try:
                _scan(flips, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1e6


def _fuzz_case(rng):
    """Random unit, conjugate-symmetric or scaled-ellipse nodes (N = 8..32), their curve and a grid.

    The grid has 4N..96N angles, or in a quarter of the draws lies just past
    2**18 grid x node elements, where the scan runs coarse to fine.
    """
    n, kind = int(rng.integers(8, 33)), int(rng.integers(3))
    lo, hi = ((1 << 18) // n + 1, (1 << 18) // n + 32 * n) if rng.random() < 0.25 else (4 * n, 96 * n)
    grid = int(rng.integers(lo, hi + 1))
    if kind == 0:
        return unit_rng_points(rng, n), _unit_circle, grid
    if kind == 1:
        return _conjugate_symmetric(rng, n), _unit_circle, grid
    mp = ellipse_exterior_map(1.0, float(rng.uniform(0.2, 0.98)))
    return *_scaled_boundary(transport_sequence(mp, LejaSection(unit_rng_points(rng, n))))[:2], grid


class TestScanLayouts:
    """Seeded draws: node maxima and their angles do not depend on the tile width or the chunk size."""

    @pytest.mark.parametrize("draws", [200, pytest.param(20000, marks=pytest.mark.slow)])
    def test_random_scans_agree_across_layouts(self, draws, monkeypatch):
        rng = np.random.default_rng(29)
        for _ in range(draws):
            nodes, curve, grid = _fuzz_case(rng)
            first = None
            for tile in (64, 1 << 16):
                monkeypatch.setattr(flip_module, "_TILE", tile)
                flips = _Flips(nodes, curve)
                want = _whole_set_scan(flips, grid)
                first = first or want[:2]
                assert np.array_equal(want[0], first[0]) and np.array_equal(want[1], first[1])
                for chunk in (1, 1 << 13):  # the Lebesgue maximum follows the tile width's gemv layout only
                    monkeypatch.setattr(flip_module, "_CHUNK", chunk)
                    for w, g in zip(want, _scan(flips, grid)):
                        assert np.array_equal(w, g)


def _hit_cases():
    """Node sets and their scan grids: canonical sections, random unit nodes, and the 30x1 ellipse."""
    for n in (1, 3, 64, 255, 256):
        yield f"canonical-{n}", canonical_disk_leja(n).points, _unit_circle, default_grid(n)
    yield "random-100", *_scan_case("random-100")[:2], 4096
    ts = transport_sequence(ellipse_exterior_map(30.0, 1.0), canonical_disk_leja(128))
    yield "ellipse-30x1-128", ts.images, ts.map.on_circle, default_grid(128)
    nodes, curve, _ = _scaled_boundary(ts)
    yield "scaled-ellipse-30x1-128", nodes, curve, default_grid(128)


def _angle_cases():
    """Unit node sets for circle scan chunks: canonical sections, a rotated one, and random nodes."""
    for n in (1, 2, 3, 64, 255, 256, 257):
        yield f"canonical-{n}", canonical_disk_leja(n).points
    yield "rotated-256", canonical_disk_leja(256, np.exp(0.3j)).points
    yield "random-100", unit_rng_points(np.random.default_rng(23), 100)


class TestHitLookup:
    """Exact node hits come from one lookup per point set, and each run gets its slice."""

    @staticmethod
    def _check(flips, ts):
        pts = np.reshape(flips.curve(ts), -1)
        want_j, want_k = np.nonzero(pts[:, None] == flips.nodes[None, :])  # brute force, in increasing j
        hit_k, hit_j, runs = flips._runs(ts)
        assert np.array_equal(hit_j, want_j) and np.array_equal(hit_k, want_k)
        run_k = np.concatenate([run_hit_k for _, _, run_hit_k, _ in runs])
        run_j = np.concatenate([start + run_hit_j for start, _, _, run_hit_j in runs])
        assert np.array_equal(run_j, want_j) and np.array_equal(run_k, want_k)
        for start, _, run_hit_k, run_hit_j in runs:
            assert np.all(pts[start + run_hit_j] == flips.nodes[run_hit_k])
        return hit_j.size

    @pytest.mark.parametrize("case", list(_hit_cases()), ids=lambda case: case[0])
    def test_hits_equal_brute_force(self, case, monkeypatch):
        name, nodes, curve, grid = case
        if name == "ellipse-30x1-128":
            return _assert_refused(nodes)
        monkeypatch.setattr(flip_module, "_TILE", 64 * nodes.size)  # many tiles
        flips = _Flips(nodes, curve)
        ang = 2.0 * np.pi * np.arange(grid) / grid
        found = sum(self._check(flips, ang[lo : lo + 997]) for lo in range(0, grid, 997))  # scan chunks
        assert self._check(flips, ang) == found
        for j in flips._runs(ang)[1]:  # one-point chunks
            assert self._check(flips, ang[j : j + 1]) == 1
        if name in ("canonical-1", "canonical-64", "canonical-256"):  # roots of unity on the 64N grid
            assert found == nodes.size
        # probe point sets: hits in the first and in later tiles, and one-point runs
        flips = _Flips(nodes, _points)
        rng = np.random.default_rng(nodes.size)
        pts = curve(rng.uniform(0.0, 2.0 * np.pi, 300))
        where = rng.choice(300, size=min(40, nodes.size), replace=False)
        pts[where] = nodes[rng.choice(nodes.size, size=where.size, replace=False)]
        pts[-1] = nodes[-1]
        assert self._check(flips, pts) == where.size + (299 not in where)
        for k in (0, nodes.size - 1):
            assert self._check(flips, nodes[[k]]) == 1
        assert self._check(flips, curve(np.array([0.1234]))) == 0

    @pytest.mark.parametrize("grid", [None, 8193, 9217])  # None: the default grid
    @pytest.mark.parametrize("case", list(_angle_cases()), ids=lambda case: case[0])
    def test_angle_lookup_equals_brute_force(self, case, grid):
        # each circle scan chunk finds exactly the grid points whose exp(1j*t)
        # is a node, whatever the chunking
        name, nodes = case
        grid = grid or default_grid(nodes.size)
        ang = 2.0 * np.pi * np.arange(grid) / grid
        if name == "random-100":  # twelve nodes on grid points, the first and the last among them
            nodes = nodes.copy()
            nodes[:12] = np.exp(1j * ang[[0, grid - 1, *np.random.default_rng(grid).choice(grid, 10, replace=False)]])
        flips = _Flips(nodes)
        want_j, want_k = np.nonzero(np.exp(1j * ang)[:, None] == nodes[None, :])
        assert want_j.size >= {"rotated-256": 0, "random-100": 12}.get(name, 1)  # canonical: node 1 at t = 0
        for step in (grid, 1 << 13, 997, 7):
            got = [flips._runs(ang[lo : lo + step])[:2] for lo in range(0, grid, step)]
            assert np.array_equal(np.concatenate([k for k, _ in got]), want_k)
            assert np.array_equal(np.concatenate([lo + j for lo, (_, j) in zip(range(0, grid, step), got)]), want_j)
        for j, k in zip(want_j, want_k):  # one-point chunks
            hit_k, hit_j, _ = flips._runs(ang[j : j + 1])
            assert hit_k.tolist() == [k] and hit_j.tolist() == [0]

    def test_underflowed_distance_is_refused(self):
        # |b - eta_1|^2 underflows to 0 although b != eta_1: the node weights
        # are in range, but the tile's distance product is not above 1e-280.
        # The one-point probe takes |b - eta_1| = 1e-200 by complex abs, unsquared,
        # so it has a value there
        nodes = np.array([1e-200, 1.0, -1.0, 0.5j], dtype=complex)
        b = np.full(4, 2e-200 + 0j)
        flips = _Flips(nodes, _points)
        assert flips._runs(b)[1].size == 0
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="double range"):
                flips.own(b, np.arange(4))
            with pytest.raises(ValueError, match="double range"):
                _scan(_Flips(nodes, lambda t: np.full(t.size, 2e-200 + 0j)), 16)
            leb = flips.lebesgue_at(b[0])
        assert leb == pytest.approx(_abs_flips_at_points_log(nodes, b, np.arange(4)).sum(), rel=1e-12)


class TestNodeWeights:
    @pytest.mark.parametrize("tile", [64, 1 << 16])
    def test_row_blocks_match_the_whole_matrix(self, tile, monkeypatch):
        monkeypatch.setattr(flip_module, "_TILE", tile)
        canonical = canonical_disk_leja(700).points
        for nodes in (canonical, _scan_case("random-100")[0]):
            d = np.abs(nodes[:, None] - nodes[None, :])
            np.fill_diagonal(d, 1.0)
            assert np.array_equal(_log_node_weights(nodes), np.log(d).sum(axis=1))
        with pytest.raises(ValueError, match="distinct"):
            _log_node_weights(np.append(canonical, canonical[600]))  # the pair sits in two row blocks

    def test_peak_memory_far_below_one_n_by_n_array(self):
        nodes = canonical_disk_leja(2048).points  # one 2048 x 2048 complex array takes 67 MB
        tracemalloc.start()
        try:
            _Flips(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestFrontEnds:
    """One coordinate front end serves every boundary; the dyadic structure is the unit circle's alone."""

    def test_other_nodes_and_points_take_coordinates(self):
        rng = np.random.default_rng(11)
        unit = canonical_disk_leja(37).points
        assert _Flips(unit).dyadic is not None
        for nodes in (0.9 * rng.random(50) * unit_rng_points(rng, 50), unit * (1.0 + 1e-9)):
            assert _Flips(nodes).dyadic is None
        assert _Flips(unit, lambda t: _unit_circle(t)).dyadic is None  # the circle, but not as the kernel knows it
        for a, b, n in ((1.2, 0.8, 64), (30.0, 1.0, 128), (30.0, 1.0, 1024), (1.0, 1.0, 37)):
            ts = transport_sequence(ellipse_exterior_map(a, b), canonical_disk_leja(n))
            nodes, curve, _ = _scaled_boundary(ts)
            assert _Flips(nodes, curve).dyadic is None
            if a == 30.0:  # unscaled, the thin ellipse's node weights leave the kernel's range
                _assert_refused(ts.images)
            else:
                assert _Flips(ts.images, ts.map.on_circle).dyadic is None

    @pytest.mark.parametrize("turn", [0.0, 0.1234])  # nodes on the default grid, and nodes rotated off it
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 64, 255, 256])
    def test_polar_scan_matches_coordinate_scan(self, n, turn):
        # the circle in polar form, exp(it) as the kernel knows it, and the same circle as a
        # custom curve take one tile front end; a dyadic node set's weights come from the
        # block formula on the first and from pairwise products on the second
        nodes = canonical_disk_leja(n, np.exp(1j * turn)).points
        want = _scan(_Flips(nodes, lambda t: _unit_circle(t)), default_grid(n))
        got = _scan(_Flips(nodes), default_grid(n))
        assert np.allclose(got[0], want[0], rtol=1e-13, atol=0.0)
        assert got[2] == pytest.approx(want[2], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a", [1.0, 4.0])
    @pytest.mark.parametrize("n", [7, 64, 255])
    def test_equal_axes_ellipse_matches_the_circle(self, a, n):
        # a = b: the scaled map is exactly z, so the nodes and the boundary points are
        # the circle's, but only the circle takes the dyadic scan and probes
        section = canonical_disk_leja(n)
        ts = transport_sequence(ellipse_exterior_map(a, a), section)
        nodes, curve, node_ts = _scaled_boundary(ts)
        t = 2.0 * np.pi * np.arange(default_grid(n)) / default_grid(n)
        assert np.array_equal(nodes, section.points) and np.array_equal(curve(t), _unit_circle(t))
        assert _Flips(nodes, curve).dyadic is None and _Flips(nodes).dyadic is not None
        sups, report = compact_flip_stats(ts)
        want_sups, want = circle_flip_stats(section, per_node_refine=True)
        assert np.allclose(sups, want_sups, rtol=1e-13, atol=0.0)
        assert report.constant == pytest.approx(want.constant, rel=1e-13, abs=0.0)

    def test_one_point_runs_round_like_the_rest(self, monkeypatch):
        # 6401 angles in 64-point tiles would leave a one-point run, which numpy
        # would hand to gemv instead of gemm
        nodes = canonical_disk_leja(100).points
        ts = 2 * np.pi * np.arange(6401) / 6401
        ks = np.arange(6401) % 100
        with np.errstate(all="ignore"):
            base = _Flips(nodes).own(ts, ks)
            for tile in (64 * 100, 6401 * 100):
                monkeypatch.setattr(flip_module, "_TILE", tile)
                assert np.array_equal(_Flips(nodes).own(ts, ks), base)

    def test_canonical_255_matches_mpmath(self):
        nodes = canonical_disk_leja(255).points
        report = lebesgue_constant(nodes)  # refined, so the argmax lies off the grid
        t = report.argmax_angle
        flips = _Flips(nodes)
        with np.errstate(all="ignore"):
            l_100 = flips.own(t, np.array([100]))[0]
            leb = flips.lebesgue_at(t)  # the lean one-point probe
        with mpmath.workdps(40):
            mp_nodes = [mpmath.mpc(c.real, c.imag) for c in nodes]
            z = _unit_circle(t)
            at = mpmath.mpc(z.real, z.imag)  # the kernel evaluates at the rounded point exp(1j*t)
            moduli = [
                mpmath.fprod(abs(at - other) / abs(node - other) for other in mp_nodes if other != node)
                for node in mp_nodes
            ]
        assert report.constant == pytest.approx(float(mpmath.fsum(moduli)), rel=1e-12)
        assert leb == pytest.approx(float(mpmath.fsum(moduli)), rel=1e-12)
        assert l_100 == pytest.approx(float(moduli[100]), rel=1e-12)


def _abs_flip_matrix_log(nodes, zs):
    """The log-domain point kernel the scans used before the tile kernel served
    the refinement probes: |l_k(zs[j])| at [j, k], for every point and node."""
    log_w = _log_node_weights(nodes)
    d = np.abs(zs[:, None] - nodes[None, :])
    hit = d == 0.0
    with np.errstate(divide="ignore"):
        log_d = np.log(d)
    log_d[hit] = 0.0
    log_prod = log_d.sum(axis=1)
    with np.errstate(over="ignore"):
        vals = np.exp(log_prod[:, None] - log_d - log_w)
    bad = hit.any(axis=1)
    vals[bad] = hit[bad]
    return vals


def _abs_flips_at_points_log(nodes, zs, ks):
    """|l_{ks[i]}(zs[i])| for paired points and nodes, the entries of :func:`_abs_flip_matrix_log`."""
    return _abs_flip_matrix_log(nodes, zs)[np.arange(zs.size), ks]


def _full_tile_entries(flips, ts, ks):
    """|l_{ks[i]}(curve(ts[i]))| gathered from full tiles, as the probes read them
    before they got a back half of their own."""
    out = np.empty(ks.size)
    for start, planes, hit_k, hit_j in flips._runs(ts)[2]:
        vals, _ = flips.tile(planes, hit_j)
        k = ks[start : start + vals.shape[1]]
        out[start : start + k.size] = vals[k, np.arange(k.size)] * flips.inv_w[k]
        out[start + hit_j[hit_k == k[hit_j]]] = 1.0
    return out


class TestProbes:
    @pytest.mark.parametrize("name", ["canonical-256", "scaled-ellipse-30x1-1024", "ellipse-30x1-128"])
    def test_own_is_the_full_tile_entry_bit_for_bit(self, name):
        # circle and ellipse tiles, several tiles each
        nodes, curve, _, grid = _scan_case(name)
        if name == "ellipse-30x1-128":
            return _assert_refused(nodes)
        flips = _Flips(nodes, curve)
        rng = np.random.default_rng(13)
        ts = rng.uniform(0.0, 2.0 * np.pi, 300)
        ks = rng.integers(0, nodes.size, 300)
        ang = 2.0 * np.pi * np.arange(grid) / grid
        on_node = dict(zip(*np.nonzero(nodes[:, None] == curve(ang)[None, :])))  # node -> its grid point
        ts[:4], ks[:4] = ang[[on_node[k] for k in (3, 4, 70, 71)]], [3, 9, 70, 0]  # hits on the probed node and others
        with np.errstate(all="ignore"):
            got = flips.own(ts, ks)
            want = _full_tile_entries(flips, ts, ks)
        assert np.array_equal(got, want)
        assert got[:4].tolist() == [1.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("name", ["random-7", "random-100", "random-700", "ellipse-30x1-128"])
    def test_tiled_probe_matches_log_domain_points(self, name):
        # 700 nodes take eleven 64-point tiles; the unscaled ellipse is refused
        rng = np.random.default_rng(len(name))
        if name == "ellipse-30x1-128":
            return _assert_refused(_scan_case(name)[0])
        nodes = unit_rng_points(rng, int(name.split("-")[1]))
        n = nodes.size
        zs = unit_rng_points(rng, n) * (1.0 + 0.05 * rng.standard_normal(n))
        zs[1], zs[2] = nodes[1], nodes[5]  # hits on the probed node and on another one
        ks = rng.permutation(n)
        ks[1], ks[2] = 1, 2
        got = _Flips(nodes, _points).own(zs, ks)
        want = _abs_flips_at_points_log(nodes, zs, ks)
        assert got[1] == 1.0 and got[2] == 0.0
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_single_point_lebesgue_matches_log_domain_sum(self):
        nodes = canonical_disk_leja(37).points
        want = _abs_flips_at_points_log(nodes, np.full(37, np.exp(0.123j)), np.arange(37)).sum()
        assert np.exp(1j * (np.pi / 4.0)) == nodes[4]  # node 5 sits at angle pi/4
        with np.errstate(all="ignore"):
            angles, points = (_Flips(nodes), 0.123, np.pi / 4.0), (_Flips(nodes, _points), np.exp(0.123j), nodes[4])
            for flips, at, on_node in (angles, points):
                assert flips.lebesgue_at(at) == pytest.approx(want, rel=1e-12)  # angles, then points
                assert flips.lebesgue_at(on_node) == 1.0

    @pytest.mark.parametrize("name", ["canonical-255", "rotated-256", "scaled-ellipse-30x1-1024", "ellipse-1.2x0.8-512"])
    def test_lebesgue_probe_matches_the_tile_sums(self, name):
        # the one-point probe's complex-abs distances against the tile's coordinate squares
        if name.startswith("canonical"):
            nodes, curve = canonical_disk_leja(255).points, _unit_circle
        elif name.startswith("rotated"):
            nodes, curve = canonical_disk_leja(256, np.exp(0.1234j)).points, _unit_circle
        else:
            a, b, n = (30.0, 1.0, 1024) if "30x1" in name else (1.2, 0.8, 512)
            nodes, curve, _ = _scaled_boundary(transport_sequence(ellipse_exterior_map(a, b), canonical_disk_leja(n)))
        flips = _Flips(nodes, curve)
        ts = np.random.default_rng(nodes.size).uniform(0.0, 2.0 * np.pi, 200)
        with np.errstate(all="ignore"):
            want = np.concatenate([flips.tile(planes, hit_j)[1] for _, planes, _, hit_j in flips._runs(ts)[2]])
            got = np.array([flips.lebesgue_at(t) for t in ts])
        assert np.allclose(got, want, rtol=2e-14, atol=0.0)


class TestGoldenSection:
    @staticmethod
    def _fns():
        # plain arithmetic, so a scalar and an array give the same bits; the second has a flat top of ties
        return [lambda t: (t - 0.3) * (2.1 - t) * (t + 1.7), lambda t: np.minimum(t * (1.0 - t), 0.2)]

    @pytest.mark.parametrize("iters", [0, 1, 40])
    @pytest.mark.parametrize("which", [0, 1])
    def test_vector_form_is_the_scalar_one_bit_for_bit(self, iters, which):
        fn = self._fns()[which]
        lo = np.array([-2.0, 0.0, 0.25, 1.0, -0.5, 3.0, 0.4])
        hi = np.array([3.0, 0.5, 0.35, 2.5, 0.1, 3.0 + 1e-9, 0.6])
        vals, args = flip_module._golden_max_vec(fn, lo, hi, iters)
        want = [flip_module._golden_max(fn, float(a), float(b), iters) for a, b in zip(lo, hi)]
        assert np.array([v for v, _ in want]).view(np.int64).tolist() == vals.view(np.int64).tolist()
        assert np.array([t for _, t in want]).view(np.int64).tolist() == args.view(np.int64).tolist()


class _SubtractFlips(_Flips):
    """``_Flips`` with the coordinate front it had before the matmul: the
    broadcast subtract (x_j, y_j) - (x_k, y_k), squared and added."""

    def _front(self, planes, hit_j):
        d = np.subtract(planes[:, :1], np.array((self.nodes.real, self.nodes.imag))[:, :, None])
        np.multiply(d, d, out=d)
        dist = d[0] + d[1]
        if hit_j.size:
            dist[:, hit_j] = 1.0
        w = np.multiply.reduce(dist, axis=0)
        return dist, d[0], w


def _coordinate_cases():
    """Node sets and point sets off the unit circle, each with hits and one-point sets."""
    rng = np.random.default_rng(17)
    interior = 0.9 * rng.random(60) * unit_rng_points(rng, 60)
    plane = rng.standard_normal(700) + 1j * rng.standard_normal(700)
    yield "random-interior", interior, plane
    for name in ("scaled-ellipse-30x1-1024", "ellipse-30x1-128"):  # the unscaled one is refused
        nodes, curve, _, grid = _scan_case(name)
        yield name, nodes, np.concatenate([curve(2 * np.pi * np.arange(grid) / grid), curve(rng.uniform(0, 7, 300))])
    # far from unit scale the node weights leave the kernel's range, so these are refused
    yield "near-1e300", 1e300 * interior, 1e300 * (plane / 4.0)  # differences stay finite, squares overflow
    yield "subnormal", 1e-310 * interior, 1e-310 * plane  # exact differences, squares underflow to 0
    yield "1e-160", 1e-160 * interior, 1e-160 * plane  # squares in the subnormal range
    yield "1e150", 1e150 * interior, 1e150 * plane  # squares in range, products overflow


class TestCoordinateFront:
    """The matmul front gives the broadcast subtract's differences, so every tile and probe entry, bit for bit."""

    @staticmethod
    def _tiles(flips, pts):
        out = []
        for _, planes, _, hit_j in flips._runs(pts)[2]:
            out.extend(a.copy() for a in flips.tile(planes, hit_j))  # vals may be a work plane
        return out

    @pytest.mark.parametrize("case", list(_coordinate_cases()), ids=lambda case: case[0])
    def test_matches_the_broadcast_subtract(self, case):
        name, nodes, pts = case
        if name not in ("random-interior", "scaled-ellipse-30x1-1024"):
            with pytest.raises(ValueError, match="node weights leave double range"):
                _SubtractFlips(nodes, _points)
            return _assert_refused(nodes)
        pts = pts.copy()
        pts[[0, 5, -1]] = nodes[[0, 1, nodes.size - 1]]  # hits in the first and the last tile
        flips, ref = _Flips(nodes, _points), _SubtractFlips(nodes, _points)
        planes = flips._planes(pts)
        diff = np.subtract(np.array((pts.real, pts.imag))[:, None, :], np.array((nodes.real, nodes.imag))[:, :, None])
        assert np.array_equal(np.matmul(flips.coords, planes), diff)
        ks = np.random.default_rng(nodes.size).integers(0, nodes.size, pts.size)
        ks[[0, 5, -1]] = 0, 3, nodes.size - 1  # hits on the probed node and on another
        with np.errstate(all="ignore"):
            for lo, hi in ((0, pts.size), (0, 1), (5, 6), (7, 8)):  # one-point sets take gemv
                got, want = self._tiles(flips, pts[lo:hi]), self._tiles(ref, pts[lo:hi])
                assert len(got) == len(want) and all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))
                assert np.array_equal(flips.own(pts[lo:hi], ks[lo:hi]), ref.own(pts[lo:hi], ks[lo:hi]), equal_nan=True)
            assert np.array_equal(flips.lebesgue_at(pts[7]), ref.lebesgue_at(pts[7]), equal_nan=True)


class TestBatchStats:
    def test_matches_single_sup(self):
        for n in (11, 65, 129):
            section = canonical_disk_leja(n)
            sups, _ = circle_flip_stats(section, per_node_refine=True)
            singles = [sup_norm_on_circle(section, k).value for k in range(1, n + 1)]
            np.testing.assert_allclose(singles, sups, rtol=1e-12, atol=0.0)

    def test_grid_matrix_matches_log_reference(self):
        rng = np.random.default_rng(6)
        pts = unit_rng_points(rng, 40)
        section_vals, _ = circle_flip_stats(LejaSection(pts), coarse_grid=512, refine_iters=0)
        logw = _log_node_weights(pts)
        node_max, node_arg, leb_max, leb_arg = _scan(_Flips(pts), 512)
        ang = 2 * np.pi * np.arange(512) / 512
        with np.errstate(divide="ignore"):
            logd = np.log(np.abs(np.exp(1j * ang)[:, None] - pts[None, :]))
        ref = np.exp(logd.sum(axis=1)[:, None] - logd - logw[None, :])
        tol = 1e-9 * max(1.0, ref.max())
        assert np.max(np.abs(node_max - ref.max(axis=0))) <= tol
        assert abs(leb_max - ref.sum(axis=1).max()) <= tol
        # each reported angle is a grid point where the reference attains the maximum
        at_arg = ref[np.rint(node_arg / (2 * np.pi) * 512).astype(int), np.arange(40)]
        assert np.max(np.abs(at_arg - ref.max(axis=0))) <= tol
        assert ref.sum(axis=1)[int(np.rint(leb_arg / (2 * np.pi) * 512))] >= ref.sum(axis=1).max() - tol
        assert np.allclose(section_vals, np.maximum(node_max, 1.0), rtol=1e-12)


def _dyadic_gaps(nodes, grid):
    """Largest relative gaps of the dyadic scan (as the module holds it) from :func:`_scan` on one kernel:
    over the per-node grid maxima, and of the grid Lebesgue maximum."""
    flips = _Flips(nodes)
    assert flips.dyadic is not None
    got = flip_module._dyadic_scan(flips, grid)
    want = _scan(flips, grid)
    return float(np.max(np.abs(got[0] / want[0] - 1.0))), abs(got[2] / want[2] - 1.0)


def _naive_block_scan(flips, grid):
    """The block product w over :func:`_scan`'s gemm distances, with its hits: w from exact angles,
    |exp(it) - eta_k| from rounded coordinates, so near a node they do not cancel."""
    dy = flips.dyadic
    d_cls = dy.classes(grid)
    period = grid * d_cls
    j = np.arange(grid, dtype=np.int64)
    w = np.ones(grid)
    for p, g, _ in dy.blocks:
        w *= flip_module._twice_sines((j << p) * d_cls - g * (period >> dy.s), period)
    ang = 2.0 * np.pi * np.arange(grid) / grid
    hit_k, hit_j, _ = flips._runs(ang)
    diff = flips.coords @ flips._planes(flips.curve(ang))
    dist = np.sqrt(diff[0] ** 2 + diff[1] ** 2)
    dist[:, hit_j] = 1.0
    with np.errstate(all="ignore"):
        vals = w / dist * flips.inv_w[:, None]
    sums = vals.sum(axis=0)
    sums[hit_j] = 1.0
    node_max = vals.max(axis=1)
    node_max[hit_k] = np.maximum(node_max[hit_k], 1.0)
    i = int(np.argmax(sums))
    return node_max, ang[vals.argmax(axis=1)], float(sums[i]), float(ang[i])


def _spy_scans(monkeypatch):
    """Record which scan each :func:`_boundary_stats` call takes."""
    taken = []
    for name in ("_scan", "_dyadic_scan"):
        real = getattr(flip_module, name)
        monkeypatch.setattr(flip_module, name, lambda *a, _real=real, _name=name: taken.append(_name) or _real(*a))
    return taken


def _mp_moduli(nodes, t, ks):
    """|l_k(e^{it})| for k in ks at 40 digits, for the double nodes as given; t is an mpmath angle."""
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(c.real)) for c in nodes]
        ys = [mpmath.mpf(float(c.imag)) for c in nodes]
        zx, zy = mpmath.cos(t), mpmath.sin(t)
        d2 = [(zx - x) ** 2 + (zy - y) ** 2 for x, y in zip(xs, ys)]
        w2 = mpmath.fprod(d2)
        out = []
        for k in ks:
            den = mpmath.fprod((xs[k] - xs[i]) ** 2 + (ys[k] - ys[i]) ** 2 for i in range(len(nodes)) if i != k)
            out.append(mpmath.sqrt(w2 / d2[k] / den))
        return out


_TABLE_DEFAULT_GRIDS = [(n, default_grid(n)) for n in range(32, 601)]
# the grids of TestDyadicScan.test_agrees_on_custom_grids: D = 4, 2, 4, 4, 4, 256 and 256, odd and prime ones included
_TABLE_CUSTOM_GRIDS = [
    (200, 17 * 64), (300, 17 * 256), (128, 17 * 32), (120, 17 * 32), (64, 17 * 16), (255, 1001), (255, 1009)
]


def _class_row_mismatches(cases):
    """The (n, grid, class) whose row of :func:`_class_rows`, for all classes at once, is not
    1/(2|sin(pi*(i*D - r)/L)|) for i = 0..grid-1 bit for bit, entry 0 of class 0 set to 0, then its
    first _SPAN entries again."""
    span, bad = flip_module._SPAN, []
    for n, grid in cases:
        d_cls = flip_module._Dyadic.of(canonical_disk_leja(n).points).classes(grid)
        period = grid * d_cls
        rows = flip_module._class_rows(grid, d_cls, np.arange(d_cls))
        assert rows.shape == (d_cls, grid + span)
        for r, row in enumerate(rows):
            with np.errstate(divide="ignore"):
                want = np.divide(1.0, flip_module._twice_sines(np.arange(-r, period - r, d_cls), period))
            if r == 0:
                want[0] = 0.0
            if not (np.array_equal(row[:grid], want) and np.array_equal(row[grid:], np.resize(want, span))):
                bad.append((n, grid, r))
    return bad


class TestDyadicScan:
    """Sections at exact dyadic angles whose binary blocks are whole root sets scan node-major from integer angles."""

    @pytest.mark.parametrize("ns", [range(1, 257), [263, 300, 333, 384, 400, 449, 480, 500, 511, 512]])
    def test_agrees_with_the_general_scan_on_canonical_sections(self, ns):
        for n in ns:
            gaps = _dyadic_gaps(canonical_disk_leja(n).points, default_grid(n))
            assert max(gaps) <= 2e-13, (n, gaps)

    @pytest.mark.slow
    def test_agrees_with_the_general_scan_up_to_512(self):
        for n in range(257, 513):
            gaps = _dyadic_gaps(canonical_disk_leja(n).points, default_grid(n))
            assert max(gaps) <= 2e-13, (n, gaps)

    @pytest.mark.parametrize(
        "n, grid, classes",
        [
            (200, 17 * 64, 4),  # D > 1, taken
            (300, 17 * 256, 2),
            (128, 17 * 32, 4),  # D = N/32, taken
            (120, 17 * 32, 4),  # D > N/32: the general scan
            (64, 17 * 16, 4),
            (255, 1001, 256),  # odd: D = 2**s
            (255, 1009, 256),  # prime
        ],
    )
    def test_agrees_on_custom_grids(self, n, grid, classes, monkeypatch):
        nodes = canonical_disk_leja(n).points
        assert _Flips(nodes).dyadic.classes(grid) == classes
        assert max(_dyadic_gaps(nodes, grid)) <= 2e-13
        taken = _spy_scans(monkeypatch)
        circle_flip_stats(nodes, grid, refine_iters=0)
        assert taken == ["_dyadic_scan" if 32 * classes <= n else "_scan"]

    def test_agrees_on_other_dyadic_sections(self):
        # a greedy section of 4096 circle samples is a Leja sequence at dyadic angles;
        # so are sections whose later blocks turn by other admissible roots of -1,
        # and a canonical one started at a dyadic angle
        rng = np.random.default_rng(31)

        def any_root(q, p):  # an admissible root of -1 of order 2**p
            return np.exp(1j * np.pi * (2 * rng.integers(1 << p) + 1) / (1 << p))

        sections = [greedy_leja(circle_samples(4096), n).points for n in (50, 300)]
        sections += [nested_block_section(n, any_root).points for n in (77, 201, 383)]
        sections.append(canonical_disk_leja(200, np.exp(2j * np.pi * 5 / 256)).points)
        for nodes in sections:
            assert max(_dyadic_gaps(nodes, default_grid(nodes.size))) <= 2e-13
        assert np.max(np.abs(sections[0] - canonical_disk_leja(50).points)) > 1.0  # not the canonical order

    def test_dispatch(self, monkeypatch):
        rng = np.random.default_rng(32)
        moved = canonical_disk_leja(256).points.copy()
        moved[100] *= np.exp(1e-9j)
        general = {
            "rotated": canonical_disk_leja(256, np.exp(0.3j)).points,
            "random": unit_rng_points(rng, 100),
            "greedy-5000": greedy_leja(circle_samples(5000), 50).points,  # 5000 samples miss pi/8
            "moved-1e-9": moved,
            "canonical-31": canonical_disk_leja(31).points,  # D = 1 > 31/32
        }
        dyadic = {
            "canonical-32": canonical_disk_leja(32).points,
            "canonical-256": canonical_disk_leja(256).points,
            "greedy-4096": greedy_leja(circle_samples(4096), 50).points,
        }
        taken = _spy_scans(monkeypatch)
        for name, nodes in {**general, **dyadic}.items():
            taken.clear()
            circle_flip_stats(nodes, refine_iters=0)
            sup_norm_on_circle(nodes, 2, refine_iters=0)
            assert taken == ["_dyadic_scan" if name in dyadic else "_scan"] * 2, name
            assert (_Flips(nodes).dyadic is None) == (name in general and name != "canonical-31"), name
        for a, b in ((1.2, 0.8), (1.0, 1.0)):  # every ellipse, the one equal to the circle included
            taken.clear()
            compact_flip_stats(transport_sequence(ellipse_exterior_map(a, b), canonical_disk_leja(64)), refine_iters=0)
            assert taken == ["_scan"]

    def test_planted_naive_block_product_fails_the_agreement(self, monkeypatch):
        # w from exact angles over distances from rounded ones: at a grid point on a node
        # that is not bitwise a hit, w is exactly 0 where the gemm distance is 2.8e-17 or more
        monkeypatch.setattr(flip_module, "_dyadic_scan", _naive_block_scan)
        node_gap, _ = _dyadic_gaps(canonical_disk_leja(132).points, default_grid(132))
        assert node_gap > 1e-4

    @pytest.mark.parametrize("n, k", [(255, None), (400, 267)])
    def test_grid_values_match_mpmath(self, n, k):
        nodes = canonical_disk_leja(n).points
        grid = default_grid(n)
        node_max, node_arg, leb_max, leb_arg = flip_module._dyadic_scan(_Flips(nodes), grid)
        k = int(np.argmax(node_max)) if k is None else k
        at_node, at_leb = (int(np.rint(t / (2.0 * np.pi) * grid)) for t in (node_arg[k], leb_arg))
        with mpmath.workdps(40):
            want_node = _mp_moduli(nodes, 2 * mpmath.pi * at_node / grid, [k])[0]
            want_leb = mpmath.fsum(_mp_moduli(nodes, 2 * mpmath.pi * at_leb / grid, range(n)))
        assert node_max[k] == pytest.approx(float(want_node), rel=1e-13, abs=0.0)
        assert leb_max == pytest.approx(float(want_leb), rel=1e-13, abs=0.0)

    def test_block_weights_match_the_pairwise_products(self, monkeypatch):
        worst = 0.0
        for n in range(2, 257):
            nodes = canonical_disk_leja(n).points
            worst = max(worst, float(np.max(np.abs(_Flips(nodes).inv_w * np.exp(_log_node_weights(nodes)) - 1.0))))
        assert worst <= 2e-13

        def pairwise(nodes):
            raise AssertionError("pairwise weights of a dyadic section")

        monkeypatch.setattr(flip_module, "_log_node_weights", pairwise)
        _Flips(canonical_disk_leja(300).points)
        with pytest.raises(AssertionError):
            _Flips(canonical_disk_leja(300, np.exp(0.3j)).points)

    def test_refusals_are_the_general_scans(self, monkeypatch):
        nodes = canonical_disk_leja(64).points
        monkeypatch.setattr(flip_module._Dyadic, "log_weights", lambda self: np.full(self.m.size, 290.0))
        _assert_refused(nodes)
        monkeypatch.undo()
        flips = _Flips(nodes)
        flips.inv_w[5] = np.inf
        for scan in (_scan, flip_module._dyadic_scan):
            with pytest.raises(ValueError, match="FLIP moduli leave double range"):
                scan(flips, default_grid(64))

    @pytest.mark.parametrize("span", [3, 64, 5000])  # 5000: one short span on most grids
    def test_node_maxima_skip_only_spans_that_cannot_hold_them(self, span, monkeypatch):
        # one pass per scan takes every node, and each node's maximum and its first grid point are
        # those of a full pass over the grid on its own class row, also where the grid is no multiple
        # of the span (a short last span)
        real, checked = flip_module._window_maxima, []

        def full_pass(rows, w_spans, row_of, start, at):
            got = real(rows, w_spans, row_of, start, at)
            grid = rows.shape[1] - span
            vals = w_spans.reshape(-1)[:grid] * rows[row_of[:, None], (start[:, None] + np.arange(grid)) % grid]
            checked.append(np.array_equal(got[0], vals.max(axis=1)) and np.array_equal(got[1], vals.argmax(axis=1)))
            return got

        monkeypatch.setattr(flip_module, "_SPAN", span)
        monkeypatch.setattr(flip_module, "_window_maxima", full_pass)
        cases = [(n, default_grid(n)) for n in (1, 2, 3, 16, 100, 255, 256)]
        cases += [(200, 17 * 64), (60, 17 * 16), (255, 1001)]
        passes = 0
        for n, grid in cases:
            flips = _Flips(canonical_disk_leja(n).points)
            flip_module._dyadic_scan(flips, grid)
            dy, d_cls = flips.dyadic, flips.dyadic.classes(grid)
            classes = np.unique((grid * d_cls >> dy.s) * dy.m % d_cls).size
            passes += -(-classes // max(1, flip_module._TABLE // (grid + span)))  # one per group of classes
        assert len(checked) == passes and all(checked)

    @pytest.mark.parametrize("cases", [_TABLE_DEFAULT_GRIDS, _TABLE_CUSTOM_GRIDS], ids=["default", "custom"])
    def test_class_rows_are_the_per_class_sines_bit_for_bit(self, cases):
        assert _class_row_mismatches(cases) == []

    def test_planted_off_by_one_class_rows_fail(self, monkeypatch):
        real = flip_module._class_rows

        def rolled(grid, d_cls, classes):  # every row read one entry late
            return np.roll(real(grid, d_cls, classes), -1, axis=1)

        def mirrored(grid, d_cls, classes):  # class r given the row of its mirror D - r
            return real(grid, d_cls, -classes % d_cls)

        for planted in (rolled, mirrored):
            monkeypatch.setattr(flip_module, "_class_rows", planted)
            assert _class_row_mismatches(_TABLE_CUSTOM_GRIDS), planted.__name__

    @pytest.mark.parametrize("n, grid", [(255, 1001), (200, 17 * 64), (1001, default_grid(1001))])
    def test_class_groups_change_no_bit(self, n, grid, monkeypatch):
        # classes taken one group at a time give the scan of all classes at once, to the bit
        flips = _Flips(canonical_disk_leja(n).points)
        whole = flip_module._dyadic_scan(flips, grid)
        monkeypatch.setattr(flip_module, "_TABLE", grid + flip_module._SPAN)  # one class per group
        for got, want in zip(flip_module._dyadic_scan(flips, grid), whole):
            assert np.array_equal(got, want)
