import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from lejaflip import (
    UNIFORM_FLIP_BOUND,
    LejaSection,
    allones_block_flip_abs,
    canonical_disk_leja,
    circle_flip_stats,
    circle_samples,
    compact_flip_stats,
    ellipse_exterior_map,
    flip_direct,
    flip_sup_on_compact,
    flip_structured_abs,
    greedy_leja,
    lebesgue_constant,
    omega0_of_section,
    roots_of_unity_flip_abs,
    special_n_statistics,
    sup_norm_on_circle,
    transport_sequence,
    validate_leja,
)
from lejaflip import flip as flip_module
from lejaflip.core import binary_decompose
from lejaflip.flip import _Flips, _log_node_weights, _scan, _unit_circle, default_grid
from lejaflip.transport import _scaled_boundary


def unit_rng_points(rng, count):
    return np.exp(2j * np.pi * rng.random(count))


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


class TestRootsOfUnityFlip:
    def test_node_value_via_series(self):
        assert roots_of_unity_flip_abs(8, 1, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_half_at_origin(self):
        assert roots_of_unity_flip_abs(2, 1, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_matches_direct(self):
        rng = np.random.default_rng(2)
        m = 32
        pts = np.exp(2j * np.pi * np.arange(m) / m)
        for z in unit_rng_points(rng, 10):
            for k in (1, 7, 32):
                assert roots_of_unity_flip_abs(m, k, z) == pytest.approx(
                    abs(flip_direct(pts, k, z)), rel=1e-11
                )

    def test_series_switch_is_continuous(self):
        m, k = 64, 9
        node = np.exp(2j * np.pi * (k - 1) / m)
        near = node * np.exp(1j * 5e-9)   # inside the series window
        far = node * np.exp(1j * 5e-8)    # outside it
        assert roots_of_unity_flip_abs(m, k, near) == pytest.approx(1.0, abs=1e-6)
        assert roots_of_unity_flip_abs(m, k, far) == pytest.approx(1.0, abs=1e-5)


class TestStructured:
    def test_matches_direct_spot(self):
        rng = np.random.default_rng(3)
        for n in (3, 5, 6, 7, 9, 12, 13, 100, 255):
            section = canonical_disk_leja(n)
            block = 1 << binary_decompose(n)[0]
            for k in (1, max(1, block // 2), block):
                for z in unit_rng_points(rng, 8):
                    direct = abs(flip_direct(section.points, k, z))
                    structured = flip_structured_abs(section, k, z)
                    assert abs(direct - structured) <= 1e-9 * max(1.0, direct) + 1e-12

    def test_node_value(self):
        section = canonical_disk_leja(6)
        assert flip_structured_abs(section, 2, section.points[1]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_tail_indices(self):
        with pytest.raises(ValueError):
            flip_structured_abs(canonical_disk_leja(6), 5, 0.3 + 0.1j)

    def test_rejects_power_of_two(self):
        with pytest.raises(ValueError):
            flip_structured_abs(canonical_disk_leja(8), 1, 0.5)

    def test_non_canonical_sections(self):
        # block scalings other than the canonical ones still give valid
        # sections; the block factorization must follow the observed scalings
        rng = np.random.default_rng(8)

        def chooser(q, p):
            return np.exp(1j * np.pi * (2 * (q % (1 << p)) + 1) / (1 << p))

        for n in (6, 11, 13, 21, 44, 100):
            section = nested_block_section(n, chooser)
            assert validate_leja(section, circle_samples(64 * n), 1e-9).passed
            block = 1 << binary_decompose(n)[0]
            for k in (1, block):
                for z in unit_rng_points(rng, 6):
                    direct = abs(flip_direct(section.points, k, z))
                    assert flip_structured_abs(section, k, z) == pytest.approx(
                        direct, rel=1e-9, abs=1e-12
                    )


class TestAllOnesBlock:
    # closed form cos(pi/2^(p1+2)) / (2^p1 sin(pi/2^(p1+2))) at z = exp(i pi/2^(p1+1))
    @pytest.mark.parametrize("p1", [2, 4, 6])
    def test_closed_form(self, p1):
        z = np.exp(1j * np.pi / 2 ** (p1 + 1))
        want = math.cos(math.pi / 2 ** (p1 + 2)) / (2**p1 * math.sin(math.pi / 2 ** (p1 + 2)))
        assert allones_block_flip_abs(p1, 0, z) == pytest.approx(want, rel=1e-12)

    def test_is_a_flip_modulus_after_rotation(self):
        # |l_k(z_k * y)| of the section of length 2^(p1+1)-1 equals the
        # representative evaluated at y, where omega0 / z_k picks the label
        p1 = 3
        n = 2 ** (p1 + 1) - 1
        section = canonical_disk_leja(n)
        omega = omega0_of_section(section)
        rng = np.random.default_rng(4)
        for k in range(1, 2**p1 + 1):
            ratio = omega / section.points[k - 1]
            ell = int(round((np.angle(ratio) / np.pi * 2**p1 - 1) / 2)) % 2**p1
            for y in unit_rng_points(rng, 4):
                lhs = abs(flip_direct(section.points, k, section.points[k - 1] * y))
                rhs = allones_block_flip_abs(p1, ell, y)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


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

    def test_report_serialization(self, tmp_path):
        rep = lebesgue_constant(canonical_disk_leja(5))
        data = rep.to_json()
        assert data["N"] == 5 and len(data["per_node_sup"]) == 5
        path = tmp_path / "leb.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,sup_k" and len(lines) == 6


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

    def test_negative_refine(self):
        section = canonical_disk_leja(6)
        with pytest.raises(ValueError):
            circle_flip_stats(section, refine_iters=-5)
        with pytest.raises(ValueError):
            sup_norm_on_circle(section, 1, refine_iters=-1)


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
    if name == "ellipse-30x1-128":  # unscaled: the node weights overflow, log-domain tiles
        ts = transport_sequence(ellipse_exterior_map(30.0, 1.0), canonical_disk_leja(128))
        return ts.images, ts.map.on_circle, np.angle(ts.source.points), default_grid(128)
    # scaled to capacity about 1: linear-domain tiles; a grid above pi*(N-1)
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
        ],
    )
    def test_independent_of_tile_width(self, name, monkeypatch):
        nodes, curve, node_ts, grid = _scan_case(name)
        base = _scan(_Flips(nodes), curve, grid, node_ts)
        for tile in (64, 1 << 16, grid * nodes.size):  # 64-point tiles; the default; one tile for the whole grid
            monkeypatch.setattr(flip_module, "_TILE", tile)
            got = _scan(_Flips(nodes), curve, grid, node_ts)
            for want, have in zip(base, got):
                assert np.array_equal(want, have)
        assert (_Flips(nodes).inv_w is None) == (name == "ellipse-30x1-128")
        if name == "canonical-256":
            # roots of unity: each FLIP peaks at its own node, a hit column
            assert np.all(base[0] == 1.0)
            assert np.allclose(np.exp(1j * base[1]), nodes, atol=1e-12)
        if name.startswith("single-node"):  # ties go to the smallest angle, even past the node's own
            assert base[0][0] == 1.0 and base[1][0] == 0.0 and base[3] == 0.0

    def test_scaled_scan_matches_log_domain_scan(self):
        # the same FLIPs of the thin ellipse at N=1024, once unscaled (node
        # weights up to e^2800, log-domain tiles) and once scaled by 1/16
        ts = transport_sequence(ellipse_exterior_map(30.0, 1.0), canonical_disk_leja(1024))
        nodes, curve, node_ts = _scaled_boundary(ts)
        unscaled = _Flips(ts.images)
        assert unscaled.inv_w is None and np.max(unscaled.log_w) > 2000.0
        want = _scan(unscaled, ts.map.on_circle, 4096, node_ts)
        got = _scan(_Flips(nodes), curve, 4096, node_ts)
        assert np.allclose(got[0], want[0], rtol=1e-11, atol=0.0)
        assert got[2] == pytest.approx(want[2], rel=1e-11)


def _hit_cases():
    """Node sets and their scan grids: canonical sections, random unit nodes, and the 30x1 ellipse."""
    for n in (1, 3, 64, 255, 256):
        yield f"canonical-{n}", canonical_disk_leja(n).points, _unit_circle, default_grid(n)
    yield "random-100", *_scan_case("random-100")[:2], 4096
    ts = transport_sequence(ellipse_exterior_map(30.0, 1.0), canonical_disk_leja(128))
    yield "ellipse-30x1-128", ts.images, ts.map.on_circle, default_grid(128)
    nodes, curve, _ = _scaled_boundary(ts)
    yield "scaled-ellipse-30x1-128", nodes, curve, default_grid(128)


class TestHitLookup:
    """Exact node hits come from one lookup per point set, and each run gets its slice."""

    @staticmethod
    def _check(flips, pts):
        want_j, want_k = np.nonzero(pts[:, None] == flips.nodes[None, :])  # brute force, in increasing j
        hit_k, hit_j, runs = flips._runs(pts)
        assert np.array_equal(hit_j, want_j) and np.array_equal(hit_k, want_k)
        run_k = np.concatenate([run_hit_k for _, _, _, run_hit_k, _ in runs])
        run_j = np.concatenate([start + run_hit_j for start, _, _, _, run_hit_j in runs])
        assert np.array_equal(run_j, want_j) and np.array_equal(run_k, want_k)
        for _, run_pts, _, run_hit_k, run_hit_j in runs:
            assert np.all(run_pts[run_hit_j] == flips.nodes[run_hit_k])
        return hit_j.size

    @pytest.mark.parametrize("case", list(_hit_cases()), ids=lambda case: case[0])
    def test_hits_equal_brute_force(self, case, monkeypatch):
        name, nodes, curve, grid = case
        monkeypatch.setattr(flip_module, "_TILE", 64 * nodes.size)  # many tiles
        flips = _Flips(nodes)
        found = self._check(flips, curve(2.0 * np.pi * np.arange(grid) / grid))
        if name in ("canonical-1", "canonical-64", "canonical-256"):  # roots of unity on the 64N grid
            assert found == nodes.size
        # probe sets: hits in the first and in later tiles, and one-point runs
        rng = np.random.default_rng(nodes.size)
        pts = curve(rng.uniform(0.0, 2.0 * np.pi, 300))
        where = rng.choice(300, size=min(40, nodes.size), replace=False)
        pts[where] = nodes[rng.choice(nodes.size, size=where.size, replace=False)]
        pts[-1] = nodes[-1]
        assert self._check(flips, pts) == where.size + (299 not in where)
        for k in (0, nodes.size - 1):
            assert self._check(flips, nodes[[k]]) == 1
        assert self._check(flips, curve(np.array([0.1234]))) == 0

    def test_underflowed_distance_acts_as_a_hit(self):
        # |b - eta_1|^2 underflows to 0 although b != eta_1: the log domain takes
        # the tile, and l_k is about 1 at that node and about 0 at the others
        nodes = np.array([1e-200, 1.0, -1.0, 0.5j], dtype=complex)
        b = np.full(4, 2e-200 + 0j)
        flips = _Flips(nodes)
        assert flips._runs(b)[1].size == 0
        with np.errstate(all="ignore"):
            got = flips.own(b, np.arange(4))
            assert flips.lebesgue_at(b[0]) == pytest.approx(1.0, rel=1e-14)
        assert got[0] == pytest.approx(1.0, rel=1e-14)
        assert np.all(got[1:] < 1e-150)


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


def _coordinate_flips(nodes):
    """``_Flips`` held to the coordinate front-end: the reference for the polar one."""
    flips = _Flips(nodes)
    flips.polar = None
    return flips


class TestFrontEnds:
    def test_unit_nodes_and_points_take_the_polar_form(self):
        grid = _unit_circle(2 * np.pi * np.arange(4096) / 4096)
        rng = np.random.default_rng(10)
        for nodes in (
            canonical_disk_leja(37).points,
            canonical_disk_leja(256, np.exp(0.3j)).points,
            unit_rng_points(rng, 100),
        ):
            assert _Flips(nodes).takes_polar(grid)

    def test_other_nodes_and_points_take_coordinates(self):
        t = 2 * np.pi * np.arange(4096) / 4096
        grid = _unit_circle(t)
        rng = np.random.default_rng(11)
        unit = canonical_disk_leja(37).points
        for nodes in (0.9 * rng.random(50) * unit_rng_points(rng, 50), unit * (1.0 + 1e-9)):
            assert not _Flips(nodes).takes_polar(grid)
        assert not _Flips(unit).takes_polar(grid * (1.0 + 1e-9))
        for a, b, n in ((1.2, 0.8, 64), (30.0, 1.0, 128), (30.0, 1.0, 1024)):
            ts = transport_sequence(ellipse_exterior_map(a, b), canonical_disk_leja(n))
            nodes, curve, _ = _scaled_boundary(ts)
            assert not _Flips(nodes).takes_polar(curve(t))
            assert not _Flips(ts.images).takes_polar(ts.map.on_circle(t))

    @pytest.mark.parametrize("turn", [0.0, 0.1234])  # the default grid, and one rotated off the nodes
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 64, 255, 256])
    def test_polar_scan_matches_coordinate_scan(self, n, turn):
        nodes = canonical_disk_leja(n).points
        curve = lambda t: _unit_circle(t + turn)  # noqa: E731
        want = _scan(_coordinate_flips(nodes), curve, default_grid(n), np.angle(nodes))
        got = _scan(_Flips(nodes), curve, default_grid(n), np.angle(nodes))
        assert np.allclose(got[0], want[0], rtol=1e-13, atol=0.0)
        assert got[2] == pytest.approx(want[2], rel=1e-13)

    def test_one_point_runs_round_like_the_rest(self, monkeypatch):
        # 6401 points in 64-point tiles would leave a one-point run, which numpy
        # would hand to gemv instead of gemm
        nodes = canonical_disk_leja(100).points
        pts = _unit_circle(2 * np.pi * np.arange(6401) / 6401)
        ks = np.arange(6401) % 100
        with np.errstate(all="ignore"):
            base = _Flips(nodes).own(pts, ks)
            for tile in (64 * 100, 6401 * 100):
                monkeypatch.setattr(flip_module, "_TILE", tile)
                assert np.array_equal(_Flips(nodes).own(pts, ks), base)

    def test_canonical_255_matches_mpmath(self):
        nodes = canonical_disk_leja(255).points
        report = lebesgue_constant(nodes)  # refined, so the argmax lies off the grid
        z = np.exp(1j * report.argmax_angle)
        flips = _Flips(nodes)
        assert flips.takes_polar(np.array([z]))
        with np.errstate(all="ignore"):
            l_100 = flips.own(z, np.array([100]))[0]
        with mpmath.workdps(40):
            mp_nodes = [mpmath.mpc(c.real, c.imag) for c in nodes]
            at = mpmath.mpc(z.real, z.imag)
            moduli = [
                mpmath.fprod(abs(at - other) / abs(node - other) for other in mp_nodes if other != node)
                for node in mp_nodes
            ]
        assert report.constant == pytest.approx(float(mpmath.fsum(moduli)), rel=1e-12)
        assert l_100 == pytest.approx(float(moduli[100]), rel=1e-12)


def _abs_flips_at_points_log(nodes, zs, ks):
    """The log-domain point kernel the scans used before the tile kernel served
    the refinement probes: |l_{ks[i]}(zs[i])| for paired points and nodes."""
    log_w = _log_node_weights(nodes)
    d = np.abs(zs[:, None] - nodes[None, :])
    hit = d == 0.0
    with np.errstate(divide="ignore"):
        log_d = np.log(d)
    log_d[hit] = 0.0
    log_prod = log_d.sum(axis=1)
    rows = np.arange(zs.size)
    vals = np.exp(log_prod - log_d[rows, ks] - log_w[ks])
    bad = hit.any(axis=1)
    if bad.any():
        vals[bad] = hit[bad, ks[bad]].astype(float)
    return vals


def _full_tile_entries(flips, bpts, ks):
    """|l_{ks[i]}(bpts[i])| gathered from full tiles, as the probes read them
    before they got a back half of their own."""
    out = np.empty(ks.size)
    for start, pts, half, hit_k, hit_j in flips._runs(bpts)[2]:
        vals, scale, _ = flips.tile(pts, half, hit_j)
        k = ks[start : start + vals.shape[1]]
        out[start : start + k.size] = vals[k, np.arange(k.size)] * scale[k]
        out[start + hit_j[hit_k == k[hit_j]]] = 1.0
    return out


class TestProbes:
    @pytest.mark.parametrize("name", ["canonical-256", "scaled-ellipse-30x1-1024", "ellipse-30x1-128"])
    def test_own_is_the_full_tile_entry_bit_for_bit(self, name):
        # polar, coordinate and log-domain tiles, several tiles each
        nodes, curve, _, _ = _scan_case(name)
        flips = _Flips(nodes)
        rng = np.random.default_rng(13)
        pts = curve(rng.uniform(0.0, 2.0 * np.pi, 300))
        ks = rng.integers(0, nodes.size, 300)
        pts[:4], ks[:4] = nodes[[3, 4, 70, 71]], [3, 9, 70, 0]  # hits on the probed node and on others
        with np.errstate(all="ignore"):
            got = flips.own(pts, ks)
            want = _full_tile_entries(flips, pts, ks)
        assert np.array_equal(got, want)
        assert got[:4].tolist() == [1.0, 0.0, 1.0, 0.0]
        assert flips.takes_polar(pts) == (name == "canonical-256")
        assert (flips.inv_w is None) == (name == "ellipse-30x1-128")

    @pytest.mark.parametrize("name", ["random-7", "random-100", "random-700", "ellipse-30x1-128"])
    def test_tiled_probe_matches_log_domain_points(self, name):
        # 700 nodes take eleven 64-point tiles; the unscaled ellipse takes log-domain tiles
        rng = np.random.default_rng(len(name))
        if name == "ellipse-30x1-128":
            nodes = _scan_case(name)[0]
        else:
            nodes = unit_rng_points(rng, int(name.split("-")[1]))
        n = nodes.size
        zs = unit_rng_points(rng, n) * (1.0 + 0.05 * rng.standard_normal(n))
        zs[1], zs[2] = nodes[1], nodes[5]  # hits on the probed node and on another one
        ks = rng.permutation(n)
        ks[1], ks[2] = 1, 2
        got = _Flips(nodes).own(zs, ks)
        want = _abs_flips_at_points_log(nodes, zs, ks)
        assert got[1] == 1.0 and got[2] == 0.0
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_single_point_lebesgue_matches_log_domain_sum(self):
        nodes = canonical_disk_leja(37).points
        flips = _Flips(nodes)
        z = np.exp(0.123j)
        want = _abs_flips_at_points_log(nodes, np.full(37, z), np.arange(37)).sum()
        with np.errstate(all="ignore"):
            assert flips.lebesgue_at(z) == pytest.approx(want, rel=1e-12)
            assert flips.lebesgue_at(nodes[4]) == 1.0


class TestBatchStats:
    def test_matches_single_sup(self):
        for n in (11, 65, 129):
            section = canonical_disk_leja(n)
            sups, _ = circle_flip_stats(section, per_node_refine=True)
            singles = [sup_norm_on_circle(section, k).value for k in range(1, n + 1)]
            np.testing.assert_allclose(singles, sups, rtol=1e-12, atol=0.0)
        ts = transport_sequence(ellipse_exterior_map(30.0, 1.0), canonical_disk_leja(65))
        sups, _ = compact_flip_stats(ts, per_node_refine=True)
        singles = [flip_sup_on_compact(ts, k).value for k in range(1, 66)]
        np.testing.assert_allclose(singles, sups, rtol=1e-12, atol=0.0)

    def test_grid_matrix_matches_log_reference(self):
        rng = np.random.default_rng(6)
        pts = unit_rng_points(rng, 40)
        section_vals, _ = circle_flip_stats(LejaSection(pts), coarse_grid=512, refine_iters=0)
        logw = _log_node_weights(pts)
        node_max, node_arg, leb_max, leb_arg = _scan(_Flips(pts), _unit_circle, 512, np.angle(pts))
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
