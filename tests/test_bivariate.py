import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lejaflip import (
    bivariate_flip,
    bivariate_lebesgue,
    build_array,
    canonical_disk_leja,
    check_delta,
    check_factorization,
    check_oracle,
    check_product_formula,
    flip_case,
    flip_via_vdm_ratio,
    jackson_decay_experiment,
    lex_to_pair,
    schiffer_siciak,
    shape_of,
    triangular_number,
    vdm_determinant,
    vdm_extension_factor,
    vdm_matrix,
    verify_2d_leja,
)
from lejaflip import bivariate
from lejaflip.bivariate import _flip_tables, _flip_terms, _interp_grid, _prefix_tables


def leja_sources(n_entries, rotate=0.0):
    pts = canonical_disk_leja(n_entries).points
    return pts * np.exp(1j * rotate) if rotate else pts


def random_unit(rng):
    return complex(np.exp(2j * np.pi * rng.random()))


def f_entire(z, w):
    return np.exp(z - 2 * w)


def interpolant(arr, f, z, w):
    """Lagrange interpolant sum_p f(H_p) l_{H_p}(z, w) at one point, from the library's grid sum."""
    values = np.array([complex(f(*arr.node(j))) for j in range(1, arr.N + 1)])
    return complex(_interp_grid(arr, values, np.array([z]), np.array([w]))[0, 0])


def graded_position(k, l):
    """Position of the monomial z**k w**l in the graded ordering."""
    return triangular_number(k + l - 1) + l + 1


def seven_form_terms(n, m, p, q):
    """Reference: the closed forms written out one per case, as the library once held them."""
    if p + q == n or (p + q == n - 1 and q >= m + 1):
        return [(1, p - 1, q - 1)]
    if p + q == n - 1 and q == m:
        return [(1, n - m, m - 1)]
    if p + q == n - 1 and q <= m - 1:
        return [(1, p + 1, q - 1), (-1, p - 1, q - 1), (1, p - 1, q + 1)]
    if q <= m - 1 and p <= n - m - 1:
        terms = [(1, n - q, q - 1), (-1, n - q - 1, q - 1), (1, n - q - 1, q + 1)]
        for r in range(1, m - q):
            terms += [(1, n - q - r - 1, q + r + 1), (-1, n - q - r - 1, q + r)]
        for r in range(m - q, n - p - q - 1):
            terms += [(1, n - q - r - 2, q + r + 1), (-1, n - q - r - 2, q + r)]
        return terms
    if q <= m - 1:
        terms = [(1, n - q, q - 1), (-1, n - q - 1, q - 1), (1, n - q - 1, q + 1)]
        for r in range(1, n - p - q):
            terms += [(1, n - q - r - 1, q + r + 1), (-1, n - q - r - 1, q + r)]
        return terms
    if q == m:
        terms = [(1, n - m, m - 1), (-1, n - m - 2, m - 1), (1, n - m - 2, m + 1)]
        for r in range(1, n - m - p - 1):
            terms += [(1, n - m - r - 2, m + r + 1), (-1, n - m - r - 2, m + r)]
        return terms
    terms = [(1, n - q - 1, q - 1), (-1, n - q - 2, q - 1), (1, n - q - 2, q + 1)]
    for r in range(1, n - p - q - 1):
        terms += [(1, n - q - r - 2, q + r + 1), (-1, n - q - r - 2, q + r)]
    return terms


def members(n, m):
    """Source-index pairs (p, q) of Omega_{n,m}."""
    return [(p, q) for p in range(n + 1) for q in range(n + 1 - p) if p + q < n or q <= m]


ALL_CASES = {"top", "edge-qm", "edge-qlt", "low-left", "low-right", "low-qm", "low-qgt"}


def outer_sum_flip(arr, p, q, zs, ws):
    """Reference: the FLIP on zs x ws as a sum of one np.outer per signed term."""

    def prefix(points, skip, ubs, x):
        table, cur, j = {}, np.ones_like(x), 0
        for ub in sorted(set(ubs)):
            while j <= ub:
                if j != skip:
                    cur = cur * (x - points[j]) / (points[skip] - points[j])
                j += 1
            table[ub] = cur.copy()
        return table

    terms = _flip_terms(arr.n, arr.m, p, q)
    ztab = prefix(arr.eta, p, [t[1] for t in terms], zs)
    wtab = prefix(arr.theta, q, [t[2] for t in terms], ws)
    acc = np.zeros((zs.size, ws.size), dtype=complex)
    for sign, z_ub, w_ub in terms:
        acc += sign * np.outer(ztab[z_ub], wtab[w_ub])
    return acc


class TestIndexing:
    @pytest.mark.parametrize("j,pair", [(1, (0, 0)), (2, (1, 0)), (3, (0, 1)), (4, (2, 0)), (5, (1, 1))])
    def test_enumeration(self, j, pair):
        assert lex_to_pair(j) == pair

    @given(st.integers(min_value=1, max_value=100_000))
    def test_bijection_from_index(self, j):
        k, l = lex_to_pair(j)
        assert graded_position(k, l) == j

    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
    def test_bijection_from_pair(self, k, l):
        assert lex_to_pair(graded_position(k, l)) == (k, l)

    def test_degree_block_ends(self):
        # the isqrt degree has no fix-up step, so check both ends of every degree block
        for d in range(2001):
            assert lex_to_pair(triangular_number(d - 1) + 1) == (d, 0)
            assert lex_to_pair(triangular_number(d)) == (0, d)

    @pytest.mark.parametrize("n_nodes,shape", [(1, (0, 0)), (4, (2, 0)), (6, (2, 2)), (5, (2, 1))])
    def test_shape(self, n_nodes, shape):
        assert shape_of(n_nodes) == shape

    def test_shape_consistency(self):
        for n_nodes in range(1, 2000):
            n, m = shape_of(n_nodes)
            assert triangular_number(n - 1) < n_nodes <= triangular_number(n)
            assert m == n_nodes - triangular_number(n - 1) - 1


class TestBuildArray:
    def test_single_node(self):
        arr = build_array(leja_sources(3), leja_sources(3, 0.3), 1)
        assert arr.node(1) == (1 + 0j, complex(np.exp(0.3j)))

    def test_five_nodes_order(self):
        eta, theta = leja_sources(4), leja_sources(4, 0.3)
        arr = build_array(eta, theta, 5)
        want = [(eta[0], theta[0]), (eta[1], theta[0]), (eta[0], theta[1]), (eta[2], theta[0]), (eta[1], theta[1])]
        for j, (z, w) in enumerate(want, start=1):
            assert arr.node(j) == (complex(z), complex(w))

    def test_sixth_node_closes_block(self):
        eta, theta = leja_sources(4), leja_sources(4, 0.3)
        arr = build_array(eta, theta, 6)
        assert arr.node(6) == (complex(eta[0]), complex(theta[2]))

    def test_rejects_short_sources(self):
        with pytest.raises(ValueError):
            build_array(leja_sources(2), leja_sources(2), 6)

    def test_rejects_duplicate_sources(self):
        with pytest.raises(ValueError):
            build_array(np.array([1.0, 1.0, -1.0]), leja_sources(3), 4)


class TestDeltaProperty:
    def test_all_cases_fire_and_delta_holds(self):
        eta, theta = leja_sources(8), leja_sources(8, 0.37)
        cases = set()
        for n_nodes in range(1, 16):
            arr = build_array(eta, theta, n_nodes)
            pairs = arr.pairs()
            for p, q in pairs:
                cases.add(flip_case(arr, p, q))
                for j, (k, l) in enumerate(pairs, start=1):
                    val = bivariate_flip(arr, p, q, *arr.node(j))
                    want = 1.0 if (k, l) == (p, q) else 0.0
                    assert abs(val - want) <= 1e-10, (n_nodes, p, q, k, l)
        assert cases == {"top", "edge-qm", "edge-qlt", "low-left", "low-right", "low-qm", "low-qgt"}

    def test_single_node_identically_one(self):
        arr = build_array(leja_sources(2), leja_sources(2), 1)
        rng = np.random.default_rng(0)
        for _ in range(8):
            z, w = random_unit(rng), random_unit(rng)
            assert bivariate_flip(arr, 0, 0, z, w) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_non_member(self):
        arr = build_array(leja_sources(4), leja_sources(4), 5)
        for p, q in ((2, 1), (-1, 0), (0, 3)):
            for z, w in ((0.1, 0.2), (np.full(3, 0.1), np.full(3, 0.2))):  # scalars and arrays alike
                with pytest.raises(ValueError):
                    bivariate_flip(arr, p, q, z, w)

    def test_degree_membership(self):
        # recover tensor coefficients through an inverse FFT on roots-of-unity
        # grids; total degree must stay <= n, and degree-n terms need w-power <= m
        eta, theta = leja_sources(8), leja_sources(8, 0.37)
        for n_nodes in (4, 5, 7, 8, 9, 11, 12, 13):
            arr = build_array(eta, theta, n_nodes)
            n, m = arr.n, arr.m
            g = n + 2
            axis = np.exp(2j * np.pi * np.arange(g) / g)
            for p, q in arr.pairs():
                vals = np.array([[bivariate_flip(arr, p, q, z, w) for w in axis] for z in axis])
                # sampling on roots of unity is the inverse-DFT pattern
                coeff = np.fft.fft2(vals) / g**2
                for a in range(g):
                    for b in range(g):
                        if a + b <= n and not (a + b == n and b > m):
                            continue
                        if a + b > 2 * g - 2:
                            continue
                        assert abs(coeff[a, b]) <= 1e-9, (n_nodes, p, q, a, b)


class TestArrayFlip:
    def test_output_shape_follows_the_input(self):
        arr = build_array(leja_sources(5), leja_sources(5, 0.37), 9)
        z, w = np.exp(0.3j * np.arange(12)).reshape(3, 4), np.exp(-0.7j * np.arange(12)).reshape(3, 4)
        assert isinstance(bivariate_flip(arr, 1, 1, 0.2 + 0.1j, -0.3j), complex)
        assert isinstance(bivariate_flip(arr, 1, 1, np.array(0.2 + 0.1j), np.array(-0.3j)), complex)
        assert bivariate_flip(arr, 1, 1, z[0], w[0]).shape == (4,)
        assert bivariate_flip(arr, 1, 1, z, w).shape == (3, 4)
        assert bivariate_flip(arr, 1, 1, z[:1, :1], w[:1, :1]).shape == (1, 1)
        assert bivariate_flip(arr, 1, 1, z[:, :1], w[:1, :]).shape == (3, 4)  # broadcast, as the oracle does

    def test_entries_equal_per_point_calls_bit_for_bit(self):
        eta, theta = leja_sources(8), leja_sources(8, 0.37)
        rng = np.random.default_rng(21)
        z = 1.5 * rng.random((2, 5)) * np.exp(2j * np.pi * rng.random((2, 5)))
        w = 1.5 * rng.random((2, 5)) * np.exp(2j * np.pi * rng.random((2, 5)))
        cases = set()
        for n_nodes in range(1, 37):
            arr = build_array(eta, theta, n_nodes)
            for p, q in arr.pairs():
                cases.add(flip_case(arr, p, q))
                got = bivariate_flip(arr, p, q, z, w)
                want = [bivariate_flip(arr, p, q, complex(a), complex(b)) for a, b in zip(z.flat, w.flat)]
                assert got.tobytes() == np.array(want).reshape(z.shape).tobytes(), (n_nodes, p, q)
        assert cases == ALL_CASES


class TestTermRule:
    def test_matches_the_seven_hand_written_forms(self):
        # every member with n <= 24; a z bound may read p where the form reads p - 1
        bounds_p = 0
        for n in range(25):
            for m in range(n + 1):
                for p, q in members(n, m):
                    got, want = _flip_terms(n, m, p, q), seven_form_terms(n, m, p, q)
                    assert [(s, w) for s, _, w in got] == [(s, w) for s, _, w in want], (n, m, p, q)
                    for (_, z_got, _), (_, z_want, _) in zip(got, want):
                        assert z_got == z_want or (z_got, z_want) == (p, p - 1), (n, m, p, q)
                        bounds_p += z_got != z_want
        assert bounds_p > 0

    def test_bounds_p_and_p_minus_one_name_one_product(self):
        # the z product skips j = p, so its rows at p - 1 and at p are the same bits
        eta = leja_sources(9)
        rng = np.random.default_rng(5)
        zs = 1.5 * rng.random(16) * np.exp(2j * np.pi * rng.random(16))
        for p in range(9):
            rows = _prefix_tables(eta, [p], 8, zs)[0]
            assert np.array_equal(rows[p], rows[p + 1]), p


def ratio_prefix_table(points, skip, ubs, x):
    """Reference: the one-skip table builder that each FLIP once called for itself."""
    top = int(ubs.max())
    j = np.arange(top + 1)
    j = j[j != skip]
    factors = np.ones((top + 2, x.size), dtype=complex)
    factors[j + 1] = (x - points[j, None]) / (points[skip] - points[j])[:, None]
    return np.cumprod(factors, axis=0)[ubs + 1]


def per_flip_tables(arr, p, q, zs, ws):
    """Reference: the tables Z, W of one FLIP, each built on its own."""
    sign, z_ub, w_ub = np.array(_flip_terms(arr.n, arr.m, p, q)).T
    ztab = ratio_prefix_table(arr.eta, p, z_ub, zs)
    ztab *= sign[:, None]
    return ztab, ratio_prefix_table(arr.theta, q, w_ub, ws)


class TestSharedTables:
    def test_rows_equal_the_one_skip_builder_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for n in range(13):
            src = leja_sources(n + 1, 0.2)
            rand = 1.5 * rng.random(n + 1) * np.exp(2j * np.pi * rng.random(n + 1))
            xs = 1.5 * rng.random(7) * np.exp(2j * np.pi * rng.random(7))
            for points, x in ((src, src), (rand, xs)):
                shared = _prefix_tables(points, range(n + 1), n, x)
                for s in range(n + 1):
                    alone = _prefix_tables(points, [s], n, x)[0]
                    for ub in range(-1, n + 1):
                        want = ratio_prefix_table(points, s, np.array([ub]), x)[0]
                        assert np.array_equal(shared[s, ub + 1], want), (n, s, ub)
                        assert np.array_equal(alone[ub + 1], want), (n, s, ub)

    def test_array_paths_equal_a_per_flip_loop_bit_for_bit(self):
        eta, theta = leja_sources(8), leja_sources(8, 0.37)
        grid = 32
        axis = np.exp(2j * np.pi * np.arange(grid) / grid)
        rng = np.random.default_rng(17)
        cases = set()
        for n_nodes in range(1, 22):
            arr = build_array(eta, theta, n_nodes)
            pairs = arr.pairs()
            values = rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)
            ks, ls = np.array(pairs).T
            worst, acc, total = 0.0, np.zeros((grid, grid), dtype=complex), np.zeros((grid, grid))
            for j, (p, q) in enumerate(pairs):
                cases.add(flip_case(arr, p, q))
                ztab, wtab = per_flip_tables(arr, p, q, arr.eta[: arr.n + 1], arr.theta[: arr.n + 1])
                vals = (ztab.T @ wtab)[ks, ls]
                worst = max(worst, float(np.max(np.abs(vals - ((ks == p) & (ls == q))))))
                ztab, wtab = per_flip_tables(arr, p, q, axis, axis)
                acc += values[j] * (ztab.T @ wtab)
                total += np.abs(ztab.T @ wtab)
                ztab, wtab = per_flip_tables(arr, p, q, axis[:7], axis[3:10])
                assert np.array_equal(bivariate_flip(arr, p, q, axis[:7], axis[3:10]), (ztab * wtab).sum(axis=0))
            assert check_delta(arr)[0] == worst, n_nodes
            assert np.array_equal(_interp_grid(arr, values, axis, axis), acc), n_nodes
            assert bivariate_lebesgue(arr, grid) == float(total.max()), n_nodes
        assert cases == ALL_CASES

    def test_array_loops_build_two_tables_per_array(self, monkeypatch):
        builds = []

        def counted(*args):
            builds.append(args[0])
            return _prefix_tables(*args)

        monkeypatch.setattr(bivariate, "_prefix_tables", counted)
        arr = build_array(leja_sources(6), leja_sources(6, 0.37), 15)  # 15 FLIPs
        for run in (
            lambda: check_delta(arr),
            lambda: bivariate_lebesgue(arr, 24),
            lambda: _interp_grid(arr, np.ones(15), np.array([0.1j]), np.array([0.2])),
        ):
            builds.clear()
            run()
            assert len(builds) == 2
            assert builds[0] is arr.eta and builds[1] is arr.theta
        builds.clear()
        jackson_decay_experiment(f_entire, 5, grid=24)  # arrays n = 2..5
        assert len(builds) == 2 * 4


class TestContractionKernels:
    def test_gemm_and_point_forms_match_outer_sum(self):
        eta, theta = leja_sources(8), leja_sources(8, 0.37)
        rng = np.random.default_rng(7)
        zs = 1.5 * rng.random(9) * np.exp(2j * np.pi * rng.random(9))
        ws = 1.5 * rng.random(9) * np.exp(2j * np.pi * rng.random(9))
        cases = set()
        for n_nodes in range(1, 22):
            arr = build_array(eta, theta, n_nodes)
            for p, q in arr.pairs():
                cases.add(flip_case(arr, p, q))
                want = outer_sum_flip(arr, p, q, zs, ws)
                scale = max(1.0, float(np.max(np.abs(want))))
                _, _, ztab, wtab = next(_flip_tables(arr, zs, ws, [(p, q)]))
                assert np.max(np.abs(ztab.T @ wtab - want)) <= 1e-13 * scale
                assert np.max(np.abs(bivariate_flip(arr, p, q, zs[:, None], ws[None, :]) - want)) <= 1e-13 * scale
                assert np.max(np.abs(bivariate_flip(arr, p, q, zs, ws) - np.diag(want))) <= 1e-13 * scale
        assert cases == ALL_CASES

    def test_check_delta_matches_scalar_loop(self):
        eta, theta = leja_sources(6), leja_sources(6, 0.37)
        cases_seen = set()
        for n_nodes in range(1, 12):
            arr = build_array(eta, theta, n_nodes)
            worst, cases = 0.0, set()
            pairs = arr.pairs()
            for p, q in pairs:
                cases.add(flip_case(arr, p, q))
                for j, (k, l) in enumerate(pairs, start=1):
                    want = 1.0 if (k, l) == (p, q) else 0.0
                    worst = max(worst, abs(bivariate_flip(arr, p, q, *arr.node(j)) - want))
            got, got_cases = check_delta(arr)
            assert got_cases == cases
            assert abs(got - worst) <= 1e-13
            cases_seen |= cases
        assert cases_seen == ALL_CASES

    def test_check_delta_sees_a_wrong_closed_form(self, monkeypatch):
        arr = build_array(leja_sources(6), leja_sources(6, 0.37), 12)
        monkeypatch.setattr(bivariate, "_flip_terms", lambda n, m, p, q: _flip_terms(n, m, p, q)[:1])
        assert check_delta(arr)[0] > 1e-3

    def test_check_delta_and_check_oracle_carry_a_nan(self, monkeypatch):
        # Python's max drops a NaN that comes second, so a fold with it would report 0
        arr = build_array(leja_sources(6), leja_sources(6, 0.37), 10)
        tables, flip = bivariate._prefix_tables, bivariate.bivariate_flip

        def nan_for_skip_two(points, skips, top, x):
            tabs = tables(points, skips, top, x)
            tabs[np.asarray(skips) == 2] = np.nan
            return tabs

        def nan_at_one(arr, p, q, zs, ws):
            vals = flip(arr, p, q, zs, ws)
            return vals * np.nan if (p, q) == (1, 1) else vals

        monkeypatch.setattr(bivariate, "_prefix_tables", nan_for_skip_two)
        assert math.isnan(check_delta(arr)[0])
        monkeypatch.setattr(bivariate, "_prefix_tables", tables)
        monkeypatch.setattr(bivariate, "bivariate_flip", nan_at_one)
        assert math.isnan(check_oracle(arr, np.random.default_rng(3), 4))

    def test_check_oracle_matches_scalar_loop(self):
        eta, theta = leja_sources(6), leja_sources(6, 0.37)
        rng_batch, rng_loop = np.random.default_rng(11), np.random.default_rng(11)
        for n_nodes in range(1, 11):
            arr = build_array(eta, theta, n_nodes)
            worst = 0.0
            for jp, (p, q) in enumerate(arr.pairs(), start=1):
                for _ in range(3):
                    z, w = random_unit(rng_loop), random_unit(rng_loop)
                    direct = bivariate_flip(arr, p, q, z, w)
                    worst = max(worst, abs(direct - flip_via_vdm_ratio(arr, jp, z, w)) / max(1.0, abs(direct)))
            assert abs(check_oracle(arr, rng_batch, 3) - worst) <= 1e-12
        assert rng_batch.random() == rng_loop.random()

    def test_check_factorization_matches_scalar_loop(self):
        eta, theta = leja_sources(6), leja_sources(6, 0.37)
        rng_batch, rng_loop = np.random.default_rng(12), np.random.default_rng(12)
        for n_nodes in range(1, 11):
            arr = build_array(eta, theta, n_nodes)
            base = vdm_determinant(arr.nodes)
            worst = 0.0
            for _ in range(4):
                z = complex(rng_loop.normal(), rng_loop.normal())
                w = complex(rng_loop.normal(), rng_loop.normal())
                oracle = vdm_determinant(list(map(tuple, arr.nodes)) + [(z, w)]) / base
                predicted = vdm_extension_factor(arr, z, w)
                worst = max(worst, abs(oracle - predicted) / max(1.0, abs(predicted)))
            assert abs(check_factorization(arr, rng_batch, 4) - worst) <= 1e-12
        assert rng_batch.random() == rng_loop.random()

    def test_vdm_matrix_matches_row_formula(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(3, 10, 2)) + 1j * rng.normal(size=(3, 10, 2))
        stack = vdm_matrix(pts)
        assert stack.shape == (3, 10, 10)
        for s in range(3):
            rows = np.array([pts[s, :, 0] ** k * pts[s, :, 1] ** l for k, l in map(lex_to_pair, range(1, 11))])
            assert np.allclose(vdm_matrix(pts[s]), rows, rtol=1e-13, atol=0)
            assert np.allclose(stack[s], rows, rtol=1e-13, atol=0)

    def test_batched_oracle_matches_scalar_calls(self):
        arr = build_array(leja_sources(6), leja_sources(6, 0.37), 9)
        rng = np.random.default_rng(14)
        zs, ws = np.exp(2j * np.pi * rng.random(5)), np.exp(2j * np.pi * rng.random(5))
        got = flip_via_vdm_ratio(arr, 4, zs, ws)
        assert got.shape == (5,)
        for i in range(5):
            assert got[i] == pytest.approx(flip_via_vdm_ratio(arr, 4, complex(zs[i]), complex(ws[i])), rel=1e-14)
        # a point whose numerator overflows gives 0, as the scalar oracle does
        with np.errstate(over="ignore", invalid="ignore"):
            assert flip_via_vdm_ratio(arr, 4, np.array([1e300, zs[0]]), ws[:2])[0] == 0

    def test_refuses_checks_of_no_points(self):
        arr = build_array(leja_sources(4), leja_sources(4, 0.37), 5)
        rng = np.random.default_rng(0)
        for points in (0, -3):
            with pytest.raises(ValueError):
                check_oracle(arr, rng, points)
            with pytest.raises(ValueError):
                check_factorization(arr, rng, points)

    def test_product_formula_needs_full_triangle(self):
        eta, theta = leja_sources(6), leja_sources(6, 0.37)
        assert check_product_formula(build_array(eta, theta, 10)) <= 1e-8
        with pytest.raises(ValueError):
            check_product_formula(build_array(eta, theta, 9))


class TestOracleEquivalence:
    def test_flip_matches_vdm_ratio(self):
        rng = np.random.default_rng(1)
        eta, theta = leja_sources(8), leja_sources(8, 0.37)
        for n_nodes in range(1, 16):
            arr = build_array(eta, theta, n_nodes)
            for jp, (p, q) in enumerate(arr.pairs(), start=1):
                for _ in range(3):
                    z, w = random_unit(rng), random_unit(rng)
                    direct = bivariate_flip(arr, p, q, z, w)
                    oracle = flip_via_vdm_ratio(arr, jp, z, w)
                    assert abs(direct - oracle) <= 1e-8 * max(1.0, abs(direct))

    def test_ratio_at_nodes(self):
        arr = build_array(leja_sources(5), leja_sources(5, 0.37), 8)
        assert flip_via_vdm_ratio(arr, 3, *arr.node(3)) == pytest.approx(1.0, abs=1e-10)
        assert flip_via_vdm_ratio(arr, 3, *arr.node(5)) == pytest.approx(0.0, abs=1e-10)

    def test_oracle_cap(self):
        arr = build_array(leja_sources(8), leja_sources(8, 0.37), 28)
        with pytest.raises(ValueError):
            flip_via_vdm_ratio(arr, 1, 0.1, 0.2)

    def test_degenerate_denominator_signals(self):
        # nearly coincident sources push the base determinant below the
        # log-domain floor
        eta = 1e-30 * np.arange(5, dtype=complex)
        arr = build_array(eta, leja_sources(5, 0.37), 10)
        with pytest.raises(ArithmeticError):
            flip_via_vdm_ratio(arr, 1, 0.3, 0.4)


class TestVandermonde:
    def test_single_point(self):
        assert vdm_determinant([(0.3 + 0.1j, -0.2j)]) == pytest.approx(1.0)

    def test_repeated_point_vanishes(self):
        pts = [(1.0 + 0j, 1.0 + 0j), (1j, -1j), (1.0 + 0j, 1.0 + 0j)]
        assert abs(vdm_determinant(pts)) <= 1e-10

    def test_extension_factor_against_oracle(self):
        rng = np.random.default_rng(2)
        eta, theta = leja_sources(8), leja_sources(8, 0.37)
        for n_nodes in range(1, 16):
            arr = build_array(eta, theta, n_nodes)
            base = vdm_determinant(arr.nodes)
            for _ in range(4):
                z = complex(rng.normal(), rng.normal())
                w = complex(rng.normal(), rng.normal())
                extended = list(map(tuple, arr.nodes)) + [(z, w)]
                oracle = vdm_determinant(extended) / base
                predicted = vdm_extension_factor(arr, z, w)
                assert abs(oracle - predicted) <= 1e-8 * max(1.0, abs(predicted))

    def test_extension_vanishes_at_source(self):
        eta, theta = leja_sources(4), leja_sources(4, 0.37)
        arr = build_array(eta, theta, 3)
        assert vdm_extension_factor(arr, complex(eta[0]), 0.5 + 0.5j) == pytest.approx(0.0, abs=1e-14)

    def test_pure_w_factor_when_m_is_n_minus_1(self):
        eta, theta = leja_sources(5), leja_sources(5, 0.37)
        arr = build_array(eta, theta, 9)  # n=3, m=2 = n-1
        z, w = 0.3 + 0.4j, -0.1 + 0.9j
        want = np.prod([w - theta[i] for i in range(3)])
        assert vdm_extension_factor(arr, z, w) == pytest.approx(want, rel=1e-12)


class TestSchifferSiciak:
    def test_empty_product(self):
        assert schiffer_siciak(leja_sources(2), leja_sources(2), 0) == pytest.approx(1.0)

    def test_one_level_matches_3x3(self):
        eta, theta = leja_sources(3), leja_sources(3, 0.37)
        want = (eta[1] - eta[0]) * (theta[1] - theta[0])
        assert schiffer_siciak(eta, theta, 1) == pytest.approx(want, rel=1e-12)
        arr = build_array(eta, theta, 3)
        assert vdm_determinant(arr.nodes) == pytest.approx(want, rel=1e-10)

    def test_matches_determinant_to_n4(self):
        eta, theta = leja_sources(6), leja_sources(6, 0.37)
        for n in range(5):
            arr = build_array(eta, theta, triangular_number(n))
            oracle = vdm_determinant(arr.nodes)
            product = schiffer_siciak(eta, theta, n)
            assert abs(oracle - product) <= 1e-8 * max(1.0, abs(product))


class TestInterpolation:
    def test_reproduces_constants(self):
        arr = build_array(leja_sources(4), leja_sources(4, 0.37), 6)
        rng = np.random.default_rng(3)
        for _ in range(8):
            z, w = random_unit(rng), random_unit(rng)
            assert interpolant(arr, lambda zz, ww: 1.0, z, w) == pytest.approx(1.0, abs=1e-10)

    def test_reproduces_zw(self):
        arr = build_array(leja_sources(4), leja_sources(4, 0.37), 5)
        rng = np.random.default_rng(4)
        for _ in range(32):
            z, w = random_unit(rng), random_unit(rng)
            got = interpolant(arr, lambda zz, ww: zz * ww, z, w)
            assert got == pytest.approx(z * w, abs=1e-10)

    def test_residual_of_next_monomial_factors(self):
        eta, theta = leja_sources(8), leja_sources(8, 0.37)
        rng = np.random.default_rng(5)
        for n_nodes in (3, 4, 6, 8, 10, 12):
            arr = build_array(eta, theta, n_nodes)
            k_next, l_next = lex_to_pair(n_nodes + 1)
            monomial = lambda z, w: z**k_next * w**l_next
            for _ in range(4):
                z, w = random_unit(rng), random_unit(rng)
                residual = monomial(z, w) - interpolant(arr, monomial, z, w)
                assert residual == pytest.approx(vdm_extension_factor(arr, z, w), abs=1e-9)

    def test_projector_idempotent(self):
        eta, theta = leja_sources(5), leja_sources(5, 0.37)
        arr = build_array(eta, theta, 7)
        f = lambda z, w: np.exp(z) * np.cos(w)
        interp_at_nodes = {
            (round(z.real, 12), round(z.imag, 12), round(w.real, 12), round(w.imag, 12)): interpolant(arr, f, z, w)
            for z, w in map(tuple, arr.nodes)
        }

        def from_nodes(z, w):
            return interp_at_nodes[(round(z.real, 12), round(z.imag, 12), round(w.real, 12), round(w.imag, 12))]

        rng = np.random.default_rng(6)
        for _ in range(8):
            z, w = random_unit(rng), random_unit(rng)
            assert interpolant(arr, from_nodes, z, w) == pytest.approx(interpolant(arr, f, z, w), abs=1e-10)


class TestBivariateLebesgue:
    def test_single_node(self):
        arr = build_array(leja_sources(2), leja_sources(2, 0.37), 1)
        assert bivariate_lebesgue(arr, 16) == pytest.approx(1.0, abs=1e-12)

    def test_refuses_grids_that_cannot_resolve_the_flips(self):
        arr = build_array(leja_sources(5), leja_sources(5, 0.37), 10)  # n = 3: needs grid > 3 pi
        for grid in (-1, 1, 2, 9):
            with pytest.raises(ValueError):
                bivariate_lebesgue(arr, grid)
        assert bivariate_lebesgue(arr, 10) >= 1.0

    def test_matches_bruteforce_n3(self):
        eta, theta = leja_sources(3), leja_sources(3, 0.37)
        arr = build_array(eta, theta, 3)
        grid = 32
        axis = np.exp(2j * np.pi * np.arange(grid) / grid)
        brute = 0.0
        for z in axis:
            for w in axis:
                total = sum(abs(bivariate_flip(arr, p, q, z, w)) for p, q in arr.pairs())
                brute = max(brute, total)
        assert bivariate_lebesgue(arr, grid) == pytest.approx(brute, rel=1e-12)


class TestTwoDLeja:
    def test_disk_product_passes(self):
        eta = leja_sources(10)
        report = verify_2d_leja(eta, eta, 20, grid=512)
        assert report.max_shortfall <= 1e-6
        assert report.checked == 19

    def test_swapped_order_fails(self):
        # breaking the greedy order of one source breaks the product property
        eta = leja_sources(10).copy()
        eta[1], eta[2] = eta[2], eta[1]
        report = verify_2d_leja(eta, leja_sources(10), 20, grid=512)
        assert not report.max_shortfall <= 1e-6

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("n_max,grid", [(20, 512), (40, 97)])
    def test_matches_per_size_products(self, swap, n_max, grid):
        eta, theta = leja_sources(10).copy(), leja_sources(10, 0.37)
        if swap:
            eta[1], eta[2] = eta[2], eta[1]
        circle = np.exp(2j * np.pi * np.arange(grid) / grid)

        def grid_max(src, count):
            return float(np.max(np.prod(np.abs(circle[:, None] - src[None, :count]), axis=1))) if count else 1.0

        worst, worst_n = 0.0, 0
        for n_nodes in range(1, n_max):
            n, m = shape_of(n_nodes)
            nk, nl = lex_to_pair(n_nodes + 1)
            z_cnt, w_cnt = (n + 1, 0) if m == n else (max(n - m - 1, 0), m + 1)
            val = np.prod(np.abs(eta[nk] - eta[:z_cnt])) * np.prod(np.abs(theta[nl] - theta[:w_cnt]))
            gmax = grid_max(eta, z_cnt) * grid_max(theta, w_cnt)
            if gmax > val and 1.0 - val / gmax > worst:
                worst, worst_n = 1.0 - val / gmax, n_nodes
        report = verify_2d_leja(eta, theta, n_max, grid=grid)
        assert report.worst_size == worst_n and report.checked == n_max - 1
        assert abs(report.max_shortfall - worst) <= 1e-15

    def test_refuses_grids_that_cannot_resolve_the_products(self):
        eta = leja_sources(10)
        for grid in (1, 18):  # arrays up to N = 19 have n = 5: products of degree 6 need grid > 6 pi
            with pytest.raises(ValueError):
                verify_2d_leja(eta, eta, 20, grid=grid)
        assert verify_2d_leja(eta, eta, 20, grid=19).checked == 19

    def test_single_node_vacuous(self):
        eta = leja_sources(4)
        assert verify_2d_leja(eta, eta, 1, grid=64).max_shortfall == 0.0


class TestJacksonDecay:
    def test_constant_function(self):
        rows = jackson_decay_experiment(lambda z, w: 2.5, 6, grid=24)
        assert all(err <= 1e-10 for _, _, err in rows)

    def test_polynomial_exact_reproduction(self):
        rows = jackson_decay_experiment(lambda z, w: z**3 * w**2, 7, grid=24)
        for n, _, err in rows:
            if n >= 5:
                assert err <= 1e-10

    def test_entire_function_decays(self):
        rows = jackson_decay_experiment(lambda z, w: np.exp(z + w), 8, grid=32)
        errs = [err for _, _, err in rows]
        assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))

    @pytest.mark.parametrize("grid", [48, 128])
    def test_array_calls_match_per_point_calls(self, grid):
        # f runs once on the whole torus grid and once on each array's nodes; both
        # must give the bits of one scalar call per point, and so must the rows
        calls = []

        def f(z, w):
            calls.append(np.exp(z + w))
            return calls[-1]

        axis = np.exp(2j * np.pi * np.arange(grid) / grid)
        target = np.array([[complex(f(z, w)) for w in axis] for z in axis])
        want = []
        for n in range(2, 13):
            eta = canonical_disk_leja(n + 1).points
            arr = build_array(eta, eta, triangular_number(n))
            values = np.array([complex(f(*arr.node(j))) for j in range(1, arr.N + 1)])
            want.append((n, arr.N, float(np.max(np.abs(_interp_grid(arr, values, axis, axis) - target)))))
        calls.clear()
        rows = jackson_decay_experiment(f, 12, grid=grid)
        assert len(calls) == 1 + len(rows)
        assert calls[0].shape == (grid, grid) and calls[0].tobytes() == target.tobytes()
        assert rows == want
