"""Acceptance suite: one test per criterion, named so that ``pytest -v``
prints a pass/fail line for each.  Shared sweeps are session-scoped."""

import math

import numpy as np
import pytest

from lejaflip import (
    UNIFORM_FLIP_BOUND,
    UNIFORM_FLIP_BOUND_2D,
    LejaSection,
    bivariate_lebesgue,
    build_array,
    canonical_disk_leja,
    check_delta,
    check_factorization,
    check_oracle,
    bivariate_flip,
    check_product_formula,
    circle_flip_stats,
    compact_flip_stats,
    ellipse_exterior_map,
    estimate_alper_constant,
    flip_direct,
    lebesgue_constant,
    lex_to_pair,
    special_n_statistics,
    sup_norm_on_circle,
    transport_sequence,
    triangular_number,
    verify_2d_leja,
)
from lejaflip.bivariate import _interp_grid
from lejaflip.flip import _Dyadic, _Flips

MAX_SWEEP = 512


@pytest.fixture(scope="session")
def canonical_points():
    return canonical_disk_leja(1024).points


@pytest.fixture(scope="session")
def disk_sweep(canonical_points):
    """Per-N grid sups of every FLIP and the refined Lebesgue constant, N <= 512."""
    sups = {}
    lebesgue = {}
    for n in range(1, MAX_SWEEP + 1):
        section = LejaSection(canonical_points[:n])
        node_sups, report = circle_flip_stats(section, refine_iters=40, per_node_refine=False)
        sups[n] = node_sups
        lebesgue[n] = report.constant
    return sups, lebesgue


def test_c01_uniform_flip_bound(disk_sweep):
    sups, _ = disk_sweep
    worst = max(float(np.max(v)) for v in sups.values())
    print(f"criterion 1: max_k,N sup |l_k^(N)| = {worst:.6f} <= {UNIFORM_FLIP_BOUND:.1f}")
    assert worst <= UNIFORM_FLIP_BOUND + 1e-6


def test_c02_roots_of_unity_sups_are_one(disk_sweep):
    sups, _ = disk_sweep
    worst = 0.0
    for p in range(0, 10):
        values = sups[2**p]
        worst = max(worst, float(np.max(np.abs(values - 1.0))))
    print(f"criterion 2: max deviation of 2^p-root sups from 1 = {worst:.2e}")
    assert worst <= 1e-8


def test_c03_lebesgue_identity_and_2n_bound(disk_sweep):
    _, lebesgue = disk_sweep
    worst_rel = 0.0
    for p in range(1, 9):
        n = 2**p - 1
        worst_rel = max(worst_rel, abs(lebesgue[n] - n) / n)
    worst_ratio = max(lebesgue[n] - 2.0 * n for n in lebesgue)
    print(f"criterion 3: max rel err of Lambda_(2^p-1) = {worst_rel:.2e}; max Lambda-2N = {worst_ratio:.2e}")
    assert worst_rel <= 1e-6
    assert all(lebesgue[n] <= 2.0 * n + 1e-6 for n in lebesgue)


def test_c04_special_n_window():
    lower = 4.0 * math.cos(math.pi / 8.0) / math.pi
    averages = {}
    for p in range(2, 11):
        stats = special_n_statistics(p)
        n = 2**p - 1
        assert stats.sum_sup > n
        assert lower - 1e-6 <= stats.max_sup <= 2.0 + 1e-6
        averages[p] = stats.avg_sup
        print(f"criterion 4: p={p} max_sup={stats.max_sup:.6f} sum-{n}={stats.sum_sup - n:.4f} avg={stats.avg_sup:.6f}")
    assert averages[10] < averages[4]


def _block_flips(nodes, ts, ks):
    """|l_{ks[i]}(exp(i*ts[i]))| from the block-formula evaluator of a node set at dyadic angles."""
    flips = _Flips(nodes)
    assert flips.dyadic is not None
    return flips.dyadic.own(np.asarray(ts, dtype=float), np.asarray(ks), flips.inv_w)


def test_c05_closed_form_spot_value():
    for p1 in range(2, 9):
        n = 2 ** (p1 + 1) - 1
        target = math.cos(math.pi / 2 ** (p1 + 2)) / (2**p1 * math.sin(math.pi / 2 ** (p1 + 2)))
        rotated_arg = complex(np.exp(1j * np.pi / 2 ** (p1 + 1)))
        # the paper's representative |1 - w| / 2^(p1+1) * |y^2^(p1+1) - 1| / (|y - 1| |y - w|),
        # label w = exp(i pi/2^p1), at the stated argument
        w, m = complex(np.exp(1j * np.pi / 2**p1)), 2 ** (p1 + 1)
        value = abs(1.0 - w) / m * abs(rotated_arg**m - 1.0) / (abs(rotated_arg - 1.0) * abs(rotated_arg - w))
        assert value == pytest.approx(target, rel=1e-9)
        # the actual FLIP: the node paired with that label, its argument rotated by that node
        section = canonical_disk_leja(n)
        d = _Dyadic.of(section.points)  # for odd N, omega0 = -c_last, the last block's c = exp(2 pi i g/2**s)
        omega = -np.exp(2j * np.pi * d.blocks[-1][1] / (1 << d.s))
        node = omega / w
        k = int(np.argmin(np.abs(section.points - node))) + 1
        assert abs(section.points[k - 1] - node) < 1e-12
        z = section.points[k - 1] * rotated_arg
        assert abs(flip_direct(section.points, k, z)) == pytest.approx(target, rel=1e-9)
        t = np.angle(section.points[k - 1]) + np.pi / 2 ** (p1 + 1)
        assert _block_flips(section.points, [t], [k - 1])[0] == pytest.approx(target, rel=1e-9)
        print(f"criterion 5: p1={p1} |l|={value:.9f} target={target:.9f}")


def test_c06_structured_equals_direct(canonical_points):
    # the block-formula evaluator against log-domain direct moduli, every node of every
    # section; the section of length n sums the first n columns of the canonical points' logs
    rng = np.random.default_rng(0)
    ts = 2.0 * np.pi * rng.random(128)
    zs = np.exp(1j * ts)
    dist = np.abs(canonical_points[:, None] - canonical_points[None, :])
    np.fill_diagonal(dist, 1.0)
    log_w = np.cumsum(np.log(dist), axis=1)  # log_w[k, n - 1]: node k's log-weight in the section of length n
    logd = np.log(np.abs(zs[:, None] - canonical_points[None, :]))
    log_prod = np.cumsum(logd, axis=1)
    worst = 0.0
    for n in range(3, 1025):
        direct = np.exp(log_prod[:, n - 1, None] - logd[:, :n] - log_w[None, :n, n - 1])
        structured = _block_flips(canonical_points[:n], np.repeat(ts, n), np.tile(np.arange(n), ts.size))
        rel = np.abs(direct - structured.reshape(ts.size, n)) / np.maximum(direct, 1e-300)
        worst = max(worst, float(rel.max()))
    print(f"criterion 6: worst relative difference = {worst:.2e}")
    assert worst <= 1e-8
    # spot-check the vectorized comparison against the public evaluator
    section = LejaSection(canonical_points[:13])
    for k in (1, 5, 8, 13):
        v1 = abs(flip_direct(section.points, k, zs[0]))
        assert v1 == pytest.approx(_block_flips(section.points, ts[:1], [k - 1])[0], rel=1e-9)


@pytest.fixture(scope="session")
def bivariate_sources():
    eta = canonical_disk_leja(16).points
    theta = eta * np.exp(0.37j)
    return eta, theta


def test_c07_bivariate_delta_and_membership(bivariate_sources):
    eta, theta = bivariate_sources
    cases = set()
    worst_delta = 0.0
    worst_coeff = 0.0
    for n_nodes in range(1, 16):
        arr = build_array(eta, theta, n_nodes)
        delta_err, seen = check_delta(arr)
        worst_delta = max(worst_delta, delta_err)
        cases |= seen
        # coefficient support via inverse FFT on a roots-of-unity tensor grid
        n, m = arr.n, arr.m
        g = n + 2
        axis = np.exp(2j * np.pi * np.arange(g) / g)
        for p, q in arr.pairs():
            coeff = np.fft.fft2(bivariate_flip(arr, p, q, axis[:, None], axis[None, :])) / g**2
            for a in range(g):
                for b in range(g):
                    if a + b > n or (a + b == n and b > m):
                        worst_coeff = max(worst_coeff, abs(coeff[a, b]))
    print(f"criterion 7: delta err={worst_delta:.2e} stray coeff={worst_coeff:.2e} cases={sorted(cases)}")
    assert worst_delta <= 1e-10
    assert worst_coeff <= 1e-9
    assert len(cases) == 7


def test_c08_determinant_oracle_equivalence(bivariate_sources):
    eta, theta = bivariate_sources
    rng = np.random.default_rng(1)
    worst = 0.0
    for n_nodes in range(1, 22):
        worst = max(worst, check_oracle(build_array(eta, theta, n_nodes), rng, 16))
    print(f"criterion 8: worst relative deviation from VDM ratio = {worst:.2e}")
    assert worst <= 1e-8


def test_c09_factorization_and_schiffer_siciak(bivariate_sources):
    eta, theta = bivariate_sources
    rng = np.random.default_rng(2)
    worst_ext = max(check_factorization(build_array(eta, theta, n_nodes), rng, 16) for n_nodes in range(1, 16))
    worst_ss = max(check_product_formula(build_array(eta, theta, triangular_number(n))) for n in range(5))
    print(f"criterion 9: extension-factor err={worst_ext:.2e}; product-formula err={worst_ss:.2e}")
    assert worst_ext <= 1e-8
    assert worst_ss <= 1e-8


def test_c10_two_dimensional_leja_property(bivariate_sources):
    eta, theta = bivariate_sources
    report = verify_2d_leja(eta, theta, 20, grid=512)
    print(f"criterion 10: checked N=1..19, max shortfall = {report.max_shortfall:.2e}")
    assert report.max_shortfall <= 1e-6


def test_c11_bivariate_node_bound(bivariate_sources):
    eta, theta = bivariate_sources
    grid = 64
    axis = np.exp(2j * np.pi * np.arange(grid) / grid)
    worst_margin = np.inf
    for n_nodes in range(1, triangular_number(8) + 1):
        arr = build_array(eta, theta, n_nodes)
        for p, q in arr.pairs():
            sup = float(np.max(np.abs(bivariate_flip(arr, p, q, axis[:, None], axis[None, :]))))
            bound = 2.0 * (arr.n - p - q + 1) * UNIFORM_FLIP_BOUND_2D
            worst_margin = min(worst_margin, bound - sup)
            assert sup <= bound + 1e-6
    print(f"criterion 11: smallest bound margin over n <= 8 arrays = {worst_margin:.3e}")


def test_c12_bivariate_lebesgue_envelope(bivariate_sources):
    eta, theta = bivariate_sources
    sizes, values = [], []
    for n in range(1, 11):
        arr = build_array(eta, theta, triangular_number(n))
        lam = bivariate_lebesgue(arr, 128)
        envelope = UNIFORM_FLIP_BOUND_2D * n * (n + 1) * (n + 2)
        assert lam <= envelope
        sizes.append(arr.N)
        values.append(lam)
    slope = float(np.polyfit(np.log(sizes[1:]), np.log(values[1:]), 1)[0])
    print(f"criterion 12: grid Lebesgue within envelope; fitted slope {slope:.3f} (vs 3/2 exponent)")
    assert np.isfinite(slope)


def test_c13_transport_degenerations():
    identity = ellipse_exterior_map(1.0, 1.0)
    section = canonical_disk_leja(24)
    ts = transport_sequence(identity, section)
    _, leb_compact = compact_flip_stats(ts)
    leb_circle = lebesgue_constant(section)
    assert leb_compact.constant == pytest.approx(leb_circle.constant, abs=1e-9)
    assert np.max(np.abs(leb_compact.per_node_sup - leb_circle.per_node_sup)) <= 1e-9
    for p in (1, 7, 24):
        one = sup_norm_on_circle(section, p).value
        assert abs(leb_compact.per_node_sup[p - 1] - one) <= 1e-9
    alper_circle = estimate_alper_constant(identity, 256, 256)
    assert abs(alper_circle) <= 1e-6
    a, b = 1.2, 0.8
    emap = ellipse_exterior_map(a, b)
    rng = np.random.default_rng(3)
    z = np.exp(2j * np.pi * rng.random(10_000))
    w = np.exp(2j * np.pi * rng.random(10_000))
    keep = np.abs(z - w) > 1e-12
    z, w = z[keep], w[keep]
    ratios = np.abs(emap(z) - emap(w)) / np.abs(z - w)
    assert ratios.min() >= b * (1 - 1e-9)
    assert ratios.max() <= a * (1 + 1e-9)
    print(
        f"criterion 13: identity transport matches to 1e-9; circle Alper={alper_circle:.2e}; "
        f"chord ratios in [{ratios.min():.6f}, {ratios.max():.6f}] vs [b, a]=[{b}, {a}]"
    )


def test_c14_interpolation_correctness(bivariate_sources):
    eta, theta = bivariate_sources
    rng = np.random.default_rng(4)
    worst = 0.0
    for n_nodes in range(1, 16):
        arr = build_array(eta, theta, n_nodes)
        monomials = [lex_to_pair(j) for j in range(1, n_nodes + 1)]
        for _ in range(20):
            coeffs = rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)

            def poly(z, w):
                return sum(c * z**k * w**l for c, (k, l) in zip(coeffs, monomials))

            values = poly(arr.nodes[:, 0], arr.nodes[:, 1])
            for _ in range(4):
                z = complex(np.exp(2j * np.pi * rng.random()))
                w = complex(np.exp(2j * np.pi * rng.random()))
                err = abs(_interp_grid(arr, values, np.array([z]), np.array([w]))[0, 0] - poly(z, w))
                worst = max(worst, err / max(1.0, abs(poly(z, w))))
    assert worst <= 1e-10
    from lejaflip import jackson_decay_experiment

    rows = jackson_decay_experiment(lambda z, w: np.exp(z + w), 12, grid=48)
    errs = [err for _, _, err in rows]
    assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))
    print(f"criterion 14: worst polynomial reproduction err={worst:.2e}; decay {errs[0]:.2e} -> {errs[-1]:.2e}")
