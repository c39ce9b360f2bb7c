import hashlib

import numpy as np
import pytest

from lejaflip import (
    BoundarySamples,
    LejaSection,
    boundary_samples,
    canonical_disk_leja,
    circle_samples,
    ellipse_exterior_map,
    greedy_leja,
    omega0_of_section,
    split_section,
    validate_leja,
)
from lejaflip.core import binary_decompose


def as_angle_set(points):
    return np.sort(np.mod(np.angle(points), 2 * np.pi))


class TestCanonical:
    def test_first_four(self):
        pts = canonical_disk_leja(4).points
        assert np.allclose(pts, [1, -1, 1j, -1j], atol=1e-14)

    def test_single_point(self):
        assert np.allclose(canonical_disk_leja(1).points, [1.0])

    def test_power_prefixes_are_roots_of_unity(self):
        # every prefix of length 2**s is the complete set of 2**s-th roots
        big = canonical_disk_leja(4096).points
        for p in range(13):
            m = 1 << p
            want = as_angle_set(np.exp(2j * np.pi * np.arange(m) / m))
            assert np.allclose(as_angle_set(big[:m]), want, atol=1e-12)

    def test_prefix_property(self):
        long = canonical_disk_leja(1000).points
        short = canonical_disk_leja(321).points
        assert np.array_equal(long[:321], short)

    @pytest.mark.parametrize("origin", [1.0, np.exp(0.3j)])
    def test_every_prefix_is_the_shorter_section_bit_for_bit(self, origin):
        # a Leja sequence: each section of length n is the first n points of every longer one, to the bit,
        # so a sweep over N may take prefixes of one section (`bounds --max-n` builds one per N)
        long = canonical_disk_leja(300, origin).points
        for n in range(1, 301):
            assert long[:n].tobytes() == canonical_disk_leja(n, origin).points.tobytes()

    def test_rotated_origin(self):
        origin = np.exp(0.7j)
        pts = canonical_disk_leja(8, origin).points
        assert np.allclose(pts / origin, canonical_disk_leja(8).points, atol=1e-14)

    def test_rejects_bad_origin(self):
        with pytest.raises(ValueError):
            canonical_disk_leja(4, 1.1)
        with pytest.raises(ValueError):
            canonical_disk_leja(0)


class TestGreedy:
    def test_second_point_is_antipode(self):
        boundary = circle_samples(1024)
        section = greedy_leja(boundary, 2, seed_index=0)
        assert abs(section.points[1] + 1.0) < 1e-12

    def test_single_seed(self):
        boundary = circle_samples(64)
        section = greedy_leja(boundary, 1, seed_index=5)
        assert section.points[0] == boundary.samples[5]

    def test_greedy_circle_validates(self):
        boundary = circle_samples(4096)
        section = greedy_leja(boundary, 16)
        report = validate_leja(section, boundary)
        assert report.max_violation <= 10.0 / 4096

    def test_greedy_dense_samples_validate(self):
        # 64 samples per node keep the grid-restricted argmax within tolerance
        for n in (8, 32, 128):
            boundary = circle_samples(64 * n)
            section = greedy_leja(boundary, n, seed_index=3)
            assert validate_leja(section, boundary).max_violation <= 10.0 / (64 * n)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            greedy_leja(circle_samples(8), 9)

    def test_tie_break_lowest_index(self):
        # +/-i tie exactly after [1, -1] on these literal samples; the lower
        # sample index must win
        boundary = BoundarySamples(np.array([1 + 0j, -1 + 0j, 1j, -1j]))
        section = greedy_leja(boundary, 3, seed_index=0)
        assert section.points[2] == 1j

    def test_picks_match_the_recorded_indices(self):
        # sha256 of the int64 sample indices picked before the running log
        # product was accumulated in place
        boundary = boundary_samples(ellipse_exterior_map(1.2, 0.8), 8192)
        section = greedy_leja(boundary, 256)
        index = {z: i for i, z in enumerate(boundary.samples.tolist())}
        picks = np.array([index[z] for z in section.points.tolist()], dtype=np.int64)
        assert picks[:6].tolist() == [0, 4096, 6144, 2048, 5120, 967]
        digest = "53a90d46af10addf53e7ade77d03423eb4bf6181efd395052f39b27bf326e341"
        assert hashlib.sha256(picks.tobytes()).hexdigest() == digest


class TestValidate:
    def test_canonical_passes(self):
        section = canonical_disk_leja(32)
        report = validate_leja(section, circle_samples(8192))
        assert report.max_violation <= 1e-6
        assert report.max_violation <= 1e-10

    def test_bad_pair_fails(self):
        # max of |z - 1| over the circle is 2 at z = -1, but |i - 1| is sqrt(2)
        section = LejaSection(np.array([1.0 + 0j, 1j]))
        report = validate_leja(section, circle_samples(2048))
        assert not report.max_violation <= 1e-6
        assert report.worst_k == 2
        assert report.max_violation == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-3)

    def test_single_point_vacuous(self):
        report = validate_leja(canonical_disk_leja(1), circle_samples(128))
        assert report.max_violation <= 1e-6 and report.max_violation == 0.0

    def test_refuses_samples_that_cannot_resolve_degree_n_minus_1(self):
        # 10 nodes: products of up to 9 factors need more than 9 pi samples; 29 is the first count that passes
        section = canonical_disk_leja(10)
        for count in (4, 28):
            with pytest.raises(ValueError, match="degree 9"):
                validate_leja(section, circle_samples(count))
        assert validate_leja(section, circle_samples(29)).max_violation <= 1e-6


class TestBoundarySamples:
    def test_rejects_non_finite_samples(self):
        # one NaN among the samples made every maximum NaN, so validation passed vacuously
        pts = canonical_disk_leja(8).points.copy()
        pts[[2, 5]] = pts[[5, 2]]
        section = LejaSection(pts)
        samples = circle_samples(256).samples.copy()
        assert validate_leja(section, BoundarySamples(samples)).max_violation > 0.3
        for bad in (np.nan, np.inf, complex(0.5, np.nan), complex(-np.inf, 0.0)):
            samples[17] = bad
            with pytest.raises(ValueError, match="finite"):
                BoundarySamples(samples)

    def test_rejects_duplicates_anywhere(self):
        samples = circle_samples(256).samples.copy()  # conjugate pairs share a real part and stay distinct
        assert len(BoundarySamples(samples)) == 256
        for i, j in ((0, 1), (3, 200), (255, 128)):
            dup = samples.copy()
            dup[j] = dup[i]
            with pytest.raises(ValueError, match="distinct"):
                BoundarySamples(dup)


def _log_domain_validation(section, boundary):
    """The log-domain loop validate_leja ran before its linear form, verbatim: (max_violation, worst_k)."""
    pts = section.points
    samples = boundary.samples
    worst, worst_k = 0.0, 0
    logp = np.zeros(samples.size)
    with np.errstate(divide="ignore"):
        for k in range(2, pts.size + 1):
            logp = logp + np.log(np.abs(samples - pts[k - 2]))
            own = float(np.sum(np.log(np.abs(pts[k - 1] - pts[: k - 1]))))
            best = float(np.max(logp))
            if best > own:
                shortfall = 1.0 - float(np.exp(own - best))
                if shortfall > worst:
                    worst, worst_k = shortfall, k
    return worst, worst_k


def _validation_case(name):
    """Section and sample set of a named validation case."""
    kind, _, arg = name.partition("-")
    if kind == "canonical":
        return canonical_disk_leja(int(arg)), circle_samples(4096)
    if kind == "greedy":  # the nodes are samples, so some samples reach -inf
        axes = {"1.2x0.8": (1.2, 0.8), "30x1": (30.0, 1.0), "1e300": (1e300, 1e299), "1e-300": (1e-300, 1e-300)}
        boundary = circle_samples(2048) if arg == "circle" else boundary_samples(ellipse_exterior_map(*axes[arg]), 2048)
        return greedy_leja(boundary, 200, seed_index=3), boundary
    if kind == "pair":  # |i - 1| = sqrt(2), against max |z - 1| = 2
        return LejaSection(np.array([1.0 + 0j, 1j])), circle_samples(2048)
    pts = canonical_disk_leja(64).points.copy()
    if kind == "swapped":
        pts[[10, 40]] = pts[[40, 10]]
    elif kind == "rotated":  # the tail of (L_32, rho L_32) with rho off the 32nd roots of -1
        pts[32:] *= np.exp(0.3j)
    else:  # near: nodes 1e-170 off the samples 1, -1, i and -i, whose squared distances underflow
        pts *= 1.0 + 1e-170j
    return LejaSection(pts), circle_samples(4096)


class TestValidateAgainstLogDomainLoop:
    @pytest.mark.parametrize(
        "name",
        [
            *(f"canonical-{n}" for n in (1, 2, 3, 64, 257)),
            *(f"greedy-{b}" for b in ("circle", "1.2x0.8", "30x1", "1e300", "1e-300")),
            "pair",
            "swapped",
            "rotated",
            "near",
        ],
    )
    def test_matches_the_log_domain_loop(self, name):
        section, boundary = _validation_case(name)
        want, want_k = _log_domain_validation(section, boundary)
        report = validate_leja(section, boundary)
        assert report.max_violation == pytest.approx(want, abs=1e-9)
        if want > 1e-6:
            assert report.worst_k == want_k
        if name in ("pair", "swapped", "rotated"):
            assert not report.max_violation <= 1e-6
        if name.startswith("canonical") or name.startswith("greedy-1"):
            assert report.max_violation <= 1e-6


class TestSplit:
    def test_three_points(self):
        split = split_section(canonical_disk_leja(3))
        assert np.allclose(split.roots_block, [1, -1], atol=1e-14)
        assert split.rho1 == pytest.approx(1j, abs=1e-14)
        assert np.allclose(split.remainder.points, [1.0], atol=1e-14)

    def test_five_points_remainder(self):
        split = split_section(canonical_disk_leja(5))
        assert len(split.remainder) == 1
        assert split.remainder.points[0] == pytest.approx(1.0, abs=1e-14)

    def test_six_points(self):
        split = split_section(canonical_disk_leja(6))
        assert split.rho1 == pytest.approx(canonical_disk_leja(6).points[4], abs=1e-14)
        rep = validate_leja(split.remainder, circle_samples(2048))
        assert rep.max_violation <= 1e-6

    def test_rejects_powers_of_two(self):
        with pytest.raises(ValueError):
            split_section(canonical_disk_leja(8))

    def test_rejects_sloppy_block_successor(self):
        # point 3 must be a square root of -1 for a 3-point section
        angles = np.array([0.0, np.pi, np.pi / 2 + 1e-4])
        with pytest.raises(ValueError):
            split_section(LejaSection(np.exp(1j * angles)))

    def test_reassembly_all_sizes(self):
        big = canonical_disk_leja(4096).points
        for n in range(3, 4097):
            if n & (n - 1) == 0:
                continue
            section = LejaSection(big[:n])
            split = split_section(section)
            rebuilt = np.concatenate([split.roots_block, split.rho1 * split.remainder.points])
            assert np.max(np.abs(rebuilt - section.points)) <= 1e-14


class TestOmega0:
    def test_three_points(self):
        w = omega0_of_section(canonical_disk_leja(3))
        assert w**2 == pytest.approx(-1.0, abs=1e-12)
        assert w == pytest.approx(-1j, abs=1e-12)  # the canonical fourth point

    def test_six_points(self):
        w = omega0_of_section(canonical_disk_leja(6))
        assert abs(w**4 + 1) <= 1e-10

    def test_rejects_powers_of_two(self):
        with pytest.raises(ValueError):
            omega0_of_section(canonical_disk_leja(16))

    def test_distance_product_factorization(self):
        # prod_j |z - eta_j| collapses onto the block powers and stays <= 2**n
        rng = np.random.default_rng(4)
        for n in (3, 6, 13, 44, 100, 255, 1000):
            pts = canonical_disk_leja(n).points
            w = omega0_of_section(LejaSection(pts))
            exps = binary_decompose(n)
            for z in np.exp(2j * np.pi * rng.random(12)):
                direct = np.prod(np.abs(z - pts))
                factored = np.prod([abs(z ** (1 << p) + w ** (1 << p)) for p in exps])
                assert factored == pytest.approx(direct, rel=1e-9)
                assert direct <= 2.0 ** len(exps) + 1e-9

    def test_postconditions_sweep(self):
        big = canonical_disk_leja(4097).points
        for n in (n for n in range(3, 4097) if n & (n - 1)):
            section = LejaSection(big[:n])
            w = omega0_of_section(section)
            exps = binary_decompose(n)
            assert abs(abs(w) - 1.0) <= 1e-12
            assert abs(w ** (1 << exps[0]) + 1.0) <= 1e-10
            # the next canonical point must lie in w * (2**p_n-th roots of unity)
            ratio = big[n] / w
            assert abs(ratio ** (1 << exps[-1]) - 1.0) <= 1e-10


class TestSerialization:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            LejaSection(np.array([1.0 + 0j, 1.0 + 0j]))

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError):
            LejaSection(np.array([0.5 + 0j, 1j]))
