"""Bivariate Lagrange interpolation on intertwining arrays.

Nodes come from two univariate sequences (eta_k) and (theta_l) ordered by the
graded lexicographic rule on exponent pairs: (k1,l1) before (k2,l2) when
k1+l1 < k2+l2, or the sums tie and k1 > k2.  The first N nodes form the array
Omega_{n,m} with N_{n-1} < N <= N_n, N_n = (n+1)(n+2)/2, m = N - N_{n-1} - 1.
Each basis polynomial is one of seven closed forms, set by the position of
(p, q) relative to the diagonal p+q = n and the split q vs m and all written
by one telescoping term rule.  A closed form is a signed sum of (z factor) *
(w factor) terms, held as two per-term tables: their contraction gives the
FLIP on a tensor grid (one matrix product) or at a list of points.  A dense
generalized Vandermonde determinant provides the independent oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import require_resolving_grid

#: Largest node count accepted by the determinant-ratio oracle.
DEFAULT_ORACLE_CAP = 21


def triangular_number(n: int) -> int:
    """Dimension of the total-degree-n polynomial space in two variables."""
    return (n + 1) * (n + 2) // 2 if n >= 0 else 0


def lex_to_pair(j: int) -> tuple[int, int]:
    """Exponent pair (k, l) of the j-th basis monomial, j >= 1."""
    if j < 1:
        raise ValueError("j must be positive")
    # exact: T(d-1) < j <= T(d) puts 8j - 7 in [(2d+1)**2, (2d+3)**2)
    d = (math.isqrt(8 * j - 7) - 1) // 2
    t = j - triangular_number(d - 1)
    return d - t + 1, t - 1


def shape_of(n_nodes: int) -> tuple[int, int]:
    """The unique (n, m) with N_{n-1} < N <= N_n and m = N - N_{n-1} - 1."""
    if n_nodes < 1:
        raise ValueError("node count must be positive")
    k, l = lex_to_pair(n_nodes)
    return k + l, l


@dataclass(frozen=True)
class IntertwiningArray:
    """First N nodes of the intertwining of two point sequences."""

    eta: np.ndarray
    theta: np.ndarray
    N: int
    n: int
    m: int
    nodes: np.ndarray  # shape (N, 2)

    def node(self, j: int) -> tuple[complex, complex]:
        """1-based access to H_j."""
        z, w = self.nodes[j - 1]
        return complex(z), complex(w)

    def pairs(self) -> list[tuple[int, int]]:
        """Source-index pairs (p, q) of the nodes, in order."""
        return [lex_to_pair(j) for j in range(1, self.N + 1)]


def build_array(eta, theta, n_nodes: int) -> IntertwiningArray:
    """Assemble Omega_N from the leading entries of the two source sequences."""
    eta = np.asarray(eta, dtype=complex)
    theta = np.asarray(theta, dtype=complex)
    n, m = shape_of(n_nodes)
    for name, src in (("eta", eta), ("theta", theta)):
        if src.ndim != 1 or src.size < n + 1:
            raise ValueError(f"{name} needs at least {n + 1} entries for N={n_nodes}")
        if np.unique(src[: n + 1]).size != n + 1:
            raise ValueError(f"{name} entries must be pairwise distinct")
    nodes = np.array([(eta[k], theta[l]) for k, l in (lex_to_pair(j) for j in range(1, n_nodes + 1))])
    return IntertwiningArray(eta, theta, n_nodes, n, m, nodes)


def _require_member(arr: IntertwiningArray, p: int, q: int) -> None:
    if p < 0 or q < 0 or not (p + q < arr.n or (p + q == arr.n and q <= arr.m)):
        raise ValueError(f"(eta_{p}, theta_{q}) is not a node of Omega_{arr.N}")


def flip_case(arr: IntertwiningArray, p: int, q: int) -> str:
    """Which of the seven closed forms evaluates the FLIP at (eta_p, theta_q)."""
    _require_member(arr, p, q)
    n, m = arr.n, arr.m
    if p + q == n or (p + q == n - 1 and q >= m + 1):
        return "top"
    if p + q == n - 1 and q == m:
        return "edge-qm"
    if p + q == n - 1:
        return "edge-qlt"
    if q <= m - 1 and p <= n - m - 1:
        return "low-left"
    if q <= m - 1:
        return "low-right"
    if q == m:
        return "low-qm"
    return "low-qgt"


def _flip_terms(n: int, m: int, p: int, q: int) -> list[tuple[int, int, int]]:
    """Signed product terms (sign, z_ub, w_ub) of the FLIP at (eta_p, theta_q).

    Each term means sign * prod_{j<=z_ub, j!=p} (z-eta_j)/(eta_p-eta_j)
                         * prod_{i<=w_ub, i!=q} (w-theta_i)/(theta_q-theta_i),
    with an upper bound of -1 standing for the empty product.

    One telescoping rule, never branching on the form, gives all seven forms
    of :func:`flip_case`.  With z(r) = n - q - r - (1 if q + r < m else 2), the
    terms are (+1, z(-1), q-1), then (-1, z(0), q-1) and (+1, z(0), q+1) if
    z(0) >= p, then (+1, z(r), q+r+1) and (-1, z(r), q+r) for r = 1, 2, ...
    while z(r) >= p.  Where a form written out by hand has the z bound p - 1,
    the rule gives p: the z product skips j = p, so both bounds name one product.
    """

    def z(r: int) -> int:
        return n - q - r - (1 if q + r < m else 2)

    terms = [(1, z(-1), q - 1)]
    if z(0) >= p:
        terms += [(-1, z(0), q - 1), (1, z(0), q + 1)]
    r = 1
    while z(r) >= p:
        terms += [(1, z(r), q + r + 1), (-1, z(r), q + r)]
        r += 1
    return terms


def _prefix_tables(points: np.ndarray, skips, top: int, x: np.ndarray) -> np.ndarray:
    """Tables of prod_{j<=u, j!=s} (x - points[j]) / (points[s] - points[j]), one per skip s.

    Shape (len(skips), top + 2, x.size): row u + 1 holds the product up to u,
    row 0 the empty product 1.  The cumprod is sequential, so a row's bits do
    not depend on ``top``.
    """
    skips, j = np.asarray(skips)[:, None, None], np.arange(top + 1)[:, None]
    factors = np.ones((skips.size, top + 2, x.size), dtype=complex)
    np.divide(x - points[j], points[skips] - points[j], out=factors[:, 1:], where=j != skips)
    return np.cumprod(factors, axis=1, out=factors)


def _flip_tables(arr: IntertwiningArray, zs: np.ndarray, ws: np.ndarray, pairs: list[tuple[int, int]]):
    """Yield (p, q, Z, W) per FLIP (eta_p, theta_q) of ``pairs``, in their order.

    Row t of Z (T x len(zs)) and W (T x len(ws)) holds the z and the w product
    of the t-th signed term of :func:`_flip_terms`, the sign folded into Z, so
    the FLIP is sum_t Z[t] W[t].  Each axis's tables are built once, for the
    skips that ``pairs`` use, and the FLIPs select their rows from them.
    """
    ps, qs = (sorted(set(c)) for c in zip(*pairs))
    ztabs = dict(zip(ps, _prefix_tables(arr.eta, ps, arr.n, zs)))
    wtabs = dict(zip(qs, _prefix_tables(arr.theta, qs, arr.n, ws)))
    for p, q in pairs:
        sign, z_ub, w_ub = np.array(_flip_terms(arr.n, arr.m, p, q)).T
        ztab = ztabs[p][z_ub + 1]
        ztab *= sign[:, None]
        yield p, q, ztab, wtabs[q][w_ub + 1]


def bivariate_flip(arr: IntertwiningArray, p: int, q: int, z, w) -> complex | np.ndarray:
    """FLIP of Omega_N at source indices (p, q), evaluated at (z, w).

    Equals 1 at (eta_p, theta_q) and 0 at every other node; the selected
    closed form is reported by :func:`flip_case`.  z and w may be arrays of
    one shape.  The terms are summed in order, so a point's value has the
    same bits whatever else is evaluated with it.
    """
    _require_member(arr, p, q)
    zs, ws = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    _, _, ztab, wtab = next(_flip_tables(arr, zs.ravel(), ws.ravel(), [(p, q)]))
    val = ztab[0] * wtab[0]
    for zrow, wrow in zip(ztab[1:], wtab[1:]):
        val += zrow * wrow
    val = val.reshape(zs.shape)
    return complex(val) if val.ndim == 0 else val


def _interp_grid(arr: IntertwiningArray, values: np.ndarray, zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    acc = np.zeros((zs.size, ws.size), dtype=complex)
    for j, (_, _, ztab, wtab) in enumerate(_flip_tables(arr, zs, ws, arr.pairs())):
        acc += values[j] * (ztab.T @ wtab)
    return acc


def bivariate_lebesgue(arr: IntertwiningArray, grid: int) -> float:
    """Max over the torus grid of sum_p |l_{H_p}(z, w)| (grid angles per axis).

    Refuses grids of at most pi*n angles, which cannot resolve the degree-n FLIPs.
    """
    require_resolving_grid(grid, arr.n)
    axis = np.exp(2j * np.pi * np.arange(grid) / grid)
    total = np.zeros((grid, grid))
    # one gemm per FLIP, into one buffer for every FLIP: two fewer grid-sized temporaries each
    flip, mod = np.empty((grid, grid), dtype=complex), np.empty((grid, grid))
    for _, _, ztab, wtab in _flip_tables(arr, axis, axis, arr.pairs()):
        total += np.abs(np.matmul(ztab.T, wtab, out=flip), out=mod)
    return float(total.max())


# ---------------------------------------------------------------------------
# Vandermonde oracle


@functools.lru_cache(maxsize=128)
def _monomial_exponents(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only exponent columns (k, l) of the first ``size`` graded monomials."""
    kl = np.array([lex_to_pair(i) for i in range(1, size + 1)], dtype=np.int64).reshape(size, 2)
    kl.setflags(write=False)
    return kl[:, 0, None], kl[:, 1, None]


def vdm_matrix(points) -> np.ndarray:
    """Generalized Vandermonde matrix [e_i(H_j)] in the graded monomial order.

    ``points`` has shape (..., n, 2); leading axes give a stack of matrices.
    """
    pts = np.asarray(points, dtype=complex)
    k, l = _monomial_exponents(pts.shape[-2])
    mat = pts[..., None, :, 0] ** k
    mat *= pts[..., None, :, 1] ** l
    return mat


def vdm_determinant(points) -> complex | np.ndarray:
    """Determinant of the generalized Vandermonde matrix (LU with partial pivoting).

    A stack of point sets, shape (..., n, 2), gives an array of determinants.
    """
    det = np.linalg.det(vdm_matrix(points))
    return complex(det) if det.ndim == 0 else det


def flip_via_vdm_ratio(arr: IntertwiningArray, p: int, z, w) -> complex | np.ndarray:
    """FLIP value as a ratio of two dense determinants (test oracle; p is 1-based).

    z and w may be arrays of one shape; the denominator is factored once and
    the numerators as one stack.  A non-finite numerator gives 0.
    """
    if arr.N > DEFAULT_ORACLE_CAP:
        raise ValueError(f"oracle capped at N={DEFAULT_ORACLE_CAP}, got N={arr.N}")
    if not 1 <= p <= arr.N:
        raise ValueError(f"p must be in 1..{arr.N}")
    sign_den, log_den = np.linalg.slogdet(vdm_matrix(arr.nodes))
    if not np.isfinite(log_den) or log_den < math.log(1e-250):
        raise ArithmeticError("denominator determinant is numerically degenerate")
    zs, ws = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    shifted = np.broadcast_to(arr.nodes, zs.shape + arr.nodes.shape).copy()
    shifted[..., p - 1, 0] = zs
    shifted[..., p - 1, 1] = ws
    sign_n, log_n = np.linalg.slogdet(vdm_matrix(shifted))
    val = np.where(np.isfinite(log_n), sign_n / sign_den * np.exp(log_n - log_den), 0.0)
    return complex(val) if val.ndim == 0 else val


def _extension_counts(n: int, m: int) -> tuple[int, int]:
    """How many leading eta and theta the extension factor of Omega_{n,m} takes."""
    return (n + 1, 0) if m == n else (max(n - m - 1, 0), m + 1)


def vdm_extension_factor(arr: IntertwiningArray, z, w) -> complex | np.ndarray:
    """Predicted ratio VDM(H_1..H_N, (z,w)) / VDM(H_1..H_N).

    Full triangular arrays (m = n) give prod_{j<=n} (z - eta_j); otherwise
    prod_{j<=n-m-2} (z - eta_j) * prod_{i<=m} (w - theta_i), the z part being
    empty when m = n - 1.  z and w may be arrays of one shape.
    """
    z_cnt, w_cnt = _extension_counts(arr.n, arr.m)
    z = np.asarray(z, dtype=complex)[..., None]
    w = np.asarray(w, dtype=complex)[..., None]
    val = np.prod(z - arr.eta[:z_cnt], axis=-1) * np.prod(w - arr.theta[:w_cnt], axis=-1)
    return complex(val) if val.ndim == 0 else val


def _vdm_1d(points: np.ndarray) -> complex:
    val = 1.0 + 0.0j
    for b in range(points.size):
        for a in range(b):
            val *= points[b] - points[a]
    return complex(val)


def schiffer_siciak(eta, theta, n: int) -> complex:
    """prod_{j=1..n} VDM(eta_0..eta_j) * VDM(theta_0..theta_j).

    Equals the generalized Vandermonde determinant of the full triangular
    array Omega_{N_n}.
    """
    eta = np.asarray(eta, dtype=complex)
    theta = np.asarray(theta, dtype=complex)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if eta.size < n + 1 or theta.size < n + 1:
        raise ValueError(f"need n+1 = {n + 1} source points")
    val = 1.0 + 0.0j
    for j in range(1, n + 1):
        val *= _vdm_1d(eta[: j + 1]) * _vdm_1d(theta[: j + 1])
    return val


# ---------------------------------------------------------------------------
# checks shared by the CLI and the tests


def _require_points(points: int) -> None:
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points}")


def _max_rel_gap(value, ref) -> float:
    return float(np.max(np.abs(value - ref) / np.maximum(1.0, np.abs(ref))))


def check_delta(arr: IntertwiningArray) -> tuple[float, set[str]]:
    """Largest |l_{H_p}(H_j) - delta_pj| over all node pairs, and the closed forms used.

    Each FLIP is evaluated once on the source axes eta[:n+1] x theta[:n+1],
    whose entries at the nodes' index pairs are its node values.
    """
    zs, ws = arr.eta[: arr.n + 1], arr.theta[: arr.n + 1]
    ks, ls = np.array(arr.pairs()).T
    worst, cases = 0.0, set()
    for p, q, ztab, wtab in _flip_tables(arr, zs, ws, arr.pairs()):
        cases.add(flip_case(arr, p, q))
        vals = (ztab.T @ wtab)[ks, ls]
        want = (ks == p) & (ls == q)
        worst = np.maximum(worst, np.max(np.abs(vals - want)))  # a NaN stays
    return float(worst), cases


def check_oracle(arr: IntertwiningArray, rng: np.random.Generator, points: int) -> float:
    """Largest relative gap between each FLIP and its determinant-ratio oracle.

    Each FLIP is compared at ``points`` random points of the torus, drawn as
    rng.random((points, 2)) angle fractions (z, w) per FLIP in node order.
    """
    _require_points(points)
    angles = np.exp(2j * np.pi * rng.random((arr.N, points, 2)))
    worst = 0.0
    for jp, (p, q) in enumerate(arr.pairs(), start=1):
        zs, ws = angles[jp - 1, :, 0], angles[jp - 1, :, 1]
        direct = bivariate_flip(arr, p, q, zs, ws)
        oracle = flip_via_vdm_ratio(arr, jp, zs, ws)
        worst = np.maximum(worst, _max_rel_gap(oracle, direct))  # a NaN stays
    return float(worst)


def check_factorization(arr: IntertwiningArray, rng: np.random.Generator, points: int) -> float:
    """Largest relative gap between the extension ratio and :func:`vdm_extension_factor`.

    The ratio VDM(H_1..H_N, (z,w)) / VDM(H_1..H_N) is taken at ``points``
    standard complex normal (z, w), drawn as rng.normal(size=(points, 4)) rows
    (Re z, Im z, Re w, Im w); the extended determinants form one stack.
    """
    _require_points(points)
    draws = rng.normal(size=(points, 4))
    zs, ws = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
    extended = np.empty((points, arr.N + 1, 2), dtype=complex)
    extended[:, :-1] = arr.nodes
    extended[:, -1, 0], extended[:, -1, 1] = zs, ws
    oracle = vdm_determinant(extended) / vdm_determinant(arr.nodes)
    predicted = vdm_extension_factor(arr, zs, ws)
    return _max_rel_gap(oracle, predicted)


def check_product_formula(arr: IntertwiningArray) -> float:
    """Relative gap between VDM(Omega_{N_n}) and :func:`schiffer_siciak` on a full triangular array."""
    if arr.m != arr.n:
        raise ValueError(f"the product formula needs a full triangular array, got N={arr.N}")
    return _max_rel_gap(vdm_determinant(arr.nodes), schiffer_siciak(arr.eta, arr.theta, arr.n))


# ---------------------------------------------------------------------------
# sequence-level experiments


@dataclass(frozen=True)
class TwoDLejaReport:
    max_shortfall: float
    worst_size: int
    checked: int


def _prefix_grid_maxima(src: np.ndarray, count: int, circle: np.ndarray) -> list[float]:
    """Entry c is the circle-grid max of prod_{j<c} |t - src_j|, for c = 0..count."""
    prods = np.cumprod(np.abs(circle - src[:count, None]), axis=0)
    return [1.0] + prods.max(axis=1).tolist()


def verify_2d_leja(eta, theta, n_max: int, grid: int = 512) -> TwoDLejaReport:
    """Check the greedy optimality of each intertwining node H_{N+1}, N < n_max.

    The extension determinant factors into one-dimensional distance products,
    so the sup over the product compact splits into two circle-grid maxima.
    The report holds the largest shortfall 1 - value/(their product) at
    H_{N+1}, its N and the number of N checked; the caller applies a
    tolerance.  Refuses grids of at most pi*(n+1) angles, n the degree of the
    largest array checked, which cannot resolve the distance products.
    """
    eta = np.asarray(eta, dtype=complex)
    theta = np.asarray(theta, dtype=complex)
    need = shape_of(n_max)[0] + 2
    if eta.size < need or theta.size < need:
        raise ValueError(f"need at least {need} source points per sequence")
    top = shape_of(max(n_max - 1, 1))[0] + 1
    require_resolving_grid(grid, top)
    circle = np.exp(2j * np.pi * np.arange(grid) / grid)
    gz = _prefix_grid_maxima(eta, top, circle)
    gw = _prefix_grid_maxima(theta, top, circle)
    worst, worst_n = 0.0, 0
    for n_nodes in range(1, n_max):
        nk, nl = lex_to_pair(n_nodes + 1)
        z_cnt, w_cnt = _extension_counts(*shape_of(n_nodes))
        val = float(np.prod(np.abs(eta[nk] - eta[:z_cnt]))) * float(np.prod(np.abs(theta[nl] - theta[:w_cnt])))
        gmax = gz[z_cnt] * gw[w_cnt]
        if gmax > val:
            short = 1.0 - val / gmax
            if short > worst:
                worst, worst_n = short, n_nodes
    return TwoDLejaReport(worst, worst_n, n_max - 1)


def jackson_decay_experiment(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_max: int,
    grid: int = 48,
) -> list[tuple[int, int, float]]:
    """Interpolation error of f on full triangular arrays, n = 2..n_max.

    ``f`` maps arrays of z and w elementwise (a constant is broadcast); it is
    called once on the torus grid and once on each array's nodes.
    Returns rows (n, N_n, torus-grid sup error); for entire functions such as
    exp(z + w) the errors decrease strictly.  Refuses grids of at most
    pi*n_max angles per axis, which cannot resolve the degree-n_max
    interpolants.
    """
    from .disk import canonical_disk_leja

    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    require_resolving_grid(grid, n_max)
    rows: list[tuple[int, int, float]] = []
    axis = np.exp(2j * np.pi * np.arange(grid) / grid)
    target = np.broadcast_to(f(axis[:, None], axis[None, :]), (grid, grid))
    for n in range(2, n_max + 1):
        eta = canonical_disk_leja(n + 1).points
        arr = build_array(eta, eta, triangular_number(n))
        values = np.broadcast_to(f(arr.nodes[:, 0], arr.nodes[:, 1]), arr.N)
        approx = _interp_grid(arr, values, axis, axis)
        err = float(np.max(np.abs(approx - target)))
        rows.append((n, arr.N, err))
    return rows
