"""Fundamental Lagrange interpolation polynomials (FLIPs) of disk Leja sections.

Direct evaluation works for any pairwise-distinct node set.  For unit-disk
Leja sections whose length is not a power of two, the modulus also factors
over the binary blocks of the section,

    |l_k(z)| = (1/2**p1) |z**2**p1 - 1| / |z - z_k|
               * prod_q |z**2**pq + w0**2**pq| / |z_k**2**pq + w0**2**pq|,

with w0 the root of -1 attached to the section.  Sup norms are estimated on
the unit circle only (the maximum modulus principle makes that exact) by a
uniform angle scan followed by golden-section refinement.

One scan engine serves every boundary curve t -> z(t): exp(it) here and
Phi(exp(it)) in :mod:`lejaflip.transport`.  It sweeps the parameter grid in
node-major tiles sized to stay in the L2 cache, keeping only per-node maxima
and the Lebesgue maximum, so memory does not grow with the grid.  The same
tile kernel serves the refinement probes, which compute only the entries
they keep, so one linear-domain formula gives every |l_k| on a boundary; the
log domain is its guard for node sets whose weights leave double range.
Grids of at most pi*(N-1) angles are refused.

The tile kernel has two front-ends for the distances |b - eta_k|.  When the
nodes and the points all have modulus 1 to a few ulps, as canonical sections
and exp(it) grids do, a distance is 2|sin((t - phi_k)/2)|: one product of
half-angle values with no coordinate differences and no square roots.  Any
other input, every ellipse included, takes coordinate differences.  The
choice is made from the moduli alone, once per point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundViolation, binary_decompose, csv_text, require_resolving_grid, stable_abs_product, wrap_angle
from .disk import LejaSection, canonical_disk_leja, omega0_of_section

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_NEAR_NODE = 1e-8

__all__ = [
    "SupNormEstimate",
    "LebesgueReport",
    "SpecialNStats",
    "flip_direct",
    "roots_of_unity_flip_abs",
    "flip_structured_abs",
    "allones_block_flip_abs",
    "sup_norm_on_circle",
    "lebesgue_constant",
    "circle_flip_stats",
    "special_n_statistics",
    "default_grid",
]


@dataclass(frozen=True)
class SupNormEstimate:
    """Certified lower bound of a boundary sup, with its argmax parameter."""

    value: float
    argmax_angle: float
    coarse_grid_size: int
    refined: bool


@dataclass(frozen=True)
class LebesgueReport:
    n_points: int
    constant: float
    argmax_angle: float
    per_node_sup: np.ndarray

    def to_json(self) -> dict:
        return {
            "N": self.n_points,
            "constant": self.constant,
            "argmax_angle": self.argmax_angle,
            "per_node_sup": [float(v) for v in self.per_node_sup],
        }

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(csv_text([{"k": k, "sup_k": float(v)} for k, v in enumerate(self.per_node_sup, start=1)]))


@dataclass(frozen=True)
class SpecialNStats:
    sum_sup: float
    avg_sup: float
    max_sup: float
    min_over_k: float
    lebesgue: float


def default_grid(n_points: int) -> int:
    """Coarse scan size: 64 angles per node oscillation, at least 4096."""
    return max(4096, 64 * n_points)


def _as_nodes(points) -> np.ndarray:
    if isinstance(points, LejaSection):
        return points.points
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("need a one-dimensional, nonempty node array")
    return pts


def _log_node_weights(nodes: np.ndarray) -> np.ndarray:
    """log prod_{j != k} |eta_k - eta_j| per node, in row blocks of ~_TILE entries; rejects duplicate nodes."""
    rows = max(1, _TILE // nodes.size)
    out = np.empty(nodes.size)
    for lo in range(0, nodes.size, rows):
        d = np.abs(nodes[lo : lo + rows, None] - nodes[None, :])
        np.fill_diagonal(d[:, lo:], 1.0)
        if np.any(d == 0.0):
            raise ValueError("nodes must be pairwise distinct")
        out[lo : lo + rows] = np.log(d).sum(axis=1)
    return out


def flip_direct(points, k: int, z: complex) -> complex:
    """prod_{j != k} (z - eta_j) / (eta_k - eta_j), the k-th FLIP at z (k is 1-based)."""
    nodes = _as_nodes(points)
    n_points = nodes.size
    if not 1 <= k <= n_points:
        raise ValueError(f"k must be in 1..{n_points}, got {k}")
    if np.unique(nodes).size != n_points:
        raise ValueError("nodes must be pairwise distinct")
    others = np.delete(nodes, k - 1)
    log_num, ph_num = stable_abs_product(others, complex(z))
    log_den, ph_den = stable_abs_product(others, complex(nodes[k - 1]))
    if log_num == float("-inf"):
        return 0.0 + 0.0j
    return math.exp(log_num - log_den) * complex(np.exp(1j * (ph_num - ph_den)))


def roots_of_unity_flip_abs(m: int, k: int, z: complex) -> float:
    """|FLIP| for the m-th roots of unity: (1/m) |z**m - 1| / |z - z_k|.

    Within 1e-8 of the node the removable singularity is evaluated through
    the power-sum form (1/m) |sum_j z_k**(m-1-j) z**j|.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 1 <= k <= m:
        raise ValueError(f"k must be in 1..{m}, got {k}")
    z = complex(z)
    node = complex(np.exp(2j * np.pi * (k - 1) / m))
    return _unity_quotient_abs(z, node, m) / m


def _unity_quotient_abs(z: complex, node: complex, m: int) -> float:
    """|z**m - node**m| / |z - node| with the series form near the node."""
    if abs(z - node) < _NEAR_NODE:
        j = np.arange(m)
        return float(np.abs(np.sum(node ** (m - 1 - j) * z**j)))
    return abs(z**m - node**m) / abs(z - node)


def flip_structured_abs(section: LejaSection, k: int, z: complex) -> float:
    """|FLIP| through the binary-block factorization (first-block nodes only).

    Valid for unit-disk Leja sections whose length is not a power of two and
    for k up to the leading block size 2**p1; agrees with |flip_direct| there.
    """
    pts = section.points
    exps = binary_decompose(pts.size)
    if len(exps) < 2:
        raise ValueError("section length is a power of two; use roots_of_unity_flip_abs")
    block = 1 << exps[0]
    if not 1 <= k <= block:
        raise ValueError(f"structured form only covers k in 1..{block}, got {k}")
    omega = omega0_of_section(section)
    return _structured_abs(pts[k - 1], exps, omega, complex(z))


def _structured_abs(node: complex, exps: list[int], omega: complex, z: complex) -> float:
    block = 1 << exps[0]
    value = _unity_quotient_abs(z, node, block) / block
    for p in exps[1:]:
        t = 1 << p
        wt = omega**t
        value *= abs(z**t + wt) / abs(node**t + wt)
    return value


def allones_block_flip_abs(p1: int, ell: int, z: complex) -> float:
    """|FLIP| representative for first-block nodes of a section of length 2**(p1+1) - 1.

    With w = exp(i*pi*(2*ell+1)/2**p1) this evaluates
    |1 - w| / 2**(p1+1) * |z**2**(p1+1) - 1| / (|z - 1| |z - w|),
    which is the modulus of the FLIP at the node paired with w after rotating
    the argument by that node.  Removable singularities at z = 1 and z = w are
    handled by power-sum forms.
    """
    if p1 < 0:
        raise ValueError("p1 must be nonnegative")
    if not 0 <= ell < (1 << p1):
        raise ValueError(f"ell must be in 0..{(1 << p1) - 1}, got {ell}")
    z = complex(z)
    m = 1 << (p1 + 1)
    w = complex(np.exp(1j * np.pi * (2 * ell + 1) / (1 << p1)))
    if abs(z - 1.0) < _NEAR_NODE:
        quot = _unity_quotient_abs(z, 1.0 + 0.0j, m) / abs(z - w)
    else:
        quot = _unity_quotient_abs(z, w, m) / abs(z - 1.0)
    return abs(1.0 - w) / m * quot


# ---------------------------------------------------------------------------
# boundary scans


def _golden_max(fn, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section maximum of a scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (fc, c) if fc >= fd else (fd, d)


def _golden_max_vec(fn, lo: np.ndarray, hi: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized golden-section maxima over per-element brackets, with their arguments."""
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        left = fc > fd
        b[left] = d[left]
        d[left] = c[left]
        fd[left] = fc[left]
        c[left] = b[left] - _GOLDEN * (b[left] - a[left])
        right = ~left
        a[right] = c[right]
        c[right] = d[right]
        fc[right] = fd[right]
        d[right] = a[right] + _GOLDEN * (b[right] - a[right])
        probe = np.where(left, c, d)
        fp = fn(probe)
        fc = np.where(left, fp, fc)
        fd = np.where(right, fp, fd)
    take_c = fc >= fd
    return np.where(take_c, fc, fd), np.where(take_c, c, d)


#: Grid x node elements per scan tile.  A tile is N x max(64, _TILE // N);
#: its three float64 work planes (1.5 MiB) stay in a 2 MiB L2.
_TILE = 1 << 16

#: Largest ||z| - 1| of a point on the unit circle: a few ulps.  Canonical
#: nodes and exp(it) grid points are within one.
_UNIT_ULPS = 4.0 * np.finfo(float).eps


def _unit_circle(t):
    return np.exp(1j * t)


def _on_unit_circle(pts: np.ndarray) -> bool:
    dev = np.abs(pts)
    dev -= 1.0  # in place: a grid-sized temporary fewer, which peak memory shows
    return bool(np.all(np.abs(dev, out=dev) <= _UNIT_ULPS))


def _half_planes(pts: np.ndarray) -> np.ndarray:
    """(cos(t/2), sin(t/2)) of the points e^{it} as a (2, size) array: the principal square root."""
    half = np.sqrt(pts)
    return np.array((half.real, half.imag))


class _Flips:
    """The one kernel for |l_k(b)|, with what it needs of a node set hoisted.

    A tile is one front half (:meth:`_front`) and one of two back halves: the
    full one (:meth:`tile`) gives every |l_k| and their sums and serves the
    scans and the Lebesgue probe; the own one (:meth:`_own_tile`) gives one
    entry per point and serves the per-node refinement probes.

    A tile gets its distances |b_j - eta_k| from one of two front-ends.  When
    every node and every point of the call lies on the unit circle, within
    ``_UNIT_ULPS`` of modulus 1, it takes the polar form: with eta_k = e^{i phi_k}
    and b_j = e^{i t_j},

        |b_j - eta_k| = |2 sin(t_j/2) cos(phi_k/2) - 2 cos(t_j/2) sin(phi_k/2)|,

    one (N x 2)(2 x cols) product of the half-angle values that the principal
    square root gives.  Any other node set or point set takes coordinate
    differences and squared distances.  A point exactly equal to a node is a
    hit, found for a whole point set by one lookup in the sorted nodes
    (:meth:`_runs`); its column becomes the Kronecker column.  From the
    distances on, everything is shared.  Run it under
    ``np.errstate(all="ignore")``.
    """

    def __init__(self, nodes: np.ndarray):
        n = self.n = nodes.size
        self.nodes = nodes
        self.order = np.argsort(nodes)
        self.sorted = nodes[self.order]
        self.planes = np.array((nodes.real, nodes.imag))[:, :, None]
        # coefficients of (cos(t/2), sin(t/2)) in 2 sin((t - phi_k)/2); None off the circle
        half = np.sqrt(nodes)
        self.polar = 2.0 * np.stack((-half.imag, half.real), axis=1) if _on_unit_circle(nodes) else None
        self.log_w = _log_node_weights(nodes)
        # None when the weights leave double range: only the log domain takes those nodes
        self.inv_w = np.exp(-self.log_w) if np.all(np.abs(self.log_w) < 280.0) else None
        self.width = max(64, _TILE // n)
        self._d = np.empty(2 * n * self.width)
        self._d2 = np.empty(n * self.width)
        self._views: dict[int, tuple] = {}

    def takes_polar(self, pts: np.ndarray) -> bool:
        """Whether tiles at the points ``pts`` take the polar front-end."""
        return self.polar is not None and _on_unit_circle(pts)

    def _front(self, pts: np.ndarray, half, hit_j: np.ndarray):
        """The front half of a tile at the points ``pts`` (cols <= width), which both back halves share.

        ``half`` is the points' :func:`_half_planes` for the polar front-end,
        None for coordinates; pts[hit_j] are the points that are nodes.
        Returns ``(dist, free, w, linear)``: dist[k, j] is |b_j - eta_k|,
        squared on coordinates, w[j] its product over the nodes, and ``free``
        a spare plane of dist's shape.  A hit column has its distances and
        its product set to 1.  ``linear`` says whether the linear form may
        run: the weights and the products lie inside double range.
        """
        cols = pts.size
        views = self._views.get(cols)
        if views is None:
            d = self._d[: 2 * self.n * cols].reshape(2, self.n, cols)
            views = self._views[cols] = (d, d[0], d[1], self._d2[: self.n * cols].reshape(self.n, cols))
        d, dx, dy, dist = views
        if half is not None:
            np.matmul(self.polar, half, out=dist)
            np.abs(dist, out=dist)
        else:
            np.subtract(np.array((pts.real, pts.imag))[:, None, :], self.planes, out=d)
            np.multiply(d, d, out=d)
            np.add(dx, dy, out=dist)
        if hit_j.size:
            dist[:, hit_j] = 1.0  # the back halves write the Kronecker columns
        w = np.multiply.reduce(dist, axis=0)  # squared on coordinates, like the distances
        # a product of 0 is a distance that underflowed between distinct points: the log domain takes it
        return dist, dx, w, self.inv_w is not None and w.min() > 1e-280

    def _log_distances(self, dist: np.ndarray, polar: bool) -> tuple[np.ndarray, np.ndarray]:
        """log |b_j - eta_k| in the grid-major layout (cols x N), and its sum over the nodes.

        numpy sums each point's log distances pairwise there, so the exponent
        of the log-domain form carries O(log N) ulps of rounding, not O(N).
        A distance that underflowed to 0 counts as the smallest subnormal, so
        l_k is about 1 at that node and about 0 at the others, as at a hit.
        """
        log_d = np.log(np.maximum(dist.T, 5e-324, order="C"))
        if not polar:
            log_d *= 0.5
        return log_d, log_d.sum(axis=1)

    def tile(self, pts: np.ndarray, half, hit_j: np.ndarray):
        """``(vals, scale, sums)`` at the points ``pts`` (cols <= width).

        ``half`` and the hits pts[hit_j] are as :meth:`_runs` gives them.
        |l_k(b_j)| = vals[k, j] * scale[k] and sums[j] = sum_k |l_k(b_j)|,
        except that vals is 0 in the hit columns (l_k is 1 at its own node).
        The linear form prod_j |b - eta_j| / |b - eta_k| / w_k runs while it
        stays inside double range, the log-domain form otherwise.
        """
        dist, free, w, linear = self._front(pts, half, hit_j)
        vals = None
        if linear:
            np.divide(w, dist, out=free)
            if half is None:
                np.sqrt(free, out=free)
            sums = self.inv_w @ free
            if math.isfinite(sums.sum()):  # else a distance product overflowed
                vals, scale = free, self.inv_w
        if vals is None:
            log_d, total = self._log_distances(dist, half is not None)
            mat = np.exp(total[:, None] - log_d - self.log_w)
            vals, scale, sums = mat.T, np.ones(self.n), mat.sum(axis=1)
        if hit_j.size:
            vals[:, hit_j] = 0.0
            sums[hit_j] = 1.0
        return vals, scale, sums

    def _own_tile(self, pts: np.ndarray, half, hit_k: np.ndarray, hit_j: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """|l_{ks[j]}(b_j)| at the points ``pts``: :meth:`tile`'s entries (ks[j], j) and no others.

        The same operations on the same operands as :meth:`tile`, so the
        values agree bit for bit whenever both take the same form; the linear
        form is kept while the entries computed stay finite.
        """
        dist, _, w, linear = self._front(pts, half, hit_j)
        cols = np.arange(ks.size)
        out = None
        if linear:
            out = w / dist[ks, cols]
            if half is None:
                np.sqrt(out, out=out)
            out *= self.inv_w[ks]
            if not math.isfinite(out.sum()):
                out = None
        if out is None:
            log_d, total = self._log_distances(dist, half is not None)
            out = np.exp(total - log_d[cols, ks] - self.log_w[ks])
        out[hit_j] = np.where(hit_k == ks[hit_j], 1.0, 0.0)
        return out

    def _runs(self, bpts):
        """``(hit_k, hit_j, runs)``: the exact node hits bpts[hit_j] == nodes[hit_k], in increasing j, and the runs.

        A run ``(start, pts, half, hit_k, hit_j)`` holds at most ``width``
        points from ``start`` on, their :func:`_half_planes` (None for
        coordinates) and their share of the hits, with j counted from
        ``start``.  The front-end, the planes and the hits (one
        ``searchsorted`` in the sorted nodes) are found once for all of
        ``bpts``.  No run after the first has one point: numpy sends a
        one-column product to gemv, which rounds unlike gemm.  So the result
        does not depend on the tile width.
        """
        bpts = np.asarray(bpts, dtype=complex).reshape(-1)
        cuts = [*range(0, bpts.size, self.width), bpts.size]
        if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
            cuts[-2] -= 1
        half = _half_planes(bpts) if self.takes_polar(bpts) else None
        at = np.minimum(np.searchsorted(self.sorted, bpts), self.n - 1)
        hit_j = np.flatnonzero(self.sorted[at] == bpts)
        hit_k = self.order[at[hit_j]]
        edges = np.searchsorted(hit_j, cuts)
        runs = [
            (a, bpts[a:b], None if half is None else half[:, a:b], hit_k[i:j], hit_j[i:j] - a)
            for a, b, i, j in zip(cuts, cuts[1:], edges, edges[1:])
        ]
        return hit_k, hit_j, runs

    def own(self, bpts, ks: np.ndarray) -> np.ndarray:
        """|l_{ks[i]}(bpts[i])| for paired points and 0-based node indices."""
        runs = self._runs(bpts)[2]
        return np.concatenate([self._own_tile(*run, ks[start : start + run[0].size]) for start, *run in runs])

    def lebesgue_at(self, z: complex) -> float:
        """sum_k |l_k(z)| at one point, O(N)."""
        pts = np.array([z], dtype=complex)
        half = _half_planes(pts) if self.polar is not None and abs(abs(z) - 1.0) <= _UNIT_ULPS else None
        hit_k = (self.nodes == z).nonzero()[0]  # one compare: the lookup of _runs for one point
        return float(self.tile(pts, half, 0 * hit_k)[2][0])


def _scan(flips: _Flips, curve, grid: int, node_arg0: np.ndarray):
    """One pass of |l_k(curve(t))| over the uniform grid t_j = 2*pi*j/grid.

    Returns per-node grid maxima with their parameters (``node_arg0`` where a
    node never exceeds 0), and the grid maximum of the Lebesgue function with
    its parameter.  Ties resolve toward smaller parameters, and the result
    does not depend on the tile width.
    """
    ang = 2.0 * np.pi * np.arange(grid) / grid
    rows = np.arange(flips.n)
    node_max = np.zeros(flips.n)
    node_arg = np.array(node_arg0, dtype=float)
    leb_max, leb_arg = 0.0, 0.0
    hit_k, hit_j, runs = flips._runs(curve(ang))
    with np.errstate(all="ignore"):
        for start, pts, half, _, run_hit_j in runs:
            vals, scale, sums = flips.tile(pts, half, run_hit_j)
            arg = vals.argmax(axis=1)
            cand = vals[rows, arg] * scale
            upd = cand > node_max
            node_max[upd] = cand[upd]
            node_arg[upd] = ang[start + arg[upd]]
            i = int(np.argmax(sums))
            if sums[i] > leb_max:
                leb_max, leb_arg = float(sums[i]), float(ang[start + i])
    # the FLIP is 1 at its own node, which the curve passes once; ties go to the smaller angle
    first = (node_max[hit_k] < 1.0) | ((node_max[hit_k] == 1.0) & (ang[hit_j] < node_arg[hit_k]))
    node_max[hit_k[first]] = 1.0
    node_arg[hit_k[first]] = ang[hit_j[first]]
    return node_max, node_arg, leb_max, leb_arg


def _checked_grid(n_points: int, grid: int | None, refine_iters: int) -> int:
    """The scan size to use; refuses grids and refine counts that skip checking."""
    if refine_iters < 0:
        raise ValueError(f"refine_iters must be nonnegative, got {refine_iters}")
    if grid is None:
        return default_grid(n_points)
    require_resolving_grid(grid, n_points - 1)  # l_k on the boundary has degree N-1 in t
    return grid


def _node_sups(flips: _Flips, curve, node_ts, grid: int, refine_iters: int, ks: np.ndarray):
    """Per-node sups of |l_k(curve(t))| with their parameters, plus the scan's Lebesgue maximum.

    One grid scan; then golden refinement in t, around the grid argmax, of the
    nodes with 0-based indices ``ks``; then the floor of each node at its
    value 1 at its own parameter ``node_ts[k]``.  Returns
    ``(node_max, node_arg, leb_max, leb_arg)``.
    """
    node_max, node_arg, leb_max, leb_arg = _scan(flips, curve, grid, node_ts)
    if refine_iters > 0 and ks.size:
        h, mid = 2.0 * np.pi / grid, node_arg[ks]
        with np.errstate(all="ignore"):
            val, ang = _golden_max_vec(lambda ts: flips.own(curve(ts), ks), mid - h, mid + h, refine_iters)
        up = val > node_max[ks]
        node_max[ks[up]], node_arg[ks[up]] = val[up], ang[up]
    low = ~(node_max > 1.0)
    node_max[low], node_arg[low] = 1.0, node_ts[low]
    return node_max, node_arg, leb_max, leb_arg


def _boundary_sup(nodes, curve, node_ts, k: int, grid: int | None, refine_iters: int) -> SupNormEstimate:
    """Sup of |l_k(curve(t))| through the per-node path of :func:`_boundary_stats`."""
    n_points = nodes.size
    if not 1 <= k <= n_points:
        raise ValueError(f"k must be in 1..{n_points}, got {k}")
    grid = _checked_grid(n_points, grid, refine_iters)
    node_max, node_arg, _, _ = _node_sups(_Flips(nodes), curve, node_ts, grid, refine_iters, np.array([k - 1]))
    return SupNormEstimate(float(node_max[k - 1]), wrap_angle(float(node_arg[k - 1])), grid, refine_iters > 0)


def _boundary_stats(
    nodes, curve, node_ts, grid: int | None, refine_iters: int, per_node_refine: bool
) -> tuple[np.ndarray, LebesgueReport]:
    """Per-node sups and the Lebesgue constant on curve(t) from one shared scan.

    ``node_ts`` holds the nodes' own parameters, curve(node_ts) == nodes.
    """
    n_points = nodes.size
    grid = _checked_grid(n_points, grid, refine_iters)
    flips = _Flips(nodes)
    ks = np.arange(n_points if per_node_refine else 0)
    node_max, _, leb_max, leb_arg = _node_sups(flips, curve, node_ts, grid, refine_iters, ks)
    if refine_iters > 0:
        h = 2.0 * np.pi / grid
        with np.errstate(all="ignore"):
            val, ang = _golden_max(lambda t: flips.lebesgue_at(curve(t)), leb_arg - h, leb_arg + h, refine_iters)
        if val > leb_max:
            leb_max, leb_arg = float(val), float(ang)
    report = LebesgueReport(n_points, max(leb_max, 1.0), wrap_angle(leb_arg), node_max)
    return node_max, report


def sup_norm_on_circle(points, k: int, coarse_grid: int | None = None, refine_iters: int = 40) -> SupNormEstimate:
    """Sup of |l_k| over the unit circle: grid scan plus golden refinement.

    The node's own angle is always a candidate (the FLIP equals 1 there), so
    the estimate is a true lower bound of the sup and never drops below 1.
    """
    nodes = _as_nodes(points)
    return _boundary_sup(nodes, _unit_circle, np.angle(nodes), k, coarse_grid, refine_iters)


def circle_flip_stats(
    points,
    coarse_grid: int | None = None,
    refine_iters: int = 40,
    per_node_refine: bool = False,
) -> tuple[np.ndarray, LebesgueReport]:
    """Per-node sup estimates and the Lebesgue constant from a shared scan.

    ``per_node_refine`` adds golden-section refinement around each node's
    winning grid cell; the Lebesgue maximum is always refined when
    ``refine_iters`` is positive.
    """
    nodes = _as_nodes(points)
    return _boundary_stats(nodes, _unit_circle, np.angle(nodes), coarse_grid, refine_iters, per_node_refine)


def lebesgue_constant(points, coarse_grid: int | None = None, refine_iters: int = 40) -> LebesgueReport:
    """Sup over the circle of sum_k |l_k(z)|, with per-node sups refined."""
    _, report = circle_flip_stats(points, coarse_grid, refine_iters, per_node_refine=True)
    return report


def special_n_statistics(p: int, coarse_grid: int | None = None, refine_iters: int = 40) -> SpecialNStats:
    """Sup-norm statistics of all FLIPs of the canonical section of length 2**p - 1.

    The same scan also gives the section's Lebesgue constant.  Raises
    :class:`BoundViolation` unless the sum exceeds 2**p - 1, and the maximum
    falls inside [4*cos(pi/8)/pi - 1e-6, 2 + 1e-6].
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    n_points = 2**p - 1
    section = canonical_disk_leja(n_points)
    sups, report = circle_flip_stats(section, coarse_grid, refine_iters, per_node_refine=True)
    stats = SpecialNStats(
        sum_sup=float(np.sum(sups)),
        avg_sup=float(np.mean(sups)),
        max_sup=float(np.max(sups)),
        min_over_k=float(np.min(sups)),
        lebesgue=report.constant,
    )
    if not stats.sum_sup > n_points:
        raise BoundViolation(f"sum of sups {stats.sum_sup} must exceed {n_points}")
    if stats.max_sup > 2.0 + 1e-6:
        raise BoundViolation(f"max sup {stats.max_sup} exceeds 2")
    if not stats.max_sup > 4.0 * math.cos(math.pi / 8.0) / math.pi - 1e-6:
        raise BoundViolation(f"max sup {stats.max_sup} below the 4cos(pi/8)/pi floor")
    return stats
