"""Fundamental Lagrange interpolation polynomials (FLIPs) of disk Leja sections.

Direct evaluation works for any pairwise-distinct node set.  Sup norms are
estimated on the unit circle only (the maximum modulus principle makes that
exact) by a uniform angle scan followed by golden-section refinement.

One scan engine serves every boundary curve t -> z(t): exp(it) here and
Phi(exp(it)) in :mod:`lejaflip.transport`.  It runs coarse to fine
(:func:`_scan`): node-major tiles sized for the L2 cache take every r-th grid
angle (r = 4 on default grids, 1 below 2**18 grid x node elements), in chunks
of about 2**13 points, keeping the node and Lebesgue maxima and the coarse
points near them.  A Bernstein bound on the functions behind |l_k|, of degree
n = N - 1 in t on an ellipse and n = (N - 1)/2 on the circle (Ehlich & Zeller
1964), rules out each cell between coarse points whose ends lie below
(1 - 2e)/(1 - e) of the coarse maximum, e = (pi*n*r/grid)**2/2, less a 1e-6
margin for rounding; only the points inside the other cells are taken, and
every reported number is the whole grid's, bit for bit.  A scan holds one
chunk of its grid at a time, and node hits come from one searchsorted per
point set.  The per-node probes run on the same tile kernel unless the node
set is dyadic (below), and the one-point Lebesgue probe takes the distances
|b - eta_k| by complex abs, so one linear-domain formula gives every |l_k| on
a boundary; input outside its double range, non-finite input included, raises
ValueError.  Grids of at most pi*(N-1) angles are refused.

Every scan takes one rule for node maxima: node k's grid argmax is the first
grid point of its largest unweighted modulus prod_{i != k} |b - eta_i|, which
is then weighted by 1/|w'(eta_k)|; rounding is monotone, so that is the largest
|l_k| bit for bit.  Neither depends on the tile width or the chunk size.  The
Lebesgue grid maximum, the first largest sum, does not depend on the chunk
size, but its last bits follow the tile width's gemv layout.

A scan on the unit circle of a node set at exact dyadic angles
exp(2*pi*i*m_k/2**s) whose binary blocks are whole root sets (:class:`_Dyadic`:
canonical sections, and sections turned block by block by admissible roots
of -1) runs node-major from integer angles instead (:func:`_dyadic_scan`)
when its node offsets on the grid fall into D <= N/32 residue classes, as on
every default grid from N = 32 on.  |w| and every class's reciprocal
distances, the latter from the L/2 + 1 sines of a folded half period
(L = D*grid), share exact angles, so near a node they cancel (w over the
tile's rounded distances moved a maximum by 1.1e-3 at N = 132).  Other node
sets, every ellipse, N < 32 and grids with more classes take the tile.  The
per-node refinement probes of every such node set, whatever its scan, take
the block formula (:meth:`_Dyadic.own`): popcount(N) + 2 sines per point, where
the tile takes N distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import binary_decompose, require_resolving_grid, stable_abs_product, wrap_angle
from .disk import LejaSection, canonical_disk_leja

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SupNormEstimate:
    """Certified lower bound of a boundary sup, with its argmax parameter."""

    value: float
    argmax_angle: float


@dataclass(frozen=True)
class LebesgueReport:
    constant: float
    argmax_angle: float
    per_node_sup: np.ndarray


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


def _golden_max_vec(fn, lo: np.ndarray, hi: np.ndarray, iters: int, cut=None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized golden-section maxima over per-element brackets, with their arguments.

    ``fn(ts, live)`` gives the values at ``ts`` of the elements ``live``.  With
    ``cut = (run, slope, limit)``, element i leaves the search, with NaN for
    value and argument, once run_i + slope*((b - a)/2)**2 < limit before a
    step; run_i is the largest of run[i] and its values so far.  The others
    step as without ``cut`` if fn's values do not depend on the elements
    sharing a call.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    live, size = np.arange(a.size), a.size
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c, live), fn(d, live)
    run = None if cut is None else cut[0]
    for _ in range(iters):
        if run is not None:
            run = np.maximum(run, np.maximum(fc, fd))
            keep = run + cut[1] * (0.5 * (b - a)) ** 2 >= cut[2]
            a, b, c, d, fc, fd, run, live = (x[keep] for x in (a, b, c, d, fc, fd, run, live))
            if not live.size:
                break
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        span = _GOLDEN * (b - a)
        c, d = np.where(left, b - span, d), np.where(left, c, a + span)
        fp = fn(np.where(left, c, d), live)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    take_c = fc >= fd
    val, arg = np.full(size, np.nan), np.full(size, np.nan)
    val[live], arg[live] = np.where(take_c, fc, fd), np.where(take_c, c, d)
    return val, arg


#: Grid x node elements per scan tile.  A tile is N x max(64, _TILE // N);
#: its three float64 work planes (1.5 MiB) stay in a 2 MiB L2.
_TILE = 1 << 16

#: Grid points per span of a dyadic scan's node maxima, each taken whole or skipped.
_SPAN = 1 << 6

#: Class-row entries a dyadic scan holds at a time (2 MiB): one group of classes on default grids up to N = 512.
_TABLE = 1 << 18

#: Points per chunk of a scan, rounded down to whole runs: a scan holds its curve points one chunk at a time.
_CHUNK = 1 << 13

#: Relative slack of the coarse pass's cell test, for the rounding of the values it compares (see :func:`_scan`).
_MARGIN = 1e-6

#: Why a tile is refused: its moduli cannot be formed in double precision.
_OUT_OF_RANGE = "FLIP moduli leave double range: the nodes or the boundary are too far from unit scale"

#: Largest |eta_k - exp(2*pi*i*m_k/2**s)| of a node at a dyadic angle: the roundings of a turned section's products.
_DYADIC_ULPS = 8.0 * np.finfo(float).eps


def _unit_circle(t):
    return np.exp(1j * t)


def _twice_sines(x: np.ndarray, period: int) -> np.ndarray:
    """2|sin(pi*x/period)| for an integer array x, which it overwrites with x mod period folded into [0, period/2].

    The fold keeps every argument in [0, pi/2], where sin loses no relative
    accuracy; near pi it would lose all of it.
    """
    np.remainder(x, period, out=x)
    return 2.0 * np.sin((np.pi / period) * np.minimum(x, period - x, out=x))


def _sin_pi_abs(x: np.ndarray) -> np.ndarray:
    """sin(pi*|x|) for x in [-1/2, 1/2], in place: no relative accuracy is lost."""
    np.abs(x, out=x)
    x *= np.pi
    return np.sin(x, out=x)


class _Dyadic:
    """A node set at exact dyadic angles whose binary blocks are whole root sets: the dyadic scan's input.

    Node k sits at exp(2*pi*i*m_k/2**s), and for N = sum_i 2**p_i
    (p_1 > p_2 > ...) the i-th block of 2**p_i consecutive nodes holds every
    root of z**(2**p_i) = c_i = exp(2*pi*i*g_i/2**s).  So the node polynomial
    is w(z) = prod_i (z**(2**p_i) - c_i), and every angle the scan needs is an
    integer multiple of 2*pi/lcm(grid, 2**s), reduced exactly in integers.
    Canonical disk Leja sections (Bialas-Ciez & Calvi, Ann. Mat. Pura Appl.
    2012) have this form with s = bit_length(N - 1).
    """

    def __init__(self, s: int, m: np.ndarray, blocks: list):
        self.s, self.m, self.blocks = s, m, blocks  # blocks: (p_i, g_i, node indices) per block
        self.block_of = np.repeat(np.arange(len(blocks)), [ks.size for *_, ks in blocks])  # each node's block
        # for :meth:`own`, per block: 2**p_i, and c_i = exp(2*pi*i*g_i/2**s) in turns, g_i/2**s
        self.sizes = np.array([float(1 << p) for p, _, _ in blocks])
        self.turns = np.array([g / (1 << s) for _, g, _ in blocks])

    @classmethod
    def of(cls, nodes: np.ndarray) -> _Dyadic | None:
        """The structure of circle ``nodes``, or None: a node not finite or off its angle, shared angles, a partial block."""
        if not np.all(np.isfinite(nodes)):
            return None
        n = nodes.size
        s = (n - 1).bit_length()
        q = 1 << s
        m = np.rint(np.angle(nodes) * (q / (2.0 * np.pi))).astype(np.int64) % q
        off = np.abs(np.exp(1j * (2.0 * np.pi * m / q)) - nodes) > _DYADIC_ULPS
        if off.any() or np.bincount(m).max() > 1:
            return None
        exps = binary_decompose(n)
        sizes = [1 << p for p in exps]
        powers = (m << np.repeat(exps, sizes)) % q  # 2**p * m_k mod 2**s: one value per block
        firsts = np.cumsum([0, *sizes[:-1]])
        if np.any(powers != np.repeat(powers[firsts], sizes)):
            return None
        return cls(s, m, [(p, int(powers[lo]), np.arange(lo, lo + size)) for p, lo, size in zip(exps, firsts, sizes)])

    def log_weights(self) -> np.ndarray:
        """log |w'(eta_k)| = log(2**p_i * prod_{j != i} |eta_k**(2**p_j) - c_j|) for eta_k in block i, O(N log N)."""
        p, g = (np.array([b[i] for b in self.blocks]) for i in (0, 1))
        terms = np.log(_twice_sines((self.m << p[:, None]) - g[:, None], 1 << self.s))
        terms[self.block_of, np.arange(self.m.size)] = 0.0  # a block's own nodes are the roots of its factor
        out = p[self.block_of] * math.log(2.0)
        for row in terms:  # in block order
            out += row
        return out

    def own(self, ts, ks: np.ndarray, inv_w: np.ndarray) -> np.ndarray:
        """|l_{ks[i]}(exp(i*ts[i]))| for paired angles and 0-based node indices, popcount(N) + 2 sines per point.

        ``inv_w`` is 1/|w'(eta_k)| by node, from :meth:`log_weights`.  In turns
        u = t/(2*pi), rounded once and exact from then on, so every factor keeps
        its relative accuracy: block j's |z**(2**p_j) - c_j| is 2|sin(pi*r)|, r =
        2**p_j*u - g_j/2**s folded into [-1/2, 1/2] by rint (folding by floor
        loses all relative accuracy for tiny negative r), and node k's own
        block gives the quotient
        |z**(2**p_i) - c_i| / |z - eta_k| = 2|sin(pi*2**p_i*d)| / 2|sin(pi*d)|,
        d = u - m_k/2**s folded, with its limit 2**p_i at d = 0.  Non-finite
        angles raise ValueError.
        """
        u = np.asarray(ts, dtype=float) / (2.0 * np.pi)
        if not np.all(np.isfinite(u)):
            raise ValueError(_OUT_OF_RANGE)
        u -= np.rint(u)  # exact, and keeps 2**p*u far from overflow
        r = self.sizes[:, None] * u  # one row per block
        r -= np.rint(r)
        r -= self.turns[:, None]
        r -= np.rint(r)
        r = _sin_pi_abs(r)  # |z**(2**p_j) - c_j| / 2
        block, d = self.block_of[ks], u - self.m[ks] / (1 << self.s)  # exact division: m_k/2**s in turns
        d -= np.rint(d)
        num = self.sizes[block] * d
        num -= np.rint(num)
        num, den = _sin_pi_abs(num), _sin_pi_abs(d)
        # the own block's row takes the quotient, 2**p_i (its limit) where d = 0
        r[block, np.arange(u.size)] = np.divide(num, den, out=self.sizes[block], where=den > 0.0)
        return inv_w[ks] * 2.0 ** (len(self.blocks) - 1) * np.multiply.reduce(r, axis=0)

    def classes(self, grid: int) -> int:
        """D = 2**s / gcd(grid, 2**s): the node offsets on a grid of ``grid`` angles fall into D residue classes."""
        return (1 << self.s) // math.gcd(grid, 1 << self.s)


class _Flips:
    """The one kernel for |l_k| at the points b = curve(t) of a boundary, with what it needs of a node set hoisted.

    Its methods take the parameters t.  A tile is one front half (:meth:`_front`)
    and one of two back halves: the full one (:meth:`tile`) gives every |l_k|
    and their sums and serves the scans; the own one (:meth:`_own_tile`) gives
    one entry per point and serves the per-node refinement probes of node sets
    without ``dyadic`` structure, whose probes take :meth:`_Dyadic.own`.

    A tile's distances |b_j - eta_k| are one matmul of per-node coefficients
    with the per-point planes of :meth:`_planes`, on every boundary: (1, -x_k),
    (1, -y_k) times (x_j, 1), (y_j, 1) give x_j - x_k and y_j - y_k, rounded once
    as a subtraction is, to be squared and added.  A point exactly equal to a
    node is a hit (:meth:`_runs`), whose column becomes the Kronecker column.
    Run it under ``np.errstate(all="ignore")``.  On the unit circle (``curve``
    is :func:`_unit_circle`) the node set's :class:`_Dyadic` structure, or None,
    is ``dyadic``; with one, the log-weights come from the block formula, else
    from pairwise products.  Log-weights outside (-280, 280), NaN nodes
    included, raise ValueError.
    """

    def __init__(self, nodes: np.ndarray, curve=_unit_circle):
        n = self.n = nodes.size
        self.nodes, self.curve = nodes, curve
        self.order = np.argsort(nodes)
        self.sorted = nodes[self.order]
        self.node_set = frozenset(nodes.tolist())  # the hit lookup of a one-point probe, one hash away
        self.coords = np.stack((np.ones((2, n)), -np.array((nodes.real, nodes.imag))), axis=2)
        self.dyadic = _Dyadic.of(nodes) if curve is _unit_circle else None
        self.degree = (n - 1) / 2 if curve is _unit_circle else n - 1  # of |l_k| in t, for Bernstein (:func:`_scan`)
        with np.errstate(all="ignore"):  # infinite nodes give NaN weights, refused below
            log_w = _log_node_weights(nodes) if self.dyadic is None else self.dyadic.log_weights()
        if not np.all(np.abs(log_w) < 280.0):
            raise ValueError(f"node weights leave double range: log-weights {log_w.min():.4g}..{log_w.max():.4g}")
        self.inv_w = np.exp(-log_w)
        self.width = max(64, _TILE // n)
        self._views, self._diff, self._dist = {}, np.empty(n, complex), np.empty(n)  # tile views, the probe's vectors

    @staticmethod
    def _planes(pts: np.ndarray) -> np.ndarray:
        """(x_j, 1), (y_j, 1) as (2, 2, size): the points' factors of the coordinate differences."""
        planes = np.ones((2, 2, pts.size))
        planes[:, 0] = pts.real, pts.imag
        return planes

    def _front(self, planes: np.ndarray, hit_j: np.ndarray):
        """The front half of a tile at the points of ``planes`` (cols <= width), which both back halves share.

        ``planes`` is a slice of :meth:`_planes`; the points ``hit_j`` are nodes.
        Returns ``(dist, free, w)``: dist[k, j] = |b_j - eta_k|**2, w[j] its
        product over k (1 in a hit column, whose distances are 1), and ``free``
        a spare plane of dist's shape.
        """
        d, dx, dy, dist = self._work(planes.shape[-1])
        np.matmul(self.coords, planes, out=d)
        np.multiply(d, d, out=d)
        np.add(dx, dy, out=dist)
        if hit_j.size:
            dist[:, hit_j] = 1.0  # the back halves write the Kronecker columns
        return dist, dx, np.multiply.reduce(dist, axis=0)  # w squared, like the distances

    def _work(self, cols: int):
        """The work planes ``(d, dx, dy, dist)`` of a ``cols``-point tile; dx, the values' plane, starts at one address."""
        views = self._views.get(cols)
        if views is None:
            if not self._views:  # the first tile makes the work planes every tile reuses
                self._d = np.empty(3 * self.n * self.width)
            d = self._d[: 3 * self.n * cols].reshape(3, self.n, cols)
            views = self._views[cols] = (d[:2], d[0], d[1], d[2])
        return views

    def tile(self, planes: np.ndarray, hit_j: np.ndarray):
        """``(vals, sums)`` at the points of ``planes`` (cols <= width).

        ``planes`` and the hits ``hit_j`` are as :meth:`_runs` gives them.
        |l_k(b_j)| = vals[k, j] * inv_w[k] = prod_i |b_j - eta_i| / |b_j - eta_k| / w_k
        and sums[j] = sum_k |l_k(b_j)|, except that vals is 0 in the hit columns
        (l_k is 1 at its own node).  A distance product not above 1e-280 or
        moduli that are not finite raise :class:`ValueError`.
        """
        dist, vals, w = self._front(planes, hit_j)
        np.divide(w, dist, out=vals)
        np.sqrt(vals, out=vals)
        sums = self.inv_w @ vals
        if not (w.min() > 1e-280 and math.isfinite(sums.sum())):
            raise ValueError(_OUT_OF_RANGE)
        if hit_j.size:
            vals[:, hit_j] = 0.0
            sums[hit_j] = 1.0
        return vals, sums

    def _own_tile(self, planes: np.ndarray, hit_j: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """:meth:`tile`'s values-plane entries (ks[j], j) at the points of ``planes`` and no others: 0 at hits.

        The same operations on the same operands as :meth:`tile`, so the
        values agree bit for bit; it refuses what :meth:`tile` refuses, with
        the finiteness checked on the weighted entries computed.
        """
        dist, _, w = self._front(planes, hit_j)
        out = np.sqrt(w / dist[ks, np.arange(ks.size)])
        if not (w.min() > 1e-280 and math.isfinite(out.dot(self.inv_w[ks]))):
            raise ValueError(_OUT_OF_RANGE)
        out[hit_j] = 0.0
        return out

    def run_sums(self, planes: np.ndarray, hit_j: np.ndarray, at: np.ndarray, cols: int) -> np.ndarray:
        """:meth:`tile`'s sums at the points of ``planes``, bit for bit as at positions ``at`` of a ``cols``-point run.

        A BLAS gemv may round a column differently by its position and by the
        product's width (trailing columns take other code), but not by the
        other columns' entries.  So the entries go to their positions in the
        values' plane of a ``cols``-point tile, zeros elsewhere, and one gemv
        of that run's shape takes the sums.
        """
        vals = self.tile(planes, hit_j)[0].copy()  # refusals as the tile's
        plane = self._work(cols)[1]
        plane.fill(0.0)
        plane[:, at] = vals
        sums = (self.inv_w @ plane)[at]
        sums[hit_j] = 1.0
        return sums

    def _runs(self, ts):
        """``(hit_k, hit_j, runs)``: the exact hits curve(ts[hit_j]) == nodes[hit_k], in increasing j, and the runs.

        A run ``(start, planes, hit_j)`` holds at most ``width`` points
        from ``start`` on, their slice of :meth:`_planes` and their hits, j
        counted from ``start``.  Hits are one ``searchsorted`` of all of ``ts``
        in the sorted nodes.  Every product in the matmul is by 1 or -1 and
        exact, so gemv (a one-point run) and gemm both round x_j - x_k once, and
        the result does not depend on the tile width.
        """
        ts = np.asarray(ts).reshape(-1)
        cuts = [*range(0, ts.size, self.width), ts.size]
        pts = self.curve(ts)
        at = np.minimum(np.searchsorted(self.sorted, pts), self.n - 1)
        hit_j = np.flatnonzero(self.sorted[at] == pts)
        hit_k = self.order[at[hit_j]]
        planes = self._planes(pts)
        edges = np.searchsorted(hit_j, cuts)
        pairs = zip(cuts, cuts[1:], edges, edges[1:])
        runs = [(a, planes[..., a:b], hit_j[i:j] - a) for a, b, i, j in pairs]
        return hit_k, hit_j, runs

    def own(self, ts, ks: np.ndarray) -> np.ndarray:
        """|l_{ks[i]}(curve(ts[i]))| for paired parameters and 0-based node indices."""
        hit_k, hit_j, runs = self._runs(ts)
        out = np.concatenate([self._own_tile(p, rj, ks[s : s + p.shape[-1]]) for s, p, rj in runs])
        out *= self.inv_w[ks]
        out[hit_j] = hit_k == ks[hit_j]  # l_k is 1 at its own node and 0 at the others
        return out

    def lebesgue_at(self, t: float) -> float:
        """sum_k |l_k(curve(t))| at one parameter, O(N), from the distances |curve(t) - eta_k| by complex abs."""
        z = self.curve(t)
        if z in self.node_set:  # a hit: the sum is l_k(eta_k) = 1
            return 1.0
        dist = np.abs(np.subtract(self.nodes, z, out=self._diff), out=self._dist)
        w = np.multiply.reduce(dist)
        total = float(self.inv_w.dot(np.divide(w, dist, out=dist)))
        if not (w > 1e-280 and math.isfinite(total)):
            raise ValueError(_OUT_OF_RANGE)
        return total


def _stride(n: int, grid: int) -> int:
    """The coarse stride r of :func:`_scan` for ``n`` nodes: isqrt(grid/4n), 1 below 2**18 grid x node elements.

    In tile columns of N entries, the coarse pass takes grid/r and each node's
    fine pass about 2(r - 1) (its one or two candidates' cells), so the cost
    grid/r + 2(r - 1)*N is least near r = sqrt(grid/2N).  isqrt(grid/4N) timed
    fastest or within 9% of it against strides 1..12 (README); it is 1 on grids
    below 16N.  Below 2**18 elements the extra passes cost what they save.
    """
    return max(1, math.isqrt(grid // (4 * n))) if n * grid >= 1 << 18 else 1


def _cell_points(cs: np.ndarray, r: int, grid: int):
    """Chunks ``(owner, js)`` of the grid points inside cells ``cs`` of stride ``r``: js[i] lies in cell cs[owner[i]].

    Whole cells, at most ``_CHUNK`` points a chunk unless one cell has more.
    """
    count = np.minimum(r, grid - r * cs) - 1  # the last cell ends at grid and may be short
    per = max(1, _CHUNK // (r - 1))
    for a in range(0, cs.size, per):
        c = count[a : a + per]
        owner = np.repeat(np.arange(a, a + c.size), c)
        if owner.size:
            yield owner, np.arange(owner.size) + np.repeat(r * cs[a : a + per] + 1 - (np.cumsum(c) - c), c)


def _scan(flips: _Flips, grid: int):
    """One pass of |l_k(flips.curve(t))| over the uniform grid t_j = 2*pi*j/grid, coarse to fine.

    Returns per-node grid maxima with their parameters, by the module's node
    rule (the tile's values-plane entries compared, then weighted once), and
    the grid maximum of the Lebesgue function with its parameter, the first
    of equal sums.  Every number is the one the tile gives at every grid
    point, bit for bit, but cells that cannot hold a maximum are never taken.

    1. Coarse pass: the tile at every r-th grid point (r from :func:`_stride`;
       r = 1 is the whole scan), one chunk of whole runs at a time, keeping the
       running unweighted node maxima and Lebesgue maximum and, after every
       tile, the coarse points at or above fac times them, weighted for that
       test (a node's own hit counts as 1).
    2. Cell bound: F(t) = Re(c*l_k(curve(t))) is a real trigonometric
       polynomial of degree n = N - 1 on an ellipse (Phi(e^{it})**j has
       frequencies -j..j), and so is Re sum_k c_k*l_k.  On the unit circle
       F(t) = Re(c*e^{-i(N-1)t/2}*l_k(e^{it})) has frequencies in [-n, n] for
       n = (N - 1)/2 (``flips.degree``), and Bernstein's inequality holds for
       that exponential type.  At
       the largest |l_k| in a cell of r steps, take |c| = 1 with F equal to it
       there; then F' = 0 there and Bernstein's |F''| <= n**2*S (S the sup of
       |l_k|) puts the nearer cell end at most e*S lower, e =
       (pi*n*r/grid)**2/2.  So inside the cell |l_k| <= max(ends) + e*S, and
       S <= g/(1 - e) for the coarse maximum g (Ehlich & Zeller, Math. Z. 86
       (1964)); the Lebesgue function obeys the same through sum_k c_k*l_k.  A
       cell with both ends below fac*g, fac = (1 - 2e)/(1 - e)*(1 - _MARGIN),
       holds no value up to g and is skipped.
    3. Fine pass: every point inside the other cells, in chunks of whole
       cells of at most ``_CHUNK`` points: unweighted node values by
       :meth:`_Flips._own_tile`, the tile's entries, and Lebesgue sums by the tile.
       Their gemv rounds a column by its place in the run, so the points whose
       sums come within 8*N*eps of the largest (two orders of one sum of N
       positive terms differ by less) take their run's sums
       (:meth:`_Flips.run_sums`).  Hits go to :func:`_floor_hits`.

    The margin covers rounding.  Let eps bound, relative to S, how far any
    value lies from the function it samples.  The tile's arithmetic (N
    distances of 4 roundings, their product, quotient, root and sum) gives
    (3N + 8)u, u = 2**-53; the node weights' error scales a node's values, or
    one term of every sum, alike, and leaves a polynomial of the same degree.
    A curve point off by 4u(c1 + c2) moves |l_k| by at most 4nu*S*(a/b)
    (Bernstein again, |curve'| >= c1 - c2).  The test is then sound for
    _MARGIN >= 4*eps while e <= 1/12, which :func:`_stride` keeps: 1e-6 covers
    N*(3 + 4a/b) up to 2e9, so N up to 5e5 on the thinnest ellipse the map
    accepts (a/b near 1e3).  Points in skipped cells are not evaluated, so
    their refusals are not raised.
    """
    n, width, inv_w = flips.n, flips.width, flips.inv_w
    r = _stride(n, grid)
    cells = -(-grid // r)  # coarse points r*i, i < cells; cell i runs from r*i to the next, the last to grid (t = 2*pi)
    e = (np.pi * flips.degree * r / grid) ** 2 / 2.0
    fac = (1.0 - 2.0 * e) / (1.0 - e) * (1.0 - _MARGIN)
    rows = np.arange(n)
    node_top, node_at, floor = np.zeros(n), np.zeros(n, np.intp), np.zeros(n)  # unweighted maxima
    leb_max, leb_at = 0.0, 0
    cand_k, cand_i, cand_v = np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)  # node k's coarse points i
    leb_i, leb_v = np.empty(0, np.intp), np.empty(0)  # the Lebesgue function's coarse points
    step, hits, upd = max(1, _CHUNK // width) * width, [], np.empty(n, bool)
    with np.errstate(all="ignore"):
        for lo in range(0, cells, step):
            idx = r * np.arange(lo, min(lo + step, cells))
            hit_k, hit_j, runs = flips._runs(2.0 * np.pi * idx / grid)
            hits.append((hit_k, idx[hit_j]))
            floor[hit_k] = 1.0
            for start, planes, run_hit_j in runs:
                vals, sums = flips.tile(planes, run_hit_j)
                arg = vals.argmax(axis=1)
                top = vals[rows, arg]
                np.greater(top, node_top, out=upd)  # strict: the first of equal maxima stays
                np.copyto(node_top, top, where=upd)
                np.copyto(node_at, idx[start + arg], where=upd)
                i = int(np.argmax(sums))
                if sums[i] > leb_max:
                    leb_max, leb_at = float(sums[i]), int(idx[start + i])
                if r > 1:
                    lim = fac * np.maximum(node_top * inv_w, floor) / inv_w  # the cell threshold, unweighted
                    ks = np.flatnonzero(top >= lim)  # the nodes with candidates in this tile
                    k, j = np.nonzero((vals >= lim[:, None])[ks])
                    k = ks[k]
                    cand_k, cand_i = np.concatenate((cand_k, k)), np.concatenate((cand_i, lo + start + j))
                    cand_v = np.concatenate((cand_v, vals[k, j]))
                    keep = cand_v >= lim[cand_k]
                    cand_k, cand_i, cand_v = cand_k[keep], cand_i[keep], cand_v[keep]
                    j = np.flatnonzero(sums >= fac * leb_max)
                    leb_i, leb_v = np.concatenate((leb_i, lo + start + j)), np.concatenate((leb_v, sums[j]))
                    keep = leb_v >= fac * leb_max
                    leb_i, leb_v = leb_i[keep], leb_v[keep]
        if r > 1:
            del runs, planes, idx  # the last coarse chunk
            thr = fac * np.maximum(node_top * inv_w, floor)
            _fine_nodes(flips, grid, r, thr, node_top, node_at, (cand_k, cand_i), hits)
            leb_max, leb_at = _fine_lebesgue(flips, grid, r, leb_i, leb_v)
    hit_j, first = np.unique(np.concatenate([j for _, j in hits]), return_index=True)
    node_max, node_arg = node_top * inv_w, 2.0 * np.pi * node_at / grid
    _floor_hits(node_max, node_arg, np.concatenate([k for k, _ in hits])[first], 2.0 * np.pi * hit_j / grid)
    return node_max, node_arg, leb_max, 2.0 * np.pi * leb_at / grid


def _fine_nodes(flips: _Flips, grid: int, r: int, thr, node_top, node_at, cand, hits: list):
    """:func:`_scan`'s fine pass for the unweighted node maxima, in place, from candidates ``cand`` (node, coarse index).

    Every point inside the cells beside a candidate, or beside a node's own
    coarse hit where ``thr`` (fac times the coarse maximum) is at most 1, takes
    :meth:`_Flips._own_tile`; its hits join ``hits``.  A chunk's largest
    value of a node and the first point attaining it replace the running ones
    when larger, or equal at a smaller grid index.
    """
    cells = -(-grid // r)
    hit_k, hit_j = (np.concatenate(h) for h in zip(*hits))
    own = 1.0 >= thr[hit_k]  # a node's own hit counts as 1
    ck, ci = np.concatenate((cand[0], hit_k[own])), np.concatenate((cand[1], hit_j[own] // r))
    pairs = np.unique(np.concatenate((ck * cells + ci, ck * cells + (ci - 1) % cells)))
    ks, cs = np.divmod(pairs, cells)
    for owner, js in _cell_points(cs, r, grid):
        kk = ks[owner]
        hit_k, hit_j, runs = flips._runs(2.0 * np.pi * js / grid)
        hits.append((hit_k, js[hit_j]))
        v = np.concatenate([flips._own_tile(p, rj, kk[s : s + p.shape[-1]]) for s, p, rj in runs])
        first = np.flatnonzero(np.diff(kk, prepend=-1))
        k, top = kk[first], np.maximum.reduceat(v, first)
        pos = np.where(v == np.repeat(top, np.diff(first, append=v.size)), js, grid)
        at = np.minimum.reduceat(pos, first)  # the first point at the chunk's maximum
        upd = (top > node_top[k]) | ((top == node_top[k]) & (at < node_at[k]))
        node_top[k[upd]], node_at[k[upd]] = top[upd], at[upd]


def _fine_lebesgue(flips: _Flips, grid: int, r: int, leb_i: np.ndarray, leb_v: np.ndarray) -> tuple[float, int]:
    """:func:`_scan`'s fine pass for the Lebesgue maximum and its grid index, from its coarse candidates.

    Sums at every point inside the cells beside a candidate, by the tile; then,
    at the points within 8*N*eps of the largest, the sums of their own runs
    (:meth:`_Flips.run_sums`), of which the first largest wins.
    """
    n, width, cells = flips.n, flips.width, -(-grid // r)
    near_j, near_v, top = r * leb_i, leb_v, float(leb_v.max())
    tol = 1.0 - 8.0 * n * np.finfo(float).eps
    for _, js in _cell_points(np.unique(np.concatenate((leb_i, (leb_i - 1) % cells))), r, grid):
        _, _, runs = flips._runs(2.0 * np.pi * js / grid)
        sums = np.concatenate([flips.tile(p, rj)[1] for _, p, rj in runs])
        top = max(top, float(sums.max()))
        near_j, near_v = np.concatenate((near_j, js)), np.concatenate((near_v, sums))
        keep = near_v >= tol * top
        near_j, near_v = near_j[keep], near_v[keep]
    near = np.unique(near_j[near_v >= tol * top])
    leb_max, leb_at = 0.0, 0
    for lo in np.unique(near - near % width).tolist():  # the runs' first points
        js = near[(near >= lo) & (near < lo + width)]
        _, _, ((_, planes, run_hit_j),) = flips._runs(2.0 * np.pi * js / grid)
        sums = flips.run_sums(planes, run_hit_j, js - lo, min(width, grid - lo))
        i = int(np.argmax(sums))
        if sums[i] > leb_max:
            leb_max, leb_at = float(sums[i]), int(js[i])
    return leb_max, leb_at


def _floor_hits(node_max: np.ndarray, node_arg: np.ndarray, hit_k: np.ndarray, hit_t: np.ndarray):
    """Raise node hit_k[i] to 1 at hit_t[i], in place: l_k is 1 at its own node; ties go to the smaller parameter."""
    first = (node_max[hit_k] < 1.0) | ((node_max[hit_k] == 1.0) & (hit_t < node_arg[hit_k]))
    node_max[hit_k[first]] = 1.0
    node_arg[hit_k[first]] = hit_t[first]


def _class_rows(grid: int, d_cls: int, classes: np.ndarray) -> np.ndarray:
    """Row c: 1/(2|sin(pi*(i*D - r)/L)|), L = grid*D, r = classes[c], i = 0..grid-1 (0 at the hit i = r = 0),
    then its first ``_SPAN`` entries again.  Folded into [0, L/2], i*D - r runs up the residue -r mod D and
    down +r: sines of the folded half period that class D - r shares, so D classes take its L/2 + 1 once.
    """
    period, runs = grid * d_cls, {}
    rows = np.empty((classes.size, grid + _SPAN))
    for row, r in zip(rows, classes.tolist()):
        for rho in {r, -r % d_cls} - runs.keys():  # 2 sin(pi*x/L), x = rho, rho + D, .. <= L/2
            runs[rho] = 2.0 * np.sin((np.pi / period) * np.arange(rho, period // 2 + 1, d_cls))
        down, up = runs[r], runs[-r % d_cls][r == 0 :]
        row[0], row[1 : 1 + up.size], row[1 + up.size : grid] = down[0], up, down[grid - up.size - 1 : 0 : -1]
    with np.errstate(divide="ignore"):
        np.divide(1.0, rows[:, :grid], out=rows[:, :grid])
    rows[classes == 0, 0] = 0.0  # the hit: w is 0 there too, so the node's own entry is 0
    rows[:, grid:] = rows[:, np.arange(_SPAN) % grid]
    return rows


def _dyadic_scan(flips: _Flips, grid: int):
    """:func:`_scan` on the unit circle for a node set with ``flips.dyadic``, from exact integer angles.

    With D = flips.dyadic.classes(grid), A = grid*D/2**s and L = grid*D, t_j and
    phi_k differ by 2*pi*((j - n_k)*D - r_k)/L, where A*m_k = n_k*D + r_k.  So
    |w(e^{it_j})| is popcount(N) sines, and node k's reciprocal distances, from
    the same exact angles (near a node they cancel), are the window from
    (-n_k) mod grid of class r_k's row (:func:`_class_rows`, in ascending groups
    of classes that fit ``_TABLE``).  The Lebesgue function is w times
    sum_k inv_w[k] * window_k (:func:`_add_windows`).  Hits are the nodes with
    r_k = 0, at j = n_k.  Node maxima follow the module's rule on w times the
    window, whose roundings are not the tile's; the Lebesgue maximum is the
    first largest sum, and refusals are :func:`_scan`'s.
    """
    dy, d_cls = flips.dyadic, flips.dyadic.classes(grid)
    a_num, period = grid * d_cls >> dy.s, grid * d_cls
    w = np.ones(grid)
    for p, g, _ in dy.blocks:  # z**(2**p) - c repeats every grid / gcd(grid, 2**p) angles
        cyc = grid // math.gcd(grid, 1 << p)
        w.reshape(-1, cyc)[...] *= _twice_sines(np.arange(cyc) * (d_cls << p) - g * a_num, period)
    at, res = np.divmod(a_num * dy.m, d_cls)
    hit, start, classes = np.flatnonzero(res == 0), (-at) % grid, np.unique(res)
    w_spans = np.pad(w, (0, -grid % _SPAN)).reshape(-1, _SPAN)
    sums, doubled, node_max, node_at = np.zeros(grid), np.empty(2 * grid), np.empty(flips.n), np.empty(flips.n, np.intp)
    per = max(1, _TABLE // (grid + _SPAN))
    with np.errstate(all="ignore"):
        for group in (classes[lo : lo + per] for lo in range(0, classes.size, per)):
            rows = _class_rows(grid, d_cls, group)
            ks = np.flatnonzero((res >= group[0]) & (res <= group[-1]))
            best, node_at[ks] = _window_maxima(rows, w_spans, np.searchsorted(group, res[ks]), start[ks], at[ks])
            node_max[ks] = best * flips.inv_w[ks]
            for row, r in zip(rows, group):
                doubled[:grid] = doubled[grid:] = row[:grid]
                for _, _, block in dy.blocks:
                    ks = block[res[block] == r]
                    if ks.size:  # the nodes of one block in one class sit evenly around the circle
                        ks = ks[np.argsort(start[ks])]
                        _add_windows(sums, doubled, flips.inv_w[ks], start[ks])
        leb = np.multiply(w, sums, out=sums)
    w[at[hit]] = np.inf  # the hit columns, where the tile takes the product of the other distances
    if not (w.min() > 1e-280 and math.isfinite(leb.sum())):
        raise ValueError(_OUT_OF_RANGE)
    leb[at[hit]] = 1.0
    i = int(np.argmax(leb))
    node_arg = 2.0 * np.pi * node_at / grid
    _floor_hits(node_max, node_arg, hit, 2.0 * np.pi * at[hit] / grid)
    return node_max, node_arg, float(leb[i]), 2.0 * np.pi * i / grid


def _window_maxima(rows: np.ndarray, w_spans: np.ndarray, row_of: np.ndarray, start: np.ndarray, at: np.ndarray):
    """max_j w[j] * row[(start[i] + j) % grid] per node i, row = rows[row_of[i]], with the first j attaining it.

    w_spans holds w by span, 0-padded.  Node i peaks at grid point at[i] or the
    next; at grid distance d its entry is 1/(2 sin(pi*d/grid)) <= 1/(2x - x**3/3),
    x = pi*d/grid, and a span k spans from the node's own lies d >= (k - 1)*_SPAN
    away, or (k - 2)*_SPAN when the last span is short.  A span whose largest w
    times that bound is below the node's value at the four grid points around
    it cannot hold the maximum; the others are evaluated, with a full pass's
    products.  The bounds hold for every class, so one pass takes all nodes,
    each testing only the spans near enough for the largest w to pass.
    """
    grid, spans = rows.shape[1] - _SPAN, w_spans.shape[0]
    w_top = w_spans.max(axis=1) * (1.0 + 1e-9)  # the margin covers the rounding of the bound
    x = (np.pi * _SPAN / grid) * np.maximum(0, np.arange(spans // 2 + 1) - 1 - (grid % _SPAN > 0))
    reach = 2.0 * x - x * x * x / 3.0  # by span distance from the node's own
    flat, w = rows.reshape(-1), w_spans.reshape(-1)
    windows = np.ndarray((flat.size - _SPAN + 1, _SPAN), flat.dtype, flat, strides=flat.strides * 2)
    base, own, near = row_of * rows.shape[1], at // _SPAN, at[:, None] + np.arange(-1, 3)
    floor = (w[near % grid] * flat[base[:, None] + (start[:, None] + near) % grid]).max(axis=1)
    radius = np.searchsorted(np.minimum.accumulate(reach[::-1])[::-1], w_top.max() * (1.0 + 1e-9) / floor, "right")
    count = np.minimum(2 * radius - 1, spans)  # the spans a node tests, centred on its own
    first = np.cumsum(count) - count  # where each node's spans begin among all nodes'
    edges = [0, *(np.flatnonzero(np.diff(first // (_TILE >> 3))) + 1), start.size]  # ~2**13 bounds a block
    best, best_at = np.empty(start.size), np.empty(start.size, np.intp)
    for a, b in zip(edges, edges[1:]):
        i = np.repeat(np.arange(a, b), count[a:b])
        k = np.arange(first[a], first[a] + i.size) - np.repeat(first[a:b] + radius[a:b] - 1, count[a:b])
        c = (own[i] + k) % spans
        keep = w_top[c] >= floor[i] * reach[np.abs(k)]  # by node, then span
        i, c = i[keep], c[keep]
        vals = windows[base[i] + (start[i] + c * _SPAN) % grid]
        vals *= w_spans[c]
        arg = vals.argmax(axis=1)
        top, pos = vals[np.arange(arg.size), arg], arg + c * _SPAN
        cuts = np.searchsorted(i, np.arange(a, b))  # every node keeps its own span
        best[a:b] = np.maximum.reduceat(top, cuts)
        pos[top < best[i]] = grid  # only spans at their node's maximum compete for the first point
        best_at[a:b] = np.minimum.reduceat(pos, cuts)
    return best, best_at


def _add_windows(sums: np.ndarray, table: np.ndarray, weights: np.ndarray, start: np.ndarray):
    """sums[j] += sum_u weights[u] * table[start[u] + j], for starts start[0] + u*step with step*len(start) = sums.size.

    With j = a*step + b the sum is sum_u weights[u] * rows[u + a, b] for the rows of ``step``
    table entries from start[0]: a banded matrix times those rows, one gemm per block of a.
    """
    count = weights.size
    step = sums.size // count
    assert np.array_equal(start, start[0] + step * np.arange(count))
    rows = table[start[0] : start[0] + (2 * count - 1) * step].reshape(2 * count - 1, step)
    height = min(count, 64)
    band = np.zeros((height, height + count))
    band[:, :count] = weights
    band = band.reshape(-1)[: height * (height + count - 1)].reshape(height, -1)  # band[i, i + u] = weights[u]
    out = sums.reshape(count, step)
    for a in range(0, count, height):
        h = min(height, count - a)
        out[a : a + h] += band[:h, : h + count - 1] @ rows[a : a + h + count - 1]


def _boundary_stats(
    nodes, curve, node_ts, grid: int | None, refine_iters: int, ks: np.ndarray, max_only: bool = False
) -> tuple[np.ndarray, np.ndarray, LebesgueReport]:
    """Per-node sups with their parameters and the Lebesgue constant on curve(t), from one shared scan.

    ``node_ts`` are the nodes' own parameters, curve(node_ts) == nodes.  In
    order: one grid scan; golden refinement in t around the grid argmax of the
    nodes ``ks`` (0-based), then of the Lebesgue maximum; then each node's
    floor, 1 at ``node_ts[k]``.  Returns ``(node_max, node_arg, report)``.
    Refuses grids and refine counts that skip checking.

    With ``max_only`` a node leaves its search once it cannot end above the
    largest grid maximum (the drop rule of
    :func:`lejaflip.transport.compact_flip_stats`).
    """
    n_points = nodes.size
    if refine_iters < 0:
        raise ValueError(f"refine_iters must be nonnegative, got {refine_iters}")
    grid = default_grid(n_points) if grid is None else grid
    require_resolving_grid(grid, n_points - 1)  # l_k on the boundary has degree N-1 in t
    flips = _Flips(nodes, curve)
    dyadic = flips.dyadic is not None and 32 * flips.dyadic.classes(grid) <= n_points
    node_max, node_arg, leb_max, leb_arg = (_dyadic_scan if dyadic else _scan)(flips, grid)
    if refine_iters > 0:
        h = 2.0 * np.pi / grid
        with np.errstate(all="ignore"):
            if ks.size:
                mid, dy, cut = node_arg[ks], flips.dyadic, None
                own = flips.own if dy is None else (lambda ts, k: dy.own(ts, k, flips.inv_w))
                if max_only:
                    top, e = max(float(node_max.max()), 1.0), (np.pi * flips.degree / grid) ** 2 / 2.0
                    cut = node_max[ks], flips.degree**2 * top / (1.0 - e) / 2.0, top * (1.0 - _MARGIN)
                val, ang = _golden_max_vec(lambda ts, live: own(ts, ks[live]), mid - h, mid + h, refine_iters, cut)
                up = val > node_max[ks]
                node_max[ks[up]], node_arg[ks[up]] = val[up], ang[up]
            val, ang = _golden_max(flips.lebesgue_at, leb_arg - h, leb_arg + h, refine_iters)
        if val > leb_max:
            leb_max, leb_arg = float(val), float(ang)
    low = ~(node_max > 1.0)
    node_max[low], node_arg[low] = 1.0, node_ts[low]
    return node_max, node_arg, LebesgueReport(max(leb_max, 1.0), wrap_angle(leb_arg), node_max)


def sup_norm_on_circle(points, k: int, coarse_grid: int | None = None, refine_iters: int = 40) -> SupNormEstimate:
    """Sup of |l_k| over the unit circle: grid scan plus golden refinement.

    The node's own angle is always a candidate (the FLIP equals 1 there), so
    the estimate is a true lower bound of the sup and never drops below 1.
    """
    nodes = _as_nodes(points)
    if not 1 <= k <= nodes.size:
        raise ValueError(f"k must be in 1..{nodes.size}, got {k}")
    ks = np.array([k - 1])
    node_max, node_arg, _ = _boundary_stats(nodes, _unit_circle, np.angle(nodes), coarse_grid, refine_iters, ks)
    return SupNormEstimate(float(node_max[k - 1]), wrap_angle(float(node_arg[k - 1])))


def circle_flip_stats(
    points, coarse_grid: int | None = None, refine_iters: int = 40, per_node_refine: bool = False
) -> tuple[np.ndarray, LebesgueReport]:
    """Per-node sup estimates and the Lebesgue constant from a shared scan.

    ``per_node_refine`` adds golden-section refinement around each node's
    winning grid cell; the Lebesgue maximum is always refined when
    ``refine_iters`` is positive.
    """
    nodes = _as_nodes(points)
    ks = np.arange(nodes.size if per_node_refine else 0)
    node_max, _, report = _boundary_stats(nodes, _unit_circle, np.angle(nodes), coarse_grid, refine_iters, ks)
    return node_max, report


def lebesgue_constant(points, coarse_grid: int | None = None, refine_iters: int = 40) -> LebesgueReport:
    """Sup over the circle of sum_k |l_k(z)|, with per-node sups refined."""
    _, report = circle_flip_stats(points, coarse_grid, refine_iters, per_node_refine=True)
    return report


def special_n_statistics(p: int, coarse_grid: int | None = None, refine_iters: int = 40) -> SpecialNStats:
    """Sup-norm statistics of all FLIPs of the canonical section of length 2**p - 1.

    The same scan also gives the section's Lebesgue constant.  The paper
    bounds the maximum by [4*cos(pi/8)/pi, 2] and the sum from below by
    2**p - 1; the CLI checks both.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    sups, report = circle_flip_stats(canonical_disk_leja(2**p - 1), coarse_grid, refine_iters, per_node_refine=True)
    return SpecialNStats(
        sum_sup=float(np.sum(sups)),
        avg_sup=float(np.mean(sups)),
        max_sup=float(np.max(sups)),
        min_over_k=float(np.min(sups)),
        lebesgue=report.constant,
    )
