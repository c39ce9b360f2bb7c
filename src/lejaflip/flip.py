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
Phi(exp(it)) in :mod:`lejaflip.transport`.  It sweeps the grid in node-major
tiles sized for the L2 cache and evaluates the curve in chunks of about 2**13
points, keeping only per-node maxima and the Lebesgue maximum: a 64-node
circle scan's traced peak is 0.75 MB at 2**14 angles and at 2**18.  Every
point set, chunk or probes, finds its node hits by one searchsorted in the
sorted nodes.  The same tile kernel serves the refinement probes, which
compute only the entries they keep, so one linear-domain formula gives every
|l_k| on a boundary; input outside its double range, non-finite input
included, raises ValueError.  Grids of at most pi*(N-1) angles are refused.

The tile kernel takes the distances |b - eta_k| from one matmul of per-node
coefficients with per-point planes.  On the unit circle, with nodes of modulus
1 to a few ulps, a distance is 2|sin((t - phi_k)/2)| from half-angle values of
the angle itself; any other boundary, every ellipse included, takes coordinate
differences 1*x + (-x_k)*1, the bits of a subtraction.

A scan on the unit circle of a node set at exact dyadic angles
exp(2*pi*i*m_k/2**s) whose binary blocks are whole root sets (:class:`_Dyadic`:
canonical sections, and sections turned block by block by admissible roots
of -1) runs node-major from integer angles instead (:func:`_dyadic_scan`),
when its node offsets on the grid fall into D <= N/32 residue classes, as on
every default grid from N = 32 on.  |w| is popcount(N) sines per grid point,
each node's reciprocal distances are a window of one table per class, the
Lebesgue sums are banded gemms, each node maximum is taken only where a bound
allows it, and the node weights come from the block formula in O(N log N).
w and the distances must come from the same exact angles: near a node they
cancel, and w from exact angles over the tile's rounded distances moved
per-node maxima by 1.1e-3 at N = 132.  Rotated, random and
greedy-on-other-samples node sets, every ellipse, N < 32 and grids with more
classes keep the tile scan, which is faster there: each class costs the
dyadic scan a table and its windows, and below N = 32 its fixed costs
outweigh the tile.  The refinement probes run on the tile kernel for every
node set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import binary_decompose, require_resolving_grid, stable_abs_product, wrap_angle
from .disk import LejaSection, canonical_disk_leja, omega0_of_section

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_NEAR_NODE = 1e-8


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
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        span = _GOLDEN * (b - a)
        c, d = np.where(left, b - span, d), np.where(left, c, a + span)
        fp = fn(np.where(left, c, d))
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    take_c = fc >= fd
    return np.where(take_c, fc, fd), np.where(take_c, c, d)


#: Grid x node elements per scan tile.  A tile is N x max(64, _TILE // N);
#: its three float64 work planes (1.5 MiB) stay in a 2 MiB L2.
_TILE = 1 << 16

#: Grid points per span of a dyadic scan's node maxima, each taken whole or skipped.
_SPAN = 1 << 6

#: Points per chunk of a scan, rounded down to whole runs: a scan holds its curve points one chunk at a time.
_CHUNK = 1 << 13

#: Why a tile is refused: its moduli cannot be formed in double precision.
_OUT_OF_RANGE = "FLIP moduli leave double range: the nodes or the boundary are too far from unit scale"

#: Largest ||eta| - 1| of a node on the unit circle: a few ulps.  Canonical
#: nodes and exp(it) samples are within one.
_UNIT_ULPS = 4.0 * np.finfo(float).eps

#: Largest |eta_k - exp(2*pi*i*m_k/2**s)| of a node at a dyadic angle: the
#: roundings of a few complex products, as a section turned block by block has.
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

    @classmethod
    def of(cls, nodes: np.ndarray) -> _Dyadic | None:
        """The structure of ``nodes``, or None when a node is off its dyadic angle by more than rounding,
        two nodes share an angle, or a block is not a whole root set."""
        n = nodes.size
        s = (n - 1).bit_length()
        q = 1 << s
        if not np.all(np.isfinite(nodes)):
            return None
        m = np.rint(np.angle(nodes) * (q / (2.0 * np.pi))).astype(np.int64) % q
        if not (np.all(np.abs(np.exp(1j * (2.0 * np.pi * m / q)) - nodes) <= _DYADIC_ULPS) and np.unique(m).size == n):
            return None
        blocks, lo = [], 0
        for p in binary_decompose(n):
            ks = np.arange(lo, lo + (1 << p))
            powers = (m[ks] << p) % q  # 2**p * m_k mod 2**s: one value per block
            if np.any(powers != powers[0]):
                return None
            blocks.append((p, int(powers[0]), ks))
            lo += 1 << p
        return cls(s, m, blocks)

    def log_weights(self) -> np.ndarray:
        """log |w'(eta_k)| = log(2**p_i * prod_{j != i} |eta_k**(2**p_j) - c_j|) for eta_k in block i, O(N log N)."""
        q = 1 << self.s
        out = np.empty(self.m.size)
        for p, _, ks in self.blocks:
            out[ks] = p * math.log(2.0)
            for pj, gj, others in self.blocks:
                if others[0] != ks[0]:
                    out[ks] += np.log(_twice_sines((self.m[ks] << pj) - gj, q))
        return out

    def classes(self, grid: int) -> int:
        """D = 2**s / gcd(grid, 2**s): the node offsets on a grid of ``grid`` angles fall into D residue classes."""
        return (1 << self.s) // math.gcd(grid, 1 << self.s)


class _Flips:
    """The one kernel for |l_k| at the points b = curve(t) of a boundary, with what it needs of a node set hoisted.

    Its methods take the parameters t.  A tile is one front half (:meth:`_front`)
    and one of two back halves: the full one (:meth:`tile`) gives every |l_k|
    and their sums and serves the scans; the own one (:meth:`_own_tile`) gives
    one entry per point and serves the per-node refinement probes.

    A tile gets its distances |b_j - eta_k| from one matmul of per-node
    coefficients with the per-point planes of :meth:`_planes`.  The front end
    is a property of the boundary: on the unit circle (``curve`` is
    :func:`_unit_circle`), with every node within ``_UNIT_ULPS`` of modulus 1,
    the polar form multiplies half-angle values taken from t_j and from the
    square root of eta_k = e^{i phi_k}, and takes ``abs``:

        |b_j - eta_k| = |2 sin(t_j/2) cos(phi_k/2) - 2 cos(t_j/2) sin(phi_k/2)|.

    Any other boundary or node set takes coordinates: the coefficients
    (1, -x_k), (1, -y_k) times the planes (x_j, 1), (y_j, 1) give x_j - x_k and
    y_j - y_k from two exact products, rounded once as a subtraction is; they
    are squared and added.  A point exactly equal to a node is a hit
    (:meth:`_runs`); its column becomes the Kronecker column.  From the
    distances on, everything is shared.  Run it under ``np.errstate(all="ignore")``.
    On the polar front end, ``dyadic`` is the node set's :class:`_Dyadic`
    structure, or None; with one, the log-weights come from the block formula,
    else from the pairwise products.  A node set whose log-weights leave
    (-280, 280), NaN nodes included, raises :class:`ValueError` when built.
    """

    def __init__(self, nodes: np.ndarray, curve=_unit_circle):
        n = self.n = nodes.size
        self.nodes, self.curve = nodes, curve
        self.order = np.argsort(nodes)
        self.sorted = nodes[self.order]
        self.node_set = frozenset(nodes.tolist())  # the hit lookup of a one-point probe, one hash away
        self.coords = np.stack((np.ones((2, n)), -np.array((nodes.real, nodes.imag))), axis=2)
        # coefficients of (cos(t/2), sin(t/2)) in 2 sin((t - phi_k)/2); None off the unit circle
        half, mod = np.sqrt(nodes), np.abs(nodes)
        polar = curve is _unit_circle and mod.min() >= 1.0 - _UNIT_ULPS and mod.max() <= 1.0 + _UNIT_ULPS
        self.polar = 2.0 * np.stack((-half.imag, half.real), axis=1) if polar else None
        self.dyadic = _Dyadic.of(nodes) if polar else None
        with np.errstate(all="ignore"):  # infinite nodes give NaN weights, refused below
            log_w = _log_node_weights(nodes) if self.dyadic is None else self.dyadic.log_weights()
        if not np.all(np.abs(log_w) < 280.0):
            raise ValueError(f"node weights leave double range: log-weights {log_w.min():.4g}..{log_w.max():.4g}")
        self.inv_w = np.exp(-log_w)
        self.width = max(64, _TILE // n)
        self._d = np.empty(3 * n * self.width)
        self._views: dict[int, tuple] = {}

    def _planes(self, ts: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """(cos(t_j/2), sin(t_j/2)) as (2, size) on the polar front end, else (x_j, 1), (y_j, 1) as (2, 2, size)."""
        if self.polar is not None:
            return np.array((np.cos(0.5 * ts), np.sin(0.5 * ts)))
        planes = np.ones((2, 2, pts.size))
        planes[:, 0] = pts.real, pts.imag
        return planes

    def _front(self, planes: np.ndarray, hit_j: np.ndarray):
        """The front half of a tile at the points of ``planes`` (cols <= width), which both back halves share.

        ``planes`` is a slice of :meth:`_planes`; the points in ``hit_j`` are
        nodes.  Returns ``(dist, free, w)``: dist[k, j] is |b_j - eta_k|,
        squared on coordinates, w[j] its product over the nodes, and ``free``
        a spare plane of dist's shape.  A hit column has its distances and
        its product set to 1.
        """
        cols = planes.shape[-1]
        views = self._views.get(cols)
        if views is None:
            d = self._d[: 3 * self.n * cols].reshape(3, self.n, cols)
            views = self._views[cols] = (d[:2], d[0], d[1], d[2])
        d, dx, dy, dist = views
        if planes.ndim == 2:
            np.matmul(self.polar, planes, out=dist)
            np.abs(dist, out=dist)
        else:
            np.matmul(self.coords, planes, out=d)
            np.multiply(d, d, out=d)
            np.add(dx, dy, out=dist)
        if hit_j.size:
            dist[:, hit_j] = 1.0  # the back halves write the Kronecker columns
        return dist, dx, np.multiply.reduce(dist, axis=0)  # w squared on coordinates, like the distances

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
        if planes.ndim == 3:
            np.sqrt(vals, out=vals)
        sums = self.inv_w @ vals
        if not (w.min() > 1e-280 and math.isfinite(sums.sum())):
            raise ValueError(_OUT_OF_RANGE)
        if hit_j.size:
            vals[:, hit_j] = 0.0
            sums[hit_j] = 1.0
        return vals, sums

    def _own_tile(self, planes: np.ndarray, hit_k: np.ndarray, hit_j: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """|l_{ks[j]}(b_j)| at the points of ``planes``: :meth:`tile`'s entries (ks[j], j) and no others.

        The same operations on the same operands as :meth:`tile`, so the
        values agree bit for bit; it refuses what :meth:`tile` refuses, with
        the finiteness checked on the entries computed.
        """
        dist, _, w = self._front(planes, hit_j)
        out = w / dist[ks, np.arange(ks.size)]
        if planes.ndim == 3:
            np.sqrt(out, out=out)
        out *= self.inv_w[ks]
        if not (w.min() > 1e-280 and math.isfinite(out.sum())):
            raise ValueError(_OUT_OF_RANGE)
        out[hit_j] = np.where(hit_k == ks[hit_j], 1.0, 0.0)
        return out

    def _runs(self, ts):
        """``(hit_k, hit_j, runs)``: the exact hits curve(ts[hit_j]) == nodes[hit_k], in increasing j, and the runs.

        A run ``(start, planes, hit_k, hit_j)`` holds at most ``width`` points
        from ``start`` on, their slice of :meth:`_planes` and their share of
        the hits, with j counted from ``start``.  Planes and hits are found
        once for all of ``ts``, the hits by one ``searchsorted`` of the points
        in the sorted nodes, on every boundary.  No run after the first has
        one point: numpy sends a one-column product to gemv, which may round
        a polar entry unlike gemm.  So the result does not depend on the tile width.
        """
        ts = np.asarray(ts).reshape(-1)
        cuts = [*range(0, ts.size, self.width), ts.size]
        if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
            cuts[-2] -= 1
        pts = self.curve(ts)
        at = np.minimum(np.searchsorted(self.sorted, pts), self.n - 1)
        hit_j = np.flatnonzero(self.sorted[at] == pts)
        hit_k = self.order[at[hit_j]]
        planes = self._planes(ts, pts)
        edges = np.searchsorted(hit_j, cuts)
        pairs = zip(cuts, cuts[1:], edges, edges[1:])
        runs = [(a, planes[..., a:b], hit_k[i:j], hit_j[i:j] - a) for a, b, i, j in pairs]
        return hit_k, hit_j, runs

    def own(self, ts, ks: np.ndarray) -> np.ndarray:
        """|l_{ks[i]}(curve(ts[i]))| for paired parameters and 0-based node indices."""
        runs = self._runs(ts)[2]
        return np.concatenate([self._own_tile(*run, ks[start : start + run[0].shape[-1]]) for start, *run in runs])

    def lebesgue_at(self, t: float) -> float:
        """sum_k |l_k(curve(t))| at one parameter, O(N); on the polar front end in six numpy calls."""
        z = self.curve(t)
        if z in self.node_set:  # a hit: the sum is l_k(eta_k) = 1
            return 1.0
        if self.polar is None:
            return float(self.tile(self._planes(None, np.array([z], dtype=complex)), self.order[:0])[1][0])
        if not math.isfinite(t):  # math.cos refuses infinities; a NaN angle is refused below
            raise ValueError(_OUT_OF_RANGE)
        dist = np.abs(self.polar @ (math.cos(0.5 * t), math.sin(0.5 * t)))
        w = np.multiply.reduce(dist)
        total = float(self.inv_w @ (w / dist))
        if not (w > 1e-280 and math.isfinite(total)):
            raise ValueError(_OUT_OF_RANGE)
        return total


def _scan(flips: _Flips, grid: int):
    """One pass of |l_k(flips.curve(t))| over the uniform grid t_j = 2*pi*j/grid.

    Returns per-node grid maxima with their parameters, and the grid maximum
    of the Lebesgue function with its parameter.  Ties resolve toward
    smaller parameters.  One chunk of whole runs is held at a time; each
    tile updates the running node maxima, and their parameters and the
    Lebesgue maximum are taken once per chunk.  So the chunk size changes no
    result.
    """
    rows = np.arange(flips.n)
    node_max, node_arg = np.zeros(flips.n), np.zeros(flips.n)
    leb_max, leb_arg = 0.0, 0.0
    step = max(1, _CHUNK // flips.width) * flips.width
    edges = [*range(0, max(1, grid - 1), step), grid]  # a one-point last chunk joins the one before, as a run does
    hits = []
    with np.errstate(all="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            ang = 2.0 * np.pi * np.arange(lo, hi) / grid
            hit_k, hit_j, runs = flips._runs(ang)
            hits.append((hit_k, ang[hit_j]))
            at = np.full(flips.n, -1, np.intp)  # where in the chunk each node's maximum moved, -1 if it did not
            upd, sums = np.empty(flips.n, bool), np.empty(ang.size)
            for start, planes, _, run_hit_j in runs:
                vals, sums[start : start + planes.shape[-1]] = flips.tile(planes, run_hit_j)
                arg = vals.argmax(axis=1)
                cand = vals[rows, arg] * flips.inv_w
                np.greater(cand, node_max, out=upd)  # strict: the first of equal maxima stays
                np.copyto(node_max, cand, where=upd)
                np.copyto(at, arg + start, where=upd)
            moved = at >= 0
            node_arg[moved] = ang[at[moved]]
            i = int(np.argmax(sums))
            if sums[i] > leb_max:
                leb_max, leb_arg = float(sums[i]), float(ang[i])
    _floor_hits(node_max, node_arg, *(np.concatenate(h) for h in zip(*hits)))
    return node_max, node_arg, leb_max, leb_arg


def _floor_hits(node_max: np.ndarray, node_arg: np.ndarray, hit_k: np.ndarray, hit_t: np.ndarray):
    """Raise node hit_k[i] to 1 at hit_t[i], in place: l_k is 1 at its own node; ties go to the smaller parameter."""
    first = (node_max[hit_k] < 1.0) | ((node_max[hit_k] == 1.0) & (hit_t < node_arg[hit_k]))
    node_max[hit_k[first]] = 1.0
    node_arg[hit_k[first]] = hit_t[first]


def _dyadic_scan(flips: _Flips, grid: int):
    """:func:`_scan` on the unit circle for a node set with ``flips.dyadic``, from exact integer angles.

    With D = flips.dyadic.classes(grid), A = grid*D/2**s and L = grid*D, grid
    angle t_j and node angle phi_k differ by 2*pi*((j - n_k)*D - r_k)/L, where
    A*m_k = n_k*D + r_k.  So |w(e^{it_j})| is a product of popcount(N) sines,
    one per block, and the reciprocal distances of node k are the window
    from (-n_k) mod grid of one doubled table of 1/(2|sin(pi*(i*D - r)/L)|)
    per class r.  Both come from the same exact angles, so near a node w and
    the distance cancel as they should.  The Lebesgue function is w times
    sum_k inv_w[k] * window_k (:func:`_add_windows`), and the node maxima are
    taken where they can lie (:func:`_window_maxima`).  A node with r_k = 0 is
    hit at j = n_k, where w and its table entry are 0.  The results, the ties
    and the refusals are :func:`_scan`'s.
    """
    dy, n = flips.dyadic, flips.n
    d_cls = dy.classes(grid)
    a_num, period = grid * d_cls >> dy.s, grid * d_cls
    w = np.ones(grid)
    for p, g, _ in dy.blocks:  # z**(2**p) - c repeats every grid / gcd(grid, 2**p) angles
        cyc = grid // math.gcd(grid, 1 << p)
        w.reshape(-1, cyc)[...] *= _twice_sines(np.arange(cyc) * (d_cls << p) - g * a_num, period)
    offset = a_num * dy.m
    res, at = offset % d_cls, offset // d_cls
    hit = np.flatnonzero(res == 0)
    start = (-at) % grid
    w_spans = np.zeros((-(-grid // _SPAN), _SPAN))
    w_spans.flat[:grid] = w
    sums, node_max, node_at = np.zeros(grid), np.zeros(n), np.zeros(n, np.intp)
    table = np.empty(2 * grid + _SPAN)  # doubled, and padded for the last span of a window
    with np.errstate(all="ignore"):
        for r in np.unique(res):
            np.divide(1.0, _twice_sines(np.arange(-r, period - r, d_cls), period), out=table[:grid])
            if r == 0:
                table[0] = 0.0  # the hit: w is 0 there too, so the node's own entry is 0
            table[grid:] = np.resize(table[:grid], table.size - grid)
            ks = np.flatnonzero(res == r)
            best, node_at[ks] = _window_maxima(table, w_spans, grid, start[ks], at[ks])
            node_max[ks] = best * flips.inv_w[ks]
            for _, _, block in dy.blocks:
                ks = block[res[block] == r]
                if ks.size:  # the nodes of one block in one class sit evenly around the circle
                    ks = ks[np.argsort(start[ks])]
                    _add_windows(sums, table, flips.inv_w[ks], start[ks])
        leb = np.multiply(w, sums, out=sums)
    w[at[hit]] = np.inf  # the hit columns, where the tile takes the product of the other distances
    if not (w.min() > 1e-280 and math.isfinite(leb.sum())):
        raise ValueError(_OUT_OF_RANGE)
    leb[at[hit]] = 1.0
    i = int(np.argmax(leb))
    node_arg = 2.0 * np.pi * node_at / grid
    _floor_hits(node_max, node_arg, hit, 2.0 * np.pi * at[hit] / grid)
    return node_max, node_arg, float(leb[i]), 2.0 * np.pi * i / grid


def _window_maxima(table: np.ndarray, w_spans: np.ndarray, grid: int, start: np.ndarray, at: np.ndarray):
    """max_j w[j] * table[start[i] + j] per row i, with the first j attaining it; w_spans holds w by span, 0-padded.

    Row i peaks at its node, at grid point at[i] or between it and the next:
    its table entry at grid distance d from the node is 1/(2 sin(pi*d/grid)),
    at most 1/(2x - x**3/3) with x = pi*d/grid.  A span of ``_SPAN`` points
    k spans from the node's own lies d >= (k - 1)*_SPAN away, or (k - 2)*_SPAN
    when the last span is short.  A span whose largest w times that bound is
    below the row's value at the four grid points around its node cannot hold
    the maximum, so only the other spans are evaluated, with the products a
    full pass would take.
    """
    spans = w_spans.shape[0]
    w_top = w_spans.max(axis=1) * (1.0 + 1e-9)  # the margin covers the rounding of the bound
    k = np.arange(spans)
    x = (np.pi * _SPAN / grid) * np.maximum(0, np.minimum(k, spans - k) - 1 - (grid % _SPAN > 0))
    reach = sliding_window_view(np.tile(2.0 * x - x * x * x / 3.0, 2), spans)  # row s: by span offset from s
    windows = sliding_window_view(table, _SPAN)
    w = w_spans.reshape(-1)
    best, best_at = np.empty(start.size), np.empty(start.size, np.intp)
    rows = max(1, (_TILE >> 3) // spans)  # about 2**13 bounds per block of rows
    for a in range(0, start.size, rows):
        st, near = start[a : a + rows], at[a : a + rows, None] + np.arange(-1, 3)
        floor = (w[near % grid] * table[st[:, None] + near % grid]).max(axis=1)
        i, c = np.nonzero(w_top >= floor[:, None] * reach[spans - at[a : a + rows] // _SPAN])  # by row, then span
        vals = windows[st[i] + c * _SPAN] * w_spans[c]
        top, arg = vals.max(axis=1), vals.argmax(axis=1)
        row_top = np.maximum.reduceat(top, np.flatnonzero(np.diff(i, prepend=-1)))
        win = np.flatnonzero(top == row_top[i])  # the spans attaining their row's maximum
        win = win[np.flatnonzero(np.diff(i[win], prepend=-1))]  # the first of them per row
        best[a : a + rows], best_at[a : a + rows] = row_top, c[win] * _SPAN + arg[win]
    return best, best_at


def _add_windows(sums: np.ndarray, table: np.ndarray, weights: np.ndarray, start: np.ndarray):
    """sums[j] += sum_u weights[u] * table[start[u] + j], for starts start[0] + u*step with step*len(start) = sums.size.

    With j = a*step + b the sum is sum_u weights[u] * rows[u + a, b] for the
    rows of ``step`` table entries from start[0]: a banded matrix times those
    rows, one gemm per block of a.
    """
    count = weights.size
    step = sums.size // count
    assert np.array_equal(start, start[0] + step * np.arange(count))
    rows = table[start[0] : start[0] + (2 * count - 1) * step].reshape(2 * count - 1, step)
    height = min(count, 64)
    band = np.zeros(2 * height + count - 2)  # band[i, i + u] = weights[u]
    band[height - 1 : height - 1 + count] = weights
    band = np.ascontiguousarray(sliding_window_view(band, height + count - 1)[height - 1 :: -1])
    out = sums.reshape(count, step)
    for a in range(0, count, height):
        h = min(height, count - a)
        out[a : a + h] += band[:h, : h + count - 1] @ rows[a : a + h + count - 1]


def _boundary_sup(nodes, curve, node_ts, k: int, grid: int | None, refine_iters: int) -> SupNormEstimate:
    """Sup of |l_k(curve(t))|: :func:`_boundary_stats` with only node k refined."""
    if not 1 <= k <= nodes.size:
        raise ValueError(f"k must be in 1..{nodes.size}, got {k}")
    node_max, node_arg, _ = _boundary_stats(nodes, curve, node_ts, grid, refine_iters, np.array([k - 1]))
    return SupNormEstimate(float(node_max[k - 1]), wrap_angle(float(node_arg[k - 1])))


def _boundary_stats(
    nodes, curve, node_ts, grid: int | None, refine_iters: int, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, LebesgueReport]:
    """Per-node sups with their parameters and the Lebesgue constant on curve(t), from one shared scan.

    ``node_ts`` holds the nodes' own parameters, curve(node_ts) == nodes.  In
    order: one grid scan; golden refinement in t, around the grid argmax, of
    the nodes with 0-based indices ``ks``; golden refinement of the Lebesgue
    maximum; then the floor of each node at its value 1 at its own parameter
    ``node_ts[k]``.  Returns ``(node_max, node_arg, report)``.  Refuses grids
    and refine counts that skip checking.
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
                mid = node_arg[ks]
                val, ang = _golden_max_vec(lambda ts: flips.own(ts, ks), mid - h, mid + h, refine_iters)
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
