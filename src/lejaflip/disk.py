"""Leja sections for the unit disk and for sampled planar compacts.

The canonical construction places point k at ``origin * exp(i*pi*f(k-1))``
where ``f`` maps the binary digits of k-1 to a dyadic fraction, so every
prefix of length 2**s is a complete set of 2**s-th roots of unity (up to the
common rotation by ``origin``).  Greedy sections on arbitrary boundaries
maximize the distance product over a fixed sample set instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import require_resolving_grid

UNIT_TOL = 1e-12

UNIT_DISK = "unit_disk"
SAMPLED_COMPACT = "sampled_compact"

#: Nodes per block of :func:`validate_leja`.  In the unit disk a distance is
#: below 2, so a block's product of squared distances stays below 4**16.
_BLOCK = 16

#: A product below this may have passed through subnormals and lost bits.
_TINY = 1e-280

#: Samples per chunk of :class:`BoundarySamples`: 64 KB complex temporaries.
_CHUNK = 1 << 12

#: Unit roundoff of float64.
_U = 2.0**-53


@dataclass(frozen=True)
class LejaSection:
    """Ordered node list; immutable after construction."""

    points: np.ndarray
    compact_tag: str = UNIT_DISK

    def __post_init__(self):
        pts = np.array(self.points, dtype=complex)  # own copy; callers keep theirs writable
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("a section needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("section points must be finite")
        if self.compact_tag == UNIT_DISK:
            if np.max(np.abs(np.abs(pts) - 1.0)) > UNIT_TOL:
                raise ValueError("unit-disk section points must have modulus 1")
        if np.unique(pts).size != pts.size:
            raise ValueError("section points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class BoundarySamples:
    """The lattice of ``count`` boundary samples: sample j is Phi(exp(2*pi*1j*j/M)), M = count.

    Phi(z) = c1*z + c2/z with c1 > c2 >= 0 maps the unit circle onto the
    ellipse with semi-axes c1 +- c2; (1, 0) is the circle itself.  The
    samples are built ``_CHUNK`` at a time, each the same arithmetic on the
    same angle as one whole-array call, so bit for bit the same.  Refused: a
    count below 1, a (c1, c2) that is not finite with c1 > c2 >= 0, and
    samples that overflow or coincide in double precision.
    """

    count: int
    c1: float = 1.0
    c2: float = 0.0
    samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, c1, c2 = self.count, self.c1, self.c2
        if n < 1:
            raise ValueError("count must be positive")
        if not (math.isfinite(c1) and math.isfinite(c2) and c1 > c2 >= 0.0):
            raise ValueError(f"the lattice needs finite c1 > c2 >= 0, got c1={c1}, c2={c2}")
        pts = np.empty(n, dtype=complex)
        with np.errstate(over="ignore"):  # refused below as not finite
            for lo in range(0, n, _CHUNK):
                z = np.exp(1j * (2.0 * np.pi * np.arange(lo, min(lo + _CHUNK, n)) / n))
                pts[lo : lo + _CHUNK] = c1 * z + c2 / z
        if not np.all(np.isfinite(pts)):
            raise ValueError("boundary samples must be finite")
        ordered = np.sort(pts)  # equal samples sit side by side; a sort takes far less memory than np.unique
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("boundary samples must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "samples", pts)

    def __len__(self) -> int:
        return self.count


def circle_samples(count: int) -> BoundarySamples:
    """``count`` equispaced points on the unit circle, starting at 1."""
    return BoundarySamples(count)


def _lattice_tables(boundary: BoundarySamples):
    """A[k] = 4 sin(pi*k/M)**2 and B[k] = (1 - q)**2 + 4q sin(pi*k/M)**2, q = c2/c1; B is None on the circle.

    On the lattice |s_i - s_m|**2 = c1**2 * A[(i - m) % M] * B[(i + m) % M]
    by the Joukowski factorization Phi(z) - Phi(w) = (z - w)(c1 - c2/(z*w)).
    The sines are taken at angles up to pi/2 and mirrored, which keeps their
    relative accuracy near k = M.
    """
    c1, c2, n = boundary.c1, boundary.c2, boundary.count
    half = np.sin(np.pi * np.arange(n // 2 + 1) / n)
    a = np.empty(n)
    a[: half.size] = half
    a[half.size :] = half[n - half.size : 0 : -1]
    a *= a
    a *= 4.0
    if c2 == 0.0:
        return a, None
    q = c2 / c1
    b = np.multiply(a, q)
    b += (1.0 - q) ** 2
    return a, b


def _shifted(op, acc: np.ndarray, m: int, a: np.ndarray, b) -> None:
    """acc[i] = op(acc[i], a[(i - m) % M]), then the same with b[(i + m) % M] unless b is None; in place, by slices."""
    n = acc.size
    op(acc[m:], a[: n - m], out=acc[m:])
    op(acc[:m], a[n - m :], out=acc[:m])
    if b is not None:
        op(acc[: n - m], b[m:], out=acc[: n - m])
        op(acc[n - m :], b[:m], out=acc[n - m :])


def _lattice_index(boundary: BoundarySamples, pts: np.ndarray) -> np.ndarray:
    """Sample index of each point that equals (==) a lattice sample, else -1.

    The index is read off the point's angle in the circle parameter and kept
    only where that sample is the point itself.
    """
    c1, c2, n = boundary.c1, boundary.c2, boundary.count
    out = np.full(pts.size, -1, dtype=np.int64)
    with np.errstate(over="ignore"):
        t = np.arctan2(pts.imag / (c1 - c2), pts.real / (c1 + c2))
    m = np.rint(t * (n / (2.0 * np.pi))).astype(np.int64) % n
    hit = boundary.samples[m] == pts
    out[hit] = m[hit]
    return out


@dataclass(frozen=True)
class LejaValidation:
    """Worst relative shortfall of the greedy maximality property."""

    max_violation: float
    worst_k: int


def canonical_disk_leja(n_points: int, origin: complex = 1.0 + 0.0j) -> LejaSection:
    """Explicit disk Leja section of length ``n_points`` starting at ``origin``.

    Point k sits at angle pi * sum_l j_l 2**(-l) relative to ``origin``, where
    the j_l are the binary digits of k-1.  Every prefix of length 2**s is a
    complete (rotated) set of 2**s-th roots of unity.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    origin = complex(origin)
    if abs(abs(origin) - 1.0) > UNIT_TOL:
        raise ValueError("origin must lie on the unit circle")
    k = np.arange(n_points, dtype=np.int64)
    frac = np.zeros(n_points)
    for bit in range(max(1, int(n_points - 1).bit_length())):
        frac += ((k >> bit) & 1) * 2.0 ** (-bit)
    return LejaSection(origin * np.exp(1j * np.pi * frac), compact_tag=UNIT_DISK)


def _window(boundary: BoundarySamples) -> tuple[float, float]:
    """(a, b) of the greedy score window eps_k = a*k + b*k**2, see :func:`greedy_leja`."""
    c1, c2, n = boundary.c1, boundary.c2, boundary.count
    sigma = 64.0 * _U * (c1 + c2)
    dmin = 2.0 * (c1 - c2) * math.sin(math.pi / n)
    lam = 1.0 + max(abs(math.log(dmin)), abs(math.log(2.0 * (c1 + c2))))
    lam_t = math.log(n) + (1.0 - c2 / c1) ** -2
    return 4.0 * sigma / dmin + 32.0 * _U * (1.0 + lam + lam_t), _U * (lam + 4.0 * lam_t)


def greedy_leja(boundary: BoundarySamples, n_points: int, seed_index: int = 0) -> LejaSection:
    """Greedy section over a boundary sample set.

    Each new point maximizes the product of distances to the previous points,
    restricted to the samples; ties break toward the lowest sample index.  The
    picks are those of the running sum of log|s - eta_j|, each term a complex
    abs and a log of the samples' difference, summed in pick order.

    The M samples of the lattice (c1, c2) score by
    sum_j la[(i - m_j) % M] + lb[(i + m_j) % M], la = log(A)/2 and
    lb = log(B)/2 from :func:`_lattice_tables` instead: the sum
    less k*log c1 with no logarithm per sample and node.  After k picks the
    sum and the score (plus k*log c1) each lie within eps_k of the exact
    lattice value, so the sum's argmax scores within 2*eps_k of the top
    score.  Every sample there is re-evaluated by the running sum, the first
    of its maxima is picked, and the picks are the sum's, bit for bit.  With
    u = 2**-53,

        eps_k = k*(4*sigma/D + 32u*(1 + lam + lam_t)) + k**2 * u*(lam + 4*lam_t),

    where sigma = 64u*(c1 + c2) bounds a stored sample's distance from its
    lattice point (the rounding of t, exp and Phi, with a factor 2 to
    spare), D = 2(c1 - c2) sin(pi/M) is the least lattice distance,
    lam = 1 + max(|ln D|, |ln 2(c1 + c2)|) bounds the sum's terms and
    lam_t = ln M + (1 - q)**-2, q = c2/c1, the tables'.  The k terms are the
    coordinates' rounding over D (valid while 2*sigma <= D/2, so for M up to
    about 2e14*(c1 - c2)/(c1 + c2)) and the rounding of the tables and of
    each log; the k**2 terms are the two k-term accumulations.
    """
    samples = boundary.samples
    if n_points < 1:
        raise ValueError("n_points must be positive")
    if n_points > samples.size:
        raise ValueError("n_points exceeds the number of boundary samples")
    if not 0 <= seed_index < samples.size:
        raise ValueError("seed_index out of range")
    chosen = np.empty(n_points, dtype=np.int64)
    chosen[0] = seed_index
    # only picks read the window: a one-point section makes none, and a one-sample lattice has no least distance
    a, b = _window(boundary) if n_points > 1 else (0.0, 0.0)
    score = np.zeros(samples.size)  # chosen samples drop to -inf
    la, lb = _lattice_tables(boundary)
    with np.errstate(divide="ignore"):
        for t in (la, lb):
            if t is not None:
                np.log(t, out=t)
                t *= 0.5
        for k in range(1, n_points):
            _shifted(np.add, score, int(chosen[k - 1]), la, lb)
            idx = int(np.argmax(score))
            near = np.flatnonzero(score >= score[idx] - 2.0 * k * (a + b * k))
            if near.size > 1:
                terms = np.log(np.abs(samples[near, None] - samples[chosen[:k]]))
                idx = int(near[np.argmax(np.cumsum(terms, axis=1)[:, -1])])
            chosen[k] = idx
    on_circle = np.max(np.abs(np.abs(samples[chosen]) - 1.0)) <= UNIT_TOL
    tag = UNIT_DISK if on_circle else SAMPLED_COMPACT
    return LejaSection(samples[chosen], compact_tag=tag)


def validate_leja(section: LejaSection, boundary: BoundarySamples) -> LejaValidation:
    """Compare each node's distance product against the sampled boundary maximum.

    For every k >= 2 the section value prod_{j<k} |eta_k - eta_j| is measured
    against max over samples of prod_{j<k} |z - eta_j|; the report carries the
    largest relative shortfall and the k where it occurs.  Sample sets of at
    most pi*(N-1) points are refused: the products are trigonometric
    polynomials of degree up to N-1 in the boundary parameter, which fewer
    samples cannot resolve.  The shortfall 1 - exp(own - best) of distinct
    nodes is below 1, so a tolerance that can fail lies in (0, 1).

    The sample products run in the linear domain.  All points are first
    scaled by one power of two into the unit disk, which is exact and leaves
    every shortfall as it is, since both of its products have k - 1 factors.
    Over a block of ``_BLOCK`` nodes each sample then carries
    q = exp(logp - m) * prod_{block} |s - eta_j|**2, with logp its log
    product before the block and m the largest logp, so the k-th maximum is
    m + log max q: no logarithm per sample and node, and one per sample per
    block to carry logp on.  A node that equals a sample of the boundary's
    lattice exactly multiplies q by its row c1**2 * A * B in two shifted
    slices of the tables of :func:`_lattice_tables` (c1 scaled with the
    points); any other node by dx**2 + dy**2.  A sample on a node drops to
    -inf.  A block where some other sample's q, or some maximum, falls below
    ``_TINY`` (it may have lost bits to underflow) runs in the log domain
    instead: the log of a table row, which cannot underflow for samples of
    the boundary, or 2*log(hypot(dx, dy)).  The sample coordinates and the
    direct rows' buffers are made only for a section with nodes off the
    lattice, which keeps 1 MB off the peak at 65,536 samples.
    """
    pts = section.points
    samples = boundary.samples
    require_resolving_grid(samples.size, pts.size - 1)
    e = math.frexp(max(float(np.abs(samples).max()), float(np.abs(pts).max())))[1]
    px, py = np.ldexp(pts.real, -e), np.ldexp(pts.imag, -e)
    on = _lattice_index(boundary, pts[:-1])
    if (on >= 0).any():
        ta, tb = _lattice_tables(boundary)
        ta *= math.ldexp(boundary.c1, -e) ** 2
    if (on < 0).any():
        sx, sy = np.ldexp(samples.real, -e), np.ldexp(samples.imag, -e)
        dx, dy = np.empty(samples.size), np.empty(samples.size)
    logp = np.zeros(samples.size)  # log prod |s - eta_j|**2 over the nodes before the block
    q = np.empty(samples.size)
    worst, worst_k = 0.0, 0
    with np.errstate(divide="ignore"):
        for j0 in range(0, pts.size - 1, _BLOCK):
            block = range(j0, min(j0 + _BLOCK, pts.size - 1))
            m = float(logp.max())
            np.exp(np.subtract(logp, m, out=q), out=q)
            rows = []
            for j in block:
                if on[j] >= 0:
                    _shifted(np.multiply, q, int(on[j]), ta, tb)
                else:
                    np.subtract(sx, px[j], out=dx)
                    np.multiply(dx, dx, out=dx)
                    np.subtract(sy, py[j], out=dy)
                    np.multiply(dy, dy, out=dy)
                    q *= np.add(dx, dy, out=dx)
                rows.append(float(q.max()))
            low = np.flatnonzero(q <= _TINY)
            low = low[logp[low] > -np.inf]
            if min(rows) > _TINY and (samples[low, None] == pts[None, j0 : block.stop]).any(axis=1).all():
                best = [(m + math.log(r)) / 2.0 for r in rows]
                np.add(np.log(q, out=q), m, out=logp)
            else:
                best = []
                for j in block:
                    if on[j] >= 0:  # q is free until the next block
                        q.fill(1.0)
                        _shifted(np.multiply, q, int(on[j]), ta, tb)
                        logp += np.log(q, out=q)
                    else:
                        logp += 2.0 * np.log(np.hypot(sx - px[j], sy - py[j]))
                    best.append(float(logp.max()) / 2.0)
            for k, b in zip(range(j0 + 2, block.stop + 2), best):
                own = float(np.sum(np.log(np.hypot(px[k - 1] - px[: k - 1], py[k - 1] - py[: k - 1]))))
                if b > own:
                    shortfall = 1.0 - math.exp(own - b)
                    if shortfall > worst:
                        worst, worst_k = shortfall, k
    return LejaValidation(worst, worst_k)
