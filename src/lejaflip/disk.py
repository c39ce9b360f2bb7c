"""Leja sections for the unit disk and for sampled planar compacts.

The canonical construction places point k at ``origin * exp(i*pi*f(k-1))``
where ``f`` maps the binary digits of k-1 to a dyadic fraction, so every
prefix of length 2**s is a complete set of 2**s-th roots of unity (up to the
common rotation by ``origin``).  Greedy sections on arbitrary boundaries
maximize the distance product over a fixed sample set instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Discretization of a compact's boundary used for sup/argmax scans."""

    samples: np.ndarray

    def __post_init__(self):
        pts = np.array(self.samples, dtype=complex)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("boundary needs at least one sample")
        if not np.all(np.isfinite(pts)):
            raise ValueError("boundary samples must be finite")
        ordered = np.sort(pts)  # equal samples sit side by side; a sort takes far less memory than np.unique
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("boundary samples must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "samples", pts)

    def __len__(self) -> int:
        return self.samples.size


def circle_samples(count: int) -> BoundarySamples:
    """``count`` equispaced points on the unit circle, starting at 1."""
    if count < 1:
        raise ValueError("count must be positive")
    ang = 2.0 * np.pi * np.arange(count) / count
    return BoundarySamples(np.exp(1j * ang))


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


def greedy_leja(boundary: BoundarySamples, n_points: int, seed_index: int = 0) -> LejaSection:
    """Greedy section over a boundary sample set.

    Each new point maximizes the product of distances to the previous points,
    restricted to the samples; ties break toward the lowest sample index.
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
    diff, term = np.empty_like(samples), np.empty(samples.size)
    # running log of prod_{j<k} |s - eta_j|; chosen samples drop to -inf
    with np.errstate(divide="ignore"):
        logp = np.log(np.abs(samples - samples[seed_index]))
        for k in range(1, n_points):
            idx = int(np.argmax(logp))
            chosen[k] = idx
            np.subtract(samples, samples[idx], out=diff)
            logp += np.log(np.abs(diff, out=term), out=term)
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
    block to carry logp on.  A sample on a node drops to -inf.  A block
    where some other sample's q, or some maximum, falls below ``_TINY``
    (it may have lost bits to underflow) runs in the log domain instead.
    """
    pts = section.points
    samples = boundary.samples
    require_resolving_grid(samples.size, pts.size - 1)
    e = math.frexp(max(float(np.abs(samples).max()), float(np.abs(pts).max())))[1]
    sx, sy, px, py = (np.ldexp(v, -e) for v in (samples.real, samples.imag, pts.real, pts.imag))
    logp = np.zeros(samples.size)  # log prod |s - eta_j|**2 over the nodes before the block
    q, dx, dy = np.empty(samples.size), np.empty(samples.size), np.empty(samples.size)
    worst, worst_k = 0.0, 0
    with np.errstate(divide="ignore"):
        for j0 in range(0, pts.size - 1, _BLOCK):
            block = range(j0, min(j0 + _BLOCK, pts.size - 1))
            m = float(logp.max())
            np.exp(np.subtract(logp, m, out=q), out=q)
            rows = []
            for j in block:
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
                    logp += 2.0 * np.log(np.hypot(sx - px[j], sy - py[j]))
                    best.append(float(logp.max()) / 2.0)
            for k, b in zip(range(j0 + 2, block.stop + 2), best):
                own = float(np.sum(np.log(np.hypot(px[k - 1] - px[: k - 1], py[k - 1] - py[: k - 1]))))
                if b > own:
                    shortfall = 1.0 - math.exp(own - b)
                    if shortfall > worst:
                        worst, worst_k = shortfall, k
    return LejaValidation(worst, worst_k)
