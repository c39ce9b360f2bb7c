"""Transport of disk Leja sections through exterior conformal maps.

Only the ellipse family ships: Phi(z) = c1*z + c2/z with c1 = (a+b)/2 and
c2 = (a-b)/2 maps the unit circle onto the ellipse with semi-axes a >= b > 0
(and the exterior onto the exterior).  Its boundary is smooth, so the kernel
difference Phi'(e^it)/(Phi(e^it) - Phi(w)) - 1/(e^it - w) stays bounded and
the distortion constant A is a plain sup of trapezoid integrals.

Sup norms and Lebesgue constants on the image boundary run the tiled scan
engine of :mod:`lejaflip.flip` on the curve t -> Phi(e^it), with golden
refinement in the circle parameter t.  Scans and the distortion constant run
on the map scaled by the power of two nearest 1/c1, c1 the capacity, which
keeps the kernel quotients of tiny ellipses in double range.  Where that
scale would carry the node weights of a thin ellipse out of the scan kernel's
range, scans run on the map scaled exactly to capacity 1 instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import UNIT_DISK, BoundarySamples, LejaSection
from .flip import LebesgueReport, _boundary_stats


@dataclass(frozen=True)
class ExteriorMap:
    """Phi(z) = c1*z + c2/z, c1 > c2 >= 0: |z| > 1 onto the exterior of the ellipse with semi-axes c1 +- c2."""

    c1: float
    c2: float

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = self.c1 * z + self.c2 / z
        return complex(out) if out.ndim == 0 else out

    def on_circle(self, t):
        """Phi(e^{it}), the boundary curve in the circle parameter t."""
        return self(np.exp(1j * t))

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        out = self.c1 - self.c2 / z**2
        return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TransportedSection:
    source: LejaSection
    images: np.ndarray
    map: ExteriorMap

    def __len__(self) -> int:
        return self.images.size


def ellipse_exterior_map(a: float, b: float) -> ExteriorMap:
    """Exterior map for the ellipse x^2/a^2 + y^2/b^2 = 1, a >= b > 0.

    The degenerate case a == b is the scaled circle Phi(z) = a*z.  The
    boundary parametrization is self-checked to 1e-12 at 256 angles, which
    refuses axes with a + b overflowing or a/b beyond about 10**3.
    """
    if not (b > 0.0 and a >= b):
        raise ValueError("need a >= b > 0")
    mp = ExteriorMap((a + b) / 2.0, (a - b) / 2.0)
    t = 2.0 * np.pi * np.arange(256) / 256
    with np.errstate(all="ignore"):
        img = mp.on_circle(t)
        resid = (img.real / a) ** 2 + (img.imag / b) ** 2 - 1.0
    if not np.max(np.abs(resid)) <= 1e-12:
        raise ValueError(f"axes a={a}, b={b} fail the parametrization self-check in double precision")
    return mp


def transport_sequence(mp: ExteriorMap, section: LejaSection) -> TransportedSection:
    """Pointwise image of a unit-disk section; no optimality is implied for it."""
    if section.compact_tag != UNIT_DISK:
        raise ValueError("only unit-disk sections can be transported")
    images = np.atleast_1d(np.array(mp(section.points), dtype=complex))
    if np.unique(images).size != images.size:
        raise ValueError("map produced coincident images")
    images.setflags(write=False)
    return TransportedSection(section, images, mp)


def boundary_samples(mp: ExteriorMap, count: int) -> BoundarySamples:
    """Images of ``count`` equispaced circle points; feeds the greedy builder."""
    t = 2.0 * np.pi * np.arange(count) / count
    return BoundarySamples(mp.on_circle(t))


def _capacity_scaled(mp: ExteriorMap) -> ExteriorMap:
    """s*Phi for s = 2**-round(log2 c1), whose capacity c1*s is near 1.

    A power of two keeps every bit, and ``math.ldexp`` also reaches the scales
    of tiny axes, where ``2.0 ** -round(log2 c1)`` overflows.
    """
    e = -round(math.log2(mp.c1))
    return ExteriorMap(math.ldexp(mp.c1, e), math.ldexp(mp.c2, e))


def _scaled_boundary(ts: TransportedSection):
    """Nodes, boundary curve and node parameters on the capacity-scaled map.

    Scaled to capacity near 1, the nodes' weights stay in double range
    (Reichel, BIT 30 (1990)).  |l_k| keeps its value, since its numerator and
    denominator have N-1 factors each.  The power of two keeps every bit,
    but leaves c1 up to sqrt(2) off 1, and the log-weights drift by about
    (N-1)*|ln c1|; past 200 (the kernel refuses 280) the map is divided by c1.
    """
    mp = _capacity_scaled(ts.map)
    if (len(ts) - 1) * abs(math.log(mp.c1)) > 200.0:
        mp = ExteriorMap(1.0, mp.c2 / mp.c1)
    return mp(ts.source.points), mp.on_circle, np.angle(ts.source.points)


def compact_flip_stats(
    ts: TransportedSection,
    boundary_grid: int | None = None,
    refine_iters: int = 40,
) -> tuple[np.ndarray, LebesgueReport]:
    """Per-node sups (each golden-refined) and the Lebesgue constant over the image boundary."""
    node_max, _, report = _boundary_stats(*_scaled_boundary(ts), boundary_grid, refine_iters, np.arange(len(ts)))
    return node_max, report


def estimate_alper_constant(mp: ExteriorMap, w_grid: int = 512, t_grid: int = 512) -> float:
    """sup over |w|=1 of the integral of |Phi'(e^it)/(Phi(e^it)-Phi(w)) - 1/(e^it - w)| dt.

    The inner integral is a periodic trapezoid rule; at the single t node
    nearest arg(w) the integrand is replaced by its limit Phi''(w)/(2 Phi'(w)),
    estimated from second-order central differences of Phi along the circle,
    which keeps trapezoid order for the one substituted node.  A does not
    change under Phi -> s*Phi, so it is computed on the capacity-scaled map.
    The w angles are taken in blocks of 2**12 integrand entries (64 KB), so a
    2048 x 2048 grid never holds its 64 MB integrand at once.
    """
    if w_grid < 256 or t_grid < 256:
        raise ValueError("grids must be at least 256")
    mp = _capacity_scaled(mp)
    t = 2.0 * np.pi * np.arange(t_grid) / t_grid
    zt = np.exp(1j * t)
    phi_t = mp(zt)
    dphi_t = mp.derivative(zt)
    h = 2.0 * np.pi / t_grid
    rows = max(1, (1 << 12) // t_grid)
    integrals = np.empty(w_grid)
    for lo in range(0, w_grid, rows):
        w = np.exp(1j * (2.0 * np.pi * np.arange(lo, min(lo + rows, w_grid)) / w_grid))
        phi_w, phi_p, phi_m = mp(w), mp(w * np.exp(1j * h)), mp(w * np.exp(-1j * h))
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = np.subtract(phi_t, phi_w[:, None])
            np.divide(dphi_t, quot, out=quot)
            diff = zt - w[:, None]
            nearest = np.abs(diff).argmin(axis=1)
            integrand = np.abs(np.subtract(quot, np.divide(1.0, diff, out=diff), out=quot))
            phi1 = (phi_p - phi_m) / (2.0 * h) / (1j * w)
            phi2 = ((phi_p - 2.0 * phi_w + phi_m) / h**2 + w * phi1) / (1j * w) ** 2
            integrand[np.arange(w.size), nearest] = np.abs(phi2 / (2.0 * phi1))
        integrals[lo : lo + w.size] = np.sum(integrand, axis=1) * h
    return float(np.max(integrals))
