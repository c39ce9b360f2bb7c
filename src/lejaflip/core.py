"""Binary decomposition, grid and angle helpers and stable complex products shared by the other modules."""

from __future__ import annotations

import math

import numpy as np

#: Universal sup-norm bound for the Lagrange basis polynomials of disk Leja sections.
UNIFORM_FLIP_BOUND = math.pi * math.exp(3.0 * math.pi)

#: Same constant squared; bounds products of two one-dimensional basis factors.
UNIFORM_FLIP_BOUND_2D = math.pi**2 * math.exp(6.0 * math.pi)


def binary_decompose(n: int) -> list[int]:
    """Exponents p_1 > p_2 > ... > p_k >= 0 with n = 2**p_1 + ... + 2**p_k.

    >>> binary_decompose(6)
    [2, 1]
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return [p for p in range(n.bit_length() - 1, -1, -1) if (n >> p) & 1]


def require_resolving_grid(grid: int, degree: int) -> None:
    """Refuse a grid of at most pi*degree equispaced angles.

    A trigonometric polynomial of degree d sampled at M > pi*d equispaced
    angles has its sup within a factor 1/(1 - pi*d/M) of the grid maximum
    (Bernstein); coarser grids can report a bound as met without showing it.
    """
    if grid < 1 or grid <= math.pi * degree:
        raise ValueError(f"grid {grid} cannot resolve degree {degree}: it must be positive and above pi*{degree}")


def wrap_angle(theta: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    w = math.remainder(theta, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


def stable_abs_product(points, z: complex) -> tuple[float, float]:
    """Log-magnitude and phase of prod_j (z - points[j]).

    Returns ``(log_magnitude, phase)`` with the phase wrapped to (-pi, pi].
    The empty product gives ``(0.0, 0.0)``; an exactly vanishing factor gives
    ``(-inf, 0.0)``.  Accumulating in the log domain keeps node counts in the
    thousands away from double-precision overflow and underflow.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        return 0.0, 0.0
    diff = z - pts
    mag = np.abs(diff)
    if np.any(mag == 0.0):
        return float("-inf"), 0.0
    log_magnitude = float(np.sum(np.log(mag)))
    phase = wrap_angle(float(np.sum(np.angle(diff))))
    return log_magnitude, phase
