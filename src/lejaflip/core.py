"""Integer decompositions, stable complex products and the CSV writer shared by the other modules."""

from __future__ import annotations

import csv
import io
import math

import numpy as np

TAU = 2.0 * math.pi

#: Universal sup-norm bound for the Lagrange basis polynomials of disk Leja sections.
UNIFORM_FLIP_BOUND = math.pi * math.exp(3.0 * math.pi)

#: Same constant squared; bounds products of two one-dimensional basis factors.
UNIFORM_FLIP_BOUND_2D = math.pi**2 * math.exp(6.0 * math.pi)


def csv_text(rows: list[dict]) -> str:
    """``rows`` as CSV text, with the first row's keys as the header; empty for no rows."""
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def binary_decompose(n: int) -> list[int]:
    """Exponents p_1 > p_2 > ... > p_k >= 0 with n = 2**p_1 + ... + 2**p_k.

    >>> binary_decompose(6)
    [2, 1]
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return [p for p in range(n.bit_length() - 1, -1, -1) if (n >> p) & 1]


def alternating_decompose(value: int) -> list[int]:
    """Exponents s_1 > s_2 > ... > s_{2L} >= 0 with value = sum_i (-1)**(i-1) * 2**s_i.

    Signs alternate starting with +, the list always has even length, and
    s_1 is one more than the index of the highest set bit.  Each maximal run
    of consecutive set bits [hi..lo] contributes the pair +2**(hi+1) - 2**lo.

    >>> alternating_decompose(5)
    [3, 2, 1, 0]
    """
    if value < 1:
        raise ValueError(f"value must be a positive integer, got {value}")
    bits = binary_decompose(value)
    out: list[int] = []
    i = 0
    while i < len(bits):
        j = i
        while j + 1 < len(bits) and bits[j + 1] == bits[j] - 1:
            j += 1
        out.append(bits[i] + 1)
        out.append(bits[j])
        i = j + 1
    return out


def half_angle_cos_product(alpha: float, m: int) -> float:
    """prod_{j=1..m} cos(alpha / 2**j).

    Rejects ``alpha`` within 1e-12 of a multiple of pi, where the companion
    closed form sin(alpha) / (2**m sin(alpha / 2**m)) degenerates.
    """
    if m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m}")
    if abs(alpha - math.pi * round(alpha / math.pi)) <= 1e-12:
        raise ValueError(f"alpha={alpha!r} is too close to a multiple of pi")
    prod = 1.0
    for j in range(1, m + 1):
        prod *= math.cos(alpha / 2.0**j)
    return prod


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
    w = math.remainder(theta, TAU)
    if w <= -math.pi:
        w += TAU
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
