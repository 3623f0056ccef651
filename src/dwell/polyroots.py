"""Closed-form real roots of cubics and quartics with a Newton polish.

Geometry queries (well minima, turning points) need real roots of degree-3
and degree-4 polynomials only, so the classical Cardano/Ferrari formulas are
used instead of a general eigensolver.  Closed forms suffer cancellation for
nearly-degenerate roots; a guarded Newton step on the original polynomial
removes most of it.  Roots are returned sorted, with multiplicity.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cubic_real_roots", "quartic_real_roots", "polish_root"]

_EPS = np.finfo(float).eps


def _horner(coeffs: list[float], x: float) -> float:
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def polish_root(coeffs: np.ndarray, x: float, steps: int = 2) -> float:
    """Newton-polish a root of the polynomial with highest-degree-first coeffs.

    Skips updates when the derivative is too small relative to the local
    coefficient scale (multiple roots), where Newton would amplify noise.
    Horner runs on Python floats: the operations of np.polyval, without
    its per-call array overhead.
    """
    c = [float(v) for v in coeffs]
    degree = len(c) - 1
    dc = [v * (degree - i) for i, v in enumerate(c[:-1])]
    scale = max(max(abs(v) for v in c), 1.0)
    for _ in range(steps):
        f = _horner(c, x)
        df = _horner(dc, x)
        if abs(df) <= 1e3 * _EPS * scale * np.float64(1.0 + abs(x)) ** (degree - 1):
            break
        step = f / df
        if not math.isfinite(step):
            break
        x -= step
    return x


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def cubic_real_roots(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Real roots of a*x^3 + b*x^2 + c*x + d (a != 0), sorted ascending.

    Trigonometric form for three real roots, Cardano otherwise; each root is
    Newton-polished against the original coefficients.
    """
    if a == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    coeffs = np.array([a, b, c, d], dtype=float)
    # depressed cubic t^3 + p t + q with x = t - b/(3a)
    shift = b / (3.0 * a)
    p = (3.0 * a * c - b * b) / (3.0 * a * a)
    q = (2.0 * b**3 - 9.0 * a * b * c + 27.0 * a * a * d) / (27.0 * a**3)
    disc = -4.0 * p**3 - 27.0 * q * q
    disc_scale = 4.0 * abs(p) ** 3 + 27.0 * q * q + _EPS
    tol = 64.0 * _EPS
    if disc > tol * disc_scale:
        # three distinct real roots (trigonometric form; p < 0 here)
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = min(1.0, max(-1.0, 3.0 * q / (p * m)))
        theta = math.acos(arg) / 3.0
        ts = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    elif disc < -tol * disc_scale:
        # one real root (Cardano, cancellation-safe branch)
        s = math.sqrt(q * q / 4.0 + p**3 / 27.0)
        u = _cbrt(-q / 2.0 + s) if q <= 0.0 else _cbrt(-q / 2.0 - s)
        ts = [u - p / (3.0 * u) if u != 0.0 else 0.0]
    elif abs(p) <= tol:
        ts = [0.0, 0.0, 0.0]  # triple root
    else:
        # vanishing discriminant: double root plus a simple one
        ts = [3.0 * q / p, -1.5 * q / p, -1.5 * q / p]
    roots = np.array(sorted(polish_root(coeffs, t - shift) for t in ts))
    return roots


def _quadratic_real_roots(b: float, c: float, rel_tol: float = 0.0) -> list[float]:
    """Real roots of x^2 + b x + c; near-zero discriminants count as double."""
    disc = b * b - 4.0 * c
    scale = b * b + 4.0 * abs(c)
    if disc < -rel_tol * scale:
        return []
    disc = max(disc, 0.0)
    s = math.sqrt(disc)
    # stable pairing: avoid subtracting nearly equal quantities
    q = -0.5 * (b + math.copysign(s, b)) if b != 0.0 else 0.5 * s
    r1 = q
    r2 = c / q if q != 0.0 else -q
    return [r1, r2]


def quartic_real_roots(
    a: float, b: float, c: float, d: float, e: float
) -> np.ndarray:
    """Real roots of a*x^4 + b*x^3 + c*x^2 + d*x + e (a != 0), sorted, with
    multiplicity (0, 2 or 4 values up to rounding at tangencies).

    Ferrari resolvent factorization into two quadratics, then Newton polish.
    """
    if a == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    coeffs = np.array([a, b, c, d, e], dtype=float)
    b1, c1, d1, e1 = b / a, c / a, d / a, e / a
    # depressed quartic y^4 + p y^2 + q y + r with x = y - b1/4
    shift = b1 / 4.0
    p = c1 - 6.0 * shift * shift
    q = d1 - 2.0 * c1 * shift + 8.0 * shift**3
    r = e1 - d1 * shift + c1 * shift * shift - 3.0 * shift**4

    scale = max(abs(p), abs(q) ** (2.0 / 3.0), abs(r) ** 0.5, 1.0)
    if abs(q) <= 1e-14 * scale**1.5:
        # biquadratic: y^2 solves z^2 + p z + r = 0
        ys: list[float] = []
        for z in _quadratic_real_roots(p, r, rel_tol=1e-14):
            if z >= 0.0:
                ys.extend([math.sqrt(z), -math.sqrt(z)])
            elif z > -1e-13 * scale:
                ys.extend([0.0, 0.0])
    else:
        # resolvent cubic u^3 + 2p u^2 + (p^2 - 4r) u - q^2 = 0; largest root
        # is >= 0 and gives y^4+py^2+qy+r = (y^2+s y+B1)(y^2-s y+B2), s=sqrt(u)
        res = cubic_real_roots(1.0, 2.0 * p, p * p - 4.0 * r, -q * q)
        u = max(0.0, float(res[-1]))
        s = math.sqrt(u)
        if s == 0.0:
            s = math.sqrt(abs(u) + _EPS)
        beta1 = 0.5 * (p + u - q / s)
        beta2 = 0.5 * (p + u + q / s)
        ys = []
        for bb, cc in ((s, beta1), (-s, beta2)):
            ys.extend(_quadratic_real_roots(bb, cc, rel_tol=64.0 * _EPS))
    roots = sorted(polish_root(coeffs, y - shift) for y in ys)
    return np.array(roots)
