"""Real roots of a real polynomial by isolation between its derivative's roots.

The real roots of p' split the line into pieces on which p is monotone, so
each piece whose ends differ in sign holds exactly one simple root, which a
bracketed Newton iteration finds.  A critical point where |p| lies within
the rounding bound of its Horner evaluation is a multiple root.  The roots
of p' come from the same procedure one degree down (Collins and Loos,
SYMSAC 1976).  Every decision is a sign test or that one relative bound
(Higham, *Accuracy and Stability of Numerical Algorithms*, sec. 5.1), so
the result does not depend on the scale of the roots: the roots of
p(2^-j x) are 2^j times those of p.  A root set is a sorted tuple of Python
floats; the module needs no numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

__all__ = ["real_roots"]

_EPS = sys.float_info.epsilon


def real_roots(coeffs) -> tuple[float, ...]:
    """Real roots of the polynomial with highest-degree-first coeffs: a sorted
    tuple of floats, each root repeated by its multiplicity.  The tuple is
    the cached one, which is safe to share because it cannot change."""
    c = tuple(float(v) for v in coeffs)
    if not c or c[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    return _roots(c)


def _horner(c: tuple[float, ...], x: float) -> tuple[float, float, float]:
    """p(x), p'(x) and the running bound on the rounding error of p(x)."""
    p = dp = mu = 0.0
    ax = abs(x)
    for ci in c:
        dp = dp * x + p
        p = p * x + ci
        mu = mu * ax + abs(p)
    return p, dp, _EPS * mu


# The roots of p' are kept for the next polynomial that shares them: the
# turning points of every state of one potential differ only in p(0).
@functools.lru_cache(maxsize=64)
def _roots(c: tuple[float, ...]) -> tuple[float, ...]:
    n = len(c) - 1
    if n == 0:
        return ()
    if n == 1:
        return (-c[1] / c[0] + 0.0,)
    critical = _roots(tuple(ci * (n - i) for i, ci in enumerate(c[:-1])))
    # Work in y = x / 2^e, with 2^e read off the exponents of Fujiwara's bound
    # 2 max |c_i / c_0|^(1/i).  The scaling is exact, and q(y) = p(2^e y) /
    # 2^(e n + k0) has coefficients of size at most 1 and every root in
    # |y| < 2, whatever the scale of the roots of p.
    k0 = math.frexp(c[0])[1]
    e = max((-((k0 - 1 - math.frexp(ci)[1]) // i) for i, ci in enumerate(c[1:], 1) if ci),
            default=0)
    q = tuple(math.ldexp(ci, -e * i - k0) for i, ci in enumerate(c))
    # (y, its multiplicity as a root of p', q(y) or 0 where y is a root);
    # q has one sign beyond each end, where only its sign is kept, and is
    # monotone between consecutive points
    lead = math.copysign(1.0, c[0])
    points = [(-2.0, 0, -lead if n % 2 else lead)]
    for x, same in itertools.groupby(critical):
        y = math.ldexp(x, -e)
        f, _, err = _horner(q, y)
        points.append((y, len(list(same)), 0.0 if abs(f) <= err else f))
    points.append((2.0, 0, lead))
    roots = []
    for (a, _, fa), (b, m, fb) in zip(points[:-1], points[1:]):
        if (fa < 0.0 < fb) or (fb < 0.0 < fa):
            roots.append(_bracketed_root(q, a, b, fa))
        if fb == 0.0:
            # p vanishes within rounding at b: a root one more times than p'
            # has there, or as many where p vanishes at a, too (by Rolle, a
            # run of such points holds one root more than p' has in it)
            roots.extend([b] * (m + 1 if fa else m))
    return tuple(math.ldexp(y, e) + 0.0 for y in roots)


def _bracketed_root(c: tuple[float, ...], a: float, b: float, fa: float) -> float:
    """The one root of p between a and b, where p is monotone and p(a), p(b)
    differ in sign: Newton steps from the midpoint, with a bisection wherever
    a step leaves the bracket.  Returns the iterate with the smallest |p|."""
    lo, hi = (a, b) if fa < 0.0 else (b, a)  # p(lo) < 0 < p(hi)
    x = 0.5 * (a + b)
    best, best_f = x, math.inf
    while True:
        f, df, _ = _horner(c, x)
        if abs(f) < best_f:
            best, best_f = x, abs(f)
        if f == 0.0:
            break
        if f < 0.0:
            lo = x
        else:
            hi = x
        x_new = x - f / df if df else math.inf  # a flat point: bisect
        if x_new == x:
            break
        if not min(lo, hi) < x_new < max(lo, hi):
            x_new = 0.5 * (lo + hi)
            if x_new == lo or x_new == hi:
                break
        x = x_new
    return best
