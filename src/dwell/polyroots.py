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

One power-of-2 scale serves all roots whose magnitudes lie within some 900
binary orders of each other.  A polynomial with a root nearer 0 than that
(a lowest-order nonzero coefficient that the scale takes below 2^-900) is
solved on the doubles themselves: signs evaluated exactly in rational
arithmetic, and bisection of the doubles between the same critical points.
So each root is returned as a double next to it, a subnormal or 0 where it
lies that near 0, and a root beyond the largest double raises
ScaleOutOfRange.  A middle coefficient that small loses at most
2^-1074 |y|^(n-i) to underflow, far below eps times that last coefficient.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import sys

from .defaults import ScaleOutOfRange

__all__ = ["real_roots"]

_EPS = sys.float_info.epsilon
_HUGE = sys.float_info.max
# a scaled lowest-order coefficient below this may have lost bits to
# underflow, or may put a root of the scaled polynomial among the subnormals
_FULL_SCALE = 2.0 ** -900


def real_roots(coeffs) -> tuple[float, ...]:
    """Real roots of the polynomial with highest-degree-first coeffs: a sorted
    tuple of floats, each root repeated by its multiplicity.  The tuple is
    the cached one, which is safe to share because it cannot change.

    A root beyond the largest double raises ScaleOutOfRange."""
    c = tuple(float(v) for v in coeffs)
    if not c or c[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    try:
        return _roots(c)
    except ScaleOutOfRange:
        raise ScaleOutOfRange(
            f"a real root of the polynomial {c} lies beyond the largest double") from None


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
        root = -c[1] / c[0] + 0.0
        if math.isinf(root):
            raise ScaleOutOfRange
        return (root,)
    critical = _roots(tuple(ci * (n - i) for i, ci in enumerate(c[:-1])))
    # Work in y = x / 2^e, with 2^e read off the exponents of Fujiwara's bound
    # 2 max |c_i / c_0|^(1/i).  The scaling is exact, and q(y) = p(2^e y) /
    # 2^(e n + k0) has coefficients of size at most 1 and every root in
    # |y| < 2, whatever the scale of the roots of p.
    k0 = math.frexp(c[0])[1]
    e = max((-((k0 - 1 - math.frexp(ci)[1]) // i) for i, ci in enumerate(c[1:], 1) if ci),
            default=0)
    q = tuple(math.ldexp(ci, -e * i - k0) for i, ci in enumerate(c))
    lead = math.copysign(1.0, c[0])
    trail = -lead if n % 2 else lead  # the sign of p(-inf)
    if abs(q[max(i for i, ci in enumerate(c) if ci)]) < _FULL_SCALE:
        # a root too near 0 for one scale: work on the doubles themselves,
        # past whose ends no root may lie
        e, end, value = 0, _HUGE, _exact_value(c)
        find = functools.partial(_bisect_doubles, value)
        if not (value(-end)[0] * int(trail) > 0 < value(end)[0] * int(lead)):
            raise ScaleOutOfRange
    else:
        end, value = 2.0, lambda y: _horner(q, y)[::2]
        find = functools.partial(_bracketed_root, q)
    # (y, its multiplicity as a root of p', q(y) or 0 where y is a root);
    # q has one sign beyond each end, where only its sign is kept, and is
    # monotone between consecutive points
    points = [(-end, 0, trail)]
    for x, same in itertools.groupby(critical):
        y = math.ldexp(x, -e)
        f, err = value(y)
        points.append((y, len(list(same)), 0.0 if abs(f) <= err else f))
    points.append((end, 0, lead))
    roots = []
    for (a, _, fa), (b, m, fb) in zip(points[:-1], points[1:]):
        if (fa < 0.0 < fb) or (fb < 0.0 < fa):
            roots.append(find(a, b, fa))
        if fb == 0.0:
            # p vanishes within rounding at b: a root one more times than p'
            # has there, or as many where p vanishes at a, too (by Rolle, a
            # run of such points holds one root more than p' has in it)
            roots.extend([b] * (m + 1 if fa else m))
    try:
        return tuple(math.ldexp(y, e) + 0.0 for y in roots)
    except OverflowError:
        raise ScaleOutOfRange from None


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


def _exact_value(c: tuple[float, ...]):
    """x -> (p(x), eps times the sum of its terms' magnitudes), in exact
    rational arithmetic: the bound within which the rounding of the
    coefficients leaves p(x) indistinguishable from 0."""
    from fractions import Fraction

    coeffs = [Fraction(ci) for ci in c]
    eps = Fraction(_EPS)  # Fraction times float would round to a float

    def value(x: float):
        p = mu = Fraction(0)
        fx = Fraction(x)
        for ci in coeffs:
            p = p * fx + ci
            mu = mu * abs(fx) + abs(ci)
        return p, eps * mu

    return value


def _rank(x: float) -> int:
    """The position of x among the doubles: consecutive doubles differ by 1."""
    bits = int.from_bytes(struct.pack(">d", x), "big")
    return bits if bits < 1 << 63 else (1 << 63) - bits


def _double(rank: int) -> float:
    """The double at `rank` (`_rank`'s inverse, with 0 for either zero)."""
    x = struct.unpack(">d", abs(rank).to_bytes(8, "big"))[0]
    return x if rank >= 0 else -x


def _bisect_doubles(value, a: float, b: float, fa) -> float:
    """The root of p between the doubles a < b, where p(a) has the sign of fa
    and p(b) the other, with p(x) = value(x)[0] exact: a double where p is 0,
    else the one of the two adjacent doubles around the sign change with
    the smaller |p|."""
    lo, hi = _rank(a), _rank(b)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        f = value(_double(mid))[0]
        if f == 0:
            return _double(mid)
        if (f < 0) == (fa < 0):
            lo = mid
        else:
            hi = mid
    return min(_double(lo), _double(hi), key=lambda x: abs(value(x)[0]))
