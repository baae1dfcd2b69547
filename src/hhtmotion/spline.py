"""Cubic splines through increasing knots, in numpy alone.

Resampling uses not-a-knot ends (a single cubic across the first two and
the last two intervals, scipy's default); the sifting envelopes use natural
ends (zero second derivative at both end knots).  Values run along the last
axis; leading axes are columns that share the knots and are fitted at once.

The unknowns are the second derivatives at the knots.  Both boundary
conditions give a strictly diagonally dominant tridiagonal system, solved by
parallel cyclic reduction (see :func:`_solve_tridiagonal`).  Many splines on
different knots are solved as one block-diagonal system
(:func:`mirrored_envelopes`).  Not-a-knot recovers the two end second
derivatives by extrapolation, which scales rounding error by about the ratio
of the first two (and last two) knot spacings: by 1 on the uniform grids
that resampling uses, under 1e-12 of the value scale at a ratio of 1000.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cubic_spline", "mirrored_envelopes"]

# A reduction multiplies the bound on a row's off-diagonal-to-diagonal ratio
# by the larger bound of its two partner rows.  Natural rows start at exactly
# 1/2, so six reductions leave 2**-64; the not-a-knot rows beside the ends
# start below 1 and leave at most 2**-48.  Either way the dropped coupling is
# under float rounding whatever the number of knots.
_REDUCTIONS = 6


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Solve ``lower[i] u[i-1] + diag[i] u[i] + upper[i] u[i+1] = rhs[i]``.

    The unknowns run along the last axis of ``rhs``; leading axes are
    independent columns sharing the matrix.  ``lower[0]`` and ``upper[-1]``
    are ignored, and a zero ``lower[i]`` with a zero ``upper[i-1]`` splits
    the system into independent blocks.  All four arrays are overwritten;
    the solution is returned in ``rhs``.  Each step of parallel cyclic
    reduction uses rows ``i - s`` and ``i + s`` to eliminate the row's
    couplings, doubling ``s``; the arrays are updated through shifted slices,
    so no step allocates padding.
    """
    a, b, c, d = lower, diag, upper, rhs
    a[0] = 0.0
    c[-1] = 0.0
    below = np.empty_like(d)
    above = np.empty_like(d)
    s = 1
    for _ in range(_REDUCTIONS):
        if s >= b.size:
            break
        k1 = a[s:] / b[:-s]
        k2 = c[:-s] / b[s:]
        b[s:] -= k1 * c[:-s]
        b[:-s] -= k2 * a[s:]
        # both products read the rows before either update writes them
        np.multiply(k1, d[..., :-s], out=below[..., s:])
        np.multiply(k2, d[..., s:], out=above[..., :-s])
        d[..., s:] -= below[..., s:]
        d[..., :-s] -= above[..., :-s]
        a[s:] = a[:-s] * -k1
        a[:s] = 0.0
        c[:-s] = c[s:] * -k2
        c[-s:] = 0.0
        s *= 2
    d /= b
    return d


def _natural_rows(h, slope, ends):
    """Tridiagonal rows, one per knot, for the second derivatives ``m``.

    An interior knot's row is ``h[i-1] m[i-1] + 2 (h[i-1] + h[i]) m[i] +
    h[i] m[i+1] = 6 (slope[i] - slope[i-1])``.  The first and last knot and
    the knots listed in ``ends`` get the identity row ``m = 0``: a natural
    end, which also cuts the coupling between independent chains of knots.
    """
    n = h.size + 1
    lower = np.zeros(n)
    diag = np.ones(n)
    upper = np.zeros(n)
    rhs = np.zeros(slope.shape[:-1] + (n,))
    lower[1:-1] = h[:-1]
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    upper[1:-1] = h[1:]
    rhs[..., 1:-1] = 6.0 * np.diff(slope)
    lower[ends] = upper[ends] = 0.0
    diag[ends] = 1.0
    rhs[..., ends] = 0.0
    return lower, diag, upper, rhs


def _pieces(h, y, slope, m):
    """Power-form coefficients of each piece in ``t - x[j]``, highest first."""
    coef = np.empty((4,) + slope.shape)
    c3, c2, c1, c0 = coef
    np.subtract(m[..., 1:], m[..., :-1], out=c3)
    c3 /= 6.0 * h
    np.multiply(m[..., :-1], 0.5, out=c2)
    # slope - h (2 m[j] + m[j+1]) / 6, without temporaries
    np.multiply(m[..., :-1], 2.0, out=c1)
    c1 += m[..., 1:]
    c1 *= h / -6.0
    c1 += slope
    c0[...] = y[..., :-1]
    return coef


def _evaluate(x, coef, t):
    """Evaluate the pieces ``coef`` on knots ``x`` at ascending points ``t``.

    Piece j serves the points in ``[x[j], x[j+1])`` and the end pieces
    extend outward.  Ascending points give each piece one run, so a single
    repeat gathers every coefficient.
    """
    j = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    c3, c2, c1, c0 = np.repeat(coef, np.bincount(j, minlength=x.size - 1), axis=-1)
    dt = t - x[j]
    out = c3 * dt
    out += c2
    out *= dt
    out += c1
    out *= dt
    out += c0
    return out


def cubic_spline(x, y, t) -> np.ndarray:
    """Evaluate at ascending points ``t`` the not-a-knot spline through ``(x, y)``.

    ``x`` holds at least two strictly increasing knots and ``y`` the values
    at them along its last axis; leading axes of ``y`` are columns that share
    the knots.  With two knots the spline is the straight line and with three
    the parabola.  Points outside the knots extend the end pieces.  Returns
    an array of shape ``y.shape[:-1] + t.shape``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if x.ndim != 1 or x.size < 2 or y.shape[-1:] != x.shape:
        raise ValueError("need at least two knots and one value per knot")
    if t.ndim != 1 or np.any(np.diff(t) < 0):
        raise ValueError("evaluation points must be one ascending array")
    h = np.diff(x)
    if not np.all(h > 0):
        raise ValueError("knots must be strictly increasing")
    slope = np.diff(y) / h
    if x.size == 3:
        # one cubic through three points is not unique; take the parabola
        m = np.empty(y.shape)
        m[:] = (2.0 * (slope[..., 1] - slope[..., 0]) / (h[0] + h[1]))[..., None]
        return _evaluate(x, _pieces(h, y, slope, m), t)
    lower, diag, upper, rhs = _natural_rows(h, slope, ends=[])
    if x.size > 3:
        # the third derivative is continuous at the second and the
        # second-to-last knot: m[0] = m[1] + r0 (m[1] - m[2]) and its mirror
        # image move into rows 1 and n-2, and m[0], m[-1] follow afterwards
        r0 = h[0] / h[1]
        r1 = h[-1] / h[-2]
        lower[1] = 0.0
        diag[1] += h[0] * (1.0 + r0)
        upper[1] -= h[0] * r0
        upper[-2] = 0.0
        diag[-2] += h[-1] * (1.0 + r1)
        lower[-2] -= h[-1] * r1
    m = _solve_tridiagonal(lower, diag, upper, rhs)
    if x.size > 3:
        m[..., 0] = m[..., 1] + r0 * (m[..., 1] - m[..., 2])
        m[..., -1] = m[..., -2] + r1 * (m[..., -2] - m[..., -3])
    return _evaluate(x, _pieces(h, y, slope, m), t)


def mirrored_envelopes(extrema, samples: np.ndarray):
    """Natural spline envelopes of ``samples``, one per index array in ``extrema``.

    Each array lists at least two increasing extremum positions along the
    last axis of ``samples`` (leading axes are columns).  The two extrema
    nearest each end are reflected across the boundary sample, and the
    natural cubic spline through ``samples`` at the resulting knots is
    evaluated at every sample position.  All fits are solved at once as one
    block-diagonal system; the returned iterator evaluates the envelopes one
    at a time, in the order of ``extrema``.
    """
    last = samples.shape[-1] - 1
    knots, rows = [], []
    for idx in extrema:
        rows.append(np.concatenate((idx[1::-1], idx, idx[:-3:-1])))
        knots.append(np.concatenate((-idx[1::-1], idx, 2 * last - idx[:-3:-1])))
    bounds = np.cumsum([0] + [r.size for r in rows])
    x = np.concatenate(knots).astype(np.float64)
    y = samples[..., np.concatenate(rows)]
    h = np.diff(x)
    slope = np.diff(y) / h
    ends = np.concatenate((bounds[1:-1] - 1, bounds[1:-1]))
    lower, diag, upper, rhs = _natural_rows(h, slope, ends)
    coef = _pieces(h, y, slope, _solve_tridiagonal(lower, diag, upper, rhs))
    grid = np.arange(last + 1, dtype=np.float64)
    return (
        _evaluate(x[lo:hi], coef[..., lo : hi - 1], grid)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )
