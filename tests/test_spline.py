"""The numpy cubic spline against scipy's ``CubicSpline`` as the reference.

scipy is a test dependency only (the ``test`` extra); the package itself
must not import it.
"""

import numpy as np
import pytest

interpolate = pytest.importorskip("scipy.interpolate")
special = pytest.importorskip("scipy.special")

from hhtmotion.edit import align  # noqa: E402
from hhtmotion.memd import (  # noqa: E402
    _primes,
    _radical_inverse,
    direction_set,
)
from hhtmotion.signal_core import Decomposition, _extrema  # noqa: E402
from hhtmotion.spline import _evaluate, cubic_spline, mirrored_envelopes  # noqa: E402

TOL = 1e-12  # times the value scale


def reference(x, y, t, bc="not-a-knot"):
    return interpolate.CubicSpline(x, y, bc_type=bc, axis=-1)(t)


def assert_close(got, want, scale):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL * scale


def values(rng, n, columns):
    shape = (n,) if columns is None else (columns, n)
    return 50.0 * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("columns", [None, 1, 13])
def test_few_knots(n, columns):
    """scipy's straight-line (2 knots) and parabola (3 knots) cases."""
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.2, 2.0, n))
    y = values(rng, n, columns)
    t = np.linspace(x[0] - 0.5, x[-1] + 0.5, 301)
    assert_close(cubic_spline(x, y, t), reference(x, y, t), np.max(np.abs(y)))


@pytest.mark.parametrize("n", [5, 17, 64, 700])
@pytest.mark.parametrize("columns", [None, 1, 13])
def test_random_nonuniform_knots(n, columns):
    rng = np.random.default_rng(1000 + n)
    x = np.cumsum(rng.uniform(0.05, 3.0, n))
    y = values(rng, n, columns)
    t = np.sort(rng.uniform(x[0], x[-1], 2000))
    assert_close(cubic_spline(x, y, t), reference(x, y, t), np.max(np.abs(y)))


def mirrored_reference(idx, samples):
    last = samples.shape[-1] - 1
    knots = np.concatenate(([-idx[1], -idx[0]], idx, [2 * last - idx[-1], 2 * last - idx[-2]]))
    rows = np.concatenate(([idx[1], idx[0]], idx, [idx[-1], idx[-2]]))
    return reference(knots.astype(float), samples[..., rows], np.arange(last + 1.0), "natural")


@pytest.mark.parametrize("columns", [None, 1, 13])
def test_mirrored_envelopes_match_per_spline_fits(columns):
    """Many envelopes solved as one block-diagonal system, each checked alone."""
    rng = np.random.default_rng(7)
    n = 1500
    t = np.arange(n) / 100.0
    base = np.sin(2 * np.pi * 1.3 * t) + 0.4 * np.sin(2 * np.pi * 7.0 * t)
    samples = 20.0 * (base + 0.3 * rng.standard_normal(n))
    if columns is not None:
        samples = samples + rng.standard_normal((columns, 1)) * np.cos(2 * np.pi * 0.2 * t)
    projections = [samples if columns is None else rng.standard_normal(columns) @ samples
                   for _ in range(6)]
    extrema = [_extrema(p)[k] for p in projections for k in (0, 1)]
    extrema.append(extrema[0][:2])  # the fewest extrema an envelope takes
    envelopes = list(mirrored_envelopes(extrema, samples))
    assert len(envelopes) == len(extrema)
    scale = np.max(np.abs(samples))
    for idx, envelope in zip(extrema, envelopes):
        assert_close(envelope, mirrored_reference(idx, samples), scale)


def test_rejects_bad_input():
    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        cubic_spline(x[::-1], x, x)
    with pytest.raises(ValueError):
        cubic_spline(x, x, x[::-1])
    with pytest.raises(ValueError):
        cubic_spline(x, x[:2], x)
    # NaN passes an ascending check, and the points after it would land on
    # the wrong piece
    for t in ([np.nan, 0.5, 4.5], [0.5, np.nan], [0.5, np.inf], [-np.inf, 0.5]):
        with pytest.raises(ValueError, match="finite"):
            cubic_spline(np.arange(6.0), np.arange(6.0) ** 2, t)
    # numpy would keep the real parts and only warn
    for args in ([x + 0j, x, x], [x, x + 1j, x], [x, x, [0.5 + 0j]]):
        with pytest.raises(ValueError, match="real numbers"):
            cubic_spline(*args)


def per_point_evaluate(x, coef, t):
    """The evaluator before the run-length split, kept as the reference: each
    point's piece by a knot search, clamped to the end pieces and counted."""
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


@pytest.mark.parametrize("n", [2, 3, 4, 9])
@pytest.mark.parametrize("columns", [None, 1, 13])
def test_evaluate_keeps_each_points_piece(n, columns):
    """Bit for bit the per-point evaluator: points on the knots, outside
    them, repeated, and none at all.  The result owns its memory, so a
    kept resampling holds no gathered coefficients."""
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.2, 2.0, n))
    coef = rng.standard_normal((4,) + ((n - 1,) if columns is None else (columns, n - 1)))
    inside = rng.uniform(x[0], x[-1], 40)
    cases = [
        np.sort(np.concatenate((x, x[1:-1], inside, inside[:5], [x[0] - 3.0, x[-1] + 3.0]))),
        np.repeat(x, 3),
        x[:1] - [2.0, 1.0, 1.0],
        x[-1:] + [1.0, 1.0, 2.0],
        np.full(4, x[-1]),
        np.empty(0),
    ]
    for t in cases:
        got = _evaluate(x, coef, t)
        assert np.array_equal(got, per_point_evaluate(x, coef, t))
        assert got.flags.owndata


@pytest.mark.parametrize("n_dims, count, seed", [(2, 64, 0), (4, 64, 3), (13, 64, 11), (3, 200, 5)])
def test_direction_set_matches_ndtri(n_dims, count, seed):
    indices = np.arange(1, count + 1)
    points = np.empty((count, n_dims))
    points[:, 0] = (indices - 0.5) / count
    for dim, base in enumerate(_primes(n_dims - 1)):
        points[:, dim + 1] = _radical_inverse(indices, base)
    shift_rng = np.random.Generator(np.random.Philox(key=seed))
    points = (points + shift_rng.uniform(0.0, 1.0, n_dims)) % 1.0
    gauss = special.ndtri(np.clip(points, 1e-12, 1.0 - 1e-12))
    want = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    got = direction_set(n_dims, count, seed=seed)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_align_matches_per_series_fits():
    """One multi-column spline per decomposition equals one fit per series."""
    rng = np.random.default_rng(3)
    n, rate, target = 357, 30.0, 47.0
    imfs, trend = [], []
    for _ in range(4):
        imfs.append([rng.standard_normal(n) * 10 for _ in range(3)])
        trend.append(rng.standard_normal(n) * 40)
    md = Decomposition(imfs=imfs, trend=trend, rate=rate, labels=list("abcd"))
    aligned, _ = align(md, md, target_rate=target)
    t_in = np.arange(n) / rate
    times_out = np.arange(aligned.per_channel[0].trend.size) / target
    for src, out in zip(md.per_channel, aligned.per_channel):
        for series, got in zip(list(src.imfs) + [src.trend], list(out.imfs) + [out.trend]):
            want = interpolate.CubicSpline(t_in, series)(times_out)
            assert_close(got, want, np.max(np.abs(series)))
