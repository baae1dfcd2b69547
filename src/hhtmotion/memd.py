"""Multivariate empirical mode decomposition with optional noise assistance.

A vector-valued signal is sifted jointly for all channels: the signal is
projected onto a set of directions covering the unit hypersphere, the
projection maxima define where to interpolate the full vector samples, and
the average of those directional envelopes plays the role of the univariate
envelope mean.  Every channel therefore ends up with the same number of
IMFs, mode-aligned across channels.

The noise-assisted variant appends Gaussian white-noise channels before
decomposing and strips them afterwards; the broadband noise drives the
sifting toward its dyadic filter-bank behavior and suppresses mode mixing.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from .errors import InputError, InvalidValue, TooFewExtrema
from .signal_core import (
    Decomposition,
    TimeSeries,
    _extrema,
    _mean_envelope,
    _sift,
    _sift_meta,
    check_sd_threshold,
    finite_array,
    is_number,
    require_form,
)

__all__ = [
    "direction_set",
    "multivariate_mean_envelope",
    "memd",
    "na_memd",
    "check_noise_channels",
    "multivariate_to_dict",
    "multivariate_from_dict",
]


# ---------------------------------------------------------------------------
# direction sampling


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    result = np.zeros(indices.shape, dtype=np.float64)
    denom = float(base)
    remaining = indices.copy()
    while np.any(remaining > 0):
        result += (remaining % base) / denom
        remaining //= base
        denom *= base
    return result


def _primes(count: int):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _philox(seed):
    if not 0 <= seed < 2**128:
        raise InvalidValue(f"seed must lie in [0, 2**128), got {seed}")
    return np.random.Philox(key=seed)


def direction_set(n_dims: int, count: int = 64, seed: int = 0) -> np.ndarray:
    """Low-discrepancy unit directions in ``n_dims`` dimensions, one per row
    of a (count, n_dims) float64 array.

    ``count`` is raised to ``2 * n_dims`` when below that, so that every
    dimension has at least two directions.  A Hammersley point set on the
    unit cube (linear first coordinate, prime-base radical inverses for the
    rest) is shifted by a seed-derived rotation mod 1, pushed through the
    inverse Gaussian CDF coordinatewise, and normalized onto the sphere.
    Deterministic in ``seed``.
    """
    if n_dims < 2:
        raise InvalidValue("direction sampling needs at least 2 dimensions")
    count = max(count, 2 * n_dims)
    indices = np.arange(1, count + 1)
    points = np.empty((count, n_dims))
    points[:, 0] = (indices - 0.5) / count
    for dim, base in enumerate(_primes(n_dims - 1)):
        points[:, dim + 1] = _radical_inverse(indices, base)
    shift_rng = np.random.Generator(_philox(seed))
    points = (points + shift_rng.uniform(0.0, 1.0, n_dims)) % 1.0
    points = np.clip(points, 1e-12, 1.0 - 1e-12)
    inv_cdf = NormalDist().inv_cdf
    gauss = np.array([inv_cdf(p) for p in points.ravel()]).reshape(points.shape)
    return gauss / np.linalg.norm(gauss, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# multivariate envelopes and sifting


def _mean_envelope_matrix(samples: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    if dirs.ndim != 2 or len(dirs) == 0 or dirs.shape[1] != samples.shape[0]:
        raise InvalidValue(
            f"direction set is shaped {dirs.shape}, signal has {samples.shape[0]} channels"
        )
    # the (samples, directions) operand order fixes the projections' last bits,
    # and with them which samples are extrema: archives stay byte-identical
    projections = samples.T @ dirs.T
    maxima = []
    for k, projection in enumerate(projections.T):
        idx, _ = _extrema(projection)
        if idx.size < 2:
            raise TooFewExtrema(f"projection {k} has {idx.size} maxima")
        maxima.append(idx)
    return _mean_envelope(samples, maxima)


def multivariate_mean_envelope(x: TimeSeries, dirs: np.ndarray) -> TimeSeries:
    """Average of the directional envelopes of ``x`` over the rows of ``dirs``.

    ``dirs`` is a (count, channels) array, as :func:`direction_set` returns
    it; a direction's length does not matter, only where its projection
    peaks.  For each direction the channels are projected onto it, the
    projection maxima located, and the full vector samples
    spline-interpolated at those positions (componentwise natural cubic,
    mirrored boundary).  Raises
    :class:`TooFewExtrema` naming the first direction whose projection has
    fewer than two maxima.
    """
    require_form(x, True, "multivariate_mean_envelope")
    env = _mean_envelope_matrix(x.samples, np.asarray(dirs, dtype=np.float64))
    return TimeSeries(env, x.rate, labels=x.labels)


def memd(
    x: TimeSeries,
    dirs: np.ndarray | None = None,
    sd_threshold: float = 0.25,
) -> Decomposition:
    """Jointly decompose all channels of ``x`` into mode-aligned IMFs.

    Sifting follows the univariate scheme with the multivariate mean
    envelope over ``dirs``, a (count, channels) array that defaults to
    ``direction_set(x.n_channels)``; the stopping measure sums the normalized
    squared change across channels and samples, and an IMF is accepted on it
    alone, with no per-channel mode test.  All channels yield the same IMF
    count by construction.
    """
    if x.n_channels < 2:
        raise InvalidValue("multivariate decomposition needs >= 2 channels")
    check_sd_threshold(sd_threshold)
    dirs = direction_set(x.n_channels) if dirs is None else np.asarray(dirs, dtype=np.float64)

    def step(c, settled):
        if settled:
            return None
        try:
            return _mean_envelope_matrix(c, dirs)
        except TooFewExtrema:  # kept as an IMF: MEMD has no mode test
            return None

    imfs, trend = _sift(x.samples, step, sd_threshold)
    return Decomposition(
        imfs=np.ascontiguousarray(imfs.transpose(1, 0, 2)),
        trend=trend,
        rate=x.rate,
        labels=list(x.labels),
        meta=_sift_meta("memd", sd_threshold, direction_count=len(dirs)),
    )


def check_noise_channels(noise_channels: int):
    if noise_channels < 1:
        raise InvalidValue(f"need at least one noise channel, got {noise_channels}")


def na_memd(
    x: TimeSeries,
    noise_channels: int = 1,
    noise_pct: float = 0.09,
    seed: int = 0,
    dirs: np.ndarray | None = None,
    sd_threshold: float = 0.25,
) -> Decomposition:
    """Noise-assisted variant: decompose with extra white-noise channels.

    Appends ``noise_channels`` channels of zero-mean Gaussian noise whose
    standard deviation is ``noise_pct`` times the mean channel RMS (8-10% of
    the signal works well in practice), runs :func:`memd` on the extended
    signal, and strips the noise channels from the result.  Each noise
    channel draws from its own counter-based stream keyed by ``seed``, and
    ``dirs`` has a column for each of them too.
    """
    require_form(x, True, "na_memd")
    if not 0.0 < noise_pct < 1.0:
        raise InvalidValue(f"noise_pct must lie in (0, 1), got {noise_pct}")
    check_noise_channels(noise_channels)

    # mean squares summed sample by sample: the order fixes the noise level's
    # last bits, so a seed gives the same noise samples in every version
    frames = x.samples.T.copy()
    mean_rms = float(np.mean(np.sqrt(np.mean(np.square(frames), axis=0))))
    std = noise_pct * mean_rms if mean_rms > 0 else noise_pct
    noise = [
        std * np.random.Generator(_philox(seed).jumped(k)).standard_normal(len(x))
        for k in range(noise_channels)
    ]
    extended = TimeSeries(
        np.vstack([x.samples, *noise]),
        x.rate,
        labels=list(x.labels) + [f"noise{k}" for k in range(noise_channels)],
    )
    if dirs is None:
        dirs = direction_set(extended.n_channels, seed=seed)
    full = memd(extended, dirs=dirs, sd_threshold=sd_threshold)
    meta = dict(full.meta, source="na_memd", noise_pct=noise_pct,
                noise_channels=noise_channels, seed=seed)
    kept = x.n_channels
    return Decomposition(
        imfs=full.imfs[:kept],
        trend=full.trend[:kept],
        rate=full.rate,
        labels=list(x.labels),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# JSON archive


def multivariate_to_dict(md: Decomposition) -> dict:
    """Archive form of a decomposition with a channel axis:
    ``{rate, channels: [{label, imfs, trend}], meta}``."""
    require_form(md, True, "multivariate_to_dict")
    return {
        "rate": float(md.rate),
        "channels": [
            {"label": label, "imfs": imfs.tolist(), "trend": trend.tolist()}
            for label, imfs, trend in zip(md.labels, md.imfs, md.trend)
        ],
        "meta": dict(md.meta),
    }


def multivariate_from_dict(obj: dict) -> Decomposition:
    """Read an archive of the shape ``{rate, channels: [{label, imfs, trend}],
    meta}``.  Other top-level keys are ignored, so archives of earlier
    versions, which also copied the settings in ``meta`` to the top level,
    still read.

    Anything else raises :class:`InputError`: a missing field, a
    rate that is not a positive finite number, a label given to two
    channels, or sample arrays that hold non-numbers, are ragged, or differ
    in length or IMF count between channels.
    """
    if not isinstance(obj, dict):
        raise InputError("an archive must be a JSON object")
    entries = obj.get("channels")
    fields = {"label", "imfs", "trend"}
    if not (isinstance(entries, list) and entries
            and all(isinstance(e, dict) and fields <= set(e) for e in entries)):
        raise InputError("an archive needs channels with label, imfs and trend")
    rate = obj.get("rate")
    if not (is_number(rate) and rate > 0):
        raise InputError(f"rate must be a positive number, got {rate!r:.40}")
    meta = obj.get("meta") or {}
    labels = [e["label"] for e in entries]
    if not isinstance(meta, dict) or not all(isinstance(label, str) for label in labels):
        raise InputError("meta must be an object and every label a string")

    trend = finite_array([e["trend"] for e in entries], "trends")
    imfs = finite_array([e["imfs"] for e in entries], "IMFs")
    try:
        return Decomposition(imfs=imfs, trend=trend, rate=float(rate), meta=dict(meta),
                             labels=labels)
    except InvalidValue as exc:  # a repeated label
        raise InputError(str(exc)) from None
    except (ValueError, InputError):  # misshapen, or under 2 samples
        raise InputError("each trend needs 2 or more samples, each IMF as many") from None
