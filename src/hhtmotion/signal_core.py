"""Analytic signals, instantaneous attributes, and empirical mode decomposition.

A signal is split into intrinsic mode functions (IMFs) by iterative sifting:
fit cubic-spline envelopes through the maxima and minima, subtract the envelope
mean, and repeat until the result is close enough to a zero-mean oscillation.
The leftover non-oscillatory residual is the trend.  Each IMF is narrow-band
enough that its Hilbert-transform phase yields a meaningful instantaneous
frequency.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import (
    ChannelError,
    InputError,
    InvalidValue,
    NoConvergence,
    TooFewExtrema,
)
from .spline import mirrored_envelopes

__all__ = [
    "TimeSeries",
    "AnalyticSignal",
    "Decomposition",
    "ImfReport",
    "analytic_signal",
    "instantaneous_attributes",
    "envelope_pair",
    "imf_check",
    "emd",
]


@dataclass
class TimeSeries:
    """A uniformly sampled real-valued signal, of one channel or of several.

    ``samples`` is (samples,), or (channels, samples) with a leading channel
    axis, so that ``samples[c]`` is channel c; ``labels`` then names the rows,
    one per channel, and is None without that axis.  ``samples`` keeps
    whatever unit the source uses (degrees for joint angles, normalized
    amplitude for audio).  ``rate`` is in samples per second.
    """

    samples: np.ndarray
    rate: float
    start_time: float = 0.0
    labels: list | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, order="C")
        if self.samples.ndim not in (1, 2) or 0 in self.samples.shape[:-1]:
            raise ValueError("samples must be (samples,) or (channels, samples)")
        _check_labels(self.labels, self.samples)
        self.samples = _sampled(self.samples, self.rate)

    @property
    def n_channels(self) -> int:
        return 1 if self.labels is None else len(self.labels)

    def __len__(self):
        return self.samples.shape[-1]

    @property
    def duration(self) -> float:
        """Clip length in seconds (sample count over rate)."""
        return len(self) / self.rate


def _sampled(values: np.ndarray, rate) -> np.ndarray:
    """``values``, samples along the last axis, as float64; raises
    :class:`InputError` for complex values, fewer than 2 samples, NaN or Inf,
    or a sample past ``MAX_MAGNITUDE``, and ValueError for a ``rate`` that is
    not a positive finite number."""
    if np.iscomplexobj(values):
        raise InputError("samples must be real numbers")
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] < 2:
        raise InputError("a time series needs at least 2 samples")
    if not np.all(np.isfinite(values)):
        raise InputError("samples contain NaN or Inf")
    check_magnitude(values, "samples")
    if not 0 < rate < np.inf:
        raise ValueError("rate must be positive and finite")
    return values


# The largest magnitude a sample may have.  Squares then stay below 1e200, so a
# sum of squares over the largest array the CLI allows (2**27 elements) stays
# far from overflow, spline and Hilbert overshoot included.
MAX_MAGNITUDE = 1e100


def check_magnitude(values: np.ndarray, what: str, error=InputError):
    """Raise ``error`` if the NaN-free ``values`` hold a number past
    ``MAX_MAGNITUDE`` in magnitude; ``what`` names them in the message."""
    if max(values.max(initial=0.0), -values.min(initial=0.0)) > MAX_MAGNITUDE:
        raise error(f"{what} exceed {MAX_MAGNITUDE:g} in magnitude")


def _check_labels(labels, rows):
    """Refuse ``labels`` unless they name each row of a (channels, samples)
    array ``rows``, each once, or are None for a (samples,) one."""
    labelled = labels is not None
    if labelled != (rows.ndim == 2) or labelled and len(labels) != len(rows):
        raise ValueError("one label per channel required, and none without a channel axis")
    if labelled and len(set(labels)) < len(labels):
        repeated = next(label for i, label in enumerate(labels) if label in labels[:i])
        raise InvalidValue(f"channel {repeated} is labelled twice")


def require_form(x, channel_axis: bool, what: str):
    """Raise :class:`InvalidValue` unless the series or decomposition ``x``
    has a channel axis exactly when ``channel_axis`` says; ``labels is None``
    marks one channel.  ``what`` names the caller in the message."""
    if (x.labels is not None) != channel_axis:
        if channel_axis:
            raise InvalidValue(f"{what} takes a channel axis, one label per channel, "
                               "not one channel without labels")
        raise InvalidValue(f"{what} takes one channel, without labels; pass the channels "
                           "of a channel axis one at a time, e.g. from per_channel")


def channel_index(labels, label) -> int:
    """Index of ``label`` in ``labels``; :class:`ChannelError` when it is absent."""
    try:
        return labels.index(label)
    except ValueError:
        raise ChannelError(f"unknown channel: {label}") from None


def pad_imfs(imfs: np.ndarray, count: int) -> np.ndarray:
    """``imfs`` (..., IMFs, samples) with all-zero IMFs appended along axis
    -2 up to ``count``; ``imfs`` itself when none is missing."""
    missing = count - imfs.shape[-2]
    if missing <= 0:
        return imfs
    zeros = np.zeros((*imfs.shape[:-2], missing, imfs.shape[-1]))
    return np.concatenate([imfs, zeros], axis=-2)


def is_number(value) -> bool:
    """A real number, not a bool, within the finite float range."""
    return (
        isinstance(value, Real)
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def finite_array(value, what):
    """``value`` as a float64 array of finite numbers; anything else raises
    :class:`InputError`."""
    try:
        array = np.asarray(value)
    except ValueError:
        raise InputError(f"{what} has rows of unequal lengths") from None
    if array.size and array.dtype.kind not in "iuf":
        raise InputError(f"{what} holds something other than numbers")
    array = np.asarray(array, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise InputError(f"{what} holds NaN or Inf")
    return array


@dataclass
class AnalyticSignal:
    """Real signal plus its Hilbert-transform quadrature component."""

    real_part: np.ndarray
    imag_part: np.ndarray
    rate: float

    def __post_init__(self):
        self.real_part = np.asarray(self.real_part, dtype=np.float64)
        self.imag_part = np.asarray(self.imag_part, dtype=np.float64)
        if self.real_part.shape != self.imag_part.shape:
            raise ValueError("real and imaginary parts must have equal length")


@dataclass
class ImfReport:
    """Outcome of checking a candidate signal against the IMF criteria."""

    extrema_count: int
    zero_crossings: int
    count_ok: bool
    mean_env_rms: float
    mean_ok: bool


@dataclass
class Decomposition:
    """Ordered IMFs plus the residual trend, of one channel or of several.

    ``imfs`` is (..., IMFs, samples) with IMF 1, the highest-frequency one,
    first along axis -2, and ``trend`` is (..., samples).  An optional leading
    axis runs over channels, mode-aligned when they come from MEMD:
    ``imfs[c]`` and ``trend[c]`` are channel c, and ``labels`` names them, one
    per channel.  Without that axis ``labels`` is None.  Both arrays pass
    the sample and rate checks of :class:`TimeSeries`.
    """

    imfs: np.ndarray
    trend: np.ndarray
    rate: float
    meta: dict = field(default_factory=dict)
    labels: list | None = None

    def __post_init__(self):
        self.trend = np.asarray(self.trend)
        self.imfs = np.asarray(self.imfs)
        if self.trend.ndim not in (1, 2):
            raise ValueError("trend must be (samples,) or (channels, samples)")
        if self.imfs.shape == self.trend.shape[:-1] + (0,):  # no IMFs, given as []
            self.imfs = self.imfs.reshape(*self.trend.shape[:-1], 0, self.trend.shape[-1])
        if (self.imfs.ndim != self.trend.ndim + 1
                or self.imfs.shape[:-2] + self.imfs.shape[-1:] != self.trend.shape):
            raise ValueError("imfs must be (..., IMFs, samples) beside a (..., samples) trend")
        _check_labels(self.labels, self.trend)
        self.trend = _sampled(self.trend, self.rate)
        self.imfs = _sampled(self.imfs, self.rate)

    @property
    def imf_count(self) -> int:
        return self.imfs.shape[-2]

    @property
    def n_channels(self) -> int:
        return 1 if self.labels is None else len(self.labels)

    @property
    def n_samples(self) -> int:
        return self.trend.shape[-1]

    @property
    def per_channel(self) -> list:
        """One single-channel decomposition per channel, viewing this one's
        arrays without a copy; ``[self]`` when there is no channel axis."""
        if self.labels is None:
            return [self]
        return [
            Decomposition(imfs=imfs, trend=trend, rate=self.rate, meta=self.meta)
            for imfs, trend in zip(self.imfs, self.trend)
        ]

    def reconstruct(self) -> np.ndarray:
        """Sum of all IMFs plus the trend, per channel: shaped like ``trend``."""
        return sum_modes(self.imfs, self.trend)


def sum_modes(imfs: np.ndarray, trend: np.ndarray) -> np.ndarray:
    """``trend`` plus every IMF along axis -2, added one at a time in order.

    The fixed order keeps reconstructions identical bit for bit wherever
    they are computed.
    """
    total = trend.copy()
    for k in range(imfs.shape[-2]):
        total += imfs[..., k, :]
    return total


# ---------------------------------------------------------------------------
# analytic signal and instantaneous attributes


def analytic_signal(x: TimeSeries) -> AnalyticSignal:
    """Build the analytic signal of ``x``, of one channel or of several, by
    the frequency-domain method along the sample axis.

    Negative frequencies are zeroed, positive frequencies doubled, and the
    DC / Nyquist bins kept unscaled.  For band-limited discrete signals this
    equals the principal-value convolution of ``x`` with 1/(pi*t).
    """
    if len(x) < 4:
        raise InputError("analytic signal needs at least 4 samples")
    return _analytic(x.samples, x.rate)


def _analytic(samples: np.ndarray, rate: float) -> AnalyticSignal:
    """:func:`analytic_signal` of ``samples`` along their last axis, at ``rate``."""
    n = samples.shape[-1]
    gain = np.zeros(n)
    gain[0] = 1.0
    gain[1 : (n + 1) // 2] = 2.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
    z = np.fft.ifft(np.fft.fft(samples) * gain)
    return AnalyticSignal(real_part=samples.copy(), imag_part=z.imag, rate=rate)


def instantaneous_attributes(z: AnalyticSignal) -> tuple:
    """Per-sample ``(amplitude, frequency)`` arrays of an analytic signal,
    each shaped like its parts.

    The amplitude is the complex magnitude; the frequency is the derivative
    of the unwrapped phase along the last axis (central differences,
    one-sided at the ends) divided by 2*pi, in Hz.  Where the amplitude is
    negligible the phase, and so the frequency, carries no information.
    """
    amp = np.hypot(z.real_part, z.imag_part)
    phase = np.unwrap(np.arctan2(z.imag_part, z.real_part))
    freq = np.gradient(phase, axis=-1) * z.rate / (2.0 * np.pi)
    return amp, freq


# ---------------------------------------------------------------------------
# extrema and envelopes


def _extrema(s: np.ndarray):
    """Indices of strict local maxima and minima.

    Plateaus count once, reported at their (floored) midpoint.  Endpoints are
    never reported.
    """
    n = s.size
    change = np.flatnonzero(np.diff(s) != 0)
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [n - 1]))
    vals = s[starts]
    prev = vals[:-2]
    cur = vals[1:-1]
    nxt = vals[2:]
    mids = (starts[1:-1] + ends[1:-1]) // 2
    maxima = mids[(cur > prev) & (cur > nxt)]
    minima = mids[(cur < prev) & (cur < nxt)]
    return maxima.astype(np.int64), minima.astype(np.int64)


def _pair_knots(maxima: np.ndarray, minima: np.ndarray) -> tuple:
    if maxima.size < 2 or minima.size < 2:
        raise TooFewExtrema(
            f"need >= 2 maxima and >= 2 minima, found {maxima.size}/{minima.size}"
        )
    return maxima, minima


def _envelopes(s: np.ndarray):
    return tuple(mirrored_envelopes(_pair_knots(*_extrema(s)), s))


# Envelopes per block-diagonal spline system.  Blocks never couple, so the
# envelopes are the same at any block size; 16 bounds the solver's arrays
# (13 channels x 2400 samples: na_memd's peak allocation 46 MB at 64, 15 MB at 16).
_ENVELOPE_BLOCK = 16


def _mean_envelope(samples: np.ndarray, knots) -> np.ndarray:
    """Mean of the envelopes of ``samples`` through each index array in ``knots``:
    EMD's maxima and minima, or each MEMD direction's projection maxima."""
    total = np.zeros_like(samples)
    for lo in range(0, len(knots), _ENVELOPE_BLOCK):
        for envelope in mirrored_envelopes(knots[lo : lo + _ENVELOPE_BLOCK], samples):
            total += envelope
    return total / len(knots)


def envelope_pair(x: TimeSeries) -> tuple:
    """``(upper, lower)``: natural cubic-spline envelopes through the maxima
    and minima of ``x``, on its sample grid; on a channel axis each row is
    fitted alone, and each envelope is (channels, samples).

    Boundaries are handled by mirror extension: the two extrema nearest each
    end are reflected across the signal boundary before fitting, and the
    splines are evaluated only on the original domain.
    """
    if x.labels is None:
        return _envelopes(x.samples)
    upper, lower = zip(*(_envelopes(row) for row in x.samples))
    return np.array(upper), np.array(lower)


# ---------------------------------------------------------------------------
# IMF criteria


def _zero_crossings(s: np.ndarray) -> int:
    nonzero = s[s != 0.0]
    return int(np.count_nonzero(np.signbit(nonzero[:-1]) != np.signbit(nonzero[1:])))


def _rms(s: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(s))))


# imf_check's envelope-mean tolerance: a share of the signal's RMS
MEAN_ENV_TOL = 0.1


def _criteria(s, maxima, minima, mean_env, mean_env_tol) -> ImfReport:
    """``s`` checked against the two IMF criteria, given its extrema and its
    envelope mean (None when there are too few extrema to fit envelopes)."""
    extrema_count = int(maxima.size + minima.size)
    crossings = _zero_crossings(s)
    if mean_env is None:
        mean_env_rms = abs(float(np.mean(s)))
    else:
        lo = int(min(maxima[0], minima[0]))
        hi = int(max(maxima[-1], minima[-1])) + 1
        mean_env_rms = _rms(mean_env[lo:hi])
    return ImfReport(
        extrema_count=extrema_count,
        zero_crossings=crossings,
        count_ok=abs(extrema_count - crossings) <= 1,
        mean_env_rms=mean_env_rms,
        mean_ok=mean_env_rms <= mean_env_tol * _rms(s),
    )


def imf_check(c: TimeSeries) -> ImfReport:
    """Check ``c`` against the two IMF criteria.

    ``count_ok`` holds when the number of extrema and zero crossings differ
    by at most one.  ``mean_ok`` holds when the RMS of the envelope mean over
    the well-supported span (first to last extremum) is at most
    ``MEAN_ENV_TOL`` (0.1) times the RMS of ``c``.  When there are too few
    extrema to fit envelopes, the signal mean stands in for the envelope mean.
    """
    require_form(c, False, "imf_check")
    maxima, minima = _extrema(c.samples)
    try:
        mean_env = _mean_envelope(c.samples, _pair_knots(maxima, minima))
    except TooFewExtrema:
        mean_env = None
    return _criteria(c.samples, maxima, minima, mean_env, MEAN_ENV_TOL)


# ---------------------------------------------------------------------------
# empirical mode decomposition


def _sd(c_old: np.ndarray, c_new: np.ndarray) -> float:
    """Normalized squared change between sift iterates.

    Squared change summed over samples, normalized by the summed squared old
    iterate.  (Normalizing per sample blows up near zero crossings and never
    settles on broadband signals.)
    """
    denom = float(np.sum(np.square(c_old)))
    if denom == 0.0:
        return 0.0
    diff = c_old - c_new
    return float(np.sum(np.square(diff)) / denom)


def check_sd_threshold(sd_threshold: float):
    if not 0.0 < sd_threshold < 1.0:
        raise InvalidValue(f"sd_threshold must lie in (0, 1), got {sd_threshold}")


# sift-internal envelope-mean tolerance, tighter than imf_check's
# MEAN_ENV_TOL so accepted IMFs clear the published criterion with margin
_SIFT_MEAN_TOL = 0.05

# Sifts per IMF before the sift gives up on settling, and IMFs per
# decomposition; every method records both in its ``meta``.
MAX_SIFTS = 100
MAX_IMFS = 16


def _emd_step(c: np.ndarray, settled: bool):
    """EMD's sift step: None when ``c`` is settled and meets the IMF criteria
    (tolerance ``_SIFT_MEAN_TOL``), else its envelope mean.  When ``c`` can
    no longer be enveloped it is accepted only if it meets the criteria at
    ``MEAN_ENV_TOL``, as :func:`imf_check` judges it; otherwise
    :class:`TooFewExtrema` propagates."""
    maxima, minima = _extrema(c)
    try:
        mean_env = _mean_envelope(c, _pair_knots(maxima, minima))
    except TooFewExtrema:
        report = _criteria(c, maxima, minima, None, MEAN_ENV_TOL)
        if report.count_ok and report.mean_ok:
            return None
        raise
    if settled:
        report = _criteria(c, maxima, minima, mean_env, _SIFT_MEAN_TOL)
        if report.count_ok and report.mean_ok:
            return None
    return mean_env


def _sift(residual, step, sd_threshold):
    """Sift IMFs out of ``residual`` one after another; returns ``(imfs, trend)``.

    ``step(c, settled)`` is the envelope mean of an iterate ``c`` (any shape),
    or None to accept ``c`` as an IMF; ``settled`` tells it whether the
    iterate-to-iterate change (SD) is below ``sd_threshold``, and a method
    with no mode test of its own returns None on that alone.  ``step`` raises
    :class:`TooFewExtrema` when ``c`` can neither be enveloped nor accepted.
    Decomposition ends then, or when the residual cannot be sifted once, has
    decayed to rounding dust, or ``MAX_IMFS`` IMFs are out; the residual is
    the trend.  An iterate still sifting after ``MAX_SIFTS`` sifts is kept
    only if its SD is within 10 x ``sd_threshold`` and ``step(c, True)``
    accepts it; otherwise :class:`NoConvergence` is raised.  ``imfs`` stacks
    the IMFs along a new first axis.
    """
    residual = residual.copy()
    scale = np.max(np.abs(residual))
    imfs = []
    # machine-precision dust produces spurious extrema; stop before sifting it
    while len(imfs) < MAX_IMFS and np.max(np.abs(residual)) >= 1e-10 * scale:
        c, sd = residual, np.inf
        for _ in range(MAX_SIFTS):
            try:
                mean_env = step(c, sd < sd_threshold)
            except TooFewExtrema:  # no IMF: the iterate stays in the trend
                c = residual
                break
            if mean_env is None:
                break
            c_new = c - mean_env
            sd = _sd(c, c_new)
            c = c_new
        else:
            if sd > 10.0 * sd_threshold:
                raise NoConvergence(
                    f"IMF {len(imfs) + 1}: sifting did not settle within {MAX_SIFTS} "
                    f"iterations (SD {sd:.4g}, threshold {sd_threshold:g})"
                )
            try:
                accepted = step(c, True) is None
            except TooFewExtrema:
                accepted = False
            if not accepted:
                raise NoConvergence(
                    f"IMF {len(imfs) + 1}: the iterate after {MAX_SIFTS} sifts fails "
                    f"the IMF criteria (SD {sd:.4g}, threshold {sd_threshold:g})"
                )
        if c is residual:  # not one sift was possible: the residual is the trend
            break
        imfs.append(c)
        residual = residual - c
    return np.array(imfs).reshape(-1, *residual.shape), residual


def _sift_meta(source, sd_threshold, **extra) -> dict:
    """The ``meta`` of a decomposition by ``source``: its settings, the sift
    limits, and None for the noise settings, which ``extra`` may set."""
    return {
        "source": source,
        "sd_threshold": sd_threshold,
        "max_sifts": MAX_SIFTS,
        "max_imfs": MAX_IMFS,
        "noise_pct": None,
        "noise_channels": None,
        "seed": None,
        **extra,
    }


def emd(x: TimeSeries, sd_threshold: float = 0.25) -> Decomposition:
    """Decompose ``x`` into IMFs plus a trend by iterative sifting.

    Each IMF is sifted until the normalized squared change between iterates
    drops below ``sd_threshold`` (conventionally 0.2-0.3) and the result
    satisfies the extrema/zero-crossing and envelope-mean criteria.
    Decomposition stops when the residual has too few extrema for envelopes
    or ``MAX_IMFS`` is reached; the remaining residual is the trend.
    Reconstruction is exact by construction up to float rounding.

    On a channel axis each row is decomposed alone, and the rows' IMFs are
    zero-padded to the largest count; the IMFs of different rows need not
    share a mode.
    """
    if len(x) < 4:
        raise InputError("decomposition needs at least 4 samples")
    check_sd_threshold(sd_threshold)
    rows = [_sift(row, _emd_step, sd_threshold) for row in np.atleast_2d(x.samples)]
    count = max(len(row_imfs) for row_imfs, _ in rows)
    imfs = np.array([pad_imfs(row_imfs, count) for row_imfs, _ in rows])
    trend = np.array([row_trend for _, row_trend in rows])
    if x.labels is None:
        imfs, trend = imfs[0], trend[0]
    return Decomposition(imfs=imfs, trend=trend, rate=x.rate,
                         labels=None if x.labels is None else list(x.labels),
                         meta=_sift_meta("emd", sd_threshold))
