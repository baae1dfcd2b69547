"""Beat grids, onset detection, tempo estimation, and beat-aligned segmentation.

A clip can be gridded either from a known fixed tempo or by tracking beats
in accompanying audio: spectral-flux onset strength, autocorrelation tempo
estimation with a log-Gaussian prior around 120 BPM, and a dynamic program
that places beats on onset peaks while penalizing deviation from the beat
period.  Beats then cut a motion clip into primitive segments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ChannelError, InputError, InvalidValue, NoBeats
from .signal_core import TimeSeries, finite_array, is_number, require_form

__all__ = [
    "BeatGrid",
    "fixed_grid",
    "onset_envelope",
    "estimate_tempo",
    "track_beats",
    "segment_by_beats",
    "read_wav",
    "grid_to_dict",
    "grid_from_dict",
]

ONSET_RATE = 100.0  # envelope samples per second
_WINDOW_SECONDS = 0.064
_HOP_SECONDS = 1.0 / ONSET_RATE
_LOG_SCALE = 1000.0
# onset_envelope works in blocks of frames whose arrays stay under 1 MiB.
# numpy asks for transparent huge pages from 4 MiB, and whether an array gets
# them depends on where it lands: with 512-frame blocks (5.8 MB at 22.05 kHz)
# the beats stage peaked at 78.9 or 83.6 MB with the length of its command
# line.  1 MiB blocks peak at 53 MB and run no slower.
_BLOCK_BYTES = 1 << 20


@dataclass
class BeatGrid:
    """One or more finite, ascending beat timestamps, spaced within 25% of
    60/bpm, for a positive finite bpm."""

    beats: np.ndarray
    bpm: float

    def __post_init__(self):
        self.beats = np.asarray(self.beats, dtype=np.float64)
        if not np.all(np.isfinite(self.beats)):
            raise ValueError("beats must be finite")
        if self.beats.size == 0:
            raise ValueError("a beat grid needs at least one beat")
        if not 0 < self.bpm < np.inf:
            raise ValueError("bpm must be a positive finite number")
        gaps = np.diff(self.beats)
        if np.any(gaps <= 0):
            raise ValueError("beats must be strictly ascending")
        period = 60.0 / self.bpm
        if np.any(gaps < 0.75 * period) or np.any(gaps > 1.25 * period):
            raise ValueError("beat gaps deviate more than 25% from 60/bpm")

    def __len__(self):
        return self.beats.size


def fixed_grid(bpm: float, duration: float) -> BeatGrid:
    """Evenly spaced beats for a known tempo.

    Produces floor(duration * bpm / 60) beats starting at 0.
    """
    if not 20.0 <= bpm <= 400.0:
        raise InvalidValue(f"bpm {bpm} outside [20, 400]")
    period = 60.0 / bpm
    if not period < duration < np.inf:
        raise InvalidValue("duration must be finite and exceed one beat period")
    count = int(np.floor(duration * bpm / 60.0))
    beats = period * np.arange(count)
    return BeatGrid(beats=beats, bpm=bpm)


# ---------------------------------------------------------------------------
# onset strength


def onset_envelope(audio: TimeSeries) -> TimeSeries:
    """Half-wave-rectified spectral flux of ``audio``, at 100 Hz, unit maximum.

    Short-time magnitude spectra over 64 ms windows hopped every 10 ms are
    log-compressed; positive per-band first differences are summed.  Each
    flux value reflects energy arriving between two window ends, so samples
    are stamped at the midpoint of that interval (half a hop before the
    window end), which lines spikes up with onsets.
    """
    require_form(audio, False, "onset_envelope")
    if audio.rate < 8000:
        raise InputError(f"audio rate must be at least 8000 Hz, got {audio.rate:g}")
    if audio.duration < 1.0:
        raise InputError("need at least 1 s of audio")
    rate = audio.rate
    win = int(round(_WINDOW_SECONDS * rate))
    window = np.hanning(win)
    padded = np.concatenate([np.zeros(win), audio.samples])
    n_frames = int(audio.samples.size / (rate * _HOP_SECONDS)) + 1
    ends = np.round(np.arange(n_frames) * _HOP_SECONDS * rate).astype(int) + win

    flux = np.zeros(n_frames)
    # a row of the rfft output holds 16 * (win // 2 + 1) <= 8 * (win + 2) bytes;
    # each block repeats the previous block's last frame to take its differences
    rows = max(2, (_BLOCK_BYTES - 1) // (8 * (win + 2)))
    for first in range(0, n_frames - 1, rows - 1):
        hi = min(first + rows, n_frames)
        segs = padded[ends[first:hi, None] - np.arange(win, 0, -1)] * window
        mags = np.log1p(_LOG_SCALE * np.abs(np.fft.rfft(segs, axis=1)))
        flux[first + 1 : hi] = np.maximum(np.diff(mags, axis=0), 0.0).sum(axis=1)
    peak = flux.max()
    if peak > 0:
        flux /= peak
    return TimeSeries(
        flux, rate=ONSET_RATE, start_time=audio.start_time - 0.5 * _HOP_SECONDS
    )


# ---------------------------------------------------------------------------
# tempo


# the tempi estimate_tempo considers, in BPM
BPM_RANGE = (60.0, 240.0)


def estimate_tempo(onset: TimeSeries) -> float:
    """Global tempo within ``BPM_RANGE`` from weighted onset autocorrelation.

    The autocorrelation is weighted by a log-Gaussian prior centered at
    120 BPM with a one-octave standard deviation, which settles octave
    ambiguities.  The winning lag is refined by parabolic interpolation.
    Lags are counted at the envelope's own ``rate``.
    """
    require_form(onset, False, "estimate_tempo")
    o = onset.samples
    n = o.size
    rate = onset.rate
    spectrum = np.fft.rfft(o, 2 * n)
    ac = np.fft.irfft(spectrum * np.conj(spectrum))[:n]
    if ac[0] <= 0:
        raise NoBeats("onset envelope carries no energy")

    lag_min = max(2, int(np.ceil(rate * 60.0 / BPM_RANGE[1])))
    lag_max = min(n - 2, int(np.floor(rate * 60.0 / BPM_RANGE[0])))
    if lag_max <= lag_min:
        raise NoBeats("onset envelope too short for the tempo range")
    lags = np.arange(lag_min, lag_max + 1)
    bpms = rate * 60.0 / lags
    weight = np.exp(-0.5 * np.square(np.log2(bpms / 120.0)))
    scores = ac[lags] * weight
    best = int(np.argmax(scores))
    if scores[best] < 0.1 * ac[0]:
        raise NoBeats("no periodic structure in the onset envelope")

    lag = float(lags[best])
    if 0 < best < lags.size - 1:
        y0, y1, y2 = scores[best - 1 : best + 2]
        denom = y0 - 2 * y1 + y2
        if denom < 0:
            lag += 0.5 * (y0 - y2) / denom
    return rate * 60.0 / lag


# ---------------------------------------------------------------------------
# beat tracking


def track_beats(onset: TimeSeries, bpm: float, tightness: float = 400.0) -> BeatGrid:
    """Place beats on onset peaks by dynamic programming.

    Maximizes the summed onset strength at the beats minus
    ``tightness * log(gap / period)^2`` for each inter-beat gap, then
    backtracks from the best final beat.  Beat times follow the envelope's
    ``rate`` and ``start_time``.  The grid's bpm field reports the median
    inter-beat interval.  A ``tightness`` whose penalty outweighs the onsets
    (the median cumulative score at its peaks is not above 0) raises
    :class:`InvalidValue`: the beats would stop short of the clip's end.  So
    does an envelope with under 2 samples per beat, too coarse to place them.
    """
    require_form(onset, False, "track_beats")
    if not 20.0 <= bpm <= 400.0:
        raise InvalidValue(f"bpm {bpm} outside [20, 400]")
    if not 0.0 <= tightness < np.inf:
        raise InvalidValue(f"tightness must be a non-negative number, got {tightness}")
    period = onset.rate * 60.0 / bpm
    if period < 2:
        # the caller's rate and bpm are at fault, not the audio: not NoBeats
        raise InvalidValue(f"an envelope at {onset.rate:g} Hz holds under 2 samples per "
                           f"beat at bpm {bpm:g}")
    o = onset.samples
    if o.max() <= 0:
        raise NoBeats("onset envelope is all zero")
    n = o.size

    # a beat links back to the best-scoring sample 2 to 1/2 periods before it
    far, near = int(round(2 * period)), int(round(period / 2))
    penalty = tightness * np.square(np.log(np.arange(far, near - 1, -1) / period))
    cumscore = o.copy()
    backlink = np.full(n, -1, dtype=int)
    for i in range(near, n):
        lo = max(i - far, 0)
        scores = cumscore[lo : i - near + 1] - penalty[lo - i + far :]
        k = int(np.argmax(scores))
        cumscore[i] = o[i] + scores[k]
        backlink[i] = lo + k
    # no sample before the first onset of 1% of the maximum links back
    backlink[: np.argmax(o >= 0.01 * o.max())] = -1

    # best final beat: last local maximum of the cumulative score that is
    # at least half the median local-maximum score
    peaks = np.flatnonzero((cumscore[1:-1] > cumscore[:-2])
                           & (cumscore[1:-1] >= cumscore[2:])) + 1
    if peaks.size == 0:
        raise NoBeats("cumulative score has no peaks")
    median = np.median(cumscore[peaks])
    if not median > 0:
        # the spacing penalty outweighs the onsets: a threshold of half a
        # non-positive median would cut the grid short
        raise InvalidValue(f"tightness {tightness:g} outweighs the onsets: the median "
                           f"cumulative score at its peaks is {median:.3g}, not above 0")
    # the largest peak is at least the median, so above half of it
    tail = int(peaks[cumscore[peaks] >= 0.5 * median][-1])

    frames = []
    i = tail
    while i >= 0:
        frames.append(i)
        i = backlink[i]
    frames.reverse()
    if len(frames) < 2:
        raise NoBeats("fewer than 2 beats tracked")
    beats = onset.start_time + np.asarray(frames) / onset.rate
    grid_bpm = 60.0 / float(np.median(np.diff(beats)))
    try:
        return BeatGrid(beats=beats, bpm=grid_bpm)
    except ValueError as exc:
        raise NoBeats(f"tracked beats keep no steady tempo at tightness {tightness:g}: "
                      f"{exc}") from None


# ---------------------------------------------------------------------------
# segmentation


def segment_by_beats(frame_count: int, rate: float, grid: BeatGrid,
                     beats_per_segment: int = 1) -> list:
    """Cut ``frame_count`` frames at ``rate`` into spans between beat groups.

    Returns half-open ``(start, end)`` frame pairs, each from the first beat
    of its group.  Beat times are converted to frame indices by nearest-frame
    rounding; groups that poke outside the clip are dropped.  Raises
    :class:`ChannelError` when no beat falls inside the clip, or no whole
    group does.
    """
    if beats_per_segment < 1:
        raise InvalidValue(f"beats_per_segment must be >= 1, got {beats_per_segment}")
    if grid.beats[0] >= frame_count / rate or grid.beats[-1] <= 0:
        raise ChannelError("beat grid does not overlap the clip")
    frames = np.round(grid.beats * rate).astype(int)
    # group g runs from beat g * beats_per_segment to the next group's first beat
    lo = frames[:-beats_per_segment:beats_per_segment]
    hi = frames[beats_per_segment::beats_per_segment]
    inside = (lo >= 0) & (hi <= frame_count) & (hi > lo)
    segments = list(zip(lo[inside].tolist(), hi[inside].tolist()))
    if not segments:
        raise ChannelError(f"no segment of {beats_per_segment} beats fits inside the clip")
    return segments


# ---------------------------------------------------------------------------
# WAV input and grid JSON


def read_wav(path) -> TimeSeries:
    """Read a RIFF WAV file (16-bit PCM or 32-bit float), downmixed to mono."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise InputError("not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise InputError("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)
    if fmt is None or payload is None:
        raise InputError("missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if sample_rate == 0:
        raise InputError("sample rate is 0")
    if channels == 0:
        raise InputError("fmt chunk declares 0 channels")
    payload = payload[: len(payload) - len(payload) % max(1, bits // 8)]
    if audio_format == 1 and bits == 16:
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == 3 and bits == 32:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    else:
        raise InputError(
            f"unsupported format {audio_format} at {bits} bits "
            "(need 16-bit PCM or 32-bit float)"
        )
    if channels > 1:
        samples = samples[: len(samples) - len(samples) % channels]
        samples = samples.reshape(-1, channels).mean(axis=1)
    return TimeSeries(samples, rate=float(sample_rate))


def grid_to_dict(grid: BeatGrid) -> dict:
    """The grid as JSON, with every fourth beat, from the first, flagged strong."""
    return {
        "bpm": float(grid.bpm),
        "beats": grid.beats.tolist(),
        "strong": [k % 4 == 0 for k in range(len(grid))],
    }


def grid_from_dict(obj: dict) -> BeatGrid:
    """Read a beat grid from its ``bpm`` and ``beats``; other keys are ignored.

    A missing or malformed field, and beats the grid refuses (empty, not
    ascending, or gaps off the tempo), raise :class:`InputError`.
    """
    if not isinstance(obj, dict) or not {"bpm", "beats"} <= set(obj):
        raise InputError("a beat grid is an object with bpm and beats")
    bpm = obj["bpm"]
    if not (is_number(bpm) and bpm > 0):
        raise InputError(f"bpm must be a positive number, got {bpm!r:.40}")
    beats = finite_array(obj["beats"], "beats")
    if beats.ndim != 1 or beats.size == 0:
        raise InputError("beats must be a non-empty list of times")
    try:
        return BeatGrid(beats=beats, bpm=float(bpm))
    except ValueError as exc:
        raise InputError(str(exc)) from None
