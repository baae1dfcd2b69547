import json

import numpy as np
import pytest

from helpers import bvh_text, cosine, pv_hilbert_oracle, tone

from hhtmotion.analysis import hilbert_spectrum, wafa
from hhtmotion.beat import estimate_tempo, onset_envelope, track_beats
from hhtmotion.edit import align, apply_blend, synthesize_clip
from hhtmotion.memd import (
    direction_set,
    multivariate_from_dict,
    multivariate_mean_envelope,
    multivariate_to_dict,
    na_memd,
)
from hhtmotion import signal_core
from hhtmotion.mocap_io import apply_channels, parse_bvh
from hhtmotion.errors import (
    DegenerateSignal,
    InputError,
    InvalidValue,
    NoConvergence,
    TooFewExtrema,
)
from hhtmotion.signal_core import (
    AnalyticSignal,
    Decomposition,
    ImfReport,
    TimeSeries,
    analytic_signal,
    emd,
    envelope_pair,
    imf_check,
    instantaneous_attributes,
)


def rms(a):
    return np.sqrt(np.mean(np.square(a)))


def interior(a, frac=0.1):
    n = len(a)
    k = int(n * frac)
    return a[k : n - k]


class TestDecomposition:
    @staticmethod
    def channels(n_channels=3, n_imfs=2, n=50):
        rng = np.random.default_rng(0)
        return Decomposition(
            imfs=rng.standard_normal((n_channels, n_imfs, n)),
            trend=rng.standard_normal((n_channels, n)),
            rate=10.0,
            labels=[f"ch{c}" for c in range(n_channels)],
        )

    def test_per_channel_views_share_memory(self):
        d = self.channels()
        assert d.n_channels == len(d.per_channel) == 3
        for c, view in enumerate(d.per_channel):
            assert np.shares_memory(view.imfs, d.imfs)
            assert np.shares_memory(view.trend, d.trend)
            assert np.array_equal(view.imfs, d.imfs[c])
            assert np.array_equal(view.trend, d.trend[c])
            assert (view.rate, view.labels) == (d.rate, None)
            assert np.array_equal(view.reconstruct(), d.reconstruct()[c])

    def test_one_channel_is_its_own_per_channel(self):
        d = emd(tone(2.0, 5.0, 50.0))
        assert d.n_channels == 1
        assert len(d.per_channel) == 1 and d.per_channel[0] is d

    @pytest.mark.parametrize(
        "imfs_shape, trend_shape",
        [
            ((4, 49), (50,)),
            ((50,), (50,)),
            ((2, 3, 50), (2, 49)),
            ((2, 3, 50), (3, 50)),
            ((3, 50), (2, 50)),
            ((1, 2, 3, 50), (1, 2, 50)),
        ],
    )
    def test_mismatched_shapes_are_refused(self, imfs_shape, trend_shape):
        labels = ["a"] * trend_shape[0] if len(trend_shape) == 2 else None
        with pytest.raises(ValueError):
            Decomposition(imfs=np.zeros(imfs_shape), trend=np.zeros(trend_shape),
                          rate=10.0, labels=labels)

    @pytest.mark.parametrize(
        "imfs, trend, rate, error",
        [
            (np.zeros((2, 8)), np.zeros(8), -1.0, ValueError),
            (np.zeros((2, 8)), np.zeros(8), 0.0, ValueError),
            (np.zeros((2, 8)), np.zeros(8), np.nan, ValueError),
            (np.full((2, 8), np.nan), np.zeros(8), 10.0, "samples contain NaN or Inf"),
            (np.zeros((2, 8)), np.full(8, np.inf), 10.0, "samples contain NaN or Inf"),
            (np.zeros((2, 1)), np.zeros(1), 10.0, "a time series needs at least 2 samples"),
            # numpy would keep the real parts and only warn
            (np.ones((2, 8)) * (1 + 1j), np.zeros(8), 10.0, "samples must be real numbers"),
            (np.zeros((2, 8)), np.zeros(8, dtype=complex), 10.0, "samples must be real numbers"),
            (np.full((2, 8), -1e101), np.zeros(8), 10.0, r"samples exceed 1e\+100 in magnitude"),
        ],
    )
    def test_refuses_what_a_time_series_refuses(self, imfs, trend, rate, error):
        # a message stands for the InputError that carries it
        error, match = (InputError, f"^{error}$") if isinstance(error, str) else (error, None)
        with pytest.raises(error, match=match):
            Decomposition(imfs=imfs, trend=trend, rate=rate)

    @pytest.mark.parametrize(
        "trend_shape, labels",
        [((2, 50), ["a"]), ((2, 50), ["a", "b", "c"]), ((2, 50), None), ((50,), ["a"])],
    )
    def test_label_count_must_match_the_channel_axis(self, trend_shape, labels):
        imfs = np.zeros(trend_shape[:-1] + (3, 50))
        with pytest.raises(ValueError, match="one label per channel"):
            Decomposition(imfs=imfs, trend=np.zeros(trend_shape), rate=10.0, labels=labels)


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(InputError, match=r"^samples contain NaN or Inf$"):
            TimeSeries([0.0, np.nan, 1.0], rate=10.0)

    def test_magnitude_bound_is_inclusive(self):
        assert TimeSeries([1e100, -1e100], 10.0).samples.tolist() == [1e100, -1e100]

    def test_rejects_single_sample(self):
        with pytest.raises(InputError, match=r"^a time series needs at least 2 samples$"):
            TimeSeries([1.0], rate=10.0)

    def test_duration(self):
        x = TimeSeries(np.zeros(2420), rate=40.0)
        assert x.duration == pytest.approx(60.5)

    def test_rows_are_channels(self):
        x = TimeSeries(np.arange(6.0).reshape(2, 3), 10.0, labels=["a", "b"])
        assert (x.n_channels, len(x)) == (2, 3)
        assert np.array_equal(x.samples[1], [3.0, 4.0, 5.0])
        assert x.duration == pytest.approx(0.3)
        assert np.allclose(x.start_time + np.arange(len(x)) / x.rate, [0.0, 0.1, 0.2])

    def test_one_channel_has_no_labels(self):
        x = TimeSeries(np.arange(3.0), 10.0, start_time=1.0)
        assert (x.n_channels, len(x), x.labels) == (1, 3, None)
        assert np.allclose(x.start_time + np.arange(len(x)) / x.rate, [1.0, 1.1, 1.2])

    @pytest.mark.parametrize(
        "samples, rate, labels, error",
        [
            ([[0.0, np.nan]], 10.0, ["a"], "samples contain NaN or Inf"),
            ([[0.0], [1.0]], 10.0, ["a", "b"], "a time series needs at least 2 samples"),
            ([0.0, 1.0], 10.0, ["a"], ValueError),
            ([[0.0, 1.0]], 0.0, ["a"], ValueError),
            ([[0.0, 1.0]], 10.0, ["a", "b"], ValueError),
            ([[0.0, 1.0], [2.0, 3.0]], 10.0, ["a"], ValueError),
            ([[0.0, 1.0], [2.0, 3.0]], 10.0, None, ValueError),
            (np.zeros((0, 5)), 10.0, [], ValueError),
            (np.zeros((1, 2, 5)), 10.0, ["a"], ValueError),
            ([0.0, np.inf], 10.0, None, "samples contain NaN or Inf"),
            ([0.0, 1.0], -1.0, None, ValueError),
            ([[0.0, 1.0], [2.0, 3.0]], 10.0, ["a", "a"], InvalidValue),
            ([0.0, 1.0], np.inf, None, ValueError),
            # numpy would keep the real parts and only warn
            (np.array([1 + 1j, 2, 3, 4]), 10.0, None, "samples must be real numbers"),
            (np.ones((2, 2), dtype=complex), 10.0, ["a", "b"], "samples must be real numbers"),
            ([1.0, 2j], 10.0, None, "samples must be real numbers"),
            # their squares would overflow
            ([0.0, 1e200], 10.0, None, r"samples exceed 1e\+100 in magnitude"),
            ([[-1e101, 0.0]], 10.0, ["a"], r"samples exceed 1e\+100 in magnitude"),
        ],
    )
    def test_rejects(self, samples, rate, labels, error):
        # a message stands for the InputError that carries it
        error, match = (InputError, f"^{error}$") if isinstance(error, str) else (error, None)
        with pytest.raises(error, match=match):
            TimeSeries(samples, rate, labels=labels)


def _one_channel():
    return tone(2.0, 4.0, 50.0)


def _channel_axis():
    x = _one_channel().samples
    return TimeSeries(np.stack([x, x[::-1]]), 50.0, labels=["hips.Xrotation", "hips.Yrotation"])


def _channel_axis_decomposition():
    return Decomposition(imfs=np.ones((2, 1, 200)), trend=np.zeros((2, 200)), rate=50.0,
                         labels=["hips.Xrotation", "hips.Yrotation"])


# each public function that takes one of the two forms, given the other
ONE_CHANNEL_ONLY = {
    "analytic_signal": lambda: analytic_signal(_channel_axis()),
    "imf_check": lambda: imf_check(_channel_axis()),
    "wafa": lambda: wafa(_channel_axis_decomposition()),
    "hilbert_spectrum": lambda: hilbert_spectrum(_channel_axis_decomposition()),
    "onset_envelope": lambda: onset_envelope(_channel_axis()),
    "estimate_tempo": lambda: estimate_tempo(_channel_axis()),
    "track_beats": lambda: track_beats(_channel_axis(), 120.0),
}
CHANNEL_AXIS_ONLY = {
    "na_memd": lambda: na_memd(_one_channel()),
    "multivariate_mean_envelope": lambda: multivariate_mean_envelope(
        _one_channel(), direction_set(2, 8)),
    "apply_blend": lambda: apply_blend(
        *align(emd(_one_channel()), emd(_one_channel()), 40.0), []),
    "synthesize_clip": lambda: synthesize_clip(
        parse_bvh(bvh_text({"hips.Xrotation": np.zeros(200)})),
        emd(_one_channel())),
    "apply_channels": lambda: apply_channels(
        parse_bvh(bvh_text({"hips.Xrotation": np.zeros(200)})), _one_channel()),
    "multivariate_to_dict": lambda: multivariate_to_dict(emd(_one_channel())),
}


class TestChannelForm:
    @pytest.mark.parametrize("name", list(ONE_CHANNEL_ONLY))
    def test_one_channel_functions_refuse_a_channel_axis(self, name):
        with pytest.raises(InvalidValue,
                           match=rf"^{name} takes one channel, without labels; .*per_channel$"):
            ONE_CHANNEL_ONLY[name]()

    @pytest.mark.parametrize("name", list(CHANNEL_AXIS_ONLY))
    def test_channel_axis_functions_refuse_one_channel(self, name):
        with pytest.raises(InvalidValue, match=rf"^{name} takes a channel axis, "):
            CHANNEL_AXIS_ONLY[name]()


class TestAnalyticSignal:
    def test_cosine_gives_sine_quadrature(self):
        x = cosine(2.0, 4.0, 100.0)
        z = analytic_signal(x)
        expected = np.sin(2 * np.pi * 2.0 * (x.start_time + np.arange(len(x)) / x.rate))
        err = np.abs(z.imag_part - expected)
        assert np.max(interior(err)) < 1e-3
        assert np.array_equal(z.real_part, x.samples)

    def test_constant_has_zero_quadrature(self):
        x = TimeSeries(np.full(256, 5.0), rate=50.0)
        z = analytic_signal(x)
        assert np.max(np.abs(z.imag_part)) < 1e-10

    def test_matches_pv_convolution_oracle(self):
        rate = 200.0
        t = np.arange(0, 2, 1 / rate)
        s = np.sin(2 * np.pi * 3 * t) + 0.5 * np.sin(2 * np.pi * 7 * t)
        z = analytic_signal(TimeSeries(s, rate))
        oracle = pv_hilbert_oracle(s)
        diff = interior(z.imag_part - oracle)
        assert rms(diff) < 1e-6

    def test_unequal_parts_refused(self):
        with pytest.raises(ValueError, match=r"^real and imaginary parts must have equal length$"):
            AnalyticSignal([1.0, 2.0], [1.0], 1.0)

    def test_matches_pv_convolution_oracle_at_odd_length(self):
        # an odd length has no Nyquist bin: every bin but DC is doubled or zeroed
        rate = 200.0
        t = np.arange(0, 2, 1 / rate)[:-1]
        s = np.sin(2 * np.pi * 3 * t) + 0.5 * np.sin(2 * np.pi * 7 * t)
        z = analytic_signal(TimeSeries(s, rate))
        assert s.size % 2 == 1
        diff = interior(z.imag_part - pv_hilbert_oracle(s))
        assert rms(diff) < 1e-6

    def test_too_short(self):
        with pytest.raises(InputError, match=r"^analytic signal needs at least 4 samples$"):
            analytic_signal(TimeSeries([0.0, 1.0, 0.0], rate=10.0))

    def test_idempotence_on_quadrature_pair(self):
        # applying the transform twice negates a zero-mean band-limited tone
        x = cosine(3.0, 8.0, 100.0)
        z1 = analytic_signal(x)
        z2 = analytic_signal(TimeSeries(z1.imag_part, x.rate))
        diff = interior(z2.imag_part + x.samples)
        assert rms(diff) < 1e-3


class TestInstantAttributes:
    def test_unit_tone(self):
        z = analytic_signal(cosine(2.0, 10.0, 100.0))
        amplitude, frequency = instantaneous_attributes(z)
        assert amplitude.shape == frequency.shape == z.real_part.shape
        assert np.max(np.abs(interior(amplitude) - 1.0)) < 1e-3
        assert np.max(np.abs(interior(frequency) - 2.0)) < 0.05

    @pytest.mark.parametrize("freq", [0.5, 1.0, 2.0, 5.0])
    def test_tone_amplitude_and_frequency_bounds(self, freq):
        # deliberately non-integer cycle count
        f = freq * 1.003
        z = analytic_signal(cosine(f, 20.0, 100.0, amp=2.0))
        amplitude, frequency = instantaneous_attributes(z)
        assert np.max(np.abs(interior(amplitude) - 2.0)) / 2.0 < 0.01
        assert np.max(np.abs(interior(frequency) - f)) / f < 0.02

    def test_amplitude_modulated_tone(self):
        rate = 100.0
        t = np.arange(0, 20, 1 / rate)
        envelope = 1.0 + 0.5 * np.cos(2 * np.pi * 0.2 * t)
        x = TimeSeries(envelope * np.cos(2 * np.pi * 3.0 * t), rate)
        amplitude, _ = instantaneous_attributes(analytic_signal(x))
        rel = np.abs(interior(amplitude) - interior(envelope)) / interior(envelope)
        assert np.max(rel) < 0.05

    def test_linear_chirp_frequency_ramp(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        phase = 2 * np.pi * (1.0 * t + 0.1 * t**2)  # 1 Hz -> 3 Hz
        x = TimeSeries(np.cos(phase), rate)
        _, frequency = instantaneous_attributes(analytic_signal(x))
        true_freq = 1.0 + 0.2 * t
        dev = np.abs(interior(frequency) - interior(true_freq))
        assert np.max(dev) < 0.1
        slope = np.polyfit(interior(t), interior(frequency), 1)[0]
        assert slope == pytest.approx(0.2, rel=0.05)

    def test_degenerate_signal(self):
        z = analytic_signal(TimeSeries(np.zeros(100), rate=10.0))
        with pytest.raises(DegenerateSignal,
                           match=r"^amplitude is near zero over most samples$"):
            instantaneous_attributes(z)


class TestFindExtrema:
    def test_sine_counts_alternate(self):
        maxima, minima = signal_core._extrema(tone(1.0, 3.0, 50.0).samples)
        assert len(maxima) == 3
        assert len(minima) == 3
        merged = np.sort(np.concatenate([maxima, minima]))
        kinds = [idx in set(maxima) for idx in merged]
        assert all(kinds[i] != kinds[i + 1] for i in range(len(kinds) - 1))

    def test_monotone_ramp_empty(self):
        maxima, minima = signal_core._extrema(np.linspace(0, 1, 50))
        assert len(maxima) == 0
        assert len(minima) == 0

    def test_plateau_midpoint(self):
        maxima, minima = signal_core._extrema(np.array([0.0, 1.0, 1.0, 0.0]))
        assert list(maxima) == [1]
        assert list(minima) == []

    def test_endpoints_never_reported(self):
        maxima, minima = signal_core._extrema(np.array([5.0, 1.0, 2.0, 1.0, 5.0]))
        assert 0 not in maxima and 4 not in maxima
        assert list(maxima) == [2]
        assert list(minima) == [1, 3]


class TestEnvelopePair:
    def test_pure_tone_envelopes(self):
        x = tone(1.0, 5.0, 100.0)
        upper, lower = envelope_pair(x)
        assert upper.shape == lower.shape == x.samples.shape
        assert np.all(np.abs(interior(upper) - 1.0) < 0.05)
        assert np.all(np.abs(interior(lower) + 1.0) < 0.05)

    def test_two_tone_envelope_ordering(self):
        x = TimeSeries(
            tone(1.0, 5.0, 100.0).samples + tone(5.0, 5.0, 100.0).samples, 100.0
        )
        upper, lower = envelope_pair(x)
        assert np.all(interior(upper - lower) > 0)

    def test_too_few_extrema(self):
        # 2 maxima, 1 minimum
        s = np.array([0.0, 2.0, 1.0, 3.0, 0.0])
        with pytest.raises(TooFewExtrema):
            envelope_pair(TimeSeries(s, 10.0))

    def test_channel_axis_fits_each_row(self):
        x = _mixed_channels()
        upper, lower = envelope_pair(x)
        assert upper.shape == lower.shape == x.samples.shape
        for row, row_upper, row_lower in zip(x.samples, upper, lower):
            one_upper, one_lower = envelope_pair(TimeSeries(row, x.rate))
            assert np.array_equal(row_upper, one_upper)
            assert np.array_equal(row_lower, one_lower)


def _sift_step(x):
    """One sifting step on ``x``: subtract the mean of its envelopes."""
    s = x.samples
    return TimeSeries(s - signal_core._mean_envelope(s, signal_core._extrema(s)), x.rate)


class TestSift:
    def test_fixed_point_for_clean_imf(self):
        x = tone(2.0, 10.0, 100.0)
        out = _sift_step(x)
        assert rms(out.samples - x.samples) < 0.01 * rms(x.samples)

    def test_removes_dc_offset(self):
        x = tone(1.0, 10.0, 100.0)
        shifted = TimeSeries(x.samples + 0.3, x.rate)
        out = _sift_step(shifted)
        upper, lower = envelope_pair(out)
        out_mean_env = rms(interior(upper + lower) / 2)
        assert out_mean_env < 0.3

    def test_reduces_mean_envelope(self):
        x = TimeSeries(
            tone(1.0, 10.0, 100.0).samples + tone(4.0, 10.0, 100.0).samples, 100.0
        )
        rms_before = rms(interior(sum(envelope_pair(x)))) / 2
        out = _sift_step(x)
        rms_after = rms(interior(sum(envelope_pair(out)))) / 2
        assert rms_after < rms_before


class TestImfCheck:
    def test_pure_tone_is_imf(self):
        report = imf_check(tone(2.0, 10.0, 100.0))
        assert report.count_ok
        assert report.mean_ok

    def test_large_dc_offset_fails_mean(self):
        x = tone(2.0, 10.0, 100.0)
        report = imf_check(TimeSeries(x.samples + 10.0, x.rate))
        assert not report.mean_ok

    def test_no_extrema_uses_the_signal_mean(self):
        # a ramp has no extrema to fit envelopes to, so its mean stands in
        assert not imf_check(TimeSeries(np.linspace(0.0, 1.0, 100), 10.0)).mean_ok
        assert imf_check(TimeSeries(np.linspace(-1.0, 1.0, 100), 10.0)).mean_ok

    def test_two_samples_have_no_extrema(self):
        # too short to hold an interior sample: the mean, 0.5, stands in
        assert imf_check(TimeSeries([0.0, 1.0], 10.0)) == ImfReport(
            extrema_count=0, zero_crossings=0, count_ok=True, mean_env_rms=0.5, mean_ok=False)

    def test_counts_match_enumeration_oracle(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        s = np.sin(2 * np.pi * 2 * t) + 0.1 * t
        report = imf_check(TimeSeries(s, rate))
        # brute-force three-point extrema count
        ext = sum(
            1
            for i in range(1, len(s) - 1)
            if (s[i] > s[i - 1] and s[i] > s[i + 1])
            or (s[i] < s[i - 1] and s[i] < s[i + 1])
        )
        nz = s[s != 0]
        zc = int(np.sum(np.sign(nz[:-1]) != np.sign(nz[1:])))
        assert report.extrema_count == ext
        assert report.zero_crossings == zc


def _mixed_channels():
    """Three rows of unequal IMF counts: a tone, a two-tone sum and noise."""
    rate = 50.0
    t = np.arange(600) / rate
    rows = [np.sin(2 * np.pi * 2 * t),
            np.sin(2 * np.pi * 0.5 * t) + 0.5 * np.sin(2 * np.pi * 5 * t),
            np.random.default_rng(4).standard_normal(600)]
    return TimeSeries(np.stack(rows), rate, labels=["a.Xrotation", "b.Xrotation", "c.Xrotation"])


class TestEmd:
    def test_too_short(self):
        with pytest.raises(InputError, match=r"^decomposition needs at least 4 samples$"):
            emd(TimeSeries([0.0, 1.0, 0.0], rate=10.0))

    def test_channel_axis_pads_each_rows_decomposition(self):
        x = _mixed_channels()
        ramp = np.linspace(-3.0, 3.0, len(x))  # no extrema: no IMF at all
        x = TimeSeries(np.vstack([x.samples, ramp]), x.rate, labels=x.labels + ["d.Xrotation"])
        d = emd(x, sd_threshold=0.2)
        rows = [emd(TimeSeries(row, x.rate), sd_threshold=0.2) for row in x.samples]
        counts = [row.imf_count for row in rows]
        assert len(set(counts)) > 2 and counts[-1] == 0
        assert d.imfs.shape == (4, max(counts), len(x))
        assert d.labels == x.labels and d.labels is not x.labels
        assert d.meta == rows[0].meta == signal_core._sift_meta("emd", 0.2)
        for channel, row in zip(d.per_channel, rows):
            assert np.array_equal(channel.imfs[: row.imf_count], row.imfs)
            assert not channel.imfs[row.imf_count :].any()
            assert np.array_equal(channel.trend, row.trend)
        assert np.array_equal(d.trend[-1], ramp)
        assert np.allclose(d.reconstruct(), x.samples, rtol=0, atol=1e-12)

    def test_channel_axis_round_trips_through_the_archive(self):
        d = emd(_mixed_channels())
        back = multivariate_from_dict(json.loads(json.dumps(multivariate_to_dict(d))))
        assert back.labels == d.labels
        assert back.meta == d.meta
        assert back.rate == d.rate
        assert np.array_equal(back.imfs, d.imfs)
        assert np.array_equal(back.trend, d.trend)

    def test_single_tone_near_identity(self):
        x = tone(2.0, 10.0, 100.0)
        d = emd(x)
        assert d.imf_count == 1
        assert np.corrcoef(d.imfs[0], x.samples)[0, 1] > 0.99
        assert rms(d.trend) < 0.01 * rms(x.samples)

    def test_two_tone_separation(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        low = np.sin(2 * np.pi * 1 * t)
        high = np.sin(2 * np.pi * 5 * t)
        d = emd(TimeSeries(low + high, rate))
        assert d.imf_count >= 2
        assert np.corrcoef(d.imfs[0], high)[0, 1] > 0.95
        assert np.corrcoef(d.imfs[1], low)[0, 1] > 0.95

    @pytest.mark.parametrize("seed", range(5))
    def test_perfect_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        x = TimeSeries(rng.standard_normal(800), 50.0)
        d = emd(x)
        err = np.max(np.abs(x.samples - d.reconstruct()))
        assert err < 1e-8 * np.max(np.abs(x.samples))

    def test_every_imf_passes_check(self):
        # in seeds 38, 76 and 96 a candidate runs out of extrema and fails the
        # check: it stays in the trend
        for seed, n in [(7, 1200), (38, 1800), (76, 1800), (96, 1800)]:
            x = TimeSeries(np.random.default_rng(seed).standard_normal(n), 100.0)
            d = emd(x)
            for c in d.imfs:
                report = imf_check(TimeSeries(c, d.rate))
                assert report.count_ok
                assert report.mean_env_rms <= 0.1 * rms(c)
            err = np.max(np.abs(x.samples - d.reconstruct()))
            assert err < 1e-12 * np.max(np.abs(x.samples))

    def test_determinism(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(600)
        d1 = emd(TimeSeries(s.copy(), 50.0))
        d2 = emd(TimeSeries(s.copy(), 50.0))
        assert d1.imf_count == d2.imf_count
        for a, b in zip(d1.imfs, d2.imfs):
            assert np.array_equal(a, b)
        assert np.array_equal(d1.trend, d2.trend)

    def test_monotone_wafa_ordering_on_noise_ensemble(self):
        from hhtmotion.analysis import wafa

        ordered = 0
        pairs = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = emd(TimeSeries(rng.standard_normal(1000), 100.0))
            _, freqs, _ = wafa(d)
            freqs = freqs[freqs > 0]
            for a, b in zip(freqs[:-1], freqs[1:]):
                pairs += 1
                if a >= b:
                    ordered += 1
        assert ordered / pairs >= 0.9

    @pytest.mark.parametrize(
        "samples", [np.linspace(0.0, 1.0, 50), np.linspace(-1, 1, 50) ** 2, np.zeros(50)]
    )
    def test_no_envelope_leaves_all_to_the_trend(self, samples):
        d = emd(TimeSeries(samples, 10.0))
        assert d.imfs.shape == (0, 50)
        assert np.array_equal(d.trend, samples)

    def test_keeps_an_iterate_it_can_no_longer_envelope(self):
        # the last iterate has too few extrema for envelopes but meets the
        # IMF criteria as imf_check judges it, so it is kept as IMF 4
        d = emd(TimeSeries(np.random.default_rng(112).standard_normal(40), 60.0))
        assert d.imf_count == 4

    def test_sd_of_a_zero_iterate_is_zero(self):
        # nothing to normalize by: no RuntimeWarning, and no change counted
        assert signal_core._sd(np.zeros(8), np.ones(8)) == 0.0

    def test_no_convergence_names_imf_and_sd(self):
        x = TimeSeries(np.random.default_rng(0).standard_normal(500), 100.0)
        with pytest.raises(NoConvergence,
                           match=r"^IMF 1: .* within 100 iterations \(SD \d[\d.e+-]*, "
                                 r"threshold 1e-300\)$"):
            emd(x, sd_threshold=1e-300)

    def test_sift_limit_runs_the_mode_test(self, monkeypatch):
        # after two sifts, noise IMF 1 has settled below 10 x the threshold
        # but fails the mode criteria, so the limit does not keep it
        monkeypatch.setattr(signal_core, "MAX_SIFTS", 2)
        x = TimeSeries(np.random.default_rng(0).standard_normal(600), 50.0)
        with pytest.raises(NoConvergence,
                           match=r"^IMF 1: the iterate after 2 sifts fails the IMF criteria "
                                 r"\(SD \d[\d.e+-]*, threshold 0.25\)$"):
            emd(x)

    def test_sift_limit_refuses_an_iterate_it_cannot_envelope(self):
        # a step that never settles the iterate, and finds too few extrema
        # in it once the limit is reached
        calls = []

        def step(c, settled):
            calls.append(settled)
            if len(calls) > signal_core.MAX_SIFTS:
                raise TooFewExtrema("synthetic")
            return np.zeros_like(c)

        with pytest.raises(NoConvergence, match=r"^IMF 1: the iterate after 100 sifts fails "
                                                r"the IMF criteria \(SD 0, threshold 0.25\)$"):
            signal_core._sift(np.sin(np.arange(50.0)), step, 0.25)
        assert len(calls) == signal_core.MAX_SIFTS + 1 and calls[-1]
