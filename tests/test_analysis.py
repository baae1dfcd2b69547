import logging

import numpy as np
import pytest

from helpers import tone

from hhtmotion.analysis import (
    detect_singular_imfs,
    fibonacci_relations,
    hilbert_spectrum,
    spectrum_sidecar,
    spectrum_to_csv,
    summarize,
    trend_rms_fraction,
    wafa,
)
from hhtmotion.errors import DegenerateSignal, InvalidValue
from hhtmotion.signal_core import (
    Decomposition,
    TimeSeries,
    analytic_signal,
    emd,
    instantaneous_attributes,
)


def total_instant_energy(d):
    total = 0.0
    for c in d.imfs:
        if not np.any(c):
            continue
        amplitude, _ = instantaneous_attributes(analytic_signal(TimeSeries(c, d.rate)))
        total += float(np.sum(amplitude**2))
    return total


class TestHilbertSpectrum:
    def test_tone_energy_concentrates(self):
        d = emd(tone(2.0, 10.0, 100.0))
        energy, _, edges, _ = hilbert_spectrum(d, time_bin=0.05, freq_max=10.0,
                                               freq_bins=100)
        cols = np.where((edges[1:] > 1.8) & (edges[:-1] < 2.2))[0]
        share = energy[:, cols].sum() / energy.sum()
        assert share >= 0.95

    def test_two_tone_ridges(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        d = emd(TimeSeries(np.sin(2 * np.pi * t) + np.sin(2 * np.pi * 5 * t), rate))
        energy, _, edges, _ = hilbert_spectrum(d, time_bin=0.1, freq_max=10.0,
                                               freq_bins=100)
        centers = 0.5 * (edges[:-1] + edges[1:])
        interior = energy[2:-2]
        ridge_freqs = []
        for row in interior:
            order = np.argsort(row)[::-1]
            top = [centers[j] for j in order[:8] if row[j] > 0]
            ridge_freqs.append(top)
        near_1 = sum(any(abs(f - 1.0) < 0.5 for f in top) for top in ridge_freqs)
        near_5 = sum(any(abs(f - 5.0) < 1.0 for f in top) for top in ridge_freqs)
        assert near_1 / len(ridge_freqs) > 0.9
        assert near_5 / len(ridge_freqs) > 0.9

    def test_zero_signal_zero_grid(self):
        d = Decomposition(imfs=[np.zeros(200)], trend=np.zeros(200), rate=50.0)
        energy, _, _, overflow = hilbert_spectrum(d, freq_max=10.0)
        assert np.all(energy == 0)
        assert overflow == 0.0

    def test_energy_conservation(self):
        rng = np.random.default_rng(2)
        d = emd(TimeSeries(rng.standard_normal(800), 100.0))
        energy, _, _, overflow = hilbert_spectrum(d, time_bin=0.07, freq_max=50.0,
                                                  freq_bins=64)
        total = energy.sum() + overflow
        direct = total_instant_energy(d)
        assert abs(total - direct) <= 1e-6 * direct

    def test_bad_binning(self):
        d = emd(tone(2.0, 5.0, 50.0))
        with pytest.raises(InvalidValue, match=r"^bad binning: time_bin=-1.0 "):
            hilbert_spectrum(d, time_bin=-1.0)
        with pytest.raises(InvalidValue, match=r"^bad binning: .* freq_max=100.0$"):
            hilbert_spectrum(d, freq_max=100.0)  # beyond Nyquist


class TestWafa:
    def test_unit_tone_whole_clip(self):
        d = emd(tone(2.0, 10.0, 100.0))
        _, overall, _ = wafa(d)
        assert overall[0] == pytest.approx(2.0, abs=0.05)

    def test_weighting_pulls_toward_loud_region(self):
        # chirp 1 -> 3 Hz with amplitude peaking where f = 2.5 Hz (t = 7.5 s)
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        phase = 2 * np.pi * (1.0 * t + 0.1 * t**2)
        amp = np.exp(-0.5 * ((t - 7.5) / 1.5) ** 2) + 0.05
        d = Decomposition(
            imfs=[amp * np.cos(phase)], trend=np.zeros(t.size), rate=rate
        )
        _, overall, _ = wafa(d)
        _, frequency = instantaneous_attributes(analytic_signal(TimeSeries(d.imfs[0], rate)))
        unweighted = float(np.mean(frequency[frequency > 0]))
        assert overall[0] > unweighted

    def test_designed_frequency_ladder(self):
        # 11 synthetic IMFs spanning 0.1 to 4.8 Hz
        rate = 40.0
        duration = 60.0
        t = np.arange(0, duration, 1 / rate)
        designed = [4.8, 3.0, 1.6, 0.8, 0.5, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1]
        imfs = [
            np.sin(2 * np.pi * f * t + 0.6 * k) for k, f in enumerate(designed)
        ]
        d = Decomposition(imfs=imfs, trend=np.zeros(t.size), rate=rate)
        _, overall, _ = wafa(d)
        for measured, target in zip(overall, designed):
            assert abs(measured - target) / target < 0.05

    def test_segment_columns(self):
        d = emd(tone(2.0, 10.0, 100.0))
        segments = [(0, 500), (500, 1000)]
        per_segment, overall, _ = wafa(d, segments)
        assert np.array_equal(overall, wafa(d)[1])
        assert per_segment.shape == (d.imf_count, 2)
        assert np.all(np.abs(per_segment[0] - 2.0) < 0.1)

    def test_frequencies_within_imf_range(self):
        rng = np.random.default_rng(4)
        d = emd(TimeSeries(rng.standard_normal(600), 50.0))
        _, overall, _ = wafa(d)
        for row, c in enumerate(d.imfs):
            _, frequency = instantaneous_attributes(analytic_signal(TimeSeries(c, 50.0)))
            positive = frequency[frequency > 0]
            if positive.size and overall[row] > 0:
                assert positive.min() <= overall[row] <= positive.max()

    def test_empty_cells_flagged(self):
        d = Decomposition(
            imfs=[np.zeros(100)], trend=np.zeros(100), rate=10.0
        )
        per_segment, overall, excluded_fraction = wafa(d)
        assert overall[0] == 0.0
        assert per_segment[0, 0] == 0.0
        assert excluded_fraction == 1.0

    def test_imf_under_the_amplitude_floor_is_excluded(self):
        # instantaneous_attributes refuses the second IMF, whose amplitude is
        # under its 1e-12 floor everywhere: the IMF counts as no signal
        t = np.arange(400) / 40.0
        d = Decomposition(imfs=[np.sin(2 * np.pi * 2.0 * t), 1e-13 * np.sin(2 * np.pi * 0.5 * t)],
                          trend=np.zeros(400), rate=40.0)
        per_segment, overall, excluded_fraction = wafa(d)
        assert overall == pytest.approx([2.0, 0.0])
        assert overall[1] == 0.0 and np.array_equal(per_segment[:, 0], overall)
        assert excluded_fraction == 0.5

    def test_zero_exactly_where_no_valid_sample(self):
        # two-frame segments of white noise, some holding only negative
        # instantaneous frequency, beside a half-clip segment and one past
        # the clip's end
        rng = np.random.default_rng(0)
        d = emd(TimeSeries(rng.standard_normal(600), 50.0))
        segments = [(k, k + 2) for k in range(0, 600, 2)] + [(0, 300), (600, 700)]
        per_segment, _, _ = wafa(d, segments)
        assert np.count_nonzero(per_segment[:, :-1] == 0.0) > 0
        for row, c in enumerate(d.imfs):
            amplitude, frequency = instantaneous_attributes(analytic_signal(TimeSeries(c, 50.0)))
            valid = (frequency > 0.0) & (amplitude > 1e-9 * amplitude.max())
            empty = [not valid[lo:hi].any() for lo, hi in segments]
            assert list(per_segment[row] == 0.0) == empty


class TestSummarize:
    def test_two_tone(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        d = emd(TimeSeries(np.sin(2 * np.pi * t) + np.sin(2 * np.pi * 5 * t), rate))
        low, high = summarize(d, [wafa(d)[1]])
        assert d.imf_count >= 2
        assert low == pytest.approx(1.0, abs=0.3)
        assert high == pytest.approx(5.0, abs=0.5)

    def test_pure_tone_single_imf(self):
        d = emd(tone(2.0, 10.0, 100.0))
        low, high = summarize(d, [wafa(d)[1]])
        assert d.imf_count == 1
        assert low == high == pytest.approx(2.0, abs=0.05)

    def test_designed_ladder_summary(self):
        rate = 40.0
        t = np.arange(0, 60.0, 1 / rate)
        designed = [4.8, 3.0, 1.6, 0.8, 0.5, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1]
        imfs = [
            np.sin(2 * np.pi * f * t + 0.6 * k) for k, f in enumerate(designed)
        ]
        d = Decomposition(imfs=imfs, trend=0.2 * np.ones(t.size), rate=rate)
        low, high = summarize(d, [wafa(d)[1]])
        assert low == pytest.approx(0.1, rel=0.1)
        assert high == pytest.approx(4.8, rel=0.05)
        assert trend_rms_fraction(d) > 0

    def test_channel_axis_matches_the_channel_loop(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        x = np.stack([np.sin(2 * np.pi * t) + np.sin(2 * np.pi * 5 * t),
                      2 * np.sin(2 * np.pi * 3 * t) + 0.2 * t])
        d = emd(TimeSeries(x, rate, labels=["a", "b"]))
        overall = [wafa(c)[1] for c in d.per_channel]
        ranges = [summarize(c, f) for c, f in zip(d.per_channel, overall)]
        assert summarize(d, np.stack(overall)) == (min(r[0] for r in ranges),
                                                   max(r[1] for r in ranges))
        trend_sq = input_sq = 0.0
        for c in d.per_channel:
            trend_sq += float(np.sum(np.square(c.trend)))
            input_sq += float(np.sum(np.square(c.reconstruct())))
        assert trend_rms_fraction(d) == np.sqrt(trend_sq / input_sq) > 0

    @pytest.mark.parametrize("cut", ["short", "long", "ragged", "channel"])
    def test_misshaped_overall_refused(self, cut):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        x = np.sin(2 * np.pi * t) + np.sin(2 * np.pi * 5 * t)
        d = emd(TimeSeries(np.stack([x, x[::-1]]), rate, labels=["a", "b"]))
        overall = [wafa(c)[1] for c in d.per_channel]
        overall = {
            "short": [f[:-1] for f in overall],
            "long": [np.append(f, 1.0) for f in overall],
            "ragged": [overall[0], overall[1][:-1]],
            "channel": overall[:1],
        }[cut]
        with pytest.raises(InvalidValue) as info:
            summarize(d, overall)
        assert "\n" not in str(info.value)


class TestFibonacci:
    def test_reference_chain(self):
        triples, chain_length = fibonacci_relations([0.5, 0.3, 0.2, 0.1, 0.1])
        assert all(abs(t[4]) <= 0.05 for t in triples)
        assert chain_length == 3

    def test_unsatisfied_triple(self):
        triples, chain_length = fibonacci_relations([4.0, 1.0, 0.5])
        assert triples[0][4] == pytest.approx(2.5)
        assert [abs(t[4]) <= 0.05 for t in triples] == [False]
        assert chain_length == 0

    def test_within_tolerance(self):
        triples, chain_length = fibonacci_relations([0.52, 0.31, 0.19], tolerance=0.05)
        assert [abs(t[4]) <= 0.05 for t in triples] == [True]
        assert triples[0][4] == pytest.approx(0.02)
        assert chain_length == 1

    def test_too_few(self):
        with pytest.raises(DegenerateSignal, match=r"^need at least 3 frequencies$"):
            fibonacci_relations([1.0, 0.5])

    @pytest.mark.parametrize("tolerance", [-0.1, float("nan"), float("inf"), -1e308])
    def test_bad_tolerance_refused_before_the_count(self, tolerance):
        with pytest.raises(InvalidValue, match=r"^tolerance must be a finite number >= 0, "):
            fibonacci_relations([1.0, 0.5], tolerance=tolerance)

    def test_scale_covariance(self):
        freqs = [0.5, 0.3, 0.21, 0.1, 0.08]
        base, _ = fibonacci_relations(freqs, tolerance=0.05)
        for lam in (0.25, 3.0, 17.0):
            scaled, _ = fibonacci_relations(
                [lam * f for f in freqs], tolerance=lam * 0.05
            )
            assert ([abs(t[4]) <= lam * 0.05 for t in scaled]
                    == [abs(t[4]) <= 0.05 for t in base])


class TestSingularImfs:
    def test_monotone_clean(self):
        assert detect_singular_imfs([4.8, 3.0, 1.6, 0.8, 0.4]) == []

    def test_spike_flagged(self):
        assert detect_singular_imfs([4.8, 3.0, 5.5, 0.8, 0.4]) == [3]

    def test_dip_flagged(self):
        assert detect_singular_imfs([4.8, 3.0, 0.1, 0.8, 0.4]) == [3]

    def test_mild_order_break_neither_flagged_nor_logged(self, caplog):
        # IMF 2 rises above IMF 1, but within factor 1.5: the frequencies
        # show it, and nothing is printed beside it
        with caplog.at_level(logging.DEBUG):
            assert detect_singular_imfs([4.8, 5.0, 1.6, 0.8]) == []
        assert caplog.records == []

    def test_too_few(self):
        with pytest.raises(DegenerateSignal,
                           match=r"^outlier detection needs at least 4 IMFs$"):
            detect_singular_imfs([1.0, 0.5, 0.25])


class TestSpectrumExport:
    def test_csv_and_sidecar(self):
        d = emd(tone(2.0, 5.0, 50.0))
        energy, time_edges, freq_edges, overflow = hilbert_spectrum(
            d, time_bin=0.5, freq_max=10.0, freq_bins=5)
        text = spectrum_to_csv(energy)
        lines = text.strip().splitlines()
        assert lines[0] == "time_bin,freq_bin,energy"
        assert len(lines) == 1 + energy.size
        total = sum(float(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert total == pytest.approx(energy.sum())
        side = spectrum_sidecar(time_edges, freq_edges, overflow)
        assert side["freq_edges"][-1] == 10.0
        assert "overflow" in side
