from dataclasses import dataclass

import numpy as np
import pytest

from helpers import tone

from hhtmotion.analysis import (
    WafaReport,
    detect_singular_imfs,
    fibonacci_relations,
    hilbert_spectrum,
    spectrum_sidecar,
    spectrum_to_csv,
    summarize,
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


@dataclass
class Span:
    start_frame: int
    end_frame: int
    start_beat: int = 0


def total_instant_energy(d):
    total = 0.0
    for c in d.imfs:
        if not np.any(c):
            continue
        att = instantaneous_attributes(analytic_signal(TimeSeries(c, d.rate)))
        total += float(np.sum(att.amplitude**2))
    return total


class TestHilbertSpectrum:
    def test_tone_energy_concentrates(self):
        d = emd(tone(2.0, 10.0, 100.0))
        spec = hilbert_spectrum(d, time_bin=0.05, freq_max=10.0, freq_bins=100)
        edges = spec.freq_bins
        cols = np.where((edges[1:] > 1.8) & (edges[:-1] < 2.2))[0]
        share = spec.energy[:, cols].sum() / spec.energy.sum()
        assert share >= 0.95

    def test_two_tone_ridges(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        d = emd(TimeSeries(np.sin(2 * np.pi * t) + np.sin(2 * np.pi * 5 * t), rate))
        spec = hilbert_spectrum(d, time_bin=0.1, freq_max=10.0, freq_bins=100)
        centers = 0.5 * (spec.freq_bins[:-1] + spec.freq_bins[1:])
        interior = spec.energy[2:-2]
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
        spec = hilbert_spectrum(d, freq_max=10.0)
        assert np.all(spec.energy == 0)
        assert spec.overflow == 0.0

    def test_energy_conservation(self):
        rng = np.random.default_rng(2)
        d = emd(TimeSeries(rng.standard_normal(800), 100.0))
        spec = hilbert_spectrum(d, time_bin=0.07, freq_max=50.0, freq_bins=64)
        total = spec.energy.sum() + spec.overflow
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
        report = wafa(d)
        assert report.per_imf_overall[0] == pytest.approx(2.0, abs=0.05)

    def test_weighting_pulls_toward_loud_region(self):
        # chirp 1 -> 3 Hz with amplitude peaking where f = 2.5 Hz (t = 7.5 s)
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        phase = 2 * np.pi * (1.0 * t + 0.1 * t**2)
        amp = np.exp(-0.5 * ((t - 7.5) / 1.5) ** 2) + 0.05
        d = Decomposition(
            imfs=[amp * np.cos(phase)], trend=np.zeros(t.size), rate=rate
        )
        report = wafa(d)
        att = instantaneous_attributes(analytic_signal(TimeSeries(d.imfs[0], rate)))
        unweighted = float(np.mean(att.frequency[att.frequency > 0]))
        assert report.per_imf_overall[0] > unweighted

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
        report = wafa(d)
        for measured, target in zip(report.per_imf_overall, designed):
            assert abs(measured - target) / target < 0.05

    def test_segment_columns(self):
        d = emd(tone(2.0, 10.0, 100.0))
        segments = [Span(0, 500), Span(500, 1000)]
        report = wafa(d, segments)
        assert report.per_imf_per_segment.shape == (d.imf_count, 2)
        assert np.all(np.abs(report.per_imf_per_segment[0] - 2.0) < 0.1)

    def test_frequencies_within_imf_range(self):
        rng = np.random.default_rng(4)
        d = emd(TimeSeries(rng.standard_normal(600), 50.0))
        report = wafa(d)
        for row, c in enumerate(d.imfs):
            att = instantaneous_attributes(analytic_signal(TimeSeries(c, 50.0)))
            positive = att.frequency[att.frequency > 0]
            if positive.size and report.per_imf_overall[row] > 0:
                assert positive.min() <= report.per_imf_overall[row] <= positive.max()

    def test_empty_cells_flagged(self):
        d = Decomposition(
            imfs=[np.zeros(100)], trend=np.zeros(100), rate=10.0
        )
        report = wafa(d)
        assert report.per_imf_overall[0] == 0.0
        assert (0, 0) in report.empty_cells


class TestSummarize:
    def test_two_tone(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        d = emd(TimeSeries(np.sin(2 * np.pi * t) + np.sin(2 * np.pi * 5 * t), rate))
        s = summarize(d)
        assert s.imf_count >= 2
        assert s.freq_range[0] == pytest.approx(1.0, abs=0.3)
        assert s.freq_range[1] == pytest.approx(5.0, abs=0.5)

    def test_pure_tone_single_imf(self):
        s = summarize(emd(tone(2.0, 10.0, 100.0)))
        assert s.imf_count == 1

    def test_designed_ladder_summary(self):
        rate = 40.0
        t = np.arange(0, 60.0, 1 / rate)
        designed = [4.8, 3.0, 1.6, 0.8, 0.5, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1]
        imfs = [
            np.sin(2 * np.pi * f * t + 0.6 * k) for k, f in enumerate(designed)
        ]
        d = Decomposition(imfs=imfs, trend=0.2 * np.ones(t.size), rate=rate)
        s = summarize(d)
        assert s.imf_count == 11
        assert s.freq_range[0] == pytest.approx(0.1, rel=0.1)
        assert s.freq_range[1] == pytest.approx(4.8, rel=0.05)
        assert s.trend_rms_fraction > 0

    def test_imf_count_matches_exactly(self):
        rng = np.random.default_rng(1)
        d = emd(TimeSeries(rng.standard_normal(500), 50.0))
        assert summarize(d).imf_count == d.imf_count


class TestFibonacci:
    def test_reference_chain(self):
        report = fibonacci_relations([0.5, 0.3, 0.2, 0.1, 0.1])
        assert all(report.satisfied())
        assert report.chain_length == 3

    def test_unsatisfied_triple(self):
        report = fibonacci_relations([4.0, 1.0, 0.5])
        assert report.triples[0][4] == pytest.approx(2.5)
        assert report.satisfied() == [False]

    def test_within_tolerance(self):
        report = fibonacci_relations([0.52, 0.31, 0.19], tolerance=0.05)
        assert report.satisfied() == [True]
        assert report.triples[0][4] == pytest.approx(0.02)

    def test_too_few(self):
        with pytest.raises(DegenerateSignal, match=r"^need at least 3 frequencies$"):
            fibonacci_relations([1.0, 0.5])

    def test_scale_covariance(self):
        freqs = [0.5, 0.3, 0.21, 0.1, 0.08]
        base = fibonacci_relations(freqs, tolerance=0.05)
        for lam in (0.25, 3.0, 17.0):
            scaled = fibonacci_relations(
                [lam * f for f in freqs], tolerance=lam * 0.05
            )
            assert scaled.satisfied() == base.satisfied()


class TestSingularImfs:
    def make_report(self, freqs):
        freqs = np.asarray(freqs, dtype=float)
        return WafaReport(
            per_imf_per_segment=freqs[:, None],
            per_imf_overall=freqs,
            excluded_fraction=0.0,
            empty_cells=[],
        )

    def test_monotone_clean(self):
        assert detect_singular_imfs(self.make_report([4.8, 3.0, 1.6, 0.8, 0.4])) == []

    def test_spike_flagged(self):
        assert detect_singular_imfs(self.make_report([4.8, 3.0, 5.5, 0.8, 0.4])) == [3]

    def test_dip_flagged(self):
        assert detect_singular_imfs(self.make_report([4.8, 3.0, 0.1, 0.8, 0.4])) == [3]

    def test_too_few(self):
        with pytest.raises(DegenerateSignal,
                           match=r"^outlier detection needs at least 4 IMFs$"):
            detect_singular_imfs(self.make_report([1.0, 0.5, 0.25]))


class TestSpectrumExport:
    def test_csv_and_sidecar(self):
        d = emd(tone(2.0, 5.0, 50.0))
        spec = hilbert_spectrum(d, time_bin=0.5, freq_max=10.0, freq_bins=5)
        text = spectrum_to_csv(spec)
        lines = text.strip().splitlines()
        assert lines[0] == "time_bin,freq_bin,energy"
        assert len(lines) == 1 + spec.energy.size
        total = sum(float(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert total == pytest.approx(spec.energy.sum())
        side = spectrum_sidecar(spec)
        assert side["freq_edges"][-1] == 10.0
        assert "overflow" in side
