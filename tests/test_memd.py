import json

import numpy as np
import pytest

from hhtmotion.errors import InvalidValue, NoConvergence, TooFewExtrema
from hhtmotion.memd import (
    direction_set,
    memd,
    multivariate_from_dict,
    multivariate_mean_envelope,
    multivariate_to_dict,
    na_memd,
)
from hhtmotion import signal_core
from hhtmotion.signal_core import TimeSeries, _extrema
from hhtmotion.spline import mirrored_envelopes


def stack(rate, *columns, labels=None):
    matrix = np.stack(columns, axis=1)
    labels = labels or [f"ch{i}" for i in range(matrix.shape[1])]
    return TimeSeries(matrix.T, rate, labels=labels)


class TestDirectionSet:
    def test_circle_gaps_below_quarter_turn(self):
        dirs = direction_set(2, 8, seed=0)
        assert dirs.shape == (8, 2) and dirs.dtype == np.float64
        angles = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        assert np.all(np.degrees(gaps) < 90.0)

    def test_unit_norms(self):
        norms = np.linalg.norm(direction_set(5, 32, seed=3), axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    def test_deterministic_in_seed(self):
        a = direction_set(3, 16, seed=11)
        b = direction_set(3, 16, seed=11)
        assert np.array_equal(a, b)
        c = direction_set(3, 16, seed=12)
        assert not np.array_equal(a, c)

    def test_count_is_the_number_of_vectors(self):
        dirs = direction_set(2, 8, seed=0)
        assert len(dirs) == 8
        rng = np.random.default_rng(3)
        x = stack(50.0, *rng.standard_normal((2, 400)))
        md = memd(x, dirs=dirs)
        assert md.meta["direction_count"] == 8
        # a nested list is taken as the array it spells
        assert np.array_equal(md.imfs, memd(x, dirs=dirs.tolist()).imfs)

    def test_bad_dimension(self):
        with pytest.raises(InvalidValue, match=r"^direction sampling needs at least 2 "):
            direction_set(1, 8)
        assert len(direction_set(4, 6)) == 8

    def test_count_raised_to_two_per_dimension(self):
        assert np.array_equal(direction_set(4, 6, seed=2), direction_set(4, 8, seed=2))


class TestMeanEnvelope:
    def test_circular_signal_centered(self):
        rate = 50.0
        t = np.arange(0, 5, 1 / rate)
        x = stack(rate, np.cos(2 * np.pi * t), np.sin(2 * np.pi * t))
        env = multivariate_mean_envelope(x, direction_set(2, 64, seed=0))
        norms = np.linalg.norm(env.samples.T, axis=1)
        k = len(t) // 10
        assert np.max(norms[k:-k]) < 0.1

    def test_offsets_survive_averaging(self):
        rate = 50.0
        t = np.arange(0, 5, 1 / rate)
        x = stack(
            rate,
            5.0 + np.sin(2 * np.pi * 2 * t),
            -3.0 + np.sin(2 * np.pi * 2 * t + 1.0),
        )
        env = multivariate_mean_envelope(x, direction_set(2, 64, seed=0)).samples.T
        k = len(t) // 10
        means = env[k:-k].mean(axis=0)
        assert abs(means[0] - 5.0) < 0.5
        assert abs(means[1] + 3.0) < 0.3

    @pytest.mark.parametrize("count", [8, 40, 64])
    def test_blocks_equal_one_direction_at_a_time(self, count):
        """Solving the directions in blocks changes no bit of the mean envelope."""
        rng = np.random.default_rng(7)
        x = stack(100.0, *np.cumsum(rng.standard_normal((4, 600)), axis=1))
        dirs = direction_set(4, count, seed=1)
        frames = x.samples.T
        projections = frames @ dirs.T
        columns = np.ascontiguousarray(frames.T)
        total = np.zeros_like(columns)
        for k in range(count):
            (envelope,) = mirrored_envelopes([_extrema(projections[:, k])[0]], columns)
            total += envelope
        env = multivariate_mean_envelope(x, dirs).samples.T
        assert np.array_equal(env, total.T / count)

    def test_monotone_projection_raises(self):
        rate = 10.0
        ramp = np.linspace(0.0, 1.0, 40)
        x = stack(rate, ramp, 2 * ramp)
        with pytest.raises(TooFewExtrema, match=r"^projection 0 has 0 maxima$"):
            multivariate_mean_envelope(x, [[1.0, 0.0]])

    def test_direction_length_does_not_matter(self):
        """Rescaling a direction moves none of its projection's peaks, so the
        envelope is the same bit for bit: directions need not be unit vectors."""
        rng = np.random.default_rng(5)
        x = stack(100.0, *np.cumsum(rng.standard_normal((3, 500)), axis=1))
        dirs = direction_set(3, 16, seed=2)
        assert np.array_equal(multivariate_mean_envelope(x, 2.0 * dirs).samples,
                              multivariate_mean_envelope(x, dirs).samples)

    @pytest.mark.parametrize("dirs", [np.ones((8, 2)), np.ones((8, 3, 1)), np.ones(3),
                                      np.ones((0, 3))],
                             ids=["2-dims", "3-axes", "1-axis", "none"])
    def test_bad_direction_shape_refused(self, dirs):
        x = stack(10.0, *np.random.default_rng(1).standard_normal((3, 100)))
        with pytest.raises(InvalidValue, match=r"^direction set is shaped .*, "
                                               r"signal has 3 channels$"):
            multivariate_mean_envelope(x, dirs)


class TestMemd:
    def test_shared_tone_three_channels(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        sig = np.sin(2 * np.pi * 2 * t)
        x = stack(rate, sig, 2 * sig, 0.5 * sig)
        md = memd(x, dirs=direction_set(3, 8, seed=0))
        for k, d in enumerate(md.per_channel):
            best = max(
                abs(np.corrcoef(c, x.samples[k])[0, 1]) for c in d.imfs
            )
            assert best > 0.95

    def test_absent_mode_stays_small(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        low = np.sin(2 * np.pi * 1 * t)
        high = np.sin(2 * np.pi * 5 * t)
        x = stack(rate, low + high, high)
        md = memd(x, dirs=direction_set(2, 8, seed=0))
        assert md.imf_count >= 2
        corrs = [abs(np.corrcoef(c, low)[0, 1]) for c in md.per_channel[0].imfs]
        i_low = int(np.argmax(corrs))
        assert corrs[i_low] > 0.9
        rms = np.sqrt(np.mean(md.per_channel[1].imfs[i_low] ** 2))
        assert rms < 0.2 * np.sqrt(np.mean(x.samples[1] ** 2))

    def test_per_channel_reconstruction(self):
        rng = np.random.default_rng(0)
        x = TimeSeries(
            rng.standard_normal((600, 2)).T, 50.0, labels=["a", "b"]
        )
        md = memd(x, dirs=direction_set(2, 8, seed=0))
        for k, d in enumerate(md.per_channel):
            err = np.max(np.abs(d.reconstruct() - x.samples[k]))
            assert err < 1e-8 * np.max(np.abs(x.samples[k]))

    def test_mode_alignment(self):
        rng = np.random.default_rng(5)
        x = TimeSeries(
            rng.standard_normal((500, 3)).T, 50.0, labels=["a", "b", "c"]
        )
        md = memd(x, dirs=direction_set(3, 8, seed=0))
        counts = {d.imf_count for d in md.per_channel}
        assert len(counts) == 1

    def test_no_envelope_leaves_all_to_the_trend(self):
        ramp = np.linspace(0.0, 1.0, 60)
        x = stack(10.0, ramp, 2 * ramp)
        md = memd(x, dirs=direction_set(2, 8, seed=0))
        assert md.imfs.shape == (2, 0, 60)
        assert np.array_equal(md.trend, x.samples)

    def test_no_convergence_names_imf_and_sd(self):
        x = stack(100.0, *np.random.default_rng(0).standard_normal((2, 500)))
        with pytest.raises(NoConvergence,
                           match=r"^IMF 1: .* within 100 iterations \(SD \d[\d.e+-]*, "
                                 r"threshold 1e-300\)$"):
            memd(x, dirs=direction_set(2, 8, seed=0), sd_threshold=1e-300)

    def test_sift_limit_accepts_on_sd_alone(self, monkeypatch):
        # MEMD has no mode test: an iterate that reaches the limit near the
        # SD threshold is kept, where emd would refuse it
        monkeypatch.setattr(signal_core, "MAX_SIFTS", 2)
        x = stack(50.0, *np.random.default_rng(0).standard_normal((2, 600)))
        md = memd(x, dirs=direction_set(2, 8, seed=0))
        assert md.imf_count > 0
        assert np.allclose(md.reconstruct(), x.samples)

    @pytest.mark.parametrize("method, n_channels", [(memd, 33), (na_memd, 32)],
                             ids=["memd-33", "na_memd-32"])
    def test_default_directions_raised_to_two_per_dimension(self, method, n_channels):
        # 33 dimensions either way (na_memd adds one noise channel): 66 directions
        t = np.arange(200) / 40.0
        x = stack(40.0, *(30 * np.sin(2 * np.pi * (0.5 + 0.1 * c) * t + c)
                          for c in range(n_channels)))
        md = method(x)
        assert md.n_channels == n_channels
        assert md.meta["direction_count"] == 66

    def test_requires_two_channels(self):
        x = stack(10.0, np.sin(np.linspace(0, 20, 100)))
        with pytest.raises(InvalidValue, match=r"^multivariate decomposition needs >= 2 "):
            memd(x)


class TestNaMemd:
    def make_two_tone(self):
        rate = 100.0
        t = np.arange(0, 10, 1 / rate)
        return stack(
            rate,
            np.sin(2 * np.pi * 1 * t) + np.sin(2 * np.pi * 5 * t),
            np.sin(2 * np.pi * 5 * t),
        )

    def test_noise_channels_stripped(self):
        x = self.make_two_tone()
        md = na_memd(x, noise_pct=0.09, seed=0, dirs=direction_set(3, 8, seed=0))
        assert md.n_channels == 2
        assert md.labels == ["ch0", "ch1"]

    def test_deterministic_in_seed(self):
        x = self.make_two_tone()
        a = na_memd(x, seed=42, dirs=direction_set(3, 8, seed=42))
        b = na_memd(x, seed=42, dirs=direction_set(3, 8, seed=42))
        assert a.imf_count == b.imf_count
        for da, db in zip(a.per_channel, b.per_channel):
            assert all(np.array_equal(u, v) for u, v in zip(da.imfs, db.imfs))
            assert np.array_equal(da.trend, db.trend)

    def test_meta_records_noise_settings(self):
        x = self.make_two_tone()
        md = na_memd(x, noise_pct=0.08, noise_channels=2, seed=9,
                     dirs=direction_set(4, 8, seed=9))
        assert md.meta["noise_pct"] == 0.08
        assert md.meta["noise_channels"] == 2
        assert md.meta["seed"] == 9

    def test_reduces_mode_mixing_on_burst_fixture(self):
        # 1 Hz carrier with intermittent 6 Hz bursts; the burst is the finest
        # scale at this rate, so noise assistance keeps it isolated in IMF 1
        rate = 30.0
        t = np.arange(0, 20, 1 / rate)
        carrier = np.sin(2 * np.pi * 1 * t)
        burst = 0.5 * ((t % 4.0) < 1.0) * np.sin(2 * np.pi * 6 * t)
        x = stack(rate, carrier + burst, 0.8 * carrier + burst)

        def imf1_corr(md):
            return abs(np.corrcoef(md.per_channel[0].imfs[0], burst)[0, 1])

        base = imf1_corr(memd(x, dirs=direction_set(2, 8, seed=0)))
        wins = sum(
            imf1_corr(
                na_memd(x, noise_pct=0.09, seed=s, dirs=direction_set(3, 8, seed=s))
            )
            > base
            for s in range(10)
        )
        assert wins >= 7

    def test_filter_bank_ratios_on_noise(self):
        # compact version of the 20-seed acceptance sweep
        from hhtmotion.analysis import wafa

        ratios = {n: [] for n in range(1, 5)}
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = TimeSeries(
                rng.standard_normal((1000, 2)).T, 100.0, labels=["a", "b"]
            )
            md = memd(x, dirs=direction_set(2, 8, seed=seed))
            for d in md.per_channel:
                _, freqs, _ = wafa(d)
                for n in range(1, 5):
                    if len(freqs) > n and freqs[n - 1] > 0:
                        ratios[n].append(freqs[n] / freqs[n - 1])
        for n in range(1, 5):
            med = float(np.median(ratios[n]))
            assert 0.35 <= med <= 0.75, (n, med)


class TestArchive:
    # the decomposition settings the archive keeps in meta
    SETTINGS = ("sd_threshold", "direction_count", "noise_pct", "noise_channels", "seed")

    @staticmethod
    def decomposition():
        rate = 50.0
        t = np.arange(0, 5, 1 / rate)
        x = stack(rate, np.sin(2 * np.pi * t), np.cos(2 * np.pi * t),
                  labels=["hips.Xrotation", "hips.Yrotation"])
        return na_memd(x, seed=1, dirs=direction_set(3, 8, seed=1))

    def test_round_trip(self):
        md = self.decomposition()
        obj = multivariate_to_dict(md)
        assert set(obj) == {"rate", "channels", "meta"}
        assert {key: obj["meta"][key] for key in self.SETTINGS} == {
            "sd_threshold": 0.25, "direction_count": 8, "noise_pct": 0.09,
            "noise_channels": 1, "seed": 1}
        back = multivariate_from_dict(json.loads(json.dumps(obj)))
        assert back.rate == md.rate
        assert back.labels == md.labels
        assert back.meta == md.meta
        assert np.array_equal(back.imfs, md.imfs)
        assert np.array_equal(back.trend, md.trend)

    def test_reads_archives_of_earlier_versions(self):
        """Earlier versions also copied the settings to the top level."""
        md = self.decomposition()
        obj = multivariate_to_dict(md)
        earlier = dict(obj, **{key: md.meta[key] for key in self.SETTINGS})
        new = multivariate_from_dict(json.loads(json.dumps(obj)))
        old = multivariate_from_dict(json.loads(json.dumps(earlier)))
        assert old.labels == new.labels
        assert old.meta == new.meta
        assert np.array_equal(old.imfs, new.imfs)
        assert np.array_equal(old.trend, new.trend)
