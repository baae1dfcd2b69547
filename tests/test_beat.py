import numpy as np
import pytest

from helpers import bvh_text, click_signal, write_wav_float32, write_wav_pcm16

from hhtmotion import beat
from hhtmotion.beat import (
    BeatGrid,
    estimate_tempo,
    fixed_grid,
    grid_from_dict,
    grid_to_dict,
    onset_envelope,
    read_wav,
    segment_by_beats,
    track_beats,
)
from hhtmotion.errors import ChannelError, InputError, InvalidValue, NoBeats
from hhtmotion.mocap_io import parse_bvh
from hhtmotion.signal_core import TimeSeries


class TestFixedGrid:
    def test_uptempo_count(self):
        grid = fixed_grid(130.0, 60.5)
        assert len(grid) == 131
        assert np.allclose(np.diff(grid.beats), 60.0 / 130.0)

    def test_offset(self):
        # the CLI's --offset shifts a grid through BeatGrid, which checks the shifted beats
        grid = fixed_grid(60.0, 10.0)
        shifted = BeatGrid(beats=grid.beats + 0.5, bpm=grid.bpm, strong=grid.strong)
        assert np.allclose(shifted.beats, 0.5 + np.arange(10))
        assert np.array_equal(shifted.strong, grid.strong)
        for offset in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"^beats must be finite$"):
                BeatGrid(beats=grid.beats + offset, bpm=grid.bpm, strong=grid.strong)
        with pytest.raises(ValueError, match=r"^beats must be strictly ascending$"):
            BeatGrid(beats=grid.beats + 1e308, bpm=grid.bpm, strong=grid.strong)

    def test_bad_tempo(self):
        with pytest.raises(InvalidValue, match=r"^bpm 10.0 outside \[20, 400\]$"):
            fixed_grid(10.0, 60.0)

    def test_strong_flags(self):
        grid = fixed_grid(120.0, 10.0)
        # every fourth beat, from the first, of 20
        assert np.array_equal(np.flatnonzero(grid.strong), np.arange(0, 20, 4))


class TestOnsetEnvelope:
    def test_silence_all_zero(self):
        env = onset_envelope(TimeSeries(np.zeros(22050 * 2), 22050.0))
        assert np.all(env.samples == 0)

    def test_click_train_peaks(self):
        audio = click_signal(120.0, 10.0, 22050)
        env = onset_envelope(audio)
        assert env.rate == 100.0
        times = env.times()
        for c in np.arange(0, 10, 0.5):
            nearby = np.abs(times - c) < 0.1
            peak_t = times[nearby][np.argmax(env.samples[nearby])]
            assert abs(peak_t - c) <= 0.010 + 1e-9

    def test_white_noise_has_no_dominant_peak(self):
        rng = np.random.default_rng(0)
        flat = []
        for seed in range(5):
            noise = np.random.default_rng(seed).uniform(-0.5, 0.5, 22050 * 5)
            env = onset_envelope(TimeSeries(noise, 22050.0))
            interior = env.samples[5:]
            flat.append(np.max(interior) <= 3.0 * np.median(interior))
        assert sum(flat) >= 4

    def test_too_short(self):
        with pytest.raises(InputError, match=r"^need at least 1 s of audio$"):
            onset_envelope(TimeSeries(np.zeros(8000 // 2), 8000.0))

    @pytest.mark.parametrize("block_bytes", [1, 50_000, 1 << 30])
    def test_block_size_does_not_change_the_envelope(self, monkeypatch, block_bytes):
        # 1 byte gives one frame per block, 1 GiB one block for the whole clip
        audio = click_signal(130.0, 7.0, 22050)
        reference = onset_envelope(audio).samples
        monkeypatch.setattr(beat, "_BLOCK_BYTES", block_bytes)
        assert onset_envelope(audio).samples.tobytes() == reference.tobytes()


class TestEstimateTempo:
    @pytest.mark.parametrize("bpm", [90.0, 130.0, 150.0])
    def test_click_trains(self, bpm):
        env = onset_envelope(click_signal(bpm, 30.0, 22050))
        assert estimate_tempo(env) == pytest.approx(bpm, abs=2.0)

    def test_octave_consistency(self):
        env = onset_envelope(click_signal(130.0, 30.0, 22050))
        est = estimate_tempo(env)
        assert not (est < 70 or est > 250)
        assert est == pytest.approx(130.0, abs=2.0)

    def test_silence(self):
        env = TimeSeries(np.zeros(1000), 100.0)
        with pytest.raises(NoBeats, match=r"^onset envelope carries no energy$"):
            estimate_tempo(env)


class TestTrackBeats:
    def test_exact_clicks_recovered(self):
        env = onset_envelope(click_signal(130.0, 30.0, 22050))
        grid = track_beats(env, 130.0)
        truth = np.arange(0, 30.0, 60.0 / 130.0)
        assert abs(len(grid) - len(truth)) <= 1
        errs = [np.min(np.abs(b - truth)) for b in grid.beats]
        assert np.median(errs) <= 0.015
        assert grid.bpm == pytest.approx(130.0, abs=2.0)

    def test_jittered_clicks(self):
        rng = np.random.default_rng(0)
        rate = 22050
        period = 60.0 / 130.0
        ks = np.arange(int(30.0 / period))
        times = (ks + 0.03 * rng.uniform(-1, 1, ks.size)) * period
        samples = np.zeros(int(30.0 * rate))
        for t in times:
            s0 = int(t * rate)
            burst = 0.8 * rng.uniform(0.5, 1.0, 110)
            samples[s0 : s0 + 110] = burst * np.sign(rng.standard_normal(110))
        env = onset_envelope(TimeSeries(samples, float(rate)))
        grid = track_beats(env, estimate_tempo(env))
        errs = [np.min(np.abs(b - times)) for b in grid.beats]
        assert np.max(errs) <= 0.040

    def test_silence_raises(self):
        with pytest.raises(NoBeats, match=r"^onset envelope is all zero$"):
            track_beats(TimeSeries(np.zeros(2000), 100.0), 120.0)

    def test_envelope_rate_and_start_time_are_read(self):
        """A 200 Hz envelope (the 100 Hz one, each sample twice) gives the same
        tempo and beats; shifting its start time shifts the beats."""
        env = onset_envelope(click_signal(120.0, 10.0, 22050))
        doubled = TimeSeries(np.repeat(env.samples, 2), 200.0, start_time=env.start_time)
        assert estimate_tempo(doubled) == pytest.approx(120.0, abs=0.5)
        grid = track_beats(env, 120.0)
        fast = track_beats(doubled, 120.0)
        assert len(fast) == len(grid) == 20
        np.testing.assert_allclose(fast.beats, grid.beats, atol=0.01)
        assert fast.beats[-1] < 10.0
        later = TimeSeries(env.samples, 100.0, start_time=env.start_time + 5.0)
        np.testing.assert_allclose(track_beats(later, 120.0).beats, grid.beats + 5.0)


class TestSegmentByBeats:
    def make_clip(self, duration=10.0, fps=40.0):
        n = int(duration * fps)
        return parse_bvh(
            bvh_text({"hips.Xrotation": np.sin(np.arange(n))}, frame_time=1.0 / fps)
        )

    def test_one_second_segments(self):
        clip = self.make_clip()
        grid = fixed_grid(60.0, 10.0)
        segments = segment_by_beats(clip.frame_count, clip.rate, grid)
        assert len(segments) == 9
        for start, end in segments:
            assert abs((end - start) - 40) <= 1

    def test_four_beat_groups(self):
        clip = self.make_clip()
        grid = fixed_grid(60.0, 10.0)
        segments = segment_by_beats(clip.frame_count, clip.rate, grid, beats_per_segment=4)
        assert segments == [(0, 160), (160, 320)]
        assert all(type(frame) is int for span in segments for frame in span)

    def test_grid_outside_clip(self):
        clip = self.make_clip()
        grid = fixed_grid(60.0, 5.0)
        grid = BeatGrid(beats=grid.beats + 50.0, bpm=grid.bpm, strong=grid.strong)
        with pytest.raises(ChannelError, match=r"^beat grid does not overlap the clip$"):
            segment_by_beats(clip.frame_count, clip.rate, grid)

    def test_no_whole_group_inside_the_clip(self):
        # 10 beats hold 9 beat gaps: no group of 10 fits, and a group of 9 does
        clip = self.make_clip()
        grid = fixed_grid(60.0, 10.0)
        assert len(grid) == 10
        assert segment_by_beats(clip.frame_count, clip.rate, grid, beats_per_segment=9)
        with pytest.raises(ChannelError, match=r"^no segment of 10 beats fits inside the clip$"):
            segment_by_beats(clip.frame_count, clip.rate, grid, beats_per_segment=10)

    def test_segments_tile_contiguously(self):
        clip = self.make_clip(duration=8.3)
        grid = fixed_grid(90.0, 8.3)
        segments = segment_by_beats(clip.frame_count, clip.rate, grid)
        for (start, end), (next_start, _) in zip(segments[:-1], segments[1:]):
            assert end == next_start
            assert end > start


class TestWavIO:
    def test_pcm16_round_trip(self, tmp_path):
        sig = click_signal(120.0, 2.0, 22050)
        path = tmp_path / "clicks.wav"
        write_wav_pcm16(path, sig)
        back = read_wav(path)
        assert back.rate == 22050.0
        assert np.max(np.abs(back.samples - np.clip(sig.samples, -1, 1))) < 1e-3

    def test_float32_stereo_downmix(self, tmp_path):
        t = np.arange(0, 1.5, 1 / 16000)
        sig = TimeSeries(0.25 * np.sin(2 * np.pi * 440 * t), 16000.0)
        path = tmp_path / "tone.wav"
        write_wav_float32(path, sig, channels=2)
        back = read_wav(path)
        assert back.rate == 16000.0
        assert np.max(np.abs(back.samples - sig.samples)) < 1e-6

    def test_rejects_non_wav(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(InputError, match=r"^not a RIFF/WAVE file$"):
            read_wav(path)


class TestGridJson:
    def test_round_trip(self):
        grid = fixed_grid(130.0, 20.0)
        obj = grid_to_dict(grid)
        assert set(obj) == {"bpm", "beats", "strong"}
        back = grid_from_dict(obj)
        assert np.allclose(back.beats, grid.beats)
        assert back.bpm == grid.bpm
        assert np.array_equal(back.strong, grid.strong)
