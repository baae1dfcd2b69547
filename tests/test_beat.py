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


# ---------------------------------------------------------------------------
# references: the beat layer written plainly, one step per sample, frame or
# group; beat.py must give exactly what these give


def reference_envelope(audio):
    """onset_envelope from one rfft over every frame at once."""
    win = int(round(0.064 * audio.rate))
    padded = np.concatenate([np.zeros(win), audio.samples])
    n_frames = int(audio.samples.size / (audio.rate * 0.01)) + 1
    ends = np.round(np.arange(n_frames) * 0.01 * audio.rate).astype(int) + win
    segs = padded[ends[:, None] - np.arange(win, 0, -1)] * np.hanning(win)
    mags = np.log1p(1000.0 * np.abs(np.fft.rfft(segs, axis=1)))
    d = np.diff(mags, axis=0)
    d[d < 0] = 0.0
    flux = np.concatenate([[0.0], d.sum(axis=1)])
    return flux / flux.max()


def reference_track_beats(onset, bpm, tightness):
    """track_beats's dynamic program as a masked step per sample, with a flag
    that holds back links until the first onset of 1% of the maximum."""
    o = onset.samples
    if o.max() <= 0:
        raise NoBeats("onset envelope is all zero")
    period = onset.rate * 60.0 / bpm
    n = o.size
    backlink = np.full(n, -1, dtype=int)
    cumscore = o.copy()
    first_beat = True
    window = np.arange(-int(round(2 * period)), -int(round(period / 2)) + 1)
    penalty = tightness * np.square(np.log(-window / period))
    for i in range(n):
        locs = i + window
        valid = locs >= 0
        best_loc = -1
        if np.any(valid):
            scores = cumscore[locs[valid]] - penalty[valid]
            k = int(np.argmax(scores))
            cumscore[i] = o[i] + scores[k]
            best_loc = int(locs[valid][k])
        if first_beat and o[i] < 0.01 * o.max():
            continue
        backlink[i] = best_loc
        first_beat = False
    local_max = [i for i in range(1, n - 1)
                 if cumscore[i - 1] < cumscore[i] >= cumscore[i + 1]]
    if not local_max:
        raise NoBeats("cumulative score has no peaks")
    median = np.median(cumscore[local_max])
    if not median > 0:
        raise InvalidValue(f"tightness {tightness:g} outweighs the onsets")
    qualifying = [i for i in local_max if cumscore[i] >= 0.5 * median]
    frames = [qualifying[-1] if qualifying else local_max[-1]]
    while backlink[frames[-1]] >= 0:
        frames.append(int(backlink[frames[-1]]))
    if len(frames) < 2:
        raise NoBeats("fewer than 2 beats tracked")
    return onset.start_time + np.asarray(frames[::-1]) / onset.rate


def reference_segments(frame_count, rate, grid, beats_per_segment):
    """segment_by_beats as a loop over groups; [] where it raises."""
    frames = np.round(grid.beats * rate).astype(int)
    segments = []
    for start in range(0, len(frames) - beats_per_segment, beats_per_segment):
        lo, hi = frames[start], frames[start + beats_per_segment]
        if 0 <= lo < hi <= frame_count:
            segments.append((int(lo), int(hi)))
    return segments


class TestFixedGrid:
    def test_uptempo_count(self):
        grid = fixed_grid(130.0, 60.5)
        assert len(grid) == 131
        assert np.allclose(np.diff(grid.beats), 60.0 / 130.0)

    def test_offset(self):
        # the CLI's --offset shifts a grid through BeatGrid, which checks the shifted beats
        grid = fixed_grid(60.0, 10.0)
        shifted = BeatGrid(beats=grid.beats + 0.5, bpm=grid.bpm)
        assert np.allclose(shifted.beats, 0.5 + np.arange(10))
        for offset in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"^beats must be finite$"):
                BeatGrid(beats=grid.beats + offset, bpm=grid.bpm)
        with pytest.raises(ValueError, match=r"^beats must be strictly ascending$"):
            BeatGrid(beats=grid.beats + 1e308, bpm=grid.bpm)

    def test_bad_tempo(self):
        with pytest.raises(InvalidValue, match=r"^bpm 10.0 outside \[20, 400\]$"):
            fixed_grid(10.0, 60.0)

    @pytest.mark.parametrize("beats, bpm, message", [
        ([0.0, 0.5], 0.0, "bpm must be a positive finite number"),
        ([0.0], np.nan, "bpm must be a positive finite number"),
        ([0.0], -5.0, "bpm must be a positive finite number"),
        ([0.0], np.inf, "bpm must be a positive finite number"),
        ([], 120.0, "a beat grid needs at least one beat"),
    ])
    def test_grid_refuses(self, beats, bpm, message):
        # ValueError, which each caller turns into its own error type
        with pytest.raises(ValueError, match=f"^{message}$"):
            BeatGrid(beats, bpm)


class TestOnsetEnvelope:
    def test_silence_all_zero(self):
        env = onset_envelope(TimeSeries(np.zeros(22050 * 2), 22050.0))
        assert np.all(env.samples == 0)

    def test_click_train_peaks(self):
        audio = click_signal(120.0, 10.0, 22050)
        env = onset_envelope(audio)
        assert env.rate == 100.0
        times = env.start_time + np.arange(len(env)) / env.rate
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

    @pytest.mark.parametrize("rate", [8000, 22050, 44100])
    def test_blocks_match_one_unblocked_rfft(self, rate):
        rng = np.random.default_rng(rate)
        audio = click_signal(130.0, 6.0, rate)
        audio = TimeSeries(audio.samples + 0.01 * rng.standard_normal(len(audio)), audio.rate)
        env = onset_envelope(audio)
        # three blocks at least, of under 1 MiB of rfft rows each
        assert len(env) > 2 * beat._BLOCK_BYTES // (8 * (round(0.064 * rate) + 2))
        assert env.samples.tobytes() == reference_envelope(audio).tobytes()


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

    def test_envelope_too_short(self):
        with pytest.raises(NoBeats, match=r"^onset envelope too short for the tempo range$"):
            estimate_tempo(TimeSeries(np.r_[1.0, np.zeros(19)], 100.0))

    def test_one_spike(self):
        samples = np.zeros(1000)
        samples[300] = 1.0
        with pytest.raises(NoBeats, match=r"^no periodic structure in the onset envelope$"):
            estimate_tempo(TimeSeries(samples, 100.0))


class TestTrackBeats:
    def test_bpm_out_of_range(self):
        env = onset_envelope(click_signal(130.0, 30.0, 22050))
        with pytest.raises(InvalidValue, match=r"^bpm 10\.0 outside \[20, 400\]$"):
            track_beats(env, 10.0)

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

    def test_flat_envelope_has_no_peaks(self):
        # with no spacing penalty the cumulative score of a constant envelope
        # only rises, so it has no local maximum to end the chain on
        with pytest.raises(NoBeats, match=r"^cumulative score has no peaks$"):
            track_beats(TimeSeries(np.ones(60), 5.0), 120.0, tightness=0.0)

    @pytest.mark.parametrize("rate, bpm", [(2.0, 120.0), (3.9, 120.0), (0.5, 20.0)])
    def test_under_two_samples_per_beat_refused(self, rate, bpm):
        # the rate and bpm are the caller's values, not audio without periodicity
        onset = TimeSeries(np.tile([1.0, 0, 0.2, 0], 25), rate)
        with pytest.raises(InvalidValue, match=rf"^an envelope at {rate:g} Hz holds under 2 "
                                               rf"samples per beat at bpm {bpm:g}$"):
            track_beats(onset, bpm)

    def test_two_samples_per_beat_tracked(self):
        grid = track_beats(TimeSeries(np.tile([1.0, 0, 0.2, 0], 25), 4.0), 120.0)
        np.testing.assert_array_equal(grid.beats, np.arange(50) / 2)

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


    @pytest.mark.parametrize("kind", ["dense", "zero-prefix", "sparse", "short", "clicks"])
    def test_matches_the_per_sample_reference(self, kind):
        rng = np.random.default_rng(["dense", "zero-prefix", "sparse", "short", "clicks"]
                                    .index(kind))
        outcomes = set()
        for _ in range(12):
            bpm = float(rng.uniform(20.0, 400.0))
            tightness = float(rng.choice([0.0, 400.0, 2000.0, rng.uniform(0.0, 5000.0)]))
            period = 6000.0 / bpm
            n = int(rng.integers(2, int(2 * period))) if kind == "short" else int(
                rng.integers(300, 700))
            o = rng.random(n) ** rng.uniform(1.0, 8.0)
            if kind == "zero-prefix":
                o[: rng.integers(1, n // 2)] = 0.0
            elif kind == "sparse":
                o *= rng.random(n) < rng.uniform(0.005, 0.1)
                o[rng.integers(n)] = 1.0
            elif kind == "clicks":
                o = 0.02 * o
                o[np.arange(rng.integers(int(period)), n, period).astype(int)] = 1.0
            onset = TimeSeries(o, 100.0, start_time=float(rng.uniform(-1.0, 1.0)))
            try:
                want = reference_track_beats(onset, bpm, tightness)
            except (NoBeats, InvalidValue) as exc:
                with pytest.raises(type(exc), match="^" + str(exc)):
                    track_beats(onset, bpm, tightness)
                outcomes.add(type(exc))
                continue
            want_bpm = 60.0 / float(np.median(np.diff(want)))
            try:
                BeatGrid(want, want_bpm)
            except ValueError as exc:
                with pytest.raises(NoBeats, match="keep no steady tempo.*: " + str(exc)):
                    track_beats(onset, bpm, tightness)
                outcomes.add("unsteady")
                continue
            grid = track_beats(onset, bpm, tightness)
            assert grid.beats.tobytes() == want.tobytes()
            assert grid.bpm == want_bpm
            outcomes.add("grid")
        assert "grid" in outcomes or kind == "short"


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
        grid = BeatGrid(beats=grid.beats + 50.0, bpm=grid.bpm)
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

    def test_matches_the_group_loop(self):
        rng = np.random.default_rng(7)
        found = 0
        for _ in range(300):
            bpm = float(rng.uniform(20.0, 400.0))
            count = int(rng.integers(1, 30))
            beats = rng.uniform(-10.0, 10.0) + 60.0 / bpm * np.arange(count)
            grid = BeatGrid(beats, bpm)
            frame_count, rate = int(rng.integers(2, 2000)), float(rng.uniform(1.0, 120.0))
            per = int(rng.integers(1, 6))
            want = reference_segments(frame_count, rate, grid, per)
            try:
                got = segment_by_beats(frame_count, rate, grid, per)
            except ChannelError:
                got = []
            assert got == want
            assert all(type(frame) is int for span in got for frame in span)
            found += bool(want)
        assert 50 < found < 250

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

    def test_strong_written_every_fourth_beat(self):
        obj = grid_to_dict(fixed_grid(120.0, 10.0))
        # every fourth beat, from the first, of 20
        assert obj["strong"] == [k % 4 == 0 for k in range(20)]
        assert all(type(flag) is bool for flag in obj["strong"])

    @pytest.mark.parametrize("strong", ["missing", None, [1, 0], [True], "yes", {"a": 1}])
    def test_strong_ignored_on_read(self, strong):
        obj = {"bpm": 60.0, "beats": [0.0, 1.0, 2.0]}
        if strong != "missing":
            obj["strong"] = strong
        grid = grid_from_dict(obj)
        assert grid.beats.tolist() == [0.0, 1.0, 2.0]
        assert grid.bpm == 60.0
        assert grid_to_dict(grid)["strong"] == [True, False, False]

    def test_grid_needs_bpm_and_beats(self):
        for obj in ({"bpm": 60.0}, {"beats": [0.0, 1.0]}, {"bpm": 60.0, "strong": [True]}):
            with pytest.raises(InputError,
                               match=r"^a beat grid is an object with bpm and beats$"):
                grid_from_dict(obj)
