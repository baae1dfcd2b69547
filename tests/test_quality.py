"""Quality gates: how well each method recovers known tones, how much the
decomposition seed moves the result, and how often noise meets the
Fibonacci relation.

The clips are ``helpers.tone_sum_clip``: dance-like channels built from four
beat-locked tones plus drift and noise; the noise baseline uses
``helpers.noise_clip``.  Every floor and ceiling below is the value measured
on clip seed 0, widened by the standard deviation of that value over clip
seeds 0-11.  Never loosen one to pass; a change that tightens one says by
how much.  Run ``python tests/test_quality.py`` for the sweep that sets them.
"""

import numpy as np
import pytest

from helpers import TONE_MULTIPLES, golden_ladder, noise_clip, tone_sum_clip

from hhtmotion.analysis import fibonacci_relations, wafa
from hhtmotion.memd import direction_set, memd, na_memd
from hhtmotion.signal_core import Decomposition, TimeSeries, emd

CHANNELS = 6
FRAMES = 1200  # 10 s at 120 Hz
CLIP_SEED = 0
STABILITY_SEEDS = range(8)

DECOMPOSE = {
    "emd": lambda x, seed: emd(x),
    "memd": lambda x, seed: memd(x, dirs=direction_set(x.n_channels, seed=seed)),
    "na_memd": lambda x, seed: na_memd(x, seed=seed),
}

# per tone, in TONE_MULTIPLES order: the median over channels of the best
# |correlation| between the tone and any IMF, at decomposition seed 0;
# emd's 8.67 Hz score (0.164) lies within its spread (0.170) of zero
SEPARATION_FLOORS = {
    "emd": (0.694, 0.7385, 0.2518, 0.0),
    "memd": (0.918, 0.9342, 0.7294, 0.5086),
    "na_memd": (0.8186, 0.856, 0.2531, 0.7337),
}

# share of decomposition seeds whose IMF count differs from the commonest
# count, and per IMF the median over channels of the spread (std over
# mean over seeds) of wafa's overall frequency
COUNT_DISAGREEMENT_CEILINGS = {"memd": 0.4441, "na_memd": 0.2443}
SPREAD_CEILINGS = {
    "memd": (0.1125, 0.0352, 0.0236, 0.0317),
    "na_memd": (0.0972, 0.1106, 0.0393, 0.1188),
}

NOISE_CHANNELS = 12
NOISE_FRAMES = 2400  # 20 s at 120 Hz
FIBONACCI_TOLERANCE = 0.05  # analyze's default

# on noise, at FIBONACCI_TOLERANCE: the share of IMF triples that pass and
# the share of channels with a chain of 1 or more; na_memd passed no triple
# of a random walk at any clip seed, so those ceilings are 0
FIBONACCI_NOISE_CEILINGS = {
    ("white", "emd"): (0.0538, 0.3401),
    ("white", "na_memd"): (0.0178, 0.1064),
    ("walk", "emd"): (0.034, 0.1656),
    ("walk", "na_memd"): (0.0, 0.0),
}


def separation(d, tones):
    """Per tone, the median over channels of max |corr(tone, IMF)|."""
    imfs = d.imfs - d.imfs.mean(axis=-1, keepdims=True)
    tones = tones - tones.mean(axis=-1, keepdims=True)
    dots = np.einsum("ctn,ckn->ctk", tones, imfs)
    norms = np.linalg.norm(tones, axis=-1)[..., None] * np.linalg.norm(imfs, axis=-1)[:, None]
    best = np.max(np.abs(dots) / np.where(norms > 0, norms, np.inf), axis=-1)
    return np.median(best, axis=0)


def stability(method, x):
    """``(disagreement, spread)`` of ``method`` over ``STABILITY_SEEDS``.

    ``spread`` covers the IMFs that every seed has.
    """
    counts = []
    freqs = []
    for seed in STABILITY_SEEDS:
        d = DECOMPOSE[method](x, seed)
        counts.append(d.imf_count)
        freqs.append([wafa(c)[1] for c in d.per_channel])
    disagreement = 1.0 - max(map(counts.count, counts)) / len(counts)
    shared = np.array([[f[: min(counts)] for f in channels] for channels in freqs])
    spread = np.median(shared.std(axis=0) / shared.mean(axis=0), axis=0)
    return disagreement, spread


def fibonacci_on_noise(kind, method, seed):
    """``(passing, chained)`` shares of ``method`` on a noise clip.

    ``emd`` sifts each channel alone, so no zero-padded row enters a triple.
    """
    x = noise_clip(kind, seed, NOISE_FRAMES, NOISE_CHANNELS)
    if method == "emd":
        channels = [emd(TimeSeries(row, x.rate)) for row in x.samples]
    else:
        channels = DECOMPOSE[method](x, 0).per_channel
    residuals, chains = [], []
    for d in channels:
        triples, chain = fibonacci_relations(wafa(d)[1], FIBONACCI_TOLERANCE)
        residuals += [abs(t[4]) for t in triples]
        chains.append(chain)
    return np.mean(np.array(residuals) <= FIBONACCI_TOLERANCE), np.mean(np.array(chains) >= 1)


@pytest.fixture(scope="module")
def clip():
    return tone_sum_clip(CLIP_SEED, FRAMES, CHANNELS)


@pytest.mark.parametrize("method", sorted(SEPARATION_FLOORS))
def test_separation_floor(clip, method):
    x, tones = clip
    scores = separation(DECOMPOSE[method](x, 0), tones)
    for mult, score, floor in zip(TONE_MULTIPLES, scores, SEPARATION_FLOORS[method]):
        assert score >= floor, f"{method} tone {mult} x beat: {score:.3f} < floor {floor}"


@pytest.mark.parametrize("method", sorted(SPREAD_CEILINGS))
def test_seed_stability_ceiling(clip, method):
    x, _ = clip
    disagreement, spread = stability(method, x)
    assert disagreement <= COUNT_DISAGREEMENT_CEILINGS[method]
    ceilings = SPREAD_CEILINGS[method]
    assert spread.size >= len(ceilings)
    for imf, (value, ceiling) in enumerate(zip(spread, ceilings), start=1):
        assert value <= ceiling, f"{method} IMF {imf}: spread {value:.3f} > {ceiling}"


def test_sifted_imfs_are_not_all_zeros(clip):
    """A padded row is the only all-zero IMF: no method sifts one out."""
    x, _ = clip
    decomps = [DECOMPOSE[m](x, 0) for m in ("memd", "na_memd")]
    decomps += [emd(TimeSeries(row, x.rate)) for row in x.samples]
    for d in decomps:
        assert np.all(np.any(d.imfs, axis=-1))


@pytest.mark.parametrize("kind, method", sorted(FIBONACCI_NOISE_CEILINGS))
def test_fibonacci_noise_ceiling(kind, method):
    """Noise meets the relation this seldom, so a finding must beat it."""
    passing, chained = fibonacci_on_noise(kind, method, 0)
    passing_ceiling, chained_ceiling = FIBONACCI_NOISE_CEILINGS[kind, method]
    assert passing <= passing_ceiling, f"{kind} {method}: {passing:.4f} of triples pass"
    assert chained <= chained_ceiling, f"{kind} {method}: {chained:.4f} of channels chain"


def test_fibonacci_positive_control():
    """Tones that obey the relation, taken as IMFs, chain every triple through
    ``wafa``.  (``emd`` of their sum mixes the phi-spaced tones and chains
    none; ``python tests/test_quality.py`` prints that.)"""
    tones = golden_ladder()
    d = Decomposition(imfs=tones, trend=np.zeros(tones.shape[-1]), rate=120.0)
    assert fibonacci_relations(wafa(d)[1], FIBONACCI_TOLERANCE)[1] == 3


if __name__ == "__main__":
    np.set_printoptions(precision=4, suppress=True)
    clips = [tone_sum_clip(seed, FRAMES, CHANNELS) for seed in range(12)]
    for method in sorted(SEPARATION_FLOORS):
        scores = np.array([separation(DECOMPOSE[method](x, 0), tones) for x, tones in clips])
        print(f"separation {method}: seed 0 {scores[0]}, std {scores.std(axis=0)}, "
              f"floor {np.floor(1e4 * (scores[0] - scores.std(axis=0))) / 1e4}")
    for method in sorted(SPREAD_CEILINGS):
        runs = [stability(method, x) for x, _ in clips]
        agreement = np.array([r[0] for r in runs])
        k = min(r[1].size for r in runs)
        spread = np.array([r[1][:k] for r in runs])
        print(f"stability {method}: disagreement {agreement}, "
              f"ceiling {np.ceil(1e4 * (agreement[0] + agreement.std())) / 1e4}")
        print(f"  spread per clip seed:\n{spread}\n  std {spread.std(axis=0)}\n"
              f"  ceiling {np.ceil(1e4 * (spread[0] + spread.std(axis=0))) / 1e4}")
    for kind, method in sorted(FIBONACCI_NOISE_CEILINGS):
        shares = np.array([fibonacci_on_noise(kind, method, seed) for seed in range(12)])
        print(f"fibonacci on {kind} noise, {method}: passing, chained per clip seed\n{shares}\n"
              f"  std {shares.std(axis=0)}\n"
              f"  ceiling {np.ceil(1e4 * (shares[0] + shares.std(axis=0))) / 1e4}")
    tones = golden_ladder()
    for name, d in [("as IMFs", Decomposition(tones, np.zeros(tones.shape[-1]), 120.0)),
                    ("emd of their sum", emd(TimeSeries(tones.sum(axis=0), 120.0)))]:
        triples, chain = fibonacci_relations(wafa(d)[1], FIBONACCI_TOLERANCE)
        print(f"golden ladder, {name}: {d.imf_count} IMFs, residuals "
              f"{np.array([t[4] for t in triples])}, chain {chain}")
