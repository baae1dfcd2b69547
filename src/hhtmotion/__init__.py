"""Mode decomposition, beat-aligned analysis, and IMF-level editing of
motion-capture signals."""

__version__ = "0.1.0"

import os

# Set before numpy loads: the only BLAS call is a 13x64 projection, and an idle
# OpenBLAS pool burned CPU beside it (2 cores: decompose 1.9 -> 1.0 s CPU).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (
    FibonacciReport,
    HilbertSpectrum,
    Summary,
    WafaReport,
    detect_singular_imfs,
    fibonacci_relations,
    hilbert_spectrum,
    summarize,
    trend_rms_fraction,
    wafa,
)
from .beat import (
    BeatGrid,
    Segment,
    estimate_tempo,
    fixed_grid,
    onset_envelope,
    read_wav,
    segment_by_beats,
    track_beats,
)
from .edit import (
    AlignedPair,
    BlendOp,
    BlendSpec,
    align,
    apply_blend,
    merge_imfs,
    synthesize_clip,
)
from .memd import (
    DirectionSet,
    direction_set,
    memd,
    multivariate_mean_envelope,
    na_memd,
)
from .mocap_io import (
    MotionClip,
    Skeleton,
    apply_channels,
    extract_channels,
    parse_bvh,
    resample,
    write_bvh,
)
from .signal_core import (
    AnalyticSignal,
    Decomposition,
    EnvelopePair,
    ImfReport,
    InstantAttributes,
    TimeSeries,
    analytic_signal,
    emd,
    envelope_pair,
    find_extrema,
    imf_check,
    instantaneous_attributes,
    sift,
)
