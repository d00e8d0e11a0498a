"""sarfx: counter-forensic re-acquisition toolkit for SAR amplitude imagery.

Library layout mirrors the processing chain: raster containers and tiling,
spectral transforms, speckle synthesis, system-response estimation, splice
forgery creation, the attack pipeline itself, and the quality/detection
metric stack. ``scene`` makes the synthetic world closure experiments run
on: scenes, a known response and pristine acquisitions. The ``sarfx``
console script exposes each stage.
"""

__version__ = "0.1.0"

from .raster import (
    AmplitudeImage,
    ComplexImage,
    RasterError,
    RasterHeader,
    TamperMask,
    read_raster,
    tile,
    write_mask_pgm,
    write_raster,
)
from .spectral import (
    RadialProfile,
    Spectrum,
    azimuthal_profile,
    central_flip,
    forward_dft,
    inverse_dft,
    smooth_spectrum,
)
from .speckle import (
    DEFAULT_SIGMA_S,
    MODE_FULL,
    MODE_PHASE_ONLY,
    generate_speckle,
    inject_speckle,
)
from .sysid import (
    FitNonConvergenceError,
    GaussianFitParams,
    RaisedCosineFitParams,
    TransferFunction,
    default_smoothing,
    estimate_direct,
    estimate_transfer_function,
    fit_gaussian,
    fit_raised_cosine,
    gaussian_response,
    magnitude_spectrum,
    normalize_energy,
    normalized_cross_correlation,
    raised_cosine_response,
)
from .forgery import (
    EditOp,
    GlobalEditOp,
    SpliceSpec,
    edit_donor,
    global_edit,
    random_splice,
    sample_edit_parameter,
    splice,
)
from .attack import (
    AttackConfig,
    apply_system,
    histogram_match,
    run_attack,
)
from .metrics import (
    DegenerateRegionError,
    MetricReport,
    auc_roc,
    delta_enl,
    enl,
    evaluate_pair,
    ms_ssim,
    residual_variance,
    ssim,
)
from .scene import raised_cosine_filter, simulate_pristine, smooth_reflectivity
from .experiment import ExperimentConfig, derive_seed, run_experiment
