"""Tomographic reconstruction of quantum states from generalized quadrature marginals."""

__version__ = "0.1.0"

from .errors import TomographyError
from .states import (
    Coherent,
    Custom,
    EvenCat,
    FockDensityMatrix,
    GaussianTwoMode,
    NumberState,
    ProductState,
    Thermal,
    TwoModeCat,
    Vacuum,
    density_matrix,
    wigner,
)
from .marginals import (
    QuadratureSetting,
    Tomogram,
    circle_settings,
    marginal_analytic,
    marginal_numeric,
    tabulate_tomogram,
)
from .kernels import KernelScale, PolarGrid
from .reconstruct import (
    ReconstructionConfig,
    ReconstructionReport,
    fidelity,
    reconstruct_from_samples,
    reconstruct_from_tomogram,
    reconstruct_homodyne,
    trace_distance,
    wigner_from_tomogram,
)
from .twomode import (
    TwoModeConfig,
    TwoModeSetting,
    TwoModeTomogram,
    partial_trace,
    reconstruct_two_mode,
)
from .measure_sim import (
    HeterodyneSettingTwoMode,
    SampleBatch,
    SqueezerSetting,
    heterodyne_to_setting,
    importance_schedule,
    sample_campaign,
    sample_marginal,
    squeezer_to_setting,
)
