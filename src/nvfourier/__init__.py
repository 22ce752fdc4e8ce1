"""Fourier magnetic imaging of single NV centers: forward model, K-space
acquisition with realistic disturbances, real-space reconstruction and
sensitivity metrology."""

__version__ = "0.1.0"

from .acquisition import (
    AcquisitionPlan,
    CurrentNoiseModel,
    DriftModel,
    KSpaceRecord,
    load_record,
    run_sweep,
    save_record,
)
from .config import RunConfig, build_config, load_config
from .field_model import (
    CalibrationSample,
    FieldSample,
    MicrowireModel,
    NvAxis,
    WireFitReport,
    calibrate_wire,
    field_at,
    gradient_at,
    odmr_shift,
    project_on_axis,
    sample_field,
)
from .metrology import SensitivityReport, full_sensitivity_report
from .reconstruction import (
    CosineFit,
    PeakFit,
    RealSpaceProfile,
    disambiguate_alias,
    fit_cosine,
    fit_lorentzian,
    fourier_reconstruct,
    sideband_analysis,
)
from .spin_dynamics import (
    EchoSequence,
    EchoSignal,
    GradientWaveform,
    NvCenter,
    echo_signal,
    phase_efficiency,
    sample_counts,
)
