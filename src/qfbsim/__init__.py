"""Bit-exact model of a low-latency qubit-readout feedback loop.

The package couples a cycle-accurate fixed-point model of an FPGA
demodulation/discrimination pipeline with a stochastic synthesizer of
the dispersive-readout waveform it digitizes, and orchestrates both
into a reproducible two-measurement reset experiment with analytic
cross-checks.
"""

from .experiment import (
    CalibrationError,
    ExperimentConfig,
    ExperimentReport,
    FeedbackComparison,
    ReadoutFidelity,
    calibrate_noise,
    noiseless_filtered_means,
    optimize_threshold,
    oracle_probabilities,
    overlap_probability,
    readout_fidelity,
    run_feedback_comparison,
)
from .fxp import ADC_LSB_VOLTS, ADC_WIDTH, ConfigError, FxpSample, quantize
from .histo import HistogramRam
from .latency import BUDGET, tau_eltot, total_feedback_latency
from .pipeline import PipelineConfig, run_stream, run_stream_batch
from .sigmodel import (
    DeviceParams,
    PulseSchedule,
    QubitTrajectory,
    synthesize_adc_stream,
    thermal_population,
)

__version__ = "0.1.0"

__all__ = [
    "ADC_LSB_VOLTS",
    "ADC_WIDTH",
    "BUDGET",
    "CalibrationError",
    "ConfigError",
    "DeviceParams",
    "ExperimentConfig",
    "ExperimentReport",
    "FeedbackComparison",
    "FxpSample",
    "HistogramRam",
    "PipelineConfig",
    "PulseSchedule",
    "QubitTrajectory",
    "ReadoutFidelity",
    "calibrate_noise",
    "noiseless_filtered_means",
    "optimize_threshold",
    "oracle_probabilities",
    "overlap_probability",
    "quantize",
    "readout_fidelity",
    "run_feedback_comparison",
    "run_stream",
    "run_stream_batch",
    "synthesize_adc_stream",
    "tau_eltot",
    "thermal_population",
    "total_feedback_latency",
    "__version__",
]
