"""Deterministic simulator and estimator for a single-emitter scanning
optical indoor positioning system."""

__version__ = "0.2.0"

from .channel import (
    ChannelParams,
    beam_radius,
    intensity,
    noise_sigma_for_snr,
    received_power_on_axis,
)
from .estimator import (
    PositionEstimate,
    PositionError,
    estimate_position,
    invert_distance,
    position_error,
    select_beam,
)
from .experiments import (
    ExperimentConfig,
    RunResult,
    compute_cdf,
    percentile,
    run_cdf_experiment,
    run_snr_sweep,
    run_sync_test,
    sample_positions,
)
from .geometry import (
    BeamGrid,
    ReceiverState,
    Room,
    build_beam_grid,
    direction_from_angles,
    in_fov,
    incidence_cosine,
    spherical_from_direction,
)
from .orientation import (
    LaplaceParams,
    OrientationConfig,
    laplace_sample,
    normal_from_euler,
    normal_from_spherical,
    sample_orientation_angles,
    sample_receiver_normal,
)
from .scan import (
    MeasurementTrace,
    ScanPlan,
    apply_timing_offset,
    make_pilot,
    realign_with_pilot,
    run_scan,
)

__all__ = [
    "__version__",
    "BeamGrid",
    "ChannelParams",
    "ExperimentConfig",
    "LaplaceParams",
    "MeasurementTrace",
    "OrientationConfig",
    "PositionEstimate",
    "PositionError",
    "ReceiverState",
    "Room",
    "RunResult",
    "ScanPlan",
    "apply_timing_offset",
    "beam_radius",
    "build_beam_grid",
    "compute_cdf",
    "direction_from_angles",
    "estimate_position",
    "in_fov",
    "incidence_cosine",
    "intensity",
    "invert_distance",
    "laplace_sample",
    "make_pilot",
    "noise_sigma_for_snr",
    "normal_from_euler",
    "normal_from_spherical",
    "percentile",
    "position_error",
    "realign_with_pilot",
    "received_power_on_axis",
    "run_cdf_experiment",
    "run_scan",
    "run_snr_sweep",
    "run_sync_test",
    "sample_orientation_angles",
    "sample_positions",
    "sample_receiver_normal",
    "select_beam",
    "spherical_from_direction",
]
