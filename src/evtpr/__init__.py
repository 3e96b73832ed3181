"""Event-camera representations, dataset windowing arithmetic, and forward
decoding kernels for arbitrary-scale video frame interpolation and upscaling."""

from .errors import FormatError, InvalidInputError, NumericError
from .events import (
    Event,
    EventStream,
    IntensityFrame,
    log_view,
    polarity_integral,
    reconstruct_log_intensity,
    simulate_events,
)
from .representations import (
    GranularitySpec,
    TemporalPyramid,
    VoxelGrid,
    build_tpr,
    build_voxel_grid,
    tpr_granularity,
)
from .dataset import (
    CropPlan,
    WindowPlan,
    downsample_bicubic,
    normalize_times,
    plan_crop,
    plan_windows,
    sample_scale,
)
from .metrics import MetricReport, psnr, rgb_to_y, ssim
from .pipeline import (
    PipelineParams,
    RunReport,
    charbonnier_loss,
    init_pipeline_params,
    pipeline_forward,
)
from .kernels import PipelineConfig

__version__ = "0.1.0"

__all__ = [
    "Event", "EventStream", "IntensityFrame", "log_view", "simulate_events",
    "polarity_integral", "reconstruct_log_intensity",
    "VoxelGrid", "TemporalPyramid", "GranularitySpec",
    "build_voxel_grid", "build_tpr", "tpr_granularity",
    "WindowPlan", "CropPlan", "plan_windows", "sample_scale", "plan_crop",
    "downsample_bicubic", "normalize_times",
    "MetricReport", "rgb_to_y", "psnr", "ssim",
    "PipelineConfig", "PipelineParams", "RunReport",
    "init_pipeline_params", "pipeline_forward", "charbonnier_loss",
    "InvalidInputError", "FormatError", "NumericError",
]
