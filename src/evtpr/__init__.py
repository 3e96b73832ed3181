"""Event-camera representations, dataset windowing arithmetic, and forward
decoding kernels for arbitrary-scale video frame interpolation and upscaling."""

from .errors import FormatError, InvalidInputError, NumericError
from .events import (
    EventStream,
    IntensityFrame,
    log_view,
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
from .dataset import WindowPlan, downsample_bicubic, plan_windows
from .metrics import MetricReport, psnr, rgb_to_y, ssim
from .pipeline import (
    PipelineParams,
    RunReport,
    init_pipeline_params,
    pipeline_forward,
)
from .kernels import PipelineConfig

__version__ = "0.1.0"

__all__ = [
    "EventStream", "IntensityFrame", "log_view", "simulate_events",
    "reconstruct_log_intensity",
    "VoxelGrid", "TemporalPyramid", "GranularitySpec",
    "build_voxel_grid", "build_tpr", "tpr_granularity",
    "WindowPlan", "plan_windows", "downsample_bicubic",
    "MetricReport", "rgb_to_y", "psnr", "ssim",
    "PipelineConfig", "PipelineParams", "RunReport",
    "init_pipeline_params", "pipeline_forward",
    "InvalidInputError", "FormatError", "NumericError",
]
