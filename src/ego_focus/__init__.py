"""Egocentric motion-focus maps from streamed camera poses."""

from .errors import (
    ConfigError,
    EgoFocusError,
    InvalidPoseError,
    PlanError,
    StreamDiscontinuityError,
    StreamFormatError,
)
from .geometry import (
    CameraPose,
    GravityYpr,
    Intrinsics,
    PoseBatch,
    RigidTransform,
    compose_gravity_ypr,
    orthonormalize,
    project_pinhole_many,
    rotation_about_gravity,
    rotation_angle,
)
from .motion import (
    FocusConfig,
    FocusMap,
    FocusPoint,
    MotionStream,
    modulate_depth,
    render_focus_map,
)
from .stitching import (
    BoundaryEvent,
    BoundaryResidual,
    StitchState,
    WindowPlan,
    anchor_correction,
    overlap_residual,
    plan_windows,
    stitch_step,
)
from .simulate import (
    SCENARIOS,
    ScenarioSpec,
    TrajectoryTruth,
    generate_trajectory,
    iter_trajectory,
    oracle_focus_point,
    perturb_batches,
)
from .pipeline import RunConfig, RunSummary, iter_windows, run_stream, run_stream_batches
from .benchmark import bench
from .streams import (
    PoseStreamRecord,
    load_intrinsics,
    load_pose_batches,
    load_pose_stream,
    read_depth_map,
    read_focus_map_float,
    read_pgm,
    write_depth_map,
    write_pose_stream,
)

__version__ = "0.1.0"
