"""Link per-frame multi-person pose detections into keypoint tracks and score them."""

__version__ = "0.1.0"

from .model import (
    Box,
    Detections,
    Frame,
    VideoSequence,
    filter_detections,
    load_sequence,
    save_sequence,
)
from .similarity import (
    CostMatrix,
    SimilarityCriterion,
    build_cost_matrix,
)
from .linking import (
    Assignment,
    KernelMemo,
    LinkerConfig,
    greedy_assign,
    hungarian_assign,
    link_frame_pair,
    track_video,
    track_video_with_stats,
)
from .metrics import (
    EvalReport,
    evaluate,
    evaluate_map,
    evaluate_mot,
    match_poses_frame,
    match_sequence,
    sweep_threshold,
)
from .oracles import apply_oracle, perfect_association, perfect_keypoints
from .synth import (
    MotionModel,
    NoiseModel,
    OcclusionModel,
    ScenarioConfig,
    corrupt_to_predictions,
    generate_ground_truth,
    generate_scenario,
)

__all__ = [
    "Box", "Detections", "Frame", "VideoSequence", "filter_detections", "load_sequence", "save_sequence",
    "CostMatrix", "SimilarityCriterion", "build_cost_matrix",
    "Assignment", "KernelMemo", "LinkerConfig", "greedy_assign", "hungarian_assign", "link_frame_pair",
    "track_video", "track_video_with_stats",
    "EvalReport", "evaluate", "evaluate_map", "evaluate_mot", "match_poses_frame", "match_sequence",
    "sweep_threshold",
    "apply_oracle", "perfect_association", "perfect_keypoints",
    "MotionModel", "NoiseModel", "OcclusionModel", "ScenarioConfig", "corrupt_to_predictions",
    "generate_ground_truth", "generate_scenario",
]
