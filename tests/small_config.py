"""The small engine config most tests run at: d = d_e = 16, 8 keypoints and
32-wide FFNs, so a frame costs milliseconds."""
from dstrack.config import EngineConfig

SMALL = EngineConfig(d=16, d_e=16, keypoint_count=8, oks_kappas=(0.08,) * 8,
                     ffn_hidden=32)
