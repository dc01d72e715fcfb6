"""The paper's §3.1 metric definitions, timelines, and summary statistics."""

from .definitions import (
    PtpMetrics,
    application_availability,
    early_bird_fraction,
    overhead,
    perceived_bandwidth,
)
from .statistics import (SampleSummary, ci_halfwidth, pruned_mean, summarize,
                         trim_outliers)
from .timeline import PartitionTimeline

__all__ = [
    "PtpMetrics",
    "application_availability",
    "early_bird_fraction",
    "overhead",
    "perceived_bandwidth",
    "SampleSummary",
    "ci_halfwidth",
    "pruned_mean",
    "summarize",
    "trim_outliers",
    "PartitionTimeline",
]
