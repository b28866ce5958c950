"""Dynamic graph recommendation with temporal edge weighting and prompt-graph fine-tuning.

The package trains a linear-propagation collaborative filtering model on a
historical interaction graph, then adapts it to later time slots without
retraining the embedding table: recent edges are injected as a prompt graph
for a single forward pass, and a small learnable sigmoid gate is fit on each
new snapshot. A sliding-window interpolation blends the pre-trained table
with recently fine-tuned ones between snapshots.
"""

__version__ = "0.1.0"

from dynrec.config import RunConfig, parse_config
from dynrec.data import (
    InteractionGraph,
    SnapshotSeries,
    Vocabulary,
    build_graph,
    ingest_interactions,
    segment_snapshots,
)
from dynrec.dynamics import run_dynamic, run_frozen
from dynrec.training import pretrain
from dynrec.prompt import GateParams, build_prompt_graph, finetune

__all__ = [
    "GateParams",
    "InteractionGraph",
    "RunConfig",
    "SnapshotSeries",
    "Vocabulary",
    "build_graph",
    "build_prompt_graph",
    "finetune",
    "ingest_interactions",
    "parse_config",
    "pretrain",
    "run_dynamic",
    "run_frozen",
    "segment_snapshots",
]
