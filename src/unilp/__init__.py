"""Link prediction that adapts to each graph through an in-context set of
example links, plus the classic heuristics and exact combinatorial checks
used to evaluate it. See the README for the full tour."""

from .errors import ConfigError, DataError, NumericError, UnilpError
from .graphs import (
    DataSplit,
    Graph,
    LatticeSpec,
    SbmSpec,
    generate_lattice,
    generate_sbm,
    load_edge_list,
    sample_nonedges,
    save_edge_list,
    split_edges,
)
from .heuristics import Heuristic, score as heuristic_score, score_batch as heuristic_scores
from .labeling import LabelVocab, LabeledSubgraph, drnl, drnl_plus, labeled_subgraph
from .autodiff import Optimizer, Tape, Tensor, load_checkpoint, save_checkpoint
from .model import (
    MODE_ICL,
    MODE_NO_CONTEXT,
    ContextSet,
    ModelConfig,
    forward,
    init_params,
    model_gradient_check,
)
from .training import LinkDataset, TrainConfig, finetune, pretrain, sample_context, transfer_probe
from .evaluation import (
    EvalReport,
    PatternStats,
    context_size_sweep,
    evaluate_model,
    hits_at_k,
    pattern_stats,
    perturb_context,
    score_pairs,
    verify_connectivity_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "NumericError", "UnilpError",
    "DataSplit", "Graph", "LatticeSpec", "SbmSpec",
    "generate_lattice", "generate_sbm", "load_edge_list", "sample_nonedges",
    "save_edge_list", "split_edges",
    "Heuristic", "heuristic_score", "heuristic_scores",
    "LabelVocab", "LabeledSubgraph", "drnl", "drnl_plus", "labeled_subgraph",
    "Optimizer", "Tape", "Tensor", "load_checkpoint", "save_checkpoint",
    "MODE_ICL", "MODE_NO_CONTEXT", "ContextSet", "ModelConfig",
    "forward", "init_params", "model_gradient_check",
    "LinkDataset", "TrainConfig", "finetune", "pretrain", "sample_context",
    "transfer_probe",
    "EvalReport", "PatternStats", "context_size_sweep", "evaluate_model",
    "hits_at_k", "pattern_stats", "perturb_context", "score_pairs",
    "verify_connectivity_pattern",
    "__version__",
]
