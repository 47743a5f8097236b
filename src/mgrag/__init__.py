"""Multi-granularity retrieval with confidence-controlled generation.

A corpus is indexed at up to five granularity layers (document, paragraph,
sentence, and two sliding-window sizes). Queries are routed across layers by
a temperature softmax, per-layer readouts are fused into one context vector,
low-confidence retrieval paths can be gated out, and a small conditional
answer model trains under a joint loss of negative log-likelihood plus
entropy and predictive-variance penalties.
"""

from .confidence import GateConfig, entropy, filter_paths
from .corpus import (
    keyword_eval_suite,
    read_cisi_documents,
    read_cisi_qrels,
    read_cisi_queries,
    segment,
    synthesize_corpus,
)
from .embedder import EmbedderSpec
from .errors import (
    BuildError,
    ConfigError,
    EvalError,
    IndexFormatError,
    MgragError,
    ParseError,
    RoutingError,
)
from .evaluation import EvalConfig, SweepGrid, evaluate, sweep
from .generator import TrainConfig, build_toy_qa, gradient_check, init_params, qa_accuracy, train
from .memory import build, search_layer
from .router import RouterConfig, route, routing_weights

__version__ = "0.1.0"

# the names the README and demos use, plus the error types; everything else
# is imported from its module (mgrag.corpus, mgrag.generator, ...)
__all__ = [
    "BuildError",
    "ConfigError",
    "EmbedderSpec",
    "EvalConfig",
    "EvalError",
    "GateConfig",
    "IndexFormatError",
    "MgragError",
    "ParseError",
    "RouterConfig",
    "RoutingError",
    "SweepGrid",
    "TrainConfig",
    "build",
    "build_toy_qa",
    "entropy",
    "evaluate",
    "filter_paths",
    "gradient_check",
    "init_params",
    "keyword_eval_suite",
    "qa_accuracy",
    "read_cisi_documents",
    "read_cisi_qrels",
    "read_cisi_queries",
    "route",
    "routing_weights",
    "search_layer",
    "segment",
    "sweep",
    "synthesize_corpus",
    "train",
]
