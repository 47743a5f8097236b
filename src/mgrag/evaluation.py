"""Retrieval metrics, document ranking aggregation, and sensitivity sweeps.

Queries are routed through the memory hierarchy, gated, and the surviving
retrieval paths are collapsed to a document ranking scored per query with
Recall@k, NDCG@k, and average precision. Sweep runners rebuild the index per
depth and remix the corpus per mixing ratio, recording one row per grid cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from .confidence import GateConfig, entropy, filter_paths
from .corpus import Document, Query, mix_corpora
from .embedder import EmbedderSpec
from .errors import ConfigError, EvalError
from .generator import QAExample, TrainConfig, qa_accuracy, train
from .memory import MemoryHierarchy, build
from .router import FusedContext, RouterConfig, route

SCHEMA_VERSION = 1
AGG_MODES = ("max", "sum")
SWEEP_CSV_HEADER = "depth,temperature,mix_ratio,recall_at_k,ndcg_at_k,map,qa_accuracy,routing_entropy"


@dataclass(frozen=True)
class DocRanking:
    query_id: int
    doc_ids: tuple[int, ...]
    scores: tuple[float, ...]


def aggregate_ranking(ctx: FusedContext, query_id: int, mode: str = "max") -> DocRanking:
    """Collapse retrieval paths to one score per document.

    max keeps the strongest path (length-neutral); sum piles up evidence and
    favors documents with many fine-grained units.
    """
    if mode not in AGG_MODES:
        raise ConfigError(f"aggregation mode must be one of {AGG_MODES}, got {mode!r}")
    if not ctx.paths:
        raise EvalError("context has no retrieval paths to rank")
    by_doc: dict[int, float] = {}
    for path in ctx.paths:
        if mode == "max":
            by_doc[path.doc_id] = max(by_doc.get(path.doc_id, -math.inf), path.path_confidence)
        else:
            by_doc[path.doc_id] = by_doc.get(path.doc_id, 0.0) + path.path_confidence
    ranked = sorted(by_doc.items(), key=lambda item: (-item[1], item[0]))
    return DocRanking(
        query_id=query_id,
        doc_ids=tuple(doc_id for doc_id, _ in ranked),
        scores=tuple(score for _, score in ranked),
    )


def _check_metric_args(relevant: set[int], k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ValueError("relevant set is empty")


def recall_at_k(ranking: DocRanking, relevant: set[int], k: int) -> float:
    _check_metric_args(relevant, k)
    top = set(ranking.doc_ids[:k])
    return len(top & relevant) / len(relevant)


def ndcg_at_k(ranking: DocRanking, relevant: set[int], k: int) -> float:
    """Binary-gain NDCG: DCG over the top k against the ideal front-loaded list."""
    _check_metric_args(relevant, k)
    dcg = 0.0
    for i, doc_id in enumerate(ranking.doc_ids[:k], start=1):
        if doc_id in relevant:
            dcg += 1.0 / math.log2(i + 1)
    ideal = min(len(relevant), k)
    idcg = sum(1.0 / math.log2(i + 1) for i in range(1, ideal + 1))
    return dcg / idcg


def average_precision(ranking: DocRanking, relevant: set[int]) -> float:
    if not relevant:
        raise ValueError("relevant set is empty")
    hits = 0
    total = 0.0
    for i, doc_id in enumerate(ranking.doc_ids, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


@dataclass(frozen=True)
class EvalConfig:
    k: int = 5
    router: RouterConfig = field(default_factory=RouterConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    agg_mode: str = "max"

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.agg_mode not in AGG_MODES:
            raise ConfigError(f"agg_mode must be one of {AGG_MODES}, got {self.agg_mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalReport:
    k: int
    n_evaluated: int
    n_skipped: int
    mean_recall_at_k: float
    mean_ndcg_at_k: float
    map: float
    routing_entropy_mean: float
    gate_bypassed_count: int
    per_query: list[dict]
    config: dict
    corpus_sha256: str
    timestamp: str
    qa_accuracy: float | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def evaluate(
    hier: MemoryHierarchy,
    queries: list[Query],
    qrels: dict[int, set[int]],
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Route, gate, rank, and score every query that has relevance judgments.

    Queries without judgments are counted as skipped, never averaged in.
    """
    per_query = []
    recalls = []
    ndcgs = []
    aps = []
    entropies = []
    bypassed = 0
    skipped = 0
    for query in sorted(queries, key=lambda q: q.query_id):
        relevant = qrels.get(query.query_id)
        if not relevant:
            skipped += 1
            continue
        ctx = route(hier, query.text, cfg.router)
        gated = filter_paths(ctx, cfg.gate.tau_path)
        if gated.gate_bypassed:
            bypassed += 1
        ranking = aggregate_ranking(gated, query.query_id, cfg.agg_mode)
        r = recall_at_k(ranking, relevant, cfg.k)
        n = ndcg_at_k(ranking, relevant, cfg.k)
        a = average_precision(ranking, relevant)
        h = entropy(gated.weights)
        recalls.append(r)
        ndcgs.append(n)
        aps.append(a)
        entropies.append(h)
        per_query.append(
            {
                "query_id": query.query_id,
                "recall_at_k": r,
                "ndcg_at_k": n,
                "average_precision": a,
                "routing_entropy": h,
                "n_paths": len(gated.paths),
                "gate_bypassed": gated.gate_bypassed,
            }
        )
    if not per_query:
        raise EvalError("no query had relevance judgments; nothing to evaluate")
    config_echo = cfg.to_dict()
    config_echo["depth"] = hier.depth
    config_echo["dim"] = hier.dim
    return EvalReport(
        k=cfg.k,
        n_evaluated=len(per_query),
        n_skipped=skipped,
        mean_recall_at_k=float(np.mean(recalls)),
        mean_ndcg_at_k=float(np.mean(ndcgs)),
        map=float(np.mean(aps)),
        routing_entropy_mean=float(np.mean(entropies)),
        gate_bypassed_count=bypassed,
        per_query=per_query,
        config=config_echo,
        corpus_sha256=hier.manifest.corpus_sha256,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


@dataclass(frozen=True)
class SweepGrid:
    depths: tuple[int, ...] = (1, 2, 3, 4, 5)
    temperatures: tuple[float, ...] = (0.5, 1.0, 1.2, 2.0)
    mix_ratios: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if not self.depths or not self.temperatures or not self.mix_ratios:
            raise ConfigError("every sweep axis needs at least one value")
        if any(not 1 <= d <= 5 for d in self.depths):
            raise ConfigError(f"depths must lie in [1, 5], got {self.depths}")
        if any(not t > 0 for t in self.temperatures):
            raise ConfigError(f"temperatures must be positive, got {self.temperatures}")
        if any(not 0.0 <= r <= 1.0 for r in self.mix_ratios):
            raise ConfigError(f"mix ratios must lie in [0, 1], got {self.mix_ratios}")

    def cells(self) -> list[tuple[int, float, float]]:
        return [
            (depth, temp, ratio)
            for depth in self.depths
            for temp in self.temperatures
            for ratio in self.mix_ratios
        ]


@dataclass
class SweepResult:
    rows: list[dict]
    grid: SweepGrid

    def to_csv(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        for row in self.rows:
            lines.append(
                ",".join(
                    _csv_num(row[col])
                    for col in (
                        "depth",
                        "temperature",
                        "mix_ratio",
                        "recall_at_k",
                        "ndcg_at_k",
                        "map",
                        "qa_accuracy",
                        "routing_entropy",
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"rows": self.rows}, sort_keys=True, indent=2)


def _csv_num(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def sweep(
    grid: SweepGrid,
    corpus_a: list[Document],
    queries: list[Query],
    qrels: dict[int, set[int]],
    base: EvalConfig = EvalConfig(),
    corpus_b: list[Document] | None = None,
    mix_size: int | None = None,
    seed: int = 0,
    embedder_spec: EmbedderSpec = EmbedderSpec(),
    qa_dataset: list[QAExample] | None = None,
    qa_train: TrainConfig | None = None,
) -> SweepResult:
    """One evaluation per (depth, temperature, mix_ratio) cell.

    The index is rebuilt per (depth, ratio) and cached across temperatures.
    Mixing uses a fixed seed so every cell at the same ratio sees the same
    corpus. A failing cell records its error and the sweep continues.
    """
    if corpus_b is None and (mix_size is not None or any(r > 0 for r in grid.mix_ratios)):
        raise ConfigError("mix ratios above 0 and mix_size need a second corpus")
    hier_cache: dict[tuple[int, float], MemoryHierarchy] = {}
    rows = []
    for depth, temp, ratio in grid.cells():
        row = {
            "depth": depth,
            "temperature": temp,
            "mix_ratio": ratio,
            "recall_at_k": None,
            "ndcg_at_k": None,
            "map": None,
            "qa_accuracy": None,
            "routing_entropy": None,
        }
        try:
            key = (depth, ratio)
            if key not in hier_cache:
                if corpus_b is None:
                    corpus = corpus_a
                else:
                    size = mix_size if mix_size is not None else min(len(corpus_a), len(corpus_b))
                    corpus = mix_corpora(
                        [(corpus_a, "source-a"), (corpus_b, "source-b")], ratio, size, seed
                    )
                hier_cache[key] = build(corpus, embedder_spec, depth)
            hier = hier_cache[key]
            cfg = replace(base, router=replace(base.router, temperature=temp))
            report = evaluate(hier, queries, qrels, cfg)
            row["recall_at_k"] = report.mean_recall_at_k
            row["ndcg_at_k"] = report.mean_ndcg_at_k
            row["map"] = report.map
            row["routing_entropy"] = report.routing_entropy_mean
            if qa_dataset is not None and qa_train is not None:
                tcfg = replace(qa_train, router=replace(qa_train.router, temperature=temp))
                result = train(qa_dataset, hier, tcfg)
                row["qa_accuracy"] = qa_accuracy(result.params, qa_dataset, hier, tcfg)
        except Exception as exc:  # record and continue; one bad cell must not kill the sweep
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return SweepResult(rows=rows, grid=grid)
