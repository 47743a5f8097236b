"""Retrieval metrics, document ranking aggregation, and sensitivity sweeps.

Queries are routed through the memory hierarchy and gated; each surviving
hit's path confidence is folded by document into a ranking (no path objects;
``n_paths`` is the survivors' hit count), scored per query with Recall@k,
NDCG@k and average precision. A sweep embeds each distinct query text once,
builds the index once per mixing ratio and searches each query there once;
every (depth, temperature) cell weighs a depth prefix of those searches, one
row per grid cell, and the answer models of the cells of every ratio train
together in shared stacked descents, batched under ``_QA_STACK_BYTES``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timezone
from functools import cache

import numpy as np

from .confidence import GateConfig, entropy, filter_paths
from .corpus import MAX_DEPTH, Document, QAExample, Query, mix_corpora
from .embedder import EmbedderSpec, embed_layers
from .errors import ConfigError, EvalError, RoutingError, require_type
from .generator import TrainConfig, answer_params, descend, features, perturbations
from .memory import MemoryHierarchy, build
from .router import FusedContext, Retrieval, RouterConfig, assemble, route, search_layers

SCHEMA_VERSION = 1
AGG_MODES = ("max", "sum")
SWEEP_COLUMNS = ("depth", "temperature", "mix_ratio", "recall_at_k", "ndcg_at_k", "map",
                 "qa_accuracy", "routing_entropy")
SWEEP_CSV_HEADER = ",".join(SWEEP_COLUMNS)
# a batch of cells' stacked W, X, XS and ensemble softmax stays within this, or is one cell
_QA_STACK_BYTES = 1 << 22


@dataclass(frozen=True)
class DocRanking:
    query_id: int
    doc_ids: tuple[int, ...]
    scores: tuple[float, ...]


def aggregate_ranking(ctx: FusedContext, query_id: int, mode: str = "max") -> DocRanking:
    """Fold each hit's path confidence, its layer's weight times its ``within``, by document.

    max keeps the strongest path (length-neutral); sum piles up evidence and
    favors documents with many fine-grained units. A sum adds a document's
    confidences in descending order, as along ``ctx.paths`` (ties are equal floats).
    """
    if mode not in AGG_MODES:
        raise ConfigError(f"aggregation mode must be one of {AGG_MODES}, got {mode!r}")
    # a product of Python floats has the bits of numpy's, without an array per layer
    pairs = [(weight * within, hit.doc_id)
             for layer, weight in zip(ctx.retrieval.layers, ctx.weights.tolist(), strict=True)
             for hit, within in zip(layer.hits, layer.within.tolist(), strict=True)]
    if not pairs:
        raise EvalError("context has no retrieval paths to rank")
    by_doc: dict[int, float] = {}
    if mode == "max":
        for conf, doc_id in pairs:
            if conf > by_doc.get(doc_id, -math.inf):
                by_doc[doc_id] = conf
    else:
        for conf, doc_id in sorted(pairs, reverse=True):
            by_doc[doc_id] = by_doc.get(doc_id, 0.0) + conf
    doc_ids, scores = zip(*sorted(by_doc.items(), key=lambda item: (-item[1], item[0])))
    return DocRanking(query_id=query_id, doc_ids=doc_ids, scores=scores)


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
        require_type("k", self.k, "int")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.agg_mode not in AGG_MODES:
            raise ConfigError(f"agg_mode must be one of {AGG_MODES}, got {self.agg_mode!r}")
        # evaluation reads only the gate's threshold; a training setting here would be ignored
        default = GateConfig(tau_path=self.gate.tau_path)
        if self.gate != default:  # one tuple comparison per config; names only on failure
            ignored = [f.name for f in fields(GateConfig)
                       if getattr(self.gate, f.name) != getattr(default, f.name)]
            raise ConfigError(f"evaluation reads only the gate's tau_path; {', '.join(ignored)} "
                              "must keep their defaults")


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
    retrievals: list[Retrieval] | None = None,
) -> EvalReport:
    """Route, gate, rank, and score every query that has relevance judgments.

    Queries without judgments are counted as skipped, never averaged in. A query
    that routes nowhere (no indexable feature) raises ``RoutingError`` naming its id.
    ``retrievals``, aligned by position with ``queries``, are their searches of
    ``hier``, which are then only weighed; when None, each query is routed. A
    retrieval with other than ``hier.depth`` layers, or with more than
    ``k_per_layer`` hits in a layer, is a ``ValueError`` naming its query.
    """
    per_query = []
    bypassed = 0
    skipped = 0
    searched = [None] * len(queries) if retrievals is None else retrievals
    for query, r in sorted(zip(queries, searched, strict=True), key=lambda pair: pair[0].query_id):
        relevant = qrels.get(query.query_id)
        if not relevant:
            skipped += 1
            continue
        try:
            ctx = (route(hier, query.text, cfg.router) if r is None
                   else assemble(r.check(hier.depth, cfg.router.k_per_layer, query.query_id), cfg.router))
        except RoutingError as exc:
            raise RoutingError(f"query {query.query_id}: {exc}") from None
        gated = filter_paths(ctx, cfg.gate.tau_path)
        if gated.gate_bypassed:
            bypassed += 1
        ranking = aggregate_ranking(gated, query.query_id, cfg.agg_mode)
        per_query.append(
            {
                "query_id": query.query_id,
                "recall_at_k": recall_at_k(ranking, relevant, cfg.k),
                "ndcg_at_k": ndcg_at_k(ranking, relevant, cfg.k),
                "average_precision": average_precision(ranking, relevant),
                "routing_entropy": entropy(gated.weights),
                "n_paths": sum(len(layer.hits) for layer in gated.retrieval.layers),
                "gate_bypassed": gated.gate_bypassed,
            }
        )
    if not per_query:
        raise EvalError("no query had relevance judgments; nothing to evaluate")
    # a pairwise sum per contiguous row: the bits of one np.mean per metric
    recall, ndcg, ap, ent = np.mean([[row[metric] for row in per_query] for metric in (
        "recall_at_k", "ndcg_at_k", "average_precision", "routing_entropy")], axis=1).tolist()
    return EvalReport(
        k=cfg.k,
        n_evaluated=len(per_query),
        n_skipped=skipped,
        mean_recall_at_k=recall,
        mean_ndcg_at_k=ndcg,
        map=ap,
        routing_entropy_mean=ent,
        gate_bypassed_count=bypassed,
        per_query=per_query,
        config=_echo(cfg) | {"depth": hier.depth, "dim": hier.dim},
        corpus_sha256=hier.corpus_sha256,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


@dataclass(frozen=True)
class SweepGrid:
    depths: tuple[int, ...] = tuple(range(1, MAX_DEPTH + 1))
    temperatures: tuple[float, ...] = (0.5, 1.0, 1.2, 2.0)
    mix_ratios: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if not self.depths or not self.temperatures or not self.mix_ratios:
            raise ConfigError("every sweep axis needs at least one value")
        for depth in self.depths:
            require_type("depths", depth, "int")
        if any(not 1 <= d <= MAX_DEPTH for d in self.depths):
            raise ConfigError(f"depths must lie in [1, {MAX_DEPTH}], got {self.depths}")
        if any(not 0 < t < math.inf for t in self.temperatures):
            raise ConfigError(f"temperatures must be finite and positive, got {self.temperatures}")
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

    def to_csv(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(_csv_num(row[col]) for col in SWEEP_COLUMNS))
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
    seed: int | None = None,
    embedder_spec: EmbedderSpec = EmbedderSpec(),
    qa_dataset: list[QAExample] | None = None,
    qa_train: TrainConfig | None = None,
) -> SweepResult:
    """One evaluation per (depth, temperature, mix_ratio) cell.

    One index is built per ratio, at ``max(grid.depths)``, and every judged
    query (at ``base.router.k_per_layer``) and QA example (at
    ``qa_train.router.k_per_layer``) is searched there once, with its text
    embedded for layers 1..max(grid.depths) once per sweep, the first time a
    ratio's search needs it. A depth-d cell
    weighs the depth-d prefix of those searches on the index's first d layers,
    since neither a layer nor its hits depend on the build depth or the
    temperature. Every ratio's corpus is mixed before the first build, with a
    fixed seed (0 unless given), so every cell at the same ratio sees the same
    corpus; a mix the sources cannot give is a ``ConfigError`` naming its
    ratio. ``qa_dataset`` (non-empty) and ``qa_train`` come together; then
    each cell trains on its prefix of the QA searches, from initial
    parameters and ensemble perturbations drawn once per sweep, before the
    first build. The cells of every ratio join one batch in grid order, and
    a batch trains in one ``descend`` once it holds as many cells as stack
    within ``_QA_STACK_BYTES`` (at least one), and after the last ratio.
    Each depth's prefixes are made once per ratio, and each temperature's
    configs once per sweep. A failing cell records its error and the sweep
    continues; a failed build, embedding or search fails every cell of its
    ratio with its error.
    """
    if corpus_b is None and (
        mix_size is not None or seed is not None or any(r > 0 for r in grid.mix_ratios)
    ):
        raise ConfigError("mix ratios above 0, mix_size and seed need a second corpus")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if (qa_dataset is None) != (qa_train is None):
        raise ConfigError("qa_dataset and qa_train must be given together")
    if mix_size is not None and mix_size < 1:
        raise ConfigError(f"mix_size must be >= 1, got {mix_size}")
    if qa_dataset is not None and not qa_dataset:
        raise ConfigError("qa_dataset is empty")
    judged = [q for q in queries if qrels.get(q.query_id)]
    qa = qa_dataset or []
    if qa:
        params = answer_params(qa, embedder_spec.dim, qa_train.gate.seed)  # or a ConfigError
        noise = perturbations(qa, qa_train.gate, embedder_spec.dim)
        n, width, v = len(qa), 2 * embedder_spec.dim, params.vocab_size
        k_count = 0 if noise is None else noise.shape[1]
        cell_bytes = 8 * (v * width + n * width + n * k_count * (width + v))
        batch_size = max(1, _QA_STACK_BYTES // cell_bytes)
    corpora = {ratio: corpus_a for ratio in grid.mix_ratios}
    if corpus_b is not None:
        size = mix_size if mix_size is not None else min(len(corpus_a), len(corpus_b))
        for ratio in corpora:
            try:
                corpora[ratio] = mix_corpora([(corpus_a, "source-a"), (corpus_b, "source-b")],
                                             ratio, size, 0 if seed is None else seed)
            except ValueError as exc:  # too few documents or colliding ids: the input's fault
                raise ConfigError(f"mix ratio {ratio}: {exc}") from None
    by_temp = {t: (replace(base, router=replace(base.router, temperature=t)),
                   replace(qa_train, router=replace(qa_train.router, temperature=t)) if qa else None)
               for t in grid.temperatures}
    layer_nos = range(1, max(grid.depths) + 1)
    encodings: dict[str, np.ndarray] = {}  # a text's rows for every built layer, on first need

    def searched(hier: MemoryHierarchy, text: str, k: int) -> Retrieval:
        """``retrieve``, with each text embedded once per sweep."""
        if text not in encodings:
            encodings[text] = embed_layers(text, layer_nos, embedder_spec)
        return search_layers(hier, encodings[text], k)

    def fit(batch: list[tuple[dict, np.ndarray]], golds: np.ndarray) -> None:
        """Train a batch of cells in one descent; if it raises, each cell alone records its error."""
        try:
            results = descend(params, np.stack([X for _, X in batch]), noise, golds, qa_train)
        except Exception as exc:
            if len(batch) > 1:
                for cell in batch:
                    fit([cell], golds)
            else:
                batch[0][0]["error"] = _error(exc)
            return
        for (row, _), result in zip(batch, results):
            row["qa_accuracy"] = result.accuracy

    rows = []
    by_ratio: dict[float, list[dict]] = {}
    for depth, temp, ratio in grid.cells():
        row = dict.fromkeys(SWEEP_COLUMNS)
        row.update(depth=depth, temperature=temp, mix_ratio=ratio)
        rows.append(row)
        by_ratio.setdefault(ratio, []).append(row)
    batch = []  # cells of any ratio, waiting for one descent
    for ratio, ratio_rows in by_ratio.items():
        try:
            full = build(corpora[ratio], embedder_spec, max(grid.depths))
            eval_searches = [searched(full, q.text, base.router.k_per_layer) for q in judged]
            qa_searches = [searched(full, ex.query.text, qa_train.router.k_per_layer) for ex in qa]
            by_depth = {d: (replace(full, layers=full.layers[:d]), [r.prefix(d) for r in eval_searches],
                            [r.prefix(d) for r in qa_searches]) for d in grid.depths}
        except Exception as exc:  # a failed build, embedding or search fails every cell of its ratio
            for row in ratio_rows:
                row["error"] = _error(exc)
            continue
        for row in ratio_rows:
            hier, eval_prefixes, qa_prefixes = by_depth[row["depth"]]
            cfg, tcfg = by_temp[row["temperature"]]
            try:
                report = evaluate(hier, judged, qrels, cfg, eval_prefixes)
                row["recall_at_k"] = report.mean_recall_at_k
                row["ndcg_at_k"] = report.mean_ndcg_at_k
                row["map"] = report.map
                row["routing_entropy"] = report.routing_entropy_mean
                if qa:
                    X, golds = features(qa, hier, tcfg, params.vocab_size, qa_prefixes)
                    batch.append((row, X))
                    if len(batch) == batch_size:
                        fit(batch, golds)
                        batch = []
            except Exception as exc:  # record and continue; one bad cell must not kill the sweep
                row["error"] = _error(exc)
    if batch:
        fit(batch, golds)
    return SweepResult(rows=rows)


def _echo(cfg) -> dict:
    """``asdict`` of a config whose leaves are immutable, without its deep copy."""
    return {name: value if _field_names(type(value := getattr(cfg, name))) is None else _echo(value)
            for name in _field_names(type(cfg))}


@cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """A dataclass's field names, read once per class; None for any other class."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"
