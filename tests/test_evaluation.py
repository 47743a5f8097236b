from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict, replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import mgrag.evaluation
import mgrag.generator
import mgrag.router
from mgrag.confidence import GateConfig, filter_paths
from mgrag.corpus import (
    Document,
    QAExample,
    Query,
    keyword_eval_suite,
    mix_corpora,
    synthesize_corpus,
)
from mgrag.embedder import EmbedderSpec, embed, embed_layers
from mgrag.errors import ConfigError, EvalError
from mgrag.evaluation import (
    SWEEP_COLUMNS,
    SWEEP_CSV_HEADER,
    DocRanking,
    EvalConfig,
    SweepGrid,
    aggregate_ranking,
    average_precision,
    evaluate,
    ndcg_at_k,
    recall_at_k,
    SweepResult,
    sweep,
)
from mgrag.generator import TrainConfig, build_toy_qa, features, perturbations, train
from mgrag.memory import Hit, build
from mgrag.router import RetrievalPath, RouterConfig, route, search_layers

# --- reference metrics, written straight off the definitions -------------------------


def _ref_recall(ranked, relevant, k):
    return len(set(ranked[:k]) & relevant) / len(relevant)


def _ref_dcg(gains):
    return sum(g / math.log2(i + 2) for i, g in enumerate(gains))


def _ref_ndcg(ranked, relevant, k):
    gains = [1.0 if d in relevant else 0.0 for d in ranked[:k]]
    ideal = [1.0] * min(len(relevant), k)
    return _ref_dcg(gains) / _ref_dcg(ideal)


def _ref_ap(ranked, relevant):
    hits, total = 0, 0.0
    for i, d in enumerate(ranked, start=1):
        if d in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def _ranking(doc_ids):
    n = len(doc_ids)
    return DocRanking(query_id=1, doc_ids=tuple(doc_ids), scores=tuple(1.0 - i / n for i in range(n)))


def test_metrics_match_reference_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 30))
        ranked = list(rng.permutation(np.arange(1, n + 1)).astype(int))
        n_rel = int(rng.integers(1, n + 1))
        relevant = set(rng.choice(np.arange(1, n + 1), size=n_rel, replace=False).astype(int))
        k = int(rng.integers(1, n + 2))
        ranking = _ranking(ranked)
        assert recall_at_k(ranking, relevant, k) == pytest.approx(
            _ref_recall(ranked, relevant, k), abs=1e-12
        )
        assert ndcg_at_k(ranking, relevant, k) == pytest.approx(
            _ref_ndcg(ranked, relevant, k), abs=1e-12
        )
        assert average_precision(ranking, relevant) == pytest.approx(
            _ref_ap(ranked, relevant), abs=1e-12
        )


def test_ndcg_hand_case_relevant_at_rank_two():
    ranking = _ranking([7, 3])
    assert ndcg_at_k(ranking, {3}, 2) == pytest.approx(1.0 / math.log2(3), abs=1e-12)


def test_recall_hand_case_three_of_ten():
    ranked = [1, 2, 3, 4, 5]
    relevant = set(range(1, 11))  # catches 3 of 10 at k=3
    assert recall_at_k(_ranking(ranked), relevant, 3) == pytest.approx(0.3, abs=1e-15)


def test_perfect_ranking_scores_one():
    ranking = _ranking([4, 9])
    assert ndcg_at_k(ranking, {4, 9}, 2) == 1.0
    assert recall_at_k(ranking, {4, 9}, 2) == 1.0
    assert average_precision(ranking, {4, 9}) == 1.0


def test_metric_argument_validation():
    ranking = _ranking([1, 2])
    with pytest.raises(ValueError, match="k must be"):
        recall_at_k(ranking, {1}, 0)
    with pytest.raises(ValueError, match="empty"):
        ndcg_at_k(ranking, set(), 2)
    with pytest.raises(ValueError, match="empty"):
        average_precision(ranking, set())


# --- path aggregation ------------------------------------------------------------------


def _ctx_with(paths):
    # aggregate_ranking reads a context's weights and each searched layer's hits and within;
    # at weight 1.0 a path's confidence is its hit's within entry
    layers = [[p for p in paths if p.layer == layer] for layer in (1, 2, 3)]
    return SimpleNamespace(weights=np.ones(3), retrieval=SimpleNamespace(layers=tuple(
        SimpleNamespace(hits=[Hit(p.unit_id, p.doc_id, p.sim, row) for row, p in enumerate(found)],
                        within=np.array([p.path_confidence for p in found], dtype=np.float64))
        for found in layers)))


def _path(doc_id, conf, layer=1, unit=1):
    return RetrievalPath(
        layer=layer,
        unit_id=f"{unit:08d}:{layer}:00000",
        doc_id=doc_id,
        sim=0.5,
        path_confidence=conf,
    )


def test_max_and_sum_aggregation_can_disagree():
    ctx = _ctx_with([_path(1, 0.30, unit=1), _path(1, 0.35, unit=2), _path(2, 0.50, unit=3)])
    by_max = aggregate_ranking(ctx, 9, mode="max")
    by_sum = aggregate_ranking(ctx, 9, mode="sum")
    assert by_max.doc_ids == (2, 1)
    assert by_max.scores == pytest.approx((0.50, 0.35))
    assert by_sum.doc_ids == (1, 2)
    assert by_sum.scores == pytest.approx((0.65, 0.50))


def test_aggregation_breaks_ties_by_lower_doc_id():
    ctx = _ctx_with([_path(7, 0.4, unit=1), _path(3, 0.4, unit=2)])
    assert aggregate_ranking(ctx, 9).doc_ids == (3, 7)


def test_aggregation_requires_paths():
    with pytest.raises(EvalError, match="no retrieval paths"):
        aggregate_ranking(_ctx_with([]), 9)


def test_aggregation_rejects_unknown_mode():
    with pytest.raises(ConfigError, match="aggregation mode"):
        aggregate_ranking(_ctx_with([_path(1, 0.5)]), 9, mode="mean")


# --- end-to-end evaluation -----------------------------------------------------------


@pytest.fixture(scope="module")
def suite():
    docs, queries, qrels = keyword_eval_suite(n_queries=12, seed=4)
    hier = build(docs, EmbedderSpec(dim=96), depth=3)
    return hier, queries, qrels


def test_keyword_suite_is_solved_perfectly(suite):
    hier, queries, qrels = suite
    report = evaluate(hier, queries, qrels, EvalConfig(k=5))
    assert report.mean_recall_at_k == 1.0
    assert report.mean_ndcg_at_k == 1.0
    assert report.map == 1.0
    assert report.n_evaluated == len(queries)
    assert report.n_skipped == 0


def test_unjudged_queries_are_skipped_not_scored(suite):
    hier, queries, qrels = suite
    extra = queries + [Query(query_id=9999, text="nothing judged here")]
    report = evaluate(hier, extra, qrels, EvalConfig(k=5))
    assert report.n_skipped == 1
    assert report.n_evaluated == len(queries)
    assert all(row["query_id"] != 9999 for row in report.per_query)


def test_evaluation_with_no_judgments_raises(suite):
    hier, queries, _ = suite
    with pytest.raises(EvalError, match="nothing to evaluate"):
        evaluate(hier, queries, {}, EvalConfig())


def test_zero_tau_equals_ungated_pipeline(suite):
    hier, queries, qrels = suite
    cfg = EvalConfig(k=5, gate=GateConfig(tau_path=0.0))
    report = evaluate(hier, queries, qrels, cfg)
    for row in report.per_query[:4]:
        query = next(q for q in queries if q.query_id == row["query_id"])
        ctx = route(hier, query.text, cfg.router)  # no gate anywhere
        ranking = aggregate_ranking(ctx, query.query_id, cfg.agg_mode)
        assert recall_at_k(ranking, qrels[query.query_id], cfg.k) == row["recall_at_k"]
        assert ndcg_at_k(ranking, qrels[query.query_id], cfg.k) == row["ndcg_at_k"]


def test_report_json_is_stable_apart_from_timestamp(suite):
    hier, queries, qrels = suite
    cfg = EvalConfig(k=3, gate=GateConfig(tau_path=0.01))
    a = json.loads(evaluate(hier, queries, qrels, cfg).to_json())
    b = json.loads(evaluate(hier, queries, qrels, cfg).to_json())
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_report_echoes_its_configuration(suite):
    hier, queries, qrels = suite
    report = evaluate(hier, queries, qrels, EvalConfig(k=4))
    payload = report.to_dict()
    assert payload["config"]["depth"] == hier.depth
    assert payload["config"]["dim"] == hier.dim
    assert payload["corpus_sha256"] == hier.manifest.corpus_sha256
    assert payload["schema_version"] == 1
    assert "qa_accuracy" not in payload  # only sweep rows carry a QA accuracy


def test_report_echoes_the_sign_of_its_own_zero_tau(suite):
    # -0.0 == 0.0 and both hash alike, so a cache keyed on the config would echo either for both
    hier, queries, qrels = suite
    for tau, text in ((-0.0, '"tau_path": -0.0'), (0.0, '"tau_path": 0.0'), (-0.0, '"tau_path": -0.0')):
        report = evaluate(hier, queries, qrels, EvalConfig(gate=GateConfig(tau_path=tau)))
        assert math.copysign(1.0, report.config["gate"]["tau_path"]) == math.copysign(1.0, tau)
        assert text in report.to_json()


def test_report_config_is_its_own_copy_of_the_config(suite):
    hier, queries, qrels = suite
    cfg = EvalConfig(k=4, gate=GateConfig(tau_path=0.02))
    a, b = (evaluate(hier, queries, qrels, cfg) for _ in range(2))
    assert a.config == asdict(cfg) | {"depth": hier.depth, "dim": hier.dim}
    a.config["router"]["k_per_layer"] = 99
    a.config["gate"].clear()
    assert b.config == asdict(cfg) | {"depth": hier.depth, "dim": hier.dim}


def test_report_counts_each_querys_surviving_paths(suite):
    hier, queries, qrels = suite
    contexts = {q.query_id: route(hier, q.text) for q in queries}
    for tau in (0.0, 0.07, 1.0):  # no gate, a gate that drops some paths, a bypassed gate
        report = evaluate(hier, queries, qrels, EvalConfig(gate=GateConfig(tau_path=tau)))
        counts = [(row["n_paths"], len(filter_paths(contexts[row["query_id"]], tau).paths),
                   len(contexts[row["query_id"]].paths)) for row in report.per_query]
        assert all(n == survivors for n, survivors, _ in counts)
        assert any(n < searched for n, _, searched in counts) == (tau == 0.07)


def test_eval_config_rejects_gate_settings_evaluation_never_reads():
    # evaluate applies only tau_path; the others would be echoed in the report as if they applied
    assert EvalConfig(gate=GateConfig(tau_path=0.3)).gate.tau_path == 0.3
    with pytest.raises(ConfigError, match="tau_path; lambda1, ensemble_K must keep"):
        EvalConfig(gate=GateConfig(tau_path=0.3, lambda1=0.5, ensemble_K=4))
    for name, value in [("lambda2", 0.1), ("noise_sigma", 0.0), ("seed", 3), ("var_mode", "intra")]:
        with pytest.raises(ConfigError, match=f"tau_path; {name} must keep"):
            EvalConfig(gate=GateConfig(**{name: value}))


@pytest.mark.parametrize("kwargs, message", [
    ({"k": 0}, "k must be >= 1, got 0"),
    ({"agg_mode": "mean"}, "agg_mode must be one of"),
])
def test_eval_config_validation(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        EvalConfig(**kwargs)


@pytest.mark.parametrize("make, kwargs, message", [
    (RouterConfig, {"k_per_layer": True}, "k_per_layer must be int, got True"),
    (RouterConfig, {"k_per_layer": 2.5}, "k_per_layer must be int, got 2.5"),
    (partial(build, [Document(1, "", "text")], EmbedderSpec(dim=8)), {"depth": True},
     "depth must be int, got True"),
    (SweepGrid, {"depths": (2, True)}, "depths must be int, got True"),
    (EvalConfig, {"k": 2.5}, "k must be int, got 2.5"),
    (GateConfig, {"ensemble_K": 2.5}, "ensemble_K must be int, got 2.5"),
    (GateConfig, {"seed": 1.5}, "seed must be int, got 1.5"),
    (TrainConfig, {"epochs": 2.5}, "epochs must be int, got 2.5"),
], ids=["router-k-bool", "router-k-float", "build-depth-bool", "sweep-depth-bool", "eval-k-float",
        "gate-K-float", "gate-seed-float", "train-epochs-float"])
def test_an_integer_setting_rejects_a_bool_or_a_float(make, kwargs, message):
    # a bool would alias 0 or 1, and a float would fail later with a bare TypeError
    with pytest.raises(ConfigError) as exc_info:
        make(**kwargs)
    assert str(exc_info.value) == message


def test_depth_one_ranking_equals_plain_cosine_retrieval():
    docs, queries, qrels = keyword_eval_suite(n_queries=50, seed=3)
    spec = EmbedderSpec(dim=64)
    hier = build(docs, spec, depth=1)
    mem = hier.layers[0]
    cfg = EvalConfig(k=5, router=RouterConfig(k_per_layer=5))
    for query in queries:
        ctx = route(hier, query.text, cfg.router)
        ranked = aggregate_ranking(ctx, query.query_id, cfg.agg_mode).doc_ids
        sims = mem.vectors @ embed(query.text, 1, spec)
        order = np.lexsort((mem.doc_ids, -sims))[:5]
        assert list(ranked) == [int(mem.doc_ids[i]) for i in order]


# --- parameter sweeps ------------------------------------------------------------------


def test_sweep_grid_cells_are_depth_major():
    grid = SweepGrid(depths=(1, 2), temperatures=(0.5, 2.0), mix_ratios=(0.0,))
    assert grid.cells() == [
        (1, 0.5, 0.0),
        (1, 2.0, 0.0),
        (2, 0.5, 0.0),
        (2, 2.0, 0.0),
    ]


def test_sweep_grid_validation():
    with pytest.raises(ConfigError, match="at least one"):
        SweepGrid(depths=())
    with pytest.raises(ConfigError, match="depths"):
        SweepGrid(depths=(0,))
    with pytest.raises(ConfigError, match="temperatures"):
        SweepGrid(temperatures=(0.0,))
    with pytest.raises(ConfigError, match="temperatures must be finite"):
        SweepGrid(temperatures=(1.0, math.inf))
    with pytest.raises(ConfigError, match="mix ratios"):
        SweepGrid(mix_ratios=(1.5,))


@pytest.fixture(scope="module")
def small_sweep():
    docs, queries, qrels = keyword_eval_suite(n_queries=8, seed=6)
    grid = SweepGrid(depths=(1, 2), temperatures=(0.5, 2.0), mix_ratios=(0.0,))
    return sweep(grid, docs, queries, qrels, EvalConfig(k=3), embedder_spec=EmbedderSpec(dim=48)), grid


def test_sweep_covers_every_cell(small_sweep):
    result, grid = small_sweep
    assert len(result.rows) == 4
    assert [(r["depth"], r["temperature"], r["mix_ratio"]) for r in result.rows] == grid.cells()
    for row in result.rows:
        assert "error" not in row
        assert 0.0 <= row["recall_at_k"] <= 1.0
        assert row["qa_accuracy"] is None


def test_sweep_csv_has_exact_header_and_nan_for_missing(small_sweep):
    result, _ = small_sweep
    lines = result.to_csv().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(SWEEP_CSV_HEADER.split(","))
        assert fields[6] == "nan"  # qa_accuracy not requested


def test_sweep_entropy_rises_with_temperature(small_sweep):
    result, _ = small_sweep
    by_depth = {}
    for row in result.rows:
        by_depth.setdefault(row["depth"], []).append((row["temperature"], row["routing_entropy"]))
    for pairs in by_depth.values():
        pairs.sort()
        entropies = [h for _, h in pairs]
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))


def test_sweep_is_deterministic():
    docs, queries, qrels = keyword_eval_suite(n_queries=6, seed=8)
    grid = SweepGrid(depths=(2,), temperatures=(1.0,), mix_ratios=(0.0,))
    a = sweep(grid, docs, queries, qrels, embedder_spec=EmbedderSpec(dim=32))
    b = sweep(grid, docs, queries, qrels, embedder_spec=EmbedderSpec(dim=32))
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_sweep_records_cell_failures_and_continues():
    docs, queries, _ = keyword_eval_suite(n_queries=4, seed=9)
    grid = SweepGrid(depths=(1, 2), temperatures=(1.0,), mix_ratios=(0.0,))
    result = sweep(grid, docs, queries, {}, embedder_spec=EmbedderSpec(dim=32))
    assert len(result.rows) == 2
    for row in result.rows:
        assert "nothing to evaluate" in row["error"]
        assert row["recall_at_k"] is None
    csv_lines = result.to_csv().splitlines()
    assert csv_lines[0] == SWEEP_CSV_HEADER
    assert all("nan" in line for line in csv_lines[1:])


def test_sweep_mixing_requires_second_corpus():
    docs, queries, qrels = keyword_eval_suite(n_queries=4, seed=9)
    grid = SweepGrid(depths=(1,), temperatures=(1.0,), mix_ratios=(0.5,))
    with pytest.raises(ConfigError, match="second corpus"):
        sweep(grid, docs, queries, qrels)
    # the mixing seed alone would be read by nothing
    with pytest.raises(ConfigError, match="seed need a second corpus"):
        sweep(replace(grid, mix_ratios=(0.0,)), docs, queries, qrels, seed=5)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"seed": -1}, "seed must be >= 0, got -1"), ({"mix_size": 0}, "mix_size must be >= 1, got 0")],
    ids=["seed", "mix-size"],
)
def test_sweep_rejects_a_bad_mixing_setting_before_any_cell(kwargs, message):
    # every cell would fail at run time with the same error
    docs, queries, qrels = keyword_eval_suite(n_queries=4, seed=9)
    other = synthesize_corpus(n_docs=4, seed=11, id_start=5_001, domain_tag="other")
    grid = SweepGrid(depths=(1,), temperatures=(1.0,), mix_ratios=(0.5,))
    with pytest.raises(ConfigError, match=message):
        sweep(grid, docs, queries, qrels, corpus_b=other, **kwargs)


@pytest.mark.parametrize("given", ["qa_dataset", "qa_train"])
def test_sweep_rejects_a_lone_qa_argument(given):
    # without its partner the QA column would silently stay nan
    docs, queries, qrels = keyword_eval_suite(n_queries=4, seed=12)
    _, qa = build_toy_qa(n_classes=2, n_per_class=2, seed=0)
    lone = {"qa_dataset": qa, "qa_train": TrainConfig(epochs=1)}
    with pytest.raises(ConfigError, match="qa_dataset and qa_train must be given together"):
        sweep(SweepGrid(depths=(1,), temperatures=(1.0,)), docs, queries, qrels,
              **{given: lone[given]})


def test_sweep_rejects_an_empty_qa_dataset_before_any_build(monkeypatch):
    # no example to train on: every cell would fail drawing the perturbations of none
    docs, queries, qrels = keyword_eval_suite(n_queries=4, seed=12)
    monkeypatch.setattr(mgrag.evaluation, "build", lambda *a, **k: pytest.fail("built"))
    with pytest.raises(ConfigError, match="qa_dataset is empty"):
        sweep(SweepGrid(depths=(1,), temperatures=(1.0,)), docs, queries, qrels,
              qa_dataset=[], qa_train=TrainConfig())


def test_sweep_with_domain_mixing_runs_end_to_end():
    docs, queries, qrels = keyword_eval_suite(n_queries=6, seed=10)
    other = synthesize_corpus(n_docs=12, seed=11, id_start=5_001, domain_tag="other")
    grid = SweepGrid(depths=(2,), temperatures=(1.0,), mix_ratios=(0.0, 0.5))
    result = sweep(
        grid, docs, queries, qrels,
        EvalConfig(k=3),
        corpus_b=other,
        mix_size=6,
        embedder_spec=EmbedderSpec(dim=48),
    )
    assert len(result.rows) == 2
    assert all("error" not in row for row in result.rows)
    pure = next(r for r in result.rows if r["mix_ratio"] == 0.0)
    assert pure["recall_at_k"] == 1.0


# --- one build per mix ratio ----------------------------------------------------------


def _sweep_building_every_depth(grid, corpus_a, queries, qrels, corpus_b, embedder_spec,
                                base=EvalConfig(), qa_dataset=None, qa_train=None):
    """Reference: the sweep with one build per (depth, ratio) and a route per cell, no prefixes."""
    rows = []
    for depth, temp, ratio in grid.cells():
        row = dict.fromkeys(SWEEP_COLUMNS)
        row.update(depth=depth, temperature=temp, mix_ratio=ratio)
        try:
            size = min(len(corpus_a), len(corpus_b))
            corpus = mix_corpora([(corpus_a, "source-a"), (corpus_b, "source-b")], ratio, size, 0)
            hier = build(corpus, embedder_spec, depth)
            report = evaluate(hier, queries, qrels, replace(base, router=replace(base.router, temperature=temp)))
            row.update(recall_at_k=report.mean_recall_at_k, ndcg_at_k=report.mean_ndcg_at_k,
                       map=report.map, routing_entropy=report.routing_entropy_mean)
            if qa_dataset is not None:
                tcfg = replace(qa_train, router=replace(qa_train.router, temperature=temp))
                row["qa_accuracy"] = train(qa_dataset, hier, tcfg).accuracy
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return SweepResult(rows=rows)


@pytest.fixture(scope="module")
def mixing_inputs():
    docs, queries, qrels = keyword_eval_suite(n_queries=4, seed=13)
    qa_docs, qa = build_toy_qa(n_classes=2, n_per_class=2, seed=5)
    corpus_a = docs + qa_docs
    corpus_b = synthesize_corpus(n_docs=len(corpus_a), seed=14, id_start=5_001, domain_tag="b")
    return corpus_a, corpus_b, queries, qrels, qa


def _check_against_a_build_per_depth(mixing_inputs, base=EvalConfig(), qa_gate=GateConfig(),
                                     qa_router=RouterConfig(), extra_queries=()):
    corpus_a, corpus_b, queries, qrels, qa = mixing_inputs
    queries = queries + list(extra_queries)
    grid = SweepGrid(depths=(1, 3, 5), temperatures=(0.5, 2.0), mix_ratios=(0.0, 0.5))
    # one small step from the initial weights: the accuracy still varies from cell to cell
    spec = EmbedderSpec(dim=32)
    qa_train = TrainConfig(lr=0.01, epochs=1, gate=qa_gate, router=qa_router)
    result = sweep(grid, corpus_a, queries, qrels, base, corpus_b=corpus_b, embedder_spec=spec,
                   qa_dataset=qa, qa_train=qa_train)
    reference = _sweep_building_every_depth(grid, corpus_a, queries, qrels, corpus_b, spec, base,
                                            qa_dataset=qa, qa_train=qa_train)
    assert all("error" not in row and row["qa_accuracy"] is not None for row in result.rows)
    assert len({row["qa_accuracy"] for row in result.rows}) > 1
    assert result.to_csv() == reference.to_csv()
    assert result.to_json() == reference.to_json()


def test_sweep_on_depth_prefixes_matches_a_build_per_depth(mixing_inputs):
    _check_against_a_build_per_depth(mixing_inputs)


_GATED = GateConfig(tau_path=0.05)


@pytest.mark.parametrize(
    "setting",
    [
        # the gate drops paths on both sides, so each cell re-weighs the survivors of its prefix
        dict(base=EvalConfig(gate=_GATED), qa_gate=replace(_GATED, lambda2=0.5)),
        dict(qa_gate=GateConfig(var_mode="intra", lambda2=0.5)),
        dict(base=EvalConfig(router=RouterConfig(k_per_layer=3)), qa_router=RouterConfig(k_per_layer=2)),
        # searches align with the queries by position: a repeated id with its own text, and a
        # query with no judgments, which is never searched
        dict(extra_queries=[Query(query_id=1, text="tell me about archives"),
                            Query(query_id=9_999, text="unjudged")]),
    ],
    ids=["gated", "intra", "qa-k", "repeated-and-unjudged-ids"],
)
def test_sweep_on_depth_prefixes_matches_a_build_per_depth_in_each_setting(mixing_inputs, setting):
    _check_against_a_build_per_depth(mixing_inputs, **setting)


def test_qa_sweep_searches_each_query_once_per_ratio(monkeypatch, mixing_inputs):
    # the hits depend on neither the temperature nor, beyond a prefix, the depth
    corpus_a, corpus_b, queries, qrels, qa = mixing_inputs
    unjudged = Query(query_id=9_999, text="nothing judged here")
    searches, draws = [], []

    def searched(hier, encodings, k):
        searches.append((hier.depth, k))
        return search_layers(hier, encodings, k)

    def drawn(dataset, gate, dim):
        draws.append(len(dataset))
        return perturbations(dataset, gate, dim)

    monkeypatch.setattr(mgrag.evaluation, "search_layers", searched)
    monkeypatch.setattr(mgrag.evaluation, "perturbations", drawn)
    monkeypatch.setattr(mgrag.generator, "perturbations", drawn)
    grid = SweepGrid(depths=(1, 3, 5), temperatures=(0.5, 2.0), mix_ratios=(0.0, 0.5))
    result = sweep(grid, corpus_a, queries + [unjudged], qrels,
                   EvalConfig(router=RouterConfig(k_per_layer=4)), corpus_b=corpus_b,
                   embedder_spec=EmbedderSpec(dim=32), qa_dataset=qa,
                   qa_train=TrainConfig(epochs=3, router=RouterConfig(k_per_layer=2)))
    assert all("error" not in row and row["qa_accuracy"] is not None for row in result.rows)
    per_ratio = [(5, 4)] * len(queries) + [(5, 2)] * len(qa)
    assert searches == per_ratio * len(grid.mix_ratios)
    assert draws == [len(qa)]


def test_qa_sweep_embeds_each_distinct_text_once(monkeypatch, mixing_inputs):
    # an encoding depends only on the text, the layers and the spec, never on a ratio's index
    corpus_a, corpus_b, queries, qrels, qa = mixing_inputs
    repeated = Query(query_id=queries[0].query_id, text=queries[0].text)
    unjudged = Query(query_id=9_999, text="nothing judged here")
    asked = queries + [repeated, unjudged, qa[0].query]  # a QA text also judged
    qrels = qrels | {qa[0].query.query_id: {corpus_a[0].doc_id}}
    embedded = []

    def counted(text, layers, spec):
        embedded.append((text, tuple(layers)))
        return embed_layers(text, layers, spec)

    monkeypatch.setattr(mgrag.evaluation, "embed_layers", counted)
    grid = SweepGrid(depths=(1, 3), temperatures=(0.5, 2.0), mix_ratios=(0.0, 0.5))
    result = sweep(grid, corpus_a, asked, qrels, corpus_b=corpus_b,
                   embedder_spec=EmbedderSpec(dim=32), qa_dataset=qa,
                   qa_train=TrainConfig(epochs=1))
    assert all("error" not in row and row["qa_accuracy"] is not None for row in result.rows)
    texts = [q.text for q in queries] + [ex.query.text for ex in qa]
    assert sorted(embedded) == sorted((text, (1, 2, 3)) for text in set(texts))


def test_sweep_builds_once_per_ratio_at_the_largest_depth(monkeypatch, mixing_inputs):
    corpus_a, corpus_b, queries, qrels, _ = mixing_inputs
    depths = []

    def counted(corpus, spec, depth):
        depths.append(depth)
        return build(corpus, spec, depth)

    monkeypatch.setattr(mgrag.evaluation, "build", counted)
    grid = SweepGrid(depths=(1, 3, 5), temperatures=(0.5, 2.0), mix_ratios=(0.0, 0.5))
    result = sweep(grid, corpus_a, queries, qrels, corpus_b=corpus_b,
                   embedder_spec=EmbedderSpec(dim=32))
    assert all("error" not in row for row in result.rows)
    assert depths == [5, 5]


def _blank_corpus(n_docs):
    """Blank and punctuation-only bodies: no layer of this corpus has an indexable unit."""
    return [Document(doc_id=9_001 + i, title="", body=["?! ...", "", " \n ", "-- ;"][i % 4])
            for i in range(n_docs)]


def test_sweep_reports_the_zero_unit_error_in_every_cell_of_its_ratio(mixing_inputs):
    corpus_a, _, queries, qrels, _ = mixing_inputs
    blank = _blank_corpus(len(corpus_a))
    grid = SweepGrid(depths=(1, 3), temperatures=(1.0, 2.0), mix_ratios=(0.0, 1.0))
    spec = EmbedderSpec(dim=32)
    result = sweep(grid, corpus_a, queries, qrels, corpus_b=blank, embedder_spec=spec)
    for row in result.rows:
        if row["mix_ratio"] == 1.0:
            assert row["error"] == "BuildError: corpus produced zero indexable units"
        else:
            assert "error" not in row
    reference = _sweep_building_every_depth(grid, corpus_a, queries, qrels, blank, spec)
    assert result.to_csv() == reference.to_csv()
    assert result.to_json() == reference.to_json()


def test_sweep_rejects_a_gold_too_large_to_train_before_any_build(monkeypatch):
    # every cell would stack its own copy of an answer model too large to allocate
    docs, queries, qrels = keyword_eval_suite(n_queries=4, seed=12)
    monkeypatch.setattr(mgrag.evaluation, "build", lambda *a, **k: pytest.fail("built"))
    huge = [QAExample(query=queries[0], gold=10_000_000)]
    with pytest.raises(ConfigError, match="gold 10000000: .* exceeds 16777216 weights"):
        sweep(SweepGrid(depths=(1,), temperatures=(1.0,)), docs, queries, qrels,
              qa_dataset=huge, qa_train=TrainConfig())


# --- the cells of every ratio share stacked descents ----------------------------------

_QA_GRID = SweepGrid(depths=(1, 3, 5), temperatures=(0.5, 2.0), mix_ratios=(0.0, 0.5))
# small steps: the accuracies still differ from cell to cell after ten epochs
_QA_TRAIN = TrainConfig(lr=0.005, epochs=10, gate=GateConfig(lambda1=0.01, lambda2=0.1))


def _qa_sweep(mixing_inputs, qa_train=_QA_TRAIN):
    corpus_a, corpus_b, queries, qrels, qa = mixing_inputs
    return sweep(_QA_GRID, corpus_a, queries, qrels, corpus_b=corpus_b,
                 embedder_spec=EmbedderSpec(dim=32), qa_dataset=qa, qa_train=qa_train)


@pytest.fixture(scope="module")
def qa_sweep(mixing_inputs):
    return _qa_sweep(mixing_inputs)


def test_qa_sweep_outputs_are_pinned(qa_sweep):
    # the digest of the sweep that trained one cell at a time
    assert len({row["qa_accuracy"] for row in qa_sweep.rows}) > 1
    digest = hashlib.sha256(qa_sweep.to_json().encode()).hexdigest()
    assert digest == "dbd54dd67fdc84920b4c8357fb4035a6df5bc721b371b6f8c404175cd4071019"


# bytes of one cell's stacked arrays in _qa_sweep: W (2 x 64), X (4 x 64), XS (4 x 8 x 64) and
# the ensemble softmax (4 x 8 x 2)
_QA_CELL_BYTES = 8 * (2 * 64 + 4 * 64 + 4 * 8 * 64 + 4 * 8 * 2)


@pytest.mark.parametrize("cells_per_batch, batches", [(None, [12]), (4, [4, 4, 4]), (1, [1] * 12)],
                         ids=["one-batch", "cap-binds", "cell-by-cell"])
def test_a_ratio_trains_its_cells_in_one_objective_call_per_epoch_and_batch(
        monkeypatch, mixing_inputs, qa_sweep, cells_per_batch, batches):
    if cells_per_batch is not None:
        monkeypatch.setattr(mgrag.evaluation, "_QA_STACK_BYTES", cells_per_batch * _QA_CELL_BYTES)
    stacked = []
    objective = mgrag.generator._loss_and_grad

    def counted(W, *args):
        stacked.append(W.shape[0])
        return objective(W, *args)

    monkeypatch.setattr(mgrag.generator, "_loss_and_grad", counted)
    result = _qa_sweep(mixing_inputs)
    epochs = _QA_TRAIN.epochs
    assert stacked == [c for c in batches for _ in range(epochs)]
    assert result.to_json() == qa_sweep.to_json()


@pytest.mark.parametrize("failure", ["features-raise", "descent-fails"])
def test_a_failing_cell_fails_alone_in_its_batch(monkeypatch, mixing_inputs, qa_sweep, failure):
    # the depth-3 cells fail: building their features raises, or their infinite feature rows
    # make an invalid value under numpy's raise mode; the batches they share train the rest
    # as before
    built = mgrag.evaluation.features

    def failing(dataset, hier, *args):
        if hier.depth != 3:
            return built(dataset, hier, *args)
        if failure == "features-raise":
            raise ValueError("no features")
        X, golds = built(dataset, hier, *args)
        return np.full_like(X, np.inf), golds

    monkeypatch.setattr(mgrag.evaluation, "features", failing)
    with np.errstate(invalid="raise"):
        result = _qa_sweep(mixing_inputs)
    message = {"features-raise": "ValueError: no features",
               "descent-fails": "FloatingPointError: invalid value encountered in "}[failure]
    for got, want in zip(result.rows, qa_sweep.rows, strict=True):
        if got["depth"] == 3:
            assert got.pop("error").startswith(message)
            assert got == {**want, "qa_accuracy": None}
        else:
            assert got == want


def test_cells_of_a_ratio_before_a_failed_build_train_in_the_last_batch(monkeypatch, mixing_inputs):
    # the ratio-1.0 build fails after ratio 0's cells joined the batch; they still train,
    # bit for bit as when ratio 0 is swept alone
    corpus_a, _, queries, qrels, qa = mixing_inputs
    blank = _blank_corpus(len(corpus_a))
    stacked = []
    objective = mgrag.generator._loss_and_grad

    def counted(W, *args):
        stacked.append(W.shape[0])
        return objective(W, *args)

    def swept(ratios):
        grid = replace(_QA_GRID, mix_ratios=ratios)
        return sweep(grid, corpus_a, queries, qrels, corpus_b=blank,
                     embedder_spec=EmbedderSpec(dim=32), qa_dataset=qa, qa_train=_QA_TRAIN)

    alone = swept((0.0,))
    monkeypatch.setattr(mgrag.generator, "_loss_and_grad", counted)
    result = swept((0.0, 1.0))
    assert stacked == [6] * _QA_TRAIN.epochs
    failed = [row for row in result.rows if row["mix_ratio"] == 1.0]
    assert {row.pop("error") for row in failed} == {"BuildError: corpus produced zero indexable units"}
    assert all(row["qa_accuracy"] is None for row in failed)
    assert [row for row in result.rows if row["mix_ratio"] == 0.0] == alone.rows
    assert all("error" not in row and row["qa_accuracy"] is not None for row in alone.rows)


def test_the_stacked_cells_stay_within_the_byte_cap(monkeypatch, mixing_inputs):
    # 1024 ensemble passes make each cell's perturbed rows ~2 MB, the bulk of the sweep's memory;
    # with the cap at two cells the peak stays near three cells' arrays (the stack, the draws
    # and the sweep itself), where one batch of the ratio's six cells peaks past seven
    cell_bytes = 8 * (2 * 64 + 4 * 64 + 4 * 1024 * (64 + 2))
    monkeypatch.setattr(mgrag.evaluation, "_QA_STACK_BYTES", 2 * cell_bytes)
    qa_train = TrainConfig(lr=0.005, epochs=3, gate=GateConfig(ensemble_K=1024, lambda2=0.1))
    tracemalloc.start()
    try:
        result = _qa_sweep(mixing_inputs, qa_train)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all("error" not in row for row in result.rows)
    assert peak < 4 * cell_bytes


# --- a sweep weighs each searched layer once -------------------------------------------


def test_a_sweep_weighs_each_search_layer_once(monkeypatch, mixing_inputs):
    # the within-layer softmax and readout depend only on a layer's hits, so every depth
    # prefix, temperature and gate that keeps a searched layer whole reads one weighing of it
    corpus_a, _, queries, qrels, qa = mixing_inputs
    weighed, searched = {}, []
    held = []  # keeps every weighed hit alive, so no id is reused within the sweep

    def counted(layer):
        held.append(layer.hits)
        key = tuple(map(id, layer.hits))  # a search's hits are its own objects
        weighed[key] = weighed.get(key, 0) + 1
        return weigh(layer)

    def searching(*args):
        hits = search(*args)
        searched.append(tuple(map(id, hits)))
        return hits

    weigh, search = mgrag.router._weigh, mgrag.router.search_layer
    monkeypatch.setattr(mgrag.router, "_weigh", counted)
    monkeypatch.setattr(mgrag.router, "search_layer", searching)
    grid = SweepGrid(depths=(1, 3, 5), temperatures=(0.5, 2.0))
    gate = GateConfig(tau_path=0.05)
    result = sweep(grid, corpus_a, queries, qrels, EvalConfig(gate=gate),
                   embedder_spec=EmbedderSpec(dim=32), qa_dataset=qa,
                   qa_train=TrainConfig(epochs=1, gate=gate))
    assert all("error" not in row for row in result.rows)
    assert searched and [weighed[key] for key in searched] == [1] * len(searched)
    # the gate dropped paths: some weighed hits are a strict subset of a search's
    assert any(set(a) < set(b) for a in weighed for b in searched)


def test_evaluate_rejects_searches_of_another_depth_or_k():
    # weighed as given, they would report depth 3 and k 5 while weighing 5 layers, or more
    # than 5 hits a layer
    docs, queries, qrels = keyword_eval_suite(n_queries=4, seed=1)
    spec = EmbedderSpec(dim=64)
    shallow = build(docs, spec, 3)
    cfg = EvalConfig(router=RouterConfig(k_per_layer=5))
    judged = sorted(q.query_id for q in queries if qrels.get(q.query_id))
    deep = [mgrag.router.retrieve(build(docs, spec, 5), q.text, 5) for q in queries]
    with pytest.raises(ValueError, match=rf"^query {judged[0]}: a retrieval of 5 layers .* depth 3 "):
        evaluate(shallow, queries, qrels, cfg, deep)
    wide = [mgrag.router.retrieve(shallow, q.text, 10) for q in queries]
    over = min(q.query_id for q, r in zip(queries, wide)
               if q.query_id in judged and max(len(layer.hits) for layer in r.layers) > 5)
    with pytest.raises(ValueError, match=rf"^query {over}: .* k_per_layer 5$"):
        evaluate(shallow, queries, qrels, cfg, wide)


def test_searches_not_aligned_with_their_queries_are_counted_in_the_error():
    # a list one short, or one long, would pair a query with another query's search
    docs, queries, qrels = keyword_eval_suite(n_queries=4, seed=1)
    hier = build(docs, EmbedderSpec(dim=64), 3)
    searches = [mgrag.router.retrieve(hier, q.text, 5) for q in queries]
    examples = [QAExample(query=q, gold=0) for q in queries]
    for given, count in ((searches[1:], 3), (searches + searches[:1], 5)):
        with pytest.raises(ValueError, match=rf"^{count} retrievals for 4 queries$"):
            evaluate(hier, queries, qrels, EvalConfig(), given)
        with pytest.raises(ValueError, match=rf"^{count} retrievals for 4 queries$"):
            features(examples, hier, TrainConfig(), 2, given)
