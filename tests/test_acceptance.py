"""Release gates: every property the engine must hold before it ships.

Each test is one gate. tests/conftest.py prints a one-line verdict per gate
at the end of the run.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from mgrag.confidence import GateConfig, entropy, filter_paths
from mgrag.corpus import (
    keyword_eval_suite,
    read_cisi_documents,
    read_cisi_qrels,
    read_cisi_queries,
    synthesize_corpus,
)
from mgrag.embedder import EmbedderSpec, embed
from mgrag.evaluation import (
    DocRanking,
    EvalConfig,
    SweepGrid,
    evaluate,
    ndcg_at_k,
    recall_at_k,
    sweep,
)
from mgrag.generator import (
    TrainConfig,
    build_toy_qa,
    gradient_check,
    init_params,
    train,
)
from mgrag.memory import build, search_layer
from mgrag.router import RouterConfig, route, routing_weights
from oracles import nll, objective, predict

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


def _bundled_cisi():
    docs = read_cisi_documents(DATA / "cisi_sample.all")
    queries = read_cisi_queries(DATA / "cisi_sample.qry")
    qrels = read_cisi_qrels(DATA / "cisi_sample.rel")
    return docs, queries, qrels


def _cisi_like():
    """Real CISI when MGRAG_CISI_DIR points at it, bundled sample otherwise."""
    root = os.environ.get("MGRAG_CISI_DIR")
    if root:
        base = Path(root)
        if (base / "CISI.ALL").exists():
            return (
                read_cisi_documents(base / "CISI.ALL"),
                read_cisi_queries(base / "CISI.QRY"),
                read_cisi_qrels(base / "CISI.REL"),
            )
    return _bundled_cisi()


# --- 1: exact top-k against an independent scan ------------------------------------------


def test_01_topk_matches_brute_force_scan_on_200_docs():
    spec = EmbedderSpec(dim=128)
    docs = synthesize_corpus(n_docs=200, seed=42)
    hier = build(docs, spec, depth=3)
    rng = np.random.default_rng(7)
    k = 10
    started = time.monotonic()
    for trial in range(1000):
        layer_no = trial % 3 + 1
        mem = hier.layers[layer_no - 1]
        q = rng.standard_normal(spec.dim)
        q /= np.linalg.norm(q)
        hits = search_layer(mem, q, k)

        sims = np.einsum("nd,d->n", mem.vectors, q)  # the reference scan
        order = sorted(range(mem.n_units), key=lambda i: (-sims[i], mem.unit_ids[i]))[:k]
        assert [h.unit_id for h in hits] == [mem.unit_ids[i] for i in order]
        for h, i in zip(hits, order):
            assert abs(h.sim - sims[i]) <= 1e-12
            assert h.doc_id == int(mem.doc_ids[i])
    elapsed = time.monotonic() - started
    assert elapsed <= 10.0, f"1000 verified searches took {elapsed:.1f}s"


# --- 2: routing weight laws ------------------------------------------------------------


def test_02_routing_weights_behave_like_a_tempered_softmax():
    rng = np.random.default_rng(0)
    for _ in range(200):
        scores = rng.standard_normal(int(rng.integers(2, 6))) * 5
        temp = float(rng.uniform(0.05, 8.0))
        w = routing_weights(scores, temp)
        assert np.all(w >= 0) and abs(w.sum() - 1.0) < 1e-9
        shifted = routing_weights(scores + float(rng.uniform(-50, 50)), temp)
        assert np.max(np.abs(w - shifted)) < 1e-12

    for _ in range(50):
        scores = rng.standard_normal(4)
        while np.ptp(scores) < 1e-3:
            scores = rng.standard_normal(4)
        entropies = [entropy(routing_weights(scores, t)) for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(entropies, entropies[1:]))
        cold = routing_weights(scores, 1e-4)
        assert cold[int(np.argmax(scores))] >= 1 - 1e-6


# --- 3: analytic gradients of the full objective ---------------------------------------


def test_03_gradient_check_passes_across_the_lambda_grid():
    docs, examples = build_toy_qa(n_classes=4, n_per_class=1, seed=0)
    hier = build(docs, EmbedderSpec(dim=8), depth=2)
    params = init_params(4, 8, seed=1, scale=0.3)
    started = time.monotonic()
    worst = 0.0
    for lambda1 in (0.0, 0.1, 1.0):
        for lambda2 in (0.0, 0.1, 1.0):
            cfg = TrainConfig(
                gate=GateConfig(lambda1=lambda1, lambda2=lambda2, ensemble_K=4),
                router=RouterConfig(k_per_layer=3),
            )
            worst = max(worst, gradient_check(params, examples[0], hier, cfg))
    elapsed = time.monotonic() - started
    assert worst < 1e-4, f"max relative error {worst:.3e}"
    assert elapsed <= 5.0, f"gradient grid took {elapsed:.1f}s"


# --- 4: the objective collapses correctly at zero coefficients ----------------------------


def test_04_objective_reduces_to_nll_and_variance_vanishes_without_noise():
    docs, examples = build_toy_qa(n_classes=4, n_per_class=1, seed=3)
    hier = build(docs, EmbedderSpec(dim=16), depth=2)
    params = init_params(4, 16, seed=2, scale=0.4)
    plain = TrainConfig(gate=GateConfig(lambda1=0.0, lambda2=0.0, ensemble_K=3),
                        router=RouterConfig(k_per_layer=3))
    for ex in examples:
        row, _, _ = objective(params, ex, hier, plain)
        h = embed(ex.query.text, 1, hier.embedder_spec)
        ctx = route(hier, ex.query.text, plain.router)
        assert abs(row["loss"] - nll(predict(params, h, ctx), ex.gold)) <= 1e-12

    silent = TrainConfig(gate=GateConfig(lambda2=0.7, noise_sigma=0.0, ensemble_K=3),
                         router=RouterConfig(k_per_layer=3))
    for ex in examples:
        row, _, _ = objective(params, ex, hier, silent)
        assert row["variance"] == 0.0


# --- 5: ranking metrics against a brute-force reference -----------------------------------


def test_05_metrics_match_a_brute_force_reference():
    def ref_recall(ranked, rel, k):
        return len(set(ranked[:k]) & rel) / len(rel)

    def ref_dcg(gains):
        return sum(g / math.log2(i + 2) for i, g in enumerate(gains))

    def ref_ndcg(ranked, rel, k):
        gains = [1.0 if d in rel else 0.0 for d in ranked[:k]]
        return ref_dcg(gains) / ref_dcg([1.0] * min(len(rel), k))

    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        ranked = list(rng.permutation(np.arange(1, n + 1)).astype(int))
        rel = set(rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)),
                             replace=False).astype(int))
        k = int(rng.integers(1, n + 3))
        ranking = DocRanking(query_id=1, doc_ids=tuple(ranked),
                             scores=tuple(float(n - i) for i in range(n)))
        assert abs(recall_at_k(ranking, rel, k) - ref_recall(ranked, rel, k)) <= 1e-12
        assert abs(ndcg_at_k(ranking, rel, k) - ref_ndcg(ranked, rel, k)) <= 1e-12

    lone_second = DocRanking(query_id=1, doc_ids=(5, 2), scores=(0.9, 0.8))
    assert abs(ndcg_at_k(lone_second, {2}, 2) - 1.0 / math.log2(3)) <= 1e-12


# --- 6: gate behavior ---------------------------------------------------------------------


def test_06_gating_is_monotone_safe_and_normalized():
    docs, queries, _ = keyword_eval_suite(n_queries=10, seed=5)
    hier = build(docs, EmbedderSpec(dim=64), depth=3)
    for q in queries:
        ctx = route(hier, q.text, RouterConfig(k_per_layer=4))
        assert filter_paths(ctx, 0.0) is ctx

        previous = {(p.layer, p.unit_id) for p in ctx.paths}
        for tau in (0.01, 0.03, 0.1, 0.3, 0.8):
            gated = filter_paths(ctx, tau)
            assert abs(gated.weights.sum() - 1.0) < 1e-9
            assert np.all(gated.weights >= 0)
            if gated.gate_bypassed:
                assert len(gated.paths) == len(ctx.paths)  # never an empty context
                continue
            kept = {(p.layer, p.unit_id) for p in gated.paths}
            assert kept and kept <= previous
            previous = kept

        full_drop = filter_paths(ctx, 1.0)
        assert full_drop.gate_bypassed
        assert len(full_drop.paths) > 0
        assert np.array_equal(full_drop.c, ctx.c)


# --- 7: constructed corpus, end to end ------------------------------------------------------


def test_07_keyword_corpus_is_solved_and_toy_answerer_converges():
    docs, queries, qrels = keyword_eval_suite(n_queries=40, seed=0)
    hier = build(docs, EmbedderSpec(dim=256), depth=3)
    report = evaluate(hier, queries, qrels, EvalConfig(k=5))
    assert report.mean_recall_at_k == 1.0
    assert report.mean_ndcg_at_k == 1.0

    qa_docs, qa_examples = build_toy_qa()
    qa_hier = build(qa_docs, EmbedderSpec(dim=64), depth=2)
    cfg = TrainConfig(lr=0.5, epochs=500,
                      gate=GateConfig(lambda1=0.0, lambda2=0.0, ensemble_K=2),
                      router=RouterConfig(k_per_layer=3))
    result = train(qa_examples, qa_hier, cfg)
    assert not result.diverged
    assert result.accuracy == 1.0
    # recount through predict, so the gate does not rest on train's own report
    hits = 0
    for ex in qa_examples:
        ctx = filter_paths(route(qa_hier, ex.query.text, cfg.router), cfg.gate.tau_path)
        p = predict(result.params, ctx.retrieval.encodings[0], ctx)
        hits += int(np.argmax(p)) == ex.gold
    assert hits == len(qa_examples)


# --- 8: the depth-by-temperature sweep on mixed-domain data ----------------------------------


def test_08_mixed_domain_sweep_completes_with_entropy_rising_in_temperature():
    docs, queries, qrels = _cisi_like()
    synthetic = synthesize_corpus(n_docs=len(docs), seed=13, id_start=900_001,
                                  domain_tag="synthetic")
    grid = SweepGrid(depths=(1, 2, 3, 4, 5), temperatures=(0.5, 1.0, 1.2, 2.0),
                     mix_ratios=(0.5,))
    started = time.monotonic()
    result = sweep(grid, docs, queries, qrels, EvalConfig(k=5), corpus_b=synthetic,
                   embedder_spec=EmbedderSpec(dim=128))
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"sweep took {elapsed:.0f}s"

    assert len(result.rows) == 20
    assert all("error" not in row for row in result.rows)
    lines = result.to_csv().splitlines()
    assert lines[0] == "depth,temperature,mix_ratio,recall_at_k,ndcg_at_k,map,qa_accuracy,routing_entropy"
    assert len(lines) == 21

    by_depth: dict[int, list[tuple[float, float]]] = {}
    for row in result.rows:
        by_depth.setdefault(row["depth"], []).append(
            (row["temperature"], row["routing_entropy"])
        )
    for depth, pairs in by_depth.items():
        pairs.sort()
        entropies = [h for _, h in pairs]
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:])), (
            f"entropy not monotone at depth {depth}: {entropies}"
        )

    best = max(result.rows, key=lambda r: r["ndcg_at_k"])
    print(f"metric peak: depth={best['depth']} T={best['temperature']} "
          f"ndcg@5={best['ndcg_at_k']:.3f}")


# --- 9: the entropy penalty sharpens predictions ----------------------------------------------


def test_09_entropy_penalty_lowers_final_predictive_entropy():
    docs, examples = build_toy_qa()
    hier = build(docs, EmbedderSpec(dim=64), depth=2)
    base = dict(lr=0.5, epochs=200, router=RouterConfig(k_per_layer=3))
    free = train(examples, hier,
                 TrainConfig(gate=GateConfig(lambda1=0.0, ensemble_K=2, seed=0), **base))
    sharp = train(examples, hier,
                  TrainConfig(gate=GateConfig(lambda1=0.5, ensemble_K=2, seed=0), **base))
    assert not free.diverged and not sharp.diverged
    assert sharp.history[-1]["entropy"] < free.history[-1]["entropy"]


# --- 10: byte-level determinism of every command ---------------------------------------------


def _run(*argv):
    # a silent NaN or overflow fails the child process too, as it does the in-process tests
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mgrag",
                           *map(str, argv)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{argv}: {proc.stderr}"
    return proc.stdout


def _without_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def test_10_every_command_reruns_byte_identically(tmp_path):
    from mgrag.corpus import documents_to_jsonl

    docs_path = DATA / "cisi_sample.all"
    queries_path = DATA / "cisi_sample.qry"
    qrels_path = DATA / "cisi_sample.rel"

    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _run("ingest", "--cisi-docs", docs_path, "--out", out_a)
    _run("ingest", "--cisi-docs", docs_path, "--out", out_b)
    assert out_a.read_bytes() == out_b.read_bytes()

    idx_a, idx_b = tmp_path / "a.mgix", tmp_path / "b.mgix"
    stdout_a = _run("build", "--corpus", docs_path, "--depth", "2", "--dim", "48",
                    "--out", idx_a)
    stdout_b = _run("build", "--corpus", docs_path, "--depth", "2", "--dim", "48",
                    "--out", idx_b)
    assert idx_a.read_bytes() == idx_b.read_bytes()
    assert stdout_a == stdout_b

    query_args = ("query", "--index", idx_a, "--text", "library catalogs", "--tau", "0.05")
    assert _run(*query_args) == _run(*query_args)

    eval_args = ("eval", "--index", idx_a, "--queries", queries_path, "--qrels", qrels_path)
    assert _without_timestamp(_run(*eval_args)) == _without_timestamp(_run(*eval_args))

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep_args = ("sweep", "--corpus", docs_path, "--queries", queries_path,
                  "--qrels", qrels_path, "--depths", "1,2", "--temperatures", "1.0",
                  "--mix-ratios", "0.0", "--dim", "48")
    _run(*sweep_args, "--out-csv", csv_a)
    _run(*sweep_args, "--out-csv", csv_b)
    assert csv_a.read_bytes() == csv_b.read_bytes()

    toy_docs, toy_examples = build_toy_qa(n_classes=3, n_per_class=2, seed=2)
    (tmp_path / "docs.jsonl").write_text(documents_to_jsonl(toy_docs), encoding="utf-8")
    qa_rows = [{"query_id": ex.query.query_id, "text": ex.query.text, "gold": ex.gold}
               for ex in toy_examples]
    (tmp_path / "qa.jsonl").write_text("".join(json.dumps(row) + "\n" for row in qa_rows),
                                       encoding="utf-8")
    toy_idx = tmp_path / "toy.mgix"
    _run("build", "--corpus", tmp_path / "docs.jsonl", "--depth", "2", "--dim", "32",
         "--out", toy_idx)
    params_a, params_b = tmp_path / "pa.json", tmp_path / "pb.json"
    train_args = ("train-gen", "--index", toy_idx, "--qa", tmp_path / "qa.jsonl",
                  "--epochs", "20", "--ensemble-k", "2", "--lambda2", "0.2")
    stdout_a = _run(*train_args, "--out-params", params_a)
    stdout_b = _run(*train_args, "--out-params", params_b)
    assert stdout_a == stdout_b
    assert params_a.read_bytes() == params_b.read_bytes()

    grad_args = ("gradcheck", "--classes", "3", "--lambda-grid", "0,0.5")
    assert _run(*grad_args) == _run(*grad_args)
