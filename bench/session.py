"""One workload run: set-up, timed closed-loop rounds, verification, metrics.

A round runs, one call at a time (a closed loop with one client):
builds + saves of fresh corpora -> single queries through route, gate and
rank -> evaluate calls -> in-process ``mgrag query`` calls -> sweep calls.
Every stage runs on every workload, because every metric is reported on
every workload; the workload's sizes decide which stage dominates.

Latencies are medians over the run's calls; rates are the work of all the
run's calls over their summed time. Calls are short and many, and every call
of a stage does the same amount of work (see ``SHAPE_KEY``), so a run's
figures move with the program and the machine, not with its inputs.

The machine's part is then scaled out. On a shared host the speed of a core
drifts by a tenth to a third over minutes, with other tenants' load. So a
fixed reference task (``machine_ref_ms``: string hashing into a numpy
vector and a matrix-vector product, the kinds of work mgrag's embedder and
search do, written here and not calling mgrag) is timed before every stage,
and every time is multiplied by ``REF_MS`` over the run's median reference
time (rates are divided by it). A scaled figure is what the call would
take on a machine that runs the reference task in ``REF_MS``. No change to
mgrag can change the reference task, so it moves a scaled figure as much as
the raw one; the raw medians stay in the run record.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import statistics
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from mgrag import cli, confidence, corpus, embedder, evaluation, memory, router
from mgrag.confidence import GateConfig
from mgrag.embedder import EmbedderSpec
from mgrag.evaluation import EvalConfig
from mgrag.router import RouterConfig

from spans import LEVEL, SIZE, SpanIndex, Tracer
from workloads import (
    SHAPE_KEY, TAU, Workload, rephrase, reletter_corpus, reletter_sweep, sweep_inputs, wide_corpus,
)

SPEC = EmbedderSpec(dim=256)
DEPTH = 5
K = 5
ROUTER = RouterConfig(k_per_layer=K)
EVAL = EvalConfig(k=K, router=ROUTER, gate=GateConfig(tau_path=TAU))
SETUP_REPS = 3  # at least; set-up repeats until SETUP_MIN_S has passed
SETUP_MIN_S = 3.0
MIN_ROUNDS = 3  # always run; their outputs feed the digest, so it does not depend on speed
TAIL_PCTS = (99.9, 99, 95, 90, 50)  # the tail reported is the highest with >= 10 samples beyond it
REF_MS = 1.7  # the reference task's median time on the 2-vCPU Xeon host the benchmark was tuned on
_REF_TEXTS = [f"reference{i:05d}" for i in range(600)]
_REF_MATRIX = np.random.default_rng(0).random((3000, 256))  # 6 MB, about a query-serve layer
ORACLE_QUERIES = 8
ORACLE_K = 10

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float]:
    """(percentile, value) for the highest of TAIL_PCTS with at least ten samples beyond it."""
    pct = next((p for p in TAIL_PCTS if len(values) * (100 - p) / 100 >= 10), TAIL_PCTS[-1])
    return pct, float(np.percentile(values, pct)) if values else 0.0


def machine_ref_ms() -> float:
    """Wall time of the fixed reference task: shows how fast the machine ran, not mgrag."""
    t0 = perf_counter()
    counts = np.zeros(_REF_MATRIX.shape[1])
    for text in _REF_TEXTS:
        slot = int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")
        counts[slot % counts.size] += 1.0
    _REF_MATRIX @ counts
    return 1e3 * (perf_counter() - t0)


def _query(hier, q):
    ctx = router.route(hier, q.text, ROUTER)
    gated = confidence.filter_paths(ctx, TAU)
    return ctx, gated, evaluation.aggregate_ranking(gated, q.query_id)


def _hit_line(q, gated, ranking) -> str:
    return f"{q.text}|{ranking.doc_ids}|{ranking.scores}|{len(gated.paths)}|{gated.gate_bypassed}"


def _cli_query(path: Path, text: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["query", "--index", str(path), "--text", text, "--tau", str(TAU), "--k", str(K)])
    if code != 0:
        raise RuntimeError(f"mgrag query exited with {code}")
    return out.getvalue()


def _sweep(inputs):
    return evaluation.sweep(
        inputs.grid, inputs.corpus_a, inputs.queries, inputs.qrels, base=EVAL,
        corpus_b=inputs.corpus_b, embedder_spec=SPEC, qa_dataset=inputs.qa, qa_train=inputs.qa_train,
    )


def _eval_json(report) -> str:
    data = report.to_dict()
    data.pop("timestamp")
    return json.dumps(data, sort_keys=True)


def _oracle_top_k(mem, query_vec: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Brute force: every unit scored, sorted by descending cosine, then unit id."""
    if not np.any(query_vec):
        return []
    sims = mem.vectors @ query_vec
    order = sorted(range(mem.n_units), key=lambda i: (-sims[i], mem.unit_ids[i]))
    return [(mem.unit_ids[i], float(sims[i])) for i in order[:k]]


_WORD_RE = re.compile(r"[a-z0-9]+")


def _features(text: str, spec: EmbedderSpec) -> list[str]:
    """The embedder's features (word unigrams, character n-grams), counted by the benchmark itself."""
    words = _WORD_RE.findall(text.lower())
    joined = " ".join(words)
    grams = [
        joined[i : i + n]
        for n in range(spec.ngram_min, spec.ngram_max + 1)
        for i in range(len(joined) - n + 1)
    ]
    return ["w:" + w for w in words] + ["g:" + g for g in grams]


class Session:
    def __init__(self, workload: Workload, seed: int, tracer: Tracer, workdir: Path):
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.times: dict[str, list[float]] = defaultdict(list)
        self.build_units: dict[str, list[dict[int, int]]] = defaultdict(list)  # units per layer, per build
        self.setup_times: list[float] = []
        self.round_times: list[float] = []
        self.ref_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.paths_total = 0
        self.paths_kept = 0
        self.bypassed = 0
        self.served = None  # (corpus, hier, index path) from the last set-up
        self.build_shape = wide_corpus(workload.build_docs, *SHAPE_KEY)
        self.sweep_shape = sweep_inputs(workload.sweep, *SHAPE_KEY)
        self.first_outputs: list[tuple] = []
        self.index_bytes = 0
        self._ops: dict[str, object] = {}

    # --- accounting ---------------------------------------------------------

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def check(self, what: str, ok) -> None:
        """One correctness check; ``ok`` returns True when it passes. Raising fails it."""
        self.attempted += 1
        try:
            passed = ok()
        except Exception:  # a check that cannot run has failed
            passed = False
            what = f"{what}: {traceback.format_exc(limit=3)}"
        if not passed:
            self._fail(what)

    def call(self, kind: str, fn, *args, **kwargs):
        """One closed-loop operation: timed, counted, and a ``bench.<kind>`` span."""
        op = self._ops.get(kind)
        if op is None:
            op = self._ops[kind] = self.tracer.wrap(f"bench.{kind}", fn)
        self.tracer.op += 1
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = op(*args, **kwargs)
        except Exception:  # a failed operation is counted and the run goes on
            self._fail(f"{kind}: {traceback.format_exc(limit=3)}")
            return None
        self.times[kind].append(perf_counter() - t0)
        return out

    def _feed(self, text: str) -> None:
        self.digest.update(text.encode("utf-8"))
        self.digest.update(b"\0")

    def _build(self, kind: str, docs):
        hier = self.call(kind, memory.build, docs, SPEC, DEPTH)
        if hier is not None:
            self.build_units[kind].append(dict(hier.manifest.unit_counts))
        return hier

    def _next_stage(self) -> None:
        # each stage starts from a collected heap, as separate CLI processes would
        gc.collect()
        self.ref_ms.append(machine_ref_ms())

    def _digest_file(self, path: Path) -> None:
        self._feed(hashlib.sha256(path.read_bytes()).hexdigest())

    # --- phases -------------------------------------------------------------

    def setup(self) -> None:
        """Input generation, build, save and load of the served index; repeated."""
        path = self.workdir / "served.mgix"
        start = perf_counter()
        reps = 0
        while reps < SETUP_REPS or perf_counter() - start < SETUP_MIN_S:
            reps += 1
            self.ref_ms.append(machine_ref_ms())
            t0 = perf_counter()
            served = reletter_corpus(self.w.served(*SHAPE_KEY), self.seed)
            hier = self._build("setup_build", served.docs)
            if hier is None:
                continue
            self.call("setup_save", memory.save, hier, path)
            hier = self.call("setup_load", memory.load, path)
            if hier is None:
                continue
            self.setup_times.append(perf_counter() - t0)
            self.served = (served, hier, path)
        if self.served is None:
            raise RuntimeError("set-up failed: " + "; ".join(self.errors))
        self.index_bytes = path.stat().st_size
        self._digest_file(path)

    def run(self, seconds: float) -> None:
        t0 = perf_counter()
        r = 0
        while r < MIN_ROUNDS or perf_counter() - t0 < seconds:
            start = perf_counter()
            self.round(r)
            self.round_times.append(perf_counter() - start)
            r += 1

    def round(self, r: int) -> None:
        # round keys (seed, round + 1, stage, ...) never meet set-up's key (seed,)
        w, key, record = self.w, (self.seed, r + 1), r < MIN_ROUNDS
        data, hier, path = self.served
        built_path = self.workdir / "round.mgix"
        self._next_stage()
        for b in range(w.builds):
            built = self._build("build", reletter_corpus(self.build_shape, *key, 0, b).docs)
            if built is not None:
                self.call("save", memory.save, built, built_path)
                if record:
                    self._digest_file(built_path)
        self._next_stage()
        for q in rephrase(data.queries, w.queries, *key, 1):
            out = self.call("query", _query, hier, q)
            if out is None or not record:
                continue
            ctx, gated, ranking = out
            self.paths_total += len(ctx.paths)
            self.paths_kept += len(gated.paths)
            self.bypassed += gated.gate_bypassed
            line = _hit_line(q, gated, ranking)
            self._feed(line)
            if r == 0:
                self.first_outputs.append((q, line))
        self._next_stage()
        for i in range(w.evals):
            eval_queries = rephrase(data.queries, w.eval_batch, *key, 2, i)
            report = self.call("evaluate", evaluation.evaluate, hier, eval_queries, data.qrels, EVAL)
            if report is not None and record:
                self._feed(_eval_json(report))
        self._next_stage()
        for q in rephrase(data.queries, w.cli_calls, *key, 4):
            text = self.call("cli", _cli_query, path, q.text)
            if text is not None and record:
                self._feed(text)
        self._next_stage()
        for i in range(w.sweeps):
            result = self.call("sweep", _sweep, reletter_sweep(self.sweep_shape, *key, 3, i))
            if result is not None:
                for row in result.rows:
                    self.check(f"sweep cell {row}", lambda: "error" not in row)
                if record:
                    self._feed(result.to_csv())

    def verify(self) -> None:
        """Brute-force search oracle, a replay of round 0, and the recall check."""
        served, hier, _ = self.served

        def oracle_agrees(q, mem) -> bool:
            qv = embedder.embed(q.text, mem.layer, SPEC)
            hits = memory.search_layer(mem, qv, ORACLE_K)
            expect = _oracle_top_k(mem, qv, ORACLE_K)
            self._feed(repr([(h.unit_id, h.sim) for h in hits]))
            return [h.unit_id for h in hits] == [u for u, _ in expect] and all(
                abs(h.sim - s) <= 1e-12 for h, (_, s) in zip(hits, expect)
            )

        def full_recall() -> bool:
            report = evaluation.evaluate(hier, served.queries, served.qrels, EvalConfig(k=K, router=ROUTER))
            self._feed(_eval_json(report))
            return report.mean_recall_at_k == 1.0

        for q in served.queries[:ORACLE_QUERIES]:
            for mem in hier.layers:
                self.check(f"search_layer oracle: query {q.query_id} layer {mem.layer}", lambda: oracle_agrees(q, mem))
        for q, line in self.first_outputs:
            self.check(f"replay of query {q.query_id}", lambda: _hit_line(q, *_query(hier, q)[1:]) == line)
        if self.w.check_recall:
            self.check(f"recall@{K} with the gate off", full_recall)

    # --- metrics ------------------------------------------------------------

    def machine_ref(self) -> float:
        """The run's median reference-task time, in ms."""
        return _median(self.ref_ms)

    def end_to_end(self) -> dict[str, float]:
        scale = REF_MS / self.machine_ref()  # times are multiplied by it, rates divided
        units = sum(sum(u.values()) for u in self.build_units["build"])
        evals = self.times["evaluate"]
        return {
            "setup_s": scale * _median(self.setup_times),
            "build_units_per_s": units / sum(self.times["build"]) / scale if units else 0.0,
            "query_p50_ms": scale * 1e3 * _median(self.times["query"]),
            "eval_qps": self.w.eval_batch * len(evals) / sum(evals) / scale if evals else 0.0,
            "cli_query_ms": scale * 1e3 * _median(self.times["cli"]),
            "sweep_s": scale * _median(self.times["sweep"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def distributions(self) -> dict[str, dict[str, float]]:
        """Sample count, median and tail of every timed stage, for the run record."""
        out = {}
        for kind, values in sorted(self.times.items()):
            pct, value = tail(values)
            out[kind] = {"n": len(values), "p50_s": _median(values), f"p{pct:g}_s": value}
        return out

    def distinct_feature_share(self) -> float:
        """Distinct features over feature occurrences, all layers' units of the main corpus."""
        docs = self.served[0].docs
        seen: set[str] = set()
        total = 0
        for layer in range(1, DEPTH + 1):
            for doc in docs:
                for unit in corpus.segment(doc, layer):
                    feats = _features(unit.text, SPEC)
                    total += len(feats)
                    seen.update(feats)
        return len(seen) / total if total else 0.0

    def layer_metrics(self, spans: SpanIndex) -> dict[str, float]:
        med = _median
        main = spans.site(f"bench.{self.w.main_build}")
        m: dict[str, float] = {}
        segments = spans.func("corpus.segment")
        unit_embeds = spans.site("mgrag.memory.embed")
        for layer in range(1, DEPTH + 1):
            seg_l = [i for i in segments if spans.spans[i][LEVEL] == layer]
            emb_l = [i for i in unit_embeds if spans.spans[i][LEVEL] == layer]
            m[f"corpus.segment_s.l{layer}"] = med(spans.per_parent(main, seg_l, spans.dur.__getitem__))
            m[f"embedder.embed_s.l{layer}"] = med(spans.per_parent(main, emb_l, spans.dur.__getitem__))
            m[f"corpus.units.l{layer}"] = med([u.get(layer, 0) for u in self.build_units[self.w.main_build]])
        m["corpus.distinct_feature_share"] = self.distinct_feature_share()

        routes = spans.func("router.route")
        m["embedder.query_embed_ms"] = 1e3 * med(
            spans.per_parent(routes, spans.site("mgrag.router.embed"), spans.dur.__getitem__)
        )
        searches = spans.func("memory.search_layer")
        for layer in range(1, DEPTH + 1):
            m[f"memory.search_ms.l{layer}"] = 1e3 * med(
                [spans.dur[i] for i in searches if spans.spans[i][LEVEL] == layer]
            )
        m["memory.units_scanned"] = med(spans.per_parent(routes, searches, lambda i: spans.spans[i][SIZE]))
        main_set = set(main)
        main_builds = [i for i in spans.func("memory.build") if spans.ancestor(i, main_set) is not None]
        m["memory.build_self_s"] = med([spans.self_time[i] for i in main_builds])
        saves = spans.site("bench.save" if self.w.main_build == "build" else "bench.setup_save")
        m["memory.save_s"] = med([spans.dur[i] for i in saves])
        m["memory.load_s"] = med([spans.dur[i] for i in spans.site("mgrag.cli.load")])
        m["memory.index_bytes"] = float(self.index_bytes)

        m["router.route_ms"] = 1e3 * med([spans.dur[i] for i in routes])
        m["router.assemble_self_ms"] = 1e3 * med([spans.self_time[i] for i in spans.func("router.assemble")])
        m["confidence.filter_ms"] = 1e3 * med([spans.dur[i] for i in spans.func("confidence.filter_paths")])
        m["confidence.paths_kept_share"] = self.paths_kept / self.paths_total if self.paths_total else 0.0
        m["confidence.bypassed"] = float(self.bypassed)

        m["evaluation.rank_ms"] = 1e3 * med([spans.dur[i] for i in spans.func("evaluation.aggregate_ranking")])
        m["evaluation.evaluate_s"] = med([spans.dur[i] for i in spans.site("bench.evaluate")])
        sweeps = spans.site("bench.sweep")
        sweep_builds = spans.site("mgrag.evaluation.build")
        m["evaluation.build_calls"] = med(spans.per_parent(sweeps, sweep_builds, lambda i: 1.0))
        m["evaluation.layers_built"] = med(spans.per_parent(sweeps, sweep_builds, lambda i: spans.spans[i][LEVEL]))

        trains = spans.func("generator.train")
        epochs = self.w.sweep.epochs
        m["generator.train_s"] = med([spans.dur[i] for i in trains])
        m["generator.epoch_ms"] = 1e3 * med([spans.self_time[i] / epochs for i in trains])
        retrieval = [
            i
            for site in ("mgrag.generator.route", "mgrag.generator.filter_paths", "mgrag.generator.embed")
            for i in spans.site(site)
        ]
        per_train = spans.per_parent(trains, retrieval, spans.dur.__getitem__)
        n_examples = self.w.sweep.qa_classes * self.w.sweep.qa_per_class
        m["generator.features_ms"] = 1e3 * med([t / n_examples for t in per_train])
        m["generator.qa_accuracy_s"] = med([spans.dur[i] for i in spans.func("generator.qa_accuracy")])

        clis = spans.site("bench.cli")
        inner = [i for f in ("memory.load", "router.route", "confidence.filter_paths") for i in spans.func(f)]
        covered = spans.per_parent(clis, inner, spans.dur.__getitem__)
        m["cli.self_ms"] = 1e3 * med([spans.dur[i] - c for i, c in zip(clis, covered)])
        return m
