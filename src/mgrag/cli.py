"""Command-line entry point: ingest, build, query, eval, sweep, train-gen, gradcheck.

Machine-readable output (JSON/CSV) goes to standard output or to files named
by flags; human logs go to standard error. Every command is deterministic
for a fixed seed; the default seed is 0, never the clock. Exit codes:
0 success, 1 runtime failure (including a sweep with failed cells), 2 usage
or validation error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .confidence import GateConfig, entropy, filter_paths
from .corpus import MAX_DEPTH
from .embedder import EmbedderSpec
from .errors import ConfigError, MgragError, ParseError
from .evaluation import EvalConfig, SweepGrid, evaluate, sweep
from .generator import (
    TrainConfig,
    build_toy_qa,
    gradient_check,
    init_params,
    qa_accuracy,
    read_jsonl_qa,
    save_params,
    train,
)
from .memory import build, load, save
from .router import RouterConfig, route

log = logging.getLogger("mgrag")


def _read_config_file(path: str) -> dict[str, str]:
    """One `key = value` per line; `#` starts a comment."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(key: str, raw: str, kind: type):
    if kind is bool:
        if raw.lower() not in _BOOL_STRINGS:
            raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
        return _BOOL_STRINGS[raw.lower()]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: expected {kind.__name__}, got {raw!r}")


class Options:
    """Flag > config file > default, resolved per key."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
        unknown = sorted(set(self.file_cfg) - (set(vars(args)) - {"command", "func"}))
        if unknown:
            raise ConfigError(f"{args.config}: unknown config key {', '.join(unknown)} for {args.command}")

    def get(self, key: str, default, kind: type | None = None):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.file_cfg:
            return _coerce(key, self.file_cfg[key], kind or type(default))
        return default


def _read(kind: str, path: str, fmt: str):
    """Read ``documents``, ``queries`` or ``qrels`` from a JSONL or marker-format file."""
    if fmt == "auto":
        fmt = "jsonl" if str(path).endswith(".jsonl") else "cisi"
    try:
        return getattr(corpus_mod, f"read_{fmt}_{kind}")(path)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        log.info("wrote %s", out)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _gate_from(opts: Options) -> GateConfig:
    return GateConfig(
        tau_path=opts.get("tau", 0.0),
        lambda1=opts.get("lambda1", 0.0),
        lambda2=opts.get("lambda2", 0.0),
        ensemble_K=opts.get("ensemble_k", 8),
        noise_sigma=opts.get("sigma", 0.05),
        seed=opts.get("seed", 0),
        var_mode=opts.get("var_mode", "ensemble"),
    )


def _router_from(opts: Options) -> RouterConfig:
    return RouterConfig(
        k_per_layer=opts.get("k", 5),
        temperature=opts.get("temperature", 1.0),
        layer_score_mode=opts.get("layer_score_mode", "mean_topk"),
    )


# --- commands ---------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    Options(args)  # rejects a config file with unknown keys
    if args.cisi_docs:
        docs = _read("documents", args.cisi_docs, "cisi")
    else:
        docs = _read("documents", args.jsonl, "jsonl")
    text = corpus_mod.documents_to_jsonl(docs)
    Path(args.out).write_text(text, encoding="utf-8")
    log.info("wrote %s", args.out)
    print(f"{len(docs)} documents")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    opts = Options(args)
    depth = opts.get("depth", 3)
    if not 1 <= depth <= MAX_DEPTH:
        raise ConfigError(f"depth must be in [1, {MAX_DEPTH}], got {depth}")
    spec = EmbedderSpec(
        dim=opts.get("dim", 256),
        hash_seed=opts.get("hash_seed", 0),
        shared_phi=opts.get("shared_phi", False),
    )
    docs = _read("documents", args.corpus, args.format)
    hier = build(docs, spec, depth)
    save(hier, args.out)
    log.info("wrote index %s", args.out)
    print(json.dumps(hier.manifest.to_dict(), sort_keys=True, indent=2))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    opts = Options(args)
    hier = load(args.index)
    ctx = route(hier, args.text, _router_from(opts))
    gated = filter_paths(ctx, opts.get("tau", 0.0))
    dropped = 0 if gated.gate_bypassed else len(ctx.paths) - len(gated.paths)
    payload = {
        "query_id": opts.get("query_id", 0),
        "weights": [float(w) for w in gated.weights],
        "paths": [
            {
                "layer": p.layer,
                "unit_id": p.unit_id,
                "doc_id": p.doc_id,
                "sim": p.sim,
                "path_confidence": p.path_confidence,
            }
            for p in gated.paths
        ],
        "context_norm": float(np.linalg.norm(gated.c)),
        "confidence": {
            "routing_entropy": entropy(gated.weights),
            "kept_paths": len(gated.paths),
            "dropped_paths": dropped,
            "gate_bypassed": gated.gate_bypassed,
        },
    }
    _write_or_print(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    opts = Options(args)
    hier = load(args.index)
    queries = _read("queries", args.queries, args.format)
    qrels = _read("qrels", args.qrels, args.format)
    indexed = {int(d) for mem in hier.layers for d in mem.doc_ids}
    dangling = corpus_mod.validate_qrels(qrels, indexed)
    if dangling:
        log.warning("%d qrels pairs point at documents not in the index", len(dangling))
    cfg = EvalConfig(
        k=opts.get("eval_k", 5),
        router=_router_from(opts),
        gate=_gate_from(opts),
        agg_mode=opts.get("agg_mode", "max"),
    )
    report = evaluate(hier, queries, qrels, cfg)
    log.info(
        "evaluated %d queries (skipped %d): recall@%d %.4f ndcg@%d %.4f map %.4f",
        report.n_evaluated,
        report.n_skipped,
        report.k,
        report.mean_recall_at_k,
        report.k,
        report.mean_ndcg_at_k,
        report.map,
    )
    _write_or_print(report.to_json(), args.out)
    return 0


def _parse_axis(raw: str, kind: type) -> tuple:
    try:
        return tuple(kind(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"cannot parse axis value {raw!r} as {kind.__name__} list")


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = Options(args)
    grid = SweepGrid(
        depths=_parse_axis(opts.get("depths", "1,2,3,4,5"), int),
        temperatures=_parse_axis(opts.get("temperatures", "0.5,1.0,1.2,2.0"), float),
        mix_ratios=_parse_axis(opts.get("mix_ratios", "0.0"), float),
    )
    corpus_a = _read("documents", args.corpus, args.format)
    corpus_b = _read("documents", args.corpus_b, args.format) if args.corpus_b else None
    queries = _read("queries", args.queries, args.format)
    qrels = _read("qrels", args.qrels, args.format)
    base = EvalConfig(
        k=opts.get("eval_k", 5),
        router=_router_from(opts),
        gate=_gate_from(opts),
        agg_mode=opts.get("agg_mode", "max"),
    )
    spec = EmbedderSpec(
        dim=opts.get("dim", 256),
        hash_seed=opts.get("hash_seed", 0),
        shared_phi=opts.get("shared_phi", False),
    )
    result = sweep(
        grid,
        corpus_a,
        queries,
        qrels,
        base=base,
        corpus_b=corpus_b,
        mix_size=opts.get("mix_size", None, int),
        seed=opts.get("seed", 0),
        embedder_spec=spec,
    )
    failures = [row for row in result.rows if "error" in row]
    log.info("swept %d cells (%d failed)", len(result.rows), len(failures))
    for row in failures:
        log.warning(
            "cell depth=%s T=%s ratio=%s failed: %s",
            row["depth"],
            row["temperature"],
            row["mix_ratio"],
            row["error"],
        )
    if args.out_json:
        Path(args.out_json).write_text(result.to_json(), encoding="utf-8")
        log.info("wrote %s", args.out_json)
    _write_or_print(result.to_csv(), args.out_csv)
    return 1 if failures else 0


def cmd_train_gen(args: argparse.Namespace) -> int:
    opts = Options(args)
    hier = load(args.index)
    dataset = read_jsonl_qa(args.qa)
    if not dataset:
        raise ConfigError(f"{args.qa}: no examples")
    cfg = TrainConfig(
        lr=opts.get("lr", 0.1),
        epochs=opts.get("epochs", 200),
        gate=_gate_from(opts),
        router=_router_from(opts),
    )
    result = train(dataset, hier, cfg)
    accuracy = qa_accuracy(result.params, dataset, hier, cfg)
    if args.out_params:
        save_params(result.params, args.out_params)
        log.info("wrote %s", args.out_params)
    payload = {
        "epochs_run": len(result.history),
        "diverged": result.diverged,
        "final_train_accuracy": accuracy,
        "history": result.history,
        "config": {
            "lr": cfg.lr,
            "epochs": cfg.epochs,
            "router": cfg.router.to_dict(),
            "gate": cfg.gate.to_dict(),
        },
    }
    _write_or_print(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    opts = Options(args)
    seed = opts.get("seed", 0)
    n_classes = opts.get("classes", 4)
    dim = opts.get("dim", 8)
    tol = opts.get("tol", 1e-4)
    docs, examples = build_toy_qa(n_classes=n_classes, n_per_class=1, seed=seed)
    hier = build(docs, EmbedderSpec(dim=dim), depth=2)
    params = init_params(n_classes, dim, seed=seed)
    grid = _parse_axis(opts.get("lambda_grid", "0,0.1,1.0"), float)
    worst = 0.0
    for lam1 in grid:
        for lam2 in grid:
            cfg = TrainConfig(
                gate=GateConfig(
                    lambda1=lam1,
                    lambda2=lam2,
                    ensemble_K=opts.get("ensemble_k", 8),
                    noise_sigma=opts.get("sigma", 0.05),
                    seed=seed,
                ),
                router=_router_from(opts),
            )
            err = gradient_check(params, examples[0], hier, cfg)
            log.info("lambda1=%g lambda2=%g max_rel_err=%.3e", lam1, lam2, err)
            worst = max(worst, err)
    if worst < tol:
        print(f"PASS max_rel_err={worst:.3e} (< {tol:g})")
        return 0
    print(f"FAIL max_rel_err={worst:.3e} (>= {tol:g})")
    return 1


# --- parser -----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file; flags override it")
    p.add_argument("--seed", type=int, help="deterministic seed (default 0)")


def _add_router_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="hits per layer (default 5)")
    p.add_argument("--temperature", type=float, help="routing temperature (default 1.0)")
    p.add_argument("--layer-score-mode", dest="layer_score_mode", choices=["mean_topk", "max"])


def _add_gate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, help="path confidence threshold (default 0: off)")
    p.add_argument("--lambda1", type=float, help="entropy coefficient (default 0)")
    p.add_argument("--lambda2", type=float, help="variance coefficient (default 0)")
    p.add_argument("--ensemble-k", dest="ensemble_k", type=int, help="perturbed passes (default 8)")
    p.add_argument("--sigma", type=float, help="perturbation scale (default 0.05)")
    p.add_argument("--var-mode", dest="var_mode", choices=["ensemble", "intra"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgrag",
        description="Multi-granularity retrieval with confidence-gated generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a corpus to canonical JSONL")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cisi-docs", help="marker-format document file")
    src.add_argument("--jsonl", help="JSONL document file")
    p.add_argument("--out", required=True, help="output JSONL path")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="segment, embed, and index a corpus")
    p.add_argument("--corpus", required=True, help="document file")
    p.add_argument("--format", choices=["auto", "cisi", "jsonl"], default="auto")
    p.add_argument("--depth", type=int, help="granularity layers (default 3)")
    p.add_argument("--dim", type=int, help="embedding dimension (default 256)")
    p.add_argument("--hash-seed", dest="hash_seed", type=int, help="feature hash seed (default 0)")
    p.add_argument("--shared-phi", dest="shared_phi", action="store_const", const=True,
                   help="share one encoder across layers")
    p.add_argument("--out", required=True, help="output index path")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="route one query and print its paths")
    p.add_argument("--index", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--query-id", dest="query_id", type=int)
    p.add_argument("--out", help="write JSON here instead of stdout")
    _add_router_flags(p)
    p.add_argument("--tau", type=float, help="path confidence threshold (default 0: off)")
    _add_common(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="score retrieval on queries with judgments")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--format", choices=["auto", "cisi", "jsonl"], default="auto")
    p.add_argument("--eval-k", dest="eval_k", type=int, help="ranking cutoff (default 5)")
    p.add_argument("--agg-mode", dest="agg_mode", choices=["max", "sum"])
    p.add_argument("--out", help="write report JSON here instead of stdout")
    _add_router_flags(p)
    _add_gate_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid over depth, temperature, mixing ratio")
    p.add_argument("--corpus", required=True, help="first corpus source")
    p.add_argument("--corpus-b", dest="corpus_b", help="second corpus source for mixing")
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--format", choices=["auto", "cisi", "jsonl"], default="auto")
    p.add_argument("--depths", help="comma list, e.g. 1,2,3,4,5")
    p.add_argument("--temperatures", help="comma list, e.g. 0.5,1.0,1.2,2.0")
    p.add_argument("--mix-ratios", dest="mix_ratios", help="comma list, e.g. 0.0,0.5,1.0")
    p.add_argument("--mix-size", dest="mix_size", type=int, help="mixed corpus size")
    p.add_argument("--dim", type=int)
    p.add_argument("--hash-seed", dest="hash_seed", type=int)
    p.add_argument("--shared-phi", dest="shared_phi", action="store_const", const=True)
    p.add_argument("--eval-k", dest="eval_k", type=int)
    p.add_argument("--agg-mode", dest="agg_mode", choices=["max", "sum"])
    p.add_argument("--out-csv", dest="out_csv", help="write CSV here instead of stdout")
    p.add_argument("--out-json", dest="out_json", help="also write the full JSON grid here")
    _add_router_flags(p)
    _add_gate_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train-gen", help="train the answer model on QA examples")
    p.add_argument("--index", required=True)
    p.add_argument("--qa", required=True, help="JSONL: {query_id, text, gold}")
    p.add_argument("--lr", type=float, help="learning rate (default 0.1)")
    p.add_argument("--epochs", type=int, help="training epochs (default 200)")
    p.add_argument("--out-params", dest="out_params", help="write trained parameters JSON here")
    p.add_argument("--out", help="write history JSON here instead of stdout")
    _add_router_flags(p)
    _add_gate_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train_gen)

    p = sub.add_parser("gradcheck", help="compare analytic and numeric gradients")
    p.add_argument("--classes", type=int, help="answer classes (default 4)")
    p.add_argument("--dim", type=int, help="embedding dimension (default 8)")
    p.add_argument("--lambda-grid", dest="lambda_grid", help="comma list (default 0,0.1,1.0)")
    p.add_argument("--tol", type=float, help="failure threshold (default 1e-4)")
    p.add_argument("--ensemble-k", dest="ensemble_k", type=int)
    p.add_argument("--sigma", type=float)
    _add_router_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MgragError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
