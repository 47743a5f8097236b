"""Command-line entry point: ingest, build, query, eval, sweep, train-gen, gradcheck.

Machine-readable output (JSON/CSV) goes to standard output or to files named
by flags; human logs go to standard error. Every command is deterministic
for a fixed seed; the default seed is 0, never the clock. Exit codes:
0 success, 1 runtime failure (including a sweep with failed cells, and a
diverged ``train-gen``, which writes no parameters), 2 usage or validation
error (including a query with no indexable feature).

Options are declared once per command, in ``COMMANDS``, and a call builds only
its own command's parser; a ``--config`` file sets them by underscored name.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .confidence import VAR_MODES, GateConfig, entropy, filter_paths
from .embedder import EmbedderSpec
from .errors import ConfigError, MgragError
from .evaluation import AGG_MODES, EvalConfig, SweepGrid, evaluate, sweep
from .generator import (
    TrainConfig,
    build_toy_qa,
    gradient_check,
    init_params,
    save_params,
    train,
)
from .memory import build, load, save
from .router import SCORE_MODES, RouterConfig, route

log = logging.getLogger("mgrag")


def _read_config_file(path: str) -> dict[str, str]:
    """One `key = value` per line; `#` starts a comment."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8", errors="replace")  # as every text input is read
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _file_value(path: str, key: str, raw: str, action: argparse.Action):
    """Convert one config-file value the way its flag's own ``type`` and ``choices`` would."""
    if action.nargs == 0:  # a store-true flag
        if raw.lower() not in _BOOL_STRINGS:
            raise ConfigError(f"{path}: config key {key}: expected a boolean, got {raw!r}")
        return _BOOL_STRINGS[raw.lower()]
    try:
        value = action.type(raw) if action.type else raw
    except (ValueError, argparse.ArgumentTypeError):
        raise ConfigError(f"{path}: config key {key}: invalid value {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"{path}: config key {key}: {raw!r} is not one of {list(action.choices)}")
    return value


def parse_args(
    parser: argparse.ArgumentParser, argv: list[str] | None = None
) -> argparse.Namespace:
    """Parse ``argv``: flag > ``--config`` file > the flag's default.

    The file's values become the subcommand's defaults and ``argv`` is parsed
    again. A key must name an optional flag of the subcommand (underscored).
    """
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    # argparse has no public accessor for a subcommand's parser or its actions
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices[args.command]
    settable = {
        action.dest: action
        for action in command._actions
        if action.option_strings and not action.required and action.dest not in ("help", "config")
    }
    file_cfg = _read_config_file(args.config)
    unknown = sorted(set(file_cfg) - set(settable))
    if unknown:
        raise ConfigError(f"{args.config}: unknown config key {', '.join(unknown)} for "
                          f"{args.command} (keys are its optional flags, underscored)")
    command.set_defaults(**{
        key: _file_value(args.config, key, raw, settable[key]) for key, raw in file_cfg.items()
    })
    return parser.parse_args(argv)


def _read(kind: str, path: str, fmt: str):
    """Read ``documents``, ``queries`` or ``qrels`` from a JSONL or marker-format file."""
    if fmt == "auto":
        fmt = "jsonl" if str(path).endswith(".jsonl") else "cisi"
    return getattr(corpus_mod, f"read_{fmt}_{kind}")(path)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        log.info("wrote %s", out)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# gate flag -> GateConfig field
_GATE_FIELDS = {"tau": "tau_path", "lambda1": "lambda1", "lambda2": "lambda2", "seed": "seed",
                "ensemble_k": "ensemble_K", "sigma": "noise_sigma", "var_mode": "var_mode"}


def _gate_from(args: argparse.Namespace, **fixed) -> GateConfig:
    """Gate settings from the command's gate flags, then ``fixed``; other fields keep defaults."""
    flags = {f: getattr(args, dest) for dest, f in _GATE_FIELDS.items() if hasattr(args, dest)}
    return GateConfig(**{**flags, **fixed})


def _router_from(args: argparse.Namespace) -> RouterConfig:
    """``sweep`` has no ``--temperature`` (its axis sets each cell's): the default stays."""
    return RouterConfig(k_per_layer=args.k, layer_score_mode=args.layer_score_mode,
                        temperature=getattr(args, "temperature", RouterConfig.temperature))


def _embedder_from(args: argparse.Namespace) -> EmbedderSpec:
    """A field the command has no flag for (gradcheck has only ``--dim``) keeps its default."""
    fields = ("dim", "hash_seed", "shared_phi")
    return EmbedderSpec(**{name: getattr(args, name) for name in fields if hasattr(args, name)})


def _eval_from(args: argparse.Namespace) -> EvalConfig:
    """Evaluation reads only the gate's threshold; sweep's ``--seed`` is its mixing seed."""
    return EvalConfig(k=args.eval_k, router=_router_from(args), gate=GateConfig(tau_path=args.tau),
                      agg_mode=args.agg_mode)


# --- commands ---------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
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
    spec = _embedder_from(args)
    docs = _read("documents", args.corpus, args.format)
    hier = build(docs, spec, args.depth)  # rejects a depth outside [1, MAX_DEPTH]
    save(hier, args.out)
    log.info("wrote index %s", args.out)
    print(json.dumps(hier.manifest.to_dict(), sort_keys=True, indent=2))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    hier = load(args.index)
    ctx = route(hier, args.text, _router_from(args))
    gated = filter_paths(ctx, args.tau)
    payload = {
        "query_id": args.query_id,
        "weights": [float(w) for w in gated.weights],
        "paths": [vars(p) for p in gated.paths],
        "context_norm": float(np.linalg.norm(gated.c)),
        "confidence": {
            "routing_entropy": entropy(gated.weights),
            "kept_paths": len(gated.paths),
            "dropped_paths": sum(len(layer.hits) for layer in ctx.retrieval.layers) - len(gated.paths),
            "gate_bypassed": gated.gate_bypassed,
        },
    }
    _write_or_print(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    hier = load(args.index)
    queries = _read("queries", args.queries, args.format)
    qrels = _read("qrels", args.qrels, args.format)
    indexed = {int(d) for mem in hier.layers for d in mem.doc_ids}
    dangling = corpus_mod.validate_qrels(qrels, indexed)
    if dangling:
        log.warning("%d qrels pairs point at documents not in the index", len(dangling))
    report = evaluate(hier, queries, qrels, _eval_from(args))
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


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = SweepGrid(depths=args.depths, temperatures=args.temperatures, mix_ratios=args.mix_ratios)
    corpus_a = _read("documents", args.corpus, args.format)
    corpus_b = _read("documents", args.corpus_b, args.format) if args.corpus_b else None
    queries = _read("queries", args.queries, args.format)
    qrels = _read("qrels", args.qrels, args.format)
    result = sweep(grid, corpus_a, queries, qrels, base=_eval_from(args), corpus_b=corpus_b,
                   mix_size=args.mix_size, seed=args.seed, embedder_spec=_embedder_from(args))
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
    cfg = TrainConfig(lr=args.lr, epochs=args.epochs, gate=_gate_from(args),
                      router=_router_from(args))
    hier = load(args.index)
    dataset = corpus_mod.read_jsonl_qa(args.qa)
    if not dataset:
        raise ConfigError(f"{args.qa}: no examples")
    result = train(dataset, hier, cfg)
    if args.out_params and not result.diverged:  # a diverged run leaves no model worth loading
        save_params(result.params, args.out_params)
        log.info("wrote %s", args.out_params)
    payload = {
        "epochs_run": len(result.history),
        "diverged": result.diverged,
        "final_train_accuracy": result.accuracy,
        "history": result.history,
        "config": asdict(cfg),
    }
    _write_or_print(json.dumps(payload, sort_keys=True, indent=2), args.out)
    if result.diverged:
        print(f"error: training diverged after {len(result.history)} of {cfg.epochs} epochs; "
              "no parameters written", file=sys.stderr)
    return 1 if result.diverged else 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not args.lambda_grid:
        raise ConfigError("--lambda-grid needs at least one value")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
    # a bad seed, pass count, sigma or lambda is a usage error before the seed draws
    gates = [_gate_from(args, lambda1=lam1, lambda2=lam2, var_mode=var_mode)
             for var_mode, lam1, lam2 in product(VAR_MODES, args.lambda_grid, args.lambda_grid)]
    docs, examples = build_toy_qa(n_classes=args.classes, n_per_class=1, seed=args.seed)
    hier = build(docs, _embedder_from(args), depth=2)
    params = init_params(args.classes, args.dim, seed=args.seed)
    worst = 0.0
    for gate in gates:
        cfg = TrainConfig(gate=gate, router=_router_from(args))
        err = gradient_check(params, examples[0], hier, cfg)
        log.info("var_mode=%s lambda1=%g lambda2=%g max_rel_err=%.3e",
                 gate.var_mode, gate.lambda1, gate.lambda2, err)
        worst = max(worst, err)
    if worst < args.tol:
        print(f"PASS max_rel_err={worst:.3e} (< {args.tol:g})")
        return 0
    print(f"FAIL max_rel_err={worst:.3e} (>= {args.tol:g})")
    return 1


# --- parser -----------------------------------------------------------------
# Help shows every default; an option set shared by commands is one helper.


def _axis(kind: type, raw: str) -> tuple:
    """argparse ``type`` (with ``kind`` bound by ``partial``) for a comma list such as ``1,2,3``."""
    try:
        return tuple(kind(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {raw!r} as a {kind.__name__} list")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["auto", "cisi", "jsonl"], default="auto",
                   help="input format (default %(default)s: .jsonl files are JSONL)")


def _add_router_flags(p: argparse.ArgumentParser, temperature: bool = True) -> None:
    p.add_argument("--k", type=int, default=5, help="hits per layer (default %(default)s)")
    p.add_argument("--layer-score-mode", dest="layer_score_mode", choices=SCORE_MODES,
                   default="mean_topk", help="layer evidence score (default %(default)s)")
    if temperature:  # sweep's cells take theirs from its --temperatures axis
        p.add_argument("--temperature", type=float, default=1.0,
                       help="routing temperature (default %(default)s)")


def _add_tau_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, default=0.0,
                   help="path confidence threshold (default %(default)s: off); confidences sum to "
                   "1 per query (0.04 on average at depth 5, k 5), and a tau above all of them "
                   "bypasses the gate")


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="deterministic seed (default %(default)s)")
    p.add_argument("--ensemble-k", dest="ensemble_k", type=int, default=8,
                   help="perturbed passes (default %(default)s)")
    p.add_argument("--sigma", type=float, default=0.05,
                   help="perturbation scale (default %(default)s)")


def _add_embedder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=256, help="embedding dimension (default %(default)s)")
    p.add_argument("--hash-seed", dest="hash_seed", type=int, default=0,
                   help="feature hash seed (default %(default)s)")
    p.add_argument("--shared-phi", dest="shared_phi", action="store_true",
                   help="share one encoder across layers")


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eval-k", dest="eval_k", type=int, default=5,
                   help="ranking cutoff (default %(default)s)")
    p.add_argument("--agg-mode", dest="agg_mode", choices=AGG_MODES, default="max",
                   help="per-document score aggregation (default %(default)s)")


def _declare_ingest(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cisi-docs", help="marker-format document file")
    src.add_argument("--jsonl", help="JSONL document file")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_ingest)


def _declare_build(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="document file")
    _add_format_flag(p)
    p.add_argument("--depth", type=int, default=3, help="granularity layers (default %(default)s)")
    _add_embedder_flags(p)
    p.add_argument("--out", required=True, help="output index path")
    p.set_defaults(func=cmd_build)


def _declare_query(p: argparse.ArgumentParser) -> None:
    p.add_argument("--index", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--query-id", dest="query_id", type=int, default=0,
                   help="id echoed in the output (default %(default)s)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    _add_router_flags(p)
    _add_tau_flag(p)
    p.set_defaults(func=cmd_query)


def _declare_eval(p: argparse.ArgumentParser) -> None:
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    _add_format_flag(p)
    _add_eval_flags(p)
    p.add_argument("--out", help="write report JSON here instead of stdout")
    _add_router_flags(p)
    _add_tau_flag(p)
    p.set_defaults(func=cmd_eval)


def _declare_sweep(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="first corpus source")
    p.add_argument("--corpus-b", dest="corpus_b", help="second corpus source for mixing")
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    _add_format_flag(p)
    p.add_argument("--depths", type=partial(_axis, int), default="1,2,3,4,5",
                   help="comma list (default %(default)s)")
    p.add_argument("--temperatures", type=partial(_axis, float), default="0.5,1.0,1.2,2.0",
                   help="comma list (default %(default)s)")
    p.add_argument("--mix-ratios", dest="mix_ratios", type=partial(_axis, float), default="0.0",
                   help="comma list, e.g. 0,0.5,1 (default %(default)s)")
    p.add_argument("--mix-size", dest="mix_size", type=int,
                   help="mixed corpus size; needs --corpus-b (default: the smaller corpus size)")
    p.add_argument("--seed", type=int,
                   help="mixing seed; needs --corpus-b (default 0 with --corpus-b)")
    _add_embedder_flags(p)
    _add_eval_flags(p)
    p.add_argument("--out-csv", dest="out_csv", help="write CSV here instead of stdout")
    p.add_argument("--out-json", dest="out_json", help="also write the full JSON grid here")
    _add_router_flags(p, temperature=False)
    _add_tau_flag(p)
    p.set_defaults(func=cmd_sweep)


def _declare_train_gen(p: argparse.ArgumentParser) -> None:
    p.add_argument("--index", required=True)
    p.add_argument("--qa", required=True, help="JSONL: {query_id, text, gold}")
    p.add_argument("--lr", type=float, default=0.1, help="learning rate (default %(default)s)")
    p.add_argument("--epochs", type=int, default=200, help="training epochs (default %(default)s)")
    p.add_argument("--out-params", dest="out_params", help="write trained parameters JSON here")
    p.add_argument("--out", help="write history JSON here instead of stdout")
    _add_router_flags(p)
    _add_tau_flag(p)
    p.add_argument("--lambda1", type=float, default=0.0,
                   help="entropy coefficient (default %(default)s)")
    p.add_argument("--lambda2", type=float, default=0.0,
                   help="variance coefficient (default %(default)s)")
    p.add_argument("--var-mode", dest="var_mode", choices=VAR_MODES, default="ensemble",
                   help="variance estimate (default %(default)s)")
    _add_noise_flags(p)
    p.set_defaults(func=cmd_train_gen)


def _declare_gradcheck(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, default=4, help="answer classes (default %(default)s)")
    p.add_argument("--dim", type=int, default=8, help="embedding dimension (default %(default)s)")
    p.add_argument("--lambda-grid", dest="lambda_grid", type=partial(_axis, float),
                   default="0,0.1,1.0", help="lambda1 and lambda2 values; every pair is checked "
                   "in both variance modes (default %(default)s)")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="failure threshold (default %(default)s)")
    _add_noise_flags(p)
    _add_router_flags(p)
    p.set_defaults(func=cmd_gradcheck)


COMMANDS = {  # name -> (help, the function that declares the command's flags and handler)
    "ingest": ("normalize a corpus to canonical JSONL", _declare_ingest),
    "build": ("segment, embed, and index a corpus", _declare_build),
    "query": ("route one query and print its paths", _declare_query),
    "eval": ("score retrieval on queries with judgments", _declare_eval),
    "sweep": ("grid over depth, temperature, mixing ratio", _declare_sweep),
    "train-gen": ("train the answer model on QA examples", _declare_train_gen),
    "gradcheck": ("compare analytic and numeric gradients", _declare_gradcheck),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``mgrag`` parser with only ``command``'s subparser, or with every command's if None."""
    # no prefix matching: `sweep --temperature` must not pass for `--temperatures`
    parser = argparse.ArgumentParser(
        prog="mgrag", description="Multi-granularity retrieval with confidence-gated generation.",
        allow_abbrev=False)
    # usage lists every command either way (the full parser's errors keep the name "command")
    metavar = "{" + ",".join(COMMANDS) + "}" if command else None
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if command else COMMANDS:
        help_text, declare = COMMANDS[name]
        declare(p := commands.add_parser(name, help=help_text, allow_abbrev=False))
        if name != "ingest":  # its only options are its input and output
            p.add_argument("--config",
                           help="'key = value' file of optional flags (underscored); flags win")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = parse_args(build_parser(argv[0] if argv and argv[0] in COMMANDS else None), argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help or a usage error
        return int(exc.code) if exc.code is not None else 0
    except (MgragError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
