from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import mgrag.cli
import mgrag.evaluation
from mgrag.cli import COMMANDS, build_parser, main, parse_args
from mgrag.confidence import VAR_MODES
from mgrag.errors import MgragError
from mgrag.evaluation import AGG_MODES
from mgrag.router import SCORE_MODES

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "data" / "cisi_sample.all"
QUERIES = REPO / "data" / "cisi_sample.qry"
QRELS = REPO / "data" / "cisi_sample.rel"


# a child process fails on a silent NaN or overflow too, as the in-process tests do
MGRAG = [sys.executable, "-W", "error::RuntimeWarning", "-m", "mgrag"]


def run_cli(*argv: str):
    return subprocess.run(
        [*MGRAG, *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("idx") / "sample.mgix"
    proc = run_cli("build", "--corpus", DOCS, "--depth", "3", "--dim", "64", "--out", path)
    assert proc.returncode == 0, proc.stderr
    return path


# --- plumbing -----------------------------------------------------------------------


def test_no_arguments_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_help_exits_cleanly(capsys):
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "ingest" in proc.stdout
    assert "gradcheck" in proc.stdout
    # a call that names no command builds every command's parser, so each one's help is listed
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out == build_parser().format_help()
    assert all(help_text in out for help_text, _ in COMMANDS.values())


def test_unknown_verb_is_a_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_package_and_value_errors_exit_2_and_os_errors_exit_1(monkeypatch, tmp_path, capsys):
    subclasses = MgragError.__subclasses__()
    assert subclasses
    for error in [*subclasses, ValueError, OSError, FileNotFoundError]:
        def failing(args, error=error):
            raise error("boom")

        monkeypatch.setattr(mgrag.cli, "cmd_ingest", failing)
        code = main(["ingest", "--jsonl", str(tmp_path / "in.jsonl"), "--out", str(tmp_path / "out.jsonl")])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1 if issubclass(error, OSError) else 2, "", "error: boom\n"), error


# --- ingest -------------------------------------------------------------------------


def test_ingest_normalizes_marker_files(tmp_path):
    out = tmp_path / "docs.jsonl"
    proc = run_cli("ingest", "--cisi-docs", DOCS, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert "30 documents" in proc.stdout
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 30
    assert all({"id", "title", "body"} <= set(row) for row in rows)


def test_ingest_is_idempotent_on_jsonl(tmp_path):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    run_cli("ingest", "--cisi-docs", DOCS, "--out", first)
    proc = run_cli("ingest", "--jsonl", first, "--out", second)
    assert proc.returncode == 0, proc.stderr
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "line",
    ["[" * 100_000, '{"id": ' + "9" * 5_000 + ', "body": "b"}'],
    ids=["deep-nesting", "huge-int"],
)
def test_ingest_rejects_undecodable_json_lines(tmp_path, capsys, line):
    source = tmp_path / "docs.jsonl"
    source.write_text('{"id": 1, "body": "fine"}\n' + line + "\n", encoding="utf-8")
    assert main(["ingest", "--jsonl", str(source), "--out", str(tmp_path / "out.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2: invalid JSON" in err
    assert "Traceback" not in err


def test_ingest_missing_file_fails_cleanly(tmp_path):
    proc = run_cli("ingest", "--cisi-docs", tmp_path / "absent.all", "--out", tmp_path / "x")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


# --- build --------------------------------------------------------------------------


def test_build_prints_manifest_and_writes_index(index_path):
    proc = run_cli("build", "--corpus", DOCS, "--depth", "3", "--dim", "64",
                   "--out", index_path.parent / "again.mgix")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads(proc.stdout)
    assert manifest["n_documents"] == 30
    assert set(manifest["unit_counts"]) == {"1", "2", "3"}
    assert (index_path.parent / "again.mgix").read_bytes() == index_path.read_bytes()


def test_build_rejects_bad_depth(tmp_path):
    proc = run_cli("build", "--corpus", DOCS, "--depth", "6", "--out", tmp_path / "x.mgix")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


# --- query --------------------------------------------------------------------------


def test_query_emits_parseable_json_with_simplex_weights(index_path):
    proc = run_cli("query", "--index", index_path, "--text", "information retrieval systems")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)  # stdout must be nothing but the document
    assert abs(sum(payload["weights"]) - 1.0) < 1e-9
    confs = [p["path_confidence"] for p in payload["paths"]]
    assert confs == sorted(confs, reverse=True)
    assert payload["confidence"]["kept_paths"] == len(payload["paths"])


def test_query_tau_zero_matches_omitted_gate(index_path):
    base = run_cli("query", "--index", index_path, "--text", "library catalog indexing")
    gated = run_cli("query", "--index", index_path, "--text", "library catalog indexing",
                    "--tau", "0.0")
    assert base.stdout == gated.stdout


def test_query_rejects_zero_temperature(index_path):
    proc = run_cli("query", "--index", index_path, "--text", "x", "--temperature", "0")
    assert proc.returncode == 2


def test_query_at_a_subnormal_temperature_routes_to_the_top_layer_silently(index_path):
    proc = run_cli("query", "--index", index_path, "--text", "information retrieval",
                   "--temperature", "1e-320")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert sorted(payload["weights"]) == [0.0, 0.0, 1.0]
    assert math.copysign(1.0, payload["confidence"]["routing_entropy"]) == 1.0  # not -0.0


def test_query_positive_tau_drops_paths(index_path):
    base = run_cli("query", "--index", index_path, "--text", "scientific journal articles")
    gated = run_cli("query", "--index", index_path, "--text", "scientific journal articles",
                    "--tau", "0.2")
    a = json.loads(base.stdout)
    b = json.loads(gated.stdout)
    if not b["confidence"]["gate_bypassed"]:
        assert len(b["paths"]) <= len(a["paths"])
        assert b["confidence"]["dropped_paths"] == len(a["paths"]) - len(b["paths"])


# --- eval ---------------------------------------------------------------------------


def test_eval_requires_qrels(index_path):
    proc = run_cli("eval", "--index", index_path, "--queries", QUERIES)
    assert proc.returncode == 2


def test_eval_writes_report(index_path, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("eval", "--index", index_path, "--queries", QUERIES, "--qrels", QRELS,
                   "--eval-k", "5", "--out", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["n_evaluated"] > 0
    assert 0.0 <= report["mean_recall_at_k"] <= 1.0
    assert report["config"]["depth"] == 3


def test_eval_stdout_is_pure_json(index_path):
    proc = run_cli("eval", "--index", index_path, "--queries", QUERIES, "--qrels", QRELS)
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)


def test_eval_warns_on_qrels_for_unindexed_documents(index_path, tmp_path):
    qrels = tmp_path / "dangling.rel"
    qrels.write_text(QRELS.read_text() + "1 9001 0 0.0\n2 9002 0 0.0\n", encoding="utf-8")
    proc = run_cli("eval", "--index", index_path, "--queries", QUERIES, "--qrels", qrels)
    assert proc.returncode == 0, proc.stderr
    assert "2 qrels pairs point at documents not in the index" in proc.stderr
    json.loads(proc.stdout)
    clean = run_cli("eval", "--index", index_path, "--queries", QUERIES, "--qrels", QRELS)
    assert "not in the index" not in clean.stderr


def test_eval_reruns_identically_apart_from_timestamp(index_path):
    a = json.loads(run_cli("eval", "--index", index_path, "--queries", QUERIES,
                           "--qrels", QRELS).stdout)
    b = json.loads(run_cli("eval", "--index", index_path, "--queries", QUERIES,
                           "--qrels", QRELS).stdout)
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_config_file_sets_defaults_and_flags_win(index_path, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# run settings\ntemperature = 2.0\neval_k = 3\n", encoding="utf-8")
    from_file = json.loads(run_cli("eval", "--index", index_path, "--queries", QUERIES,
                                   "--qrels", QRELS, "--config", config).stdout)
    assert from_file["config"]["router"]["temperature"] == 2.0
    assert from_file["k"] == 3
    overridden = json.loads(run_cli("eval", "--index", index_path, "--queries", QUERIES,
                                    "--qrels", QRELS, "--config", config,
                                    "--temperature", "0.5").stdout)
    assert overridden["config"]["router"]["temperature"] == 0.5


def test_config_values_do_not_leak_into_the_next_call(index_path, tmp_path, capsys):
    # --config values become the subparser's defaults, so a parser kept between calls would keep them
    config = tmp_path / "gate.cfg"
    config.write_text("tau = 0.5\n", encoding="utf-8")
    argv = ["query", "--index", str(index_path), "--text", "library catalog indexing"]
    assert main([*argv, "--config", str(config)]) == 0
    configured = capsys.readouterr().out
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert plain == run_cli(*argv).stdout
    assert plain != configured


def test_bad_config_file_is_a_usage_error(index_path, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("temperature 2.0\n", encoding="utf-8")
    proc = run_cli("eval", "--index", index_path, "--queries", QUERIES, "--qrels", QRELS,
                   "--config", config)
    assert proc.returncode == 2
    assert "bad.cfg" in proc.stderr


def test_unknown_config_key_is_a_usage_error(index_path, tmp_path):
    config = tmp_path / "typo.cfg"
    config.write_text("temprature = 9\n", encoding="utf-8")
    proc = run_cli("eval", "--index", index_path, "--queries", QUERIES, "--qrels", QRELS,
                   "--config", config)
    assert proc.returncode == 2
    assert "temprature" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _subcommands(command: str | None = None) -> dict[str, argparse.ArgumentParser]:
    parser = build_parser(command)
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def _action_facts(parser: argparse.ArgumentParser) -> list[tuple]:
    """What each action of a parser parses; a ``partial`` type compares by what it binds."""
    def kind(t):
        return (t.func, t.args, t.keywords) if isinstance(t, partial) else t
    return [(a.dest, a.option_strings, a.default, kind(a.type), a.choices, a.required, a.nargs)
            for a in parser._actions]


@pytest.mark.parametrize("verb", list(COMMANDS))
def test_a_one_command_parser_is_the_full_parser_cut_to_that_command(verb):
    assert build_parser(verb).format_usage() == build_parser().format_usage()  # lists every verb
    alone, full = _subcommands(verb), _subcommands()
    assert list(alone) == [verb]
    assert alone[verb].format_help() == full[verb].format_help()
    assert _action_facts(alone[verb]) == _action_facts(full[verb])


def test_mode_choices_are_their_modules_constants():
    # a mode list stated once: the flag offers exactly what the config class accepts
    constants = {"layer_score_mode": SCORE_MODES, "agg_mode": AGG_MODES, "var_mode": VAR_MODES}
    seen = set()
    for verb, command in _subcommands().items():
        for action in command._actions:
            if action.choices is None or action.dest == "format":  # input formats are the CLI's own
                continue
            assert action.choices is constants[action.dest], (verb, action.dest)
            seen.add(action.dest)
    assert seen == set(constants)


def _other_value(action: argparse.Action) -> str:
    """A command-line spelling of a value that differs from the flag's default."""
    if action.choices is not None:
        return next(c for c in action.choices if c != action.default)
    return {int: "7", float: "0.5", None: "elsewhere.out"}.get(action.type, "2,3")


def test_every_optional_flag_can_come_from_the_config_file(tmp_path):
    checked = 0
    for name, command in _subcommands().items():
        options = {a.dest: a for a in command._actions if a.option_strings}
        if "config" not in options:
            assert name == "ingest"  # its only options are its input and output
            continue
        base = [name]
        for action in options.values():
            if action.required:
                base += [action.option_strings[0], "x"]
        plain = vars(parse_args(build_parser(), base))
        for dest, action in options.items():
            if action.required or dest in ("help", "config"):
                continue
            config = tmp_path / f"{name}-{dest}.cfg"
            if action.nargs == 0:  # store-true
                flag = [action.option_strings[0]]
                config.write_text(f"{dest} = yes\n", encoding="utf-8")
            else:
                value = _other_value(action)
                flag = [action.option_strings[0], value]
                config.write_text(f"{dest} = {value}\n", encoding="utf-8")
            via_flag = vars(parse_args(build_parser(), base + flag))
            via_file = vars(parse_args(build_parser(), base + ["--config", str(config)]))
            via_file.pop("config")
            via_flag.pop("config")
            assert via_file == via_flag, (name, dest)
            assert via_file[dest] != plain[dest], (name, dest)
            checked += 1
    assert checked == 60


@pytest.mark.parametrize(
    "config_text, flags, named",
    [
        ("index = other.mgix\n", [], "index"),  # required inputs are flags only
        ("seed = 1\n", [], "seed"),  # query has no seed
        ("", ["--seed", "1"], "--seed"),
        ("k = five\n", [], "k"),
        ("config = other.cfg\n", [], "config"),
        (b"tau = \xff\n", [], "run.cfg: config key tau: invalid value"),  # not UTF-8
        (b"t\xffu = 0.1\n", [], "run.cfg: unknown config key t\ufffdu"),
    ],
)
def test_config_key_or_flag_the_command_lacks_is_a_usage_error(tmp_path, capsys, config_text,
                                                               flags, named):
    config = tmp_path / "run.cfg"
    if isinstance(config_text, bytes):
        config.write_bytes(config_text)
    else:
        config.write_text(config_text, encoding="utf-8")
    argv = ["query", "--index", str(tmp_path / "absent.mgix"), "--text", "x",
            "--config", str(config), *flags]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert named in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "verb, flags, config_text, named",
    [
        ("eval", ["--lambda1", "0.3"], None, "--lambda1"),
        # without allow_abbrev=False this parsed as --temperatures and replaced the axis
        ("sweep", ["--temperature", "0.3"], None, "--temperature"),
        ("sweep", ["--sigma", "0.1"], None, "--sigma"),
        ("eval", [], "seed = 1\n", "seed"),
        ("sweep", ["--mix-size", "3"], None, "mix_size"),  # no --corpus-b to mix with
        ("sweep", ["--seed", "5"], None, "seed"),  # the mixing seed, with nothing to mix
        ("sweep", [], "seed = 5\n", "seed"),
    ],
    ids=["eval-lambda1", "sweep-temperature", "sweep-sigma", "eval-config-seed",
         "sweep-mix-size-alone", "sweep-seed-alone", "sweep-config-seed-alone"],
)
def test_settings_eval_and_sweep_never_read_are_usage_errors(tmp_path, capsys, verb, flags,
                                                             config_text, named):
    inputs = {"eval": ["--index", str(tmp_path / "absent.mgix")],
              "sweep": ["--corpus", str(DOCS)]}[verb]
    argv = [verb, *inputs, "--queries", str(QUERIES), "--qrels", str(QRELS), *flags]
    if config_text is not None:
        config = tmp_path / "run.cfg"
        config.write_text(config_text, encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert named in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "verb, flags, named",
    [
        ("train-gen", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("gradcheck", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("sweep", ["--corpus-b", str(DOCS), "--seed", "-1"], "seed must be >= 0, got -1"),
        ("sweep", ["--corpus-b", str(DOCS), "--mix-size", "0"], "mix_size must be >= 1, got 0"),
        ("gradcheck", ["--lambda-grid", ""], "--lambda-grid needs at least one value"),
        ("gradcheck", ["--lambda-grid", "0,inf"], "lambda2 must be finite and >= 0, got inf"),
        ("gradcheck", ["--lambda-grid", "nan"], "lambda1 must be finite and >= 0, got nan"),
        ("gradcheck", ["--sigma", "inf"], "noise_sigma must be finite and >= 0, got inf"),
        ("gradcheck", ["--tol", "nan"], "--tol must be positive and finite, got nan"),
        ("gradcheck", ["--tol", "-1"], "--tol must be positive and finite, got -1.0"),
        ("gradcheck", ["--tol", "0"], "--tol must be positive and finite, got 0.0"),
        ("train-gen", ["--lambda1", "inf"], "lambda1 must be finite and >= 0, got inf"),
        ("train-gen", ["--lr", "inf"], "lr must be finite and > 0, got inf"),
        # the draws would be (N, K, dim) floats: about 25 GB for one example at dim 32
        ("train-gen", ["--ensemble-k", "100000000"], "ensemble_K must be <= 1024, got 100000000"),
        ("build", ["--hash-seed", str(2**64 + 1)],
         "hash_seed must lie in [0, 2**64 - 1], got 18446744073709551617"),
        # a dim this wide would allocate terabytes before the first unit is counted
        ("build", ["--dim", "1000000000000"], "embedding dim must lie in [8, 65536], got 1000000000000"),
        ("sweep", ["--temperatures", "0.5,inf"], "temperatures must be finite and positive"),
    ],
    ids=["train-gen-seed", "gradcheck-seed", "sweep-seed", "sweep-mix-size",
         "gradcheck-empty-lambda-grid", "gradcheck-inf-lambda", "gradcheck-nan-lambda",
         "gradcheck-inf-sigma", "gradcheck-nan-tol", "gradcheck-negative-tol", "gradcheck-zero-tol",
         "train-gen-inf-lambda1", "train-gen-inf-lr", "train-gen-ensemble-k-past-cap",
         "build-hash-seed-past-64-bits", "build-huge-dim",
         "sweep-inf-temperature"],
)
def test_bad_seed_or_size_is_a_usage_error_naming_it(tmp_path, capsys, verb, flags, named):
    # rejected up front, by name, before any seeded draw or sweep cell runs
    inputs = {
        "train-gen": ["--index", str(tmp_path / "absent.mgix"), "--qa", str(tmp_path / "qa.jsonl")],
        "gradcheck": [],
        "build": ["--corpus", str(DOCS), "--out", str(tmp_path / "x.mgix")],
        "sweep": ["--corpus", str(DOCS), "--queries", str(QUERIES), "--qrels", str(QRELS),
                  "--mix-ratios", "0.5"],
    }[verb]
    assert main([verb, *inputs, *flags]) == 2
    out, err = capsys.readouterr()
    assert named in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, named",
    [
        (["query", "--text", "library catalogs", "--temperature", "inf"],
         "temperature must be finite and > 0, got inf"),
        (["eval", "--queries", str(QUERIES), "--qrels", str(QRELS), "--temperature", "inf"],
         "temperature must be finite and > 0, got inf"),
    ],
    ids=["query", "eval"],
)
def test_infinite_temperature_is_a_usage_error(index_path, capsys, argv, named):
    assert main([argv[0], "--index", str(index_path), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert named in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("verb", ["query", "eval"])
def test_query_with_no_indexable_feature_is_a_usage_error(index_path, tmp_path, capsys, verb):
    if verb == "query":
        argv = ["query", "--index", str(index_path), "--text", "?!"]
    else:  # one good query and one that routes nowhere; the report is not written
        queries = tmp_path / "q.jsonl"
        queries.write_text('{"id": 1, "text": "library catalogs"}\n{"id": 2, "text": "?!"}\n',
                           encoding="utf-8")
        qrels = tmp_path / "r.jsonl"
        qrels.write_text('{"query_id": 1, "doc_id": 1}\n{"query_id": 2, "doc_id": 2}\n',
                         encoding="utf-8")
        argv = ["eval", "--index", str(index_path), "--queries", str(queries),
                "--qrels", str(qrels)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "no layer produced any hits" in err
    if verb == "eval":
        assert "error: query 2: no layer produced any hits" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("verb", ["build", "eval"])
def test_empty_corpus_or_unjudged_queries_is_a_usage_error(index_path, tmp_path, capsys, verb):
    if verb == "build":
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("", encoding="utf-8")
        argv = ["build", "--corpus", str(corpus), "--out", str(tmp_path / "x.mgix")]
        named = "error: corpus is empty"
    else:
        qrels = tmp_path / "none.rel"
        qrels.write_text("999 1 0 0.0\n", encoding="utf-8")  # judges no query in the file
        argv = ["eval", "--index", str(index_path), "--queries", str(QUERIES),
                "--qrels", str(qrels)]
        named = "error: no query had relevance judgments; nothing to evaluate"
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert named in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "x.mgix").exists()


def test_index_of_an_older_format_asks_for_a_rebuild(index_path, tmp_path, capsys):
    # a version-1 index hashed its features with another function, so its vectors are stale
    raw = index_path.read_bytes()
    old = tmp_path / "old.mgix"
    old.write_bytes(raw.replace(b'"format_version":2', b'"format_version":1', 1))
    assert old.read_bytes() != raw
    assert main(["query", "--index", str(old), "--text", "archives"]) == 2
    out, err = capsys.readouterr()
    assert err.rstrip().endswith(
        "format version 1 unsupported (expected 2); rebuild it with `mgrag build`")
    assert "Traceback" not in err
    assert out == ""


def test_config_file_outputs_are_written(index_path, tmp_path):
    out = tmp_path / "q.json"
    config = tmp_path / "run.cfg"
    config.write_text(f"out = {out}\n", encoding="utf-8")
    proc = run_cli("query", "--index", index_path, "--text", "library catalogs",
                   "--config", config)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    direct = run_cli("query", "--index", index_path, "--text", "library catalogs")
    assert json.loads(out.read_text()) == json.loads(direct.stdout)


# --- sweep --------------------------------------------------------------------------


def test_sweep_single_cell_agrees_with_eval(tmp_path):
    out_csv = tmp_path / "grid.csv"
    proc = run_cli("sweep", "--corpus", DOCS, "--queries", QUERIES, "--qrels", QRELS,
                   "--depths", "2", "--temperatures", "1.0", "--mix-ratios", "0.0",
                   "--dim", "64", "--eval-k", "5", "--out-csv", out_csv)
    assert proc.returncode == 0, proc.stderr
    header, row = out_csv.read_text().splitlines()
    assert header == "depth,temperature,mix_ratio,recall_at_k,ndcg_at_k,map,qa_accuracy,routing_entropy"
    fields = dict(zip(header.split(","), row.split(",")))

    idx = tmp_path / "d2.mgix"
    run_cli("build", "--corpus", DOCS, "--depth", "2", "--dim", "64", "--out", idx)
    report = json.loads(run_cli("eval", "--index", idx, "--queries", QUERIES,
                                "--qrels", QRELS, "--eval-k", "5").stdout)
    assert float(fields["recall_at_k"]) == pytest.approx(report["mean_recall_at_k"], abs=1e-9)
    assert float(fields["ndcg_at_k"]) == pytest.approx(report["mean_ndcg_at_k"], abs=1e-9)
    assert fields["qa_accuracy"] == "nan"


def test_sweep_csv_to_stdout_and_json_sidecar(tmp_path):
    out_json = tmp_path / "grid.json"
    proc = run_cli("sweep", "--corpus", DOCS, "--queries", QUERIES, "--qrels", QRELS,
                   "--depths", "1,2", "--temperatures", "0.5,2.0", "--mix-ratios", "0.0",
                   "--dim", "48", "--out-json", out_json)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("depth,temperature")
    assert len(lines) == 5
    grid = json.loads(out_json.read_text())
    assert len(grid["rows"]) == 4


def test_sweep_exits_1_when_cells_fail_but_still_writes_outputs(tmp_path):
    qrels = tmp_path / "none.rel"
    qrels.write_text("999 1 0 0.0\n", encoding="utf-8")  # judges no query in the file
    out_csv, out_json = tmp_path / "grid.csv", tmp_path / "grid.json"
    proc = run_cli("sweep", "--corpus", DOCS, "--queries", QUERIES, "--qrels", qrels,
                   "--depths", "1,2", "--temperatures", "1.0", "--dim", "48",
                   "--out-csv", out_csv, "--out-json", out_json)
    assert proc.returncode == 1
    assert "2 failed" in proc.stderr
    lines = out_csv.read_text().splitlines()
    assert lines[1:] == ["1,1,0,nan,nan,nan,nan,nan", "2,1,0,nan,nan,nan,nan,nan"]
    rows = json.loads(out_json.read_text())["rows"]
    assert all("EvalError" in row["error"] for row in rows)


def test_sweep_rejects_bad_axis(tmp_path):
    proc = run_cli("sweep", "--corpus", DOCS, "--queries", QUERIES, "--qrels", QRELS,
                   "--depths", "1,nope")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--depths", "1,3", "--mix-ratios", "0,0.5"],
         "error: mix ratio 0.5: document ids collide across sources: [1, 2, 11, 15, 18]"),
        (["--depths", "1", "--temperatures", "1", "--mix-size", "100000"],
         "error: mix ratio 0.0: source 'source-a' has 30 documents, need 100000"),
    ],
    ids=["colliding-ids", "too-few-documents"],
)
def test_sweep_mix_the_sources_cannot_give_is_a_usage_error(monkeypatch, tmp_path, capsys, flags,
                                                            named):
    # the input is at fault and known before any build: no cell runs and no CSV is written
    monkeypatch.setattr(mgrag.evaluation, "build", lambda *a, **k: pytest.fail("built"))
    out_csv = tmp_path / "grid.csv"
    argv = ["sweep", "--corpus", str(DOCS), "--corpus-b", str(DOCS), "--queries", str(QUERIES),
            "--qrels", str(QRELS), *flags, "--out-csv", str(out_csv)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert named in err
    assert "Traceback" not in err
    assert out == ""
    assert not out_csv.exists()


# --- train-gen and gradcheck ----------------------------------------------------------


@pytest.fixture(scope="module")
def qa_env(tmp_path_factory):
    from mgrag.corpus import documents_to_jsonl
    from mgrag.generator import build_toy_qa

    root = tmp_path_factory.mktemp("qa")
    docs, examples = build_toy_qa(n_classes=3, n_per_class=2, seed=2)
    (root / "docs.jsonl").write_text(documents_to_jsonl(docs), encoding="utf-8")
    qa_rows = [{"query_id": ex.query.query_id, "text": ex.query.text, "gold": ex.gold}
               for ex in examples]
    (root / "qa.jsonl").write_text("".join(json.dumps(row) + "\n" for row in qa_rows),
                                   encoding="utf-8")
    idx = root / "toy.mgix"
    proc = run_cli("build", "--corpus", root / "docs.jsonl", "--depth", "2", "--dim", "32",
                   "--out", idx)
    assert proc.returncode == 0, proc.stderr
    return root, idx


def test_train_gen_reaches_separable_accuracy(qa_env, tmp_path):
    root, idx = qa_env
    params_out = tmp_path / "params.json"
    proc = run_cli("train-gen", "--index", idx, "--qa", root / "qa.jsonl",
                   "--lr", "0.5", "--epochs", "200", "--ensemble-k", "2",
                   "--out-params", params_out)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["final_train_accuracy"] == 1.0
    assert not payload["diverged"]
    assert json.loads(params_out.read_text())["format_version"] == 1


def test_a_diverged_train_gen_writes_no_parameters_and_exits_1(qa_env, tmp_path, capsys):
    # a diverged run's parameters may be non-finite, which load_params rejects: none are written
    root, idx = qa_env
    params_out = tmp_path / "params.json"
    with np.errstate(all="ignore"):
        code = main(["train-gen", "--index", str(idx), "--qa", str(root / "qa.jsonl"), "--lr", "1e300",
                     "--lambda1", "1e300", "--epochs", "5", "--out-params", str(params_out)])
    out, err = capsys.readouterr()
    assert code == 1
    assert not params_out.exists()
    assert json.loads(out)["diverged"] is True
    assert err.splitlines()[-1].startswith("error: training diverged after ")
    assert err.splitlines()[-1].endswith(" of 5 epochs; no parameters written")


def test_train_gen_is_deterministic(qa_env):
    root, idx = qa_env
    args = ("train-gen", "--index", idx, "--qa", root / "qa.jsonl",
            "--epochs", "30", "--ensemble-k", "2", "--lambda2", "0.1")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_train_gen_rejects_a_mistyped_qa_row(qa_env, tmp_path):
    root, idx = qa_env
    qa = tmp_path / "qa.jsonl"
    qa.write_text((root / "qa.jsonl").read_text().splitlines()[0] + "\n5\n", encoding="utf-8")
    proc = run_cli("train-gen", "--index", idx, "--qa", qa, "--epochs", "1")
    assert proc.returncode == 2
    assert "line 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_train_gen_names_a_qa_row_that_routes_nowhere(qa_env, tmp_path, capsys):
    root, idx = qa_env
    qa = tmp_path / "qa.jsonl"
    qa.write_text((root / "qa.jsonl").read_text()
                  + '{"query_id": 7, "text": "?!", "gold": 0}\n', encoding="utf-8")
    assert main(["train-gen", "--index", str(idx), "--qa", str(qa), "--epochs", "1"]) == 2
    out, err = capsys.readouterr()
    assert "error: query 7: no layer produced any hits" in err
    assert "Traceback" not in err
    assert out == ""


def test_train_gen_rejects_a_gold_too_large_to_train(qa_env, tmp_path):
    # gold 10^7 asks for a 10^7 x 64 weight matrix; the address-space limit turns an attempt
    # to allocate it into a MemoryError instead of a swapping machine
    root, idx = qa_env
    qa = tmp_path / "qa.jsonl"
    qa.write_text('{"query_id": 1, "text": "information retrieval", "gold": 10000000}\n',
                  encoding="utf-8")
    proc = subprocess.run(
        [*MGRAG, "train-gen", "--index", str(idx), "--qa", str(qa)],
        capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)),
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: gold 10000000: an answer model of 10000001 classes over 64 features exceeds "
        "16777216 weights"
    ]
    assert proc.stdout == ""


def test_gradcheck_passes_and_reports(qa_env):
    proc = run_cli("gradcheck", "--classes", "3", "--lambda-grid", "0,0.5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("PASS max_rel_err=")
    for var_mode in ("ensemble", "intra"):
        assert f"var_mode={var_mode} lambda1=0.5 lambda2=0.5 max_rel_err=" in proc.stderr


def test_gradcheck_fails_on_impossible_tolerance():
    proc = run_cli("gradcheck", "--classes", "3", "--lambda-grid", "0.5", "--tol", "1e-18")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("FAIL")
