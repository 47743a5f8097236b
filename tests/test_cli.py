from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mgrag.cli import build_parser, main, parse_args

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "data" / "cisi_sample.all"
QUERIES = REPO / "data" / "cisi_sample.qry"
QRELS = REPO / "data" / "cisi_sample.rel"


def run_cli(*argv: str):
    return subprocess.run(
        [sys.executable, "-m", "mgrag", *map(str, argv)],
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


def test_help_exits_cleanly():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "ingest" in proc.stdout
    assert "gradcheck" in proc.stdout


def test_unknown_verb_is_a_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


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


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


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
    ],
)
def test_config_key_or_flag_the_command_lacks_is_a_usage_error(tmp_path, capsys, config_text,
                                                               flags, named):
    config = tmp_path / "run.cfg"
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
    ],
    ids=["train-gen-seed", "gradcheck-seed", "sweep-seed", "sweep-mix-size",
         "gradcheck-empty-lambda-grid", "gradcheck-inf-lambda", "gradcheck-nan-lambda",
         "gradcheck-inf-sigma", "gradcheck-nan-tol", "gradcheck-negative-tol", "gradcheck-zero-tol",
         "train-gen-inf-lambda1"],
)
def test_bad_seed_or_size_is_a_usage_error_naming_it(tmp_path, capsys, verb, flags, named):
    # rejected up front, by name, before any seeded draw or sweep cell runs
    inputs = {
        "train-gen": ["--index", str(tmp_path / "absent.mgix"), "--qa", str(tmp_path / "qa.jsonl")],
        "gradcheck": [],
        "sweep": ["--corpus", str(DOCS), "--queries", str(QUERIES), "--qrels", str(QRELS),
                  "--mix-ratios", "0.5"],
    }[verb]
    assert main([verb, *inputs, *flags]) == 2
    out, err = capsys.readouterr()
    assert named in err
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
