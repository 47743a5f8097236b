"""The package's surface: what it offers is used, what it hides stays hidden.

Every public function or class of mgrag has a reader outside its own
definition. A public name counts as used when it appears as a word in the
package's other source, the demos or the benchmark. The package's
``__init__`` re-exports do not count: exporting a name is not using it, and
neither is documenting it. A name may go unused only with a reason in EXEMPT.

No mgrag module reaches into another for a ``_``-prefixed name, by import or
by attribute, unless the pair is listed with a reason in PRIVATE_IMPORTS.

Every trace name the benchmark reads names a function its tracer wraps,
unless it is listed in DEAD_TRACE_NAMES with a reason; a refactor that
renames or moves a traced function would otherwise zero a metric silently.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "mgrag"
BENCH_SESSION = REPO / "bench" / "session.py"

EXEMPT = {
    "load_params": "API reader of the file `train-gen --out-params` writes",
    "read_jsonl_documents": "cli._read calls read_{fmt}_{kind} by a name built at run time",
    "read_jsonl_queries": "cli._read calls read_{fmt}_{kind} by a name built at run time",
    "read_jsonl_qrels": "cli._read calls read_{fmt}_{kind} by a name built at run time",
}

# (importing module, defining module, private name) -> why the module may reach in
PRIVATE_IMPORTS = {
    ("generator", "router", "_softmax"):
        "the package's one softmax, private so that the benchmark's tracer, which wraps "
        "every public function, does not wrap it",
    ("generator", "corpus", "_keyword_documents"):
        "build_toy_qa stays in generator, where the benchmark and mgrag.__init__ import it, "
        "and writes its documents with corpus's keyword writer",
}


def _public_definitions() -> list[tuple[Path, ast.stmt]]:
    return [
        (path, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _readers() -> dict[Path, str]:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(REPO / "demos").glob("*.py"), *(REPO / "bench").rglob("*.py"),
              *(REPO / "bench").rglob("*.md")]
    return {path: path.read_text(encoding="utf-8") for path in paths}


def test_every_public_name_is_used_or_exempt():
    readers = _readers()
    unused = []
    for path, node in _public_definitions():
        word = re.compile(rf"\b{node.name}\b")
        uses = 0
        for reader, text in readers.items():
            lines = text.splitlines()
            if reader == path:  # the definition's own line is not a use
                lines = lines[: node.lineno - 1] + lines[node.lineno :]
            uses += sum(len(word.findall(line)) for line in lines)
        if uses == 0 and node.name not in EXEMPT:
            unused.append(f"{path.name}: {node.name}")
    assert unused == [], "public names nothing uses: wire them in, delete them or exempt them"


def test_every_exemption_names_a_public_definition():
    defined = {node.name for _, node in _public_definitions()}
    assert sorted(set(EXEMPT) - defined) == []


def _private_reaches() -> set[tuple[str, str, str]]:
    """(importer, module, name) for each private mgrag name one mgrag module takes from another."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases: dict[str, str] = {}  # a local name bound to a sibling module
        for node in ast.walk(tree):
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and (node.level or module.startswith("mgrag")):
                source = module.removeprefix("mgrag").strip(".")
                for alias in node.names:
                    if not source:  # from . import corpus as corpus_mod
                        aliases[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.add((path.stem, source, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")):
                found.add((path.stem, aliases[node.value.id], node.attr))
    return found


def test_no_module_takes_another_modules_private_name_unlisted():
    assert sorted(_private_reaches() - set(PRIVATE_IMPORTS)) == [], (
        "a private name used by another module: make it public, move the caller, or list the pair"
    )


def test_every_listed_private_import_is_still_made():
    assert sorted(set(PRIVATE_IMPORTS) - _private_reaches()) == []


# trace names bench/session.py still reads, though nothing traced has them: a benchmark
# change re-points or drops them (ROADMAP item 6a), and then they leave this list
DEAD_TRACE_NAMES = {
    "generator.qa_accuracy": "qa_accuracy was deleted; generator.qa_accuracy_s reads 0",
    "mgrag.memory.embed": "a build embeds through embed_units; embedder.embed_s.l* read 0",
    "mgrag.router.embed": "retrieve embeds through embed_layers; embedder.query_embed_ms reads 0",
    "mgrag.generator.embed": "generator no longer imports embed",
}


def _trace_names() -> tuple[set[str], set[str]]:
    """The ``spans.func`` and ``spans.site`` names the benchmark session reads.

    A name is a string given to ``func(...)`` or ``site(...)``, or one of a tuple
    of strings a loop binds to the name that such a call is given.
    """
    tree = ast.parse(BENCH_SESSION.read_text(encoding="utf-8"))
    looped: dict[str, set[str]] = {}  # loop variable -> the string constants it runs over
    for node in ast.walk(tree):
        if (isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            looped.setdefault(node.target.id, set()).update(
                e.value for e in node.iter.elts if isinstance(e, ast.Constant))
    names: dict[str, set[str]] = {"func": set(), "site": set()}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in names and len(node.args) == 1):
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                names[node.func.attr].add(arg.value)
            elif isinstance(arg, ast.Name):
                names[node.func.attr] |= looped.get(arg.id, set())
    # "bench.*" sites are the session's own operations, not mgrag's
    return names["func"], {site for site in names["site"] if site.startswith("mgrag.")}


def _traced_modules() -> list[str]:
    """``LAYERS`` of bench/spans.py: the tracer wraps every public function in their namespaces."""
    tree = ast.parse((REPO / "bench" / "spans.py").read_text(encoding="utf-8"))
    [layers] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]]
    return ast.literal_eval(layers)


def _traced(name: str) -> bool:
    """Whether the benchmark's tracer wraps a function under this func or site name."""
    *site, module, attr = name.split(".")
    if module not in _traced_modules() or attr.startswith("_"):
        return False
    fn = vars(importlib.import_module(f"mgrag.{module}")).get(attr)
    if not (inspect.isfunction(fn) and fn.__module__.startswith("mgrag.")):
        return False
    return bool(site) or fn.__module__ == f"mgrag.{module}"  # a func is read where it is defined


def test_every_trace_name_the_benchmark_reads_is_traced_or_listed_dead():
    funcs, sites = _trace_names()
    assert {"router.assemble", "confidence.filter_paths", "evaluation.aggregate_ranking"} <= funcs
    assert sorted(n for n in funcs | sites if n not in DEAD_TRACE_NAMES and not _traced(n)) == [], (
        "the benchmark reads a trace name nothing traced has: keep the function's name, or "
        "re-point the metric in a benchmark change"
    )


def test_every_listed_dead_trace_name_is_read_and_still_dead():
    funcs, sites = _trace_names()
    assert sorted(n for n in DEAD_TRACE_NAMES if n not in funcs | sites or _traced(n)) == []
