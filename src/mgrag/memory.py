"""Layered vector memory: build, exact cosine top-k search, persistence.

Search is an exact full scan (corpora here are thousands of units), so every
downstream number is deterministic.  Ties break by ascending unit id.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import MAX_DEPTH, SEGMENTATION_RULES, Document, corpus_sha256, segment
from .embedder import EmbedderSpec, embed, is_degenerate
from .errors import BuildError, ConfigError, IndexFormatError

log = logging.getLogger(__name__)

_MAGIC = b"MGIX"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Hit:
    unit_id: str
    doc_id: int
    sim: float
    row: int  # row index into the layer's vector matrix


@dataclass
class LayerMemory:
    """One granularity layer: unit ids and their unit-norm vectors."""

    layer: int
    unit_ids: list[str]
    doc_ids: np.ndarray  # (n,) int64
    vectors: np.ndarray  # (n, dim) float64, rows unit-norm

    def __post_init__(self):
        if len(self.unit_ids) != self.vectors.shape[0] or len(self.unit_ids) != self.doc_ids.shape[0]:
            raise ValueError("unit_ids, doc_ids, and vectors must agree in length")

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)


@dataclass
class BuildManifest:
    """Provenance record stored with the index for staleness detection."""

    corpus_sha256: str
    config_sha256: str
    n_documents: int
    unit_counts: dict[int, int]
    degenerate_counts: dict[int, int]

    def to_dict(self) -> dict:
        return {
            "corpus_sha256": self.corpus_sha256,
            "config_sha256": self.config_sha256,
            "n_documents": self.n_documents,
            "unit_counts": {str(k): v for k, v in sorted(self.unit_counts.items())},
            "degenerate_counts": {str(k): v for k, v in sorted(self.degenerate_counts.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BuildManifest":
        return cls(
            corpus_sha256=data["corpus_sha256"],
            config_sha256=data["config_sha256"],
            n_documents=data["n_documents"],
            unit_counts={int(k): v for k, v in data["unit_counts"].items()},
            degenerate_counts={int(k): v for k, v in data["degenerate_counts"].items()},
        )


@dataclass
class MemoryHierarchy:
    layers: list[LayerMemory]  # layers[0] is layer 1
    embedder_spec: EmbedderSpec
    manifest: BuildManifest

    @property
    def depth(self) -> int:
        return len(self.layers)

    def layer(self, layer: int) -> LayerMemory:
        if not 1 <= layer <= self.depth:
            raise ValueError(f"layer must be in [1, {self.depth}], got {layer}")
        return self.layers[layer - 1]

    @property
    def dim(self) -> int:
        return self.embedder_spec.dim


def _config_sha256(spec: EmbedderSpec, depth: int) -> str:
    payload = json.dumps(
        {
            "embedder": spec.to_dict(),
            "segmentation": SEGMENTATION_RULES,
            "depth": depth,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build(
    corpus: Sequence[Document],
    spec: EmbedderSpec = EmbedderSpec(),
    depth: int = 3,
) -> MemoryHierarchy:
    """Segment and embed every document at layers 1..depth.

    Zero-feature (degenerate) units are counted in the manifest and left out
    of the index. A document with an empty body yields no units at any layer
    and is reported once.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {depth}")
    if not corpus:
        raise BuildError("corpus is empty")
    for doc in corpus:
        if not doc.body.strip():
            log.warning("document %d has an empty body; skipped", doc.doc_id)
    layers = []
    unit_counts: dict[int, int] = {}
    degenerate_counts: dict[int, int] = {}
    for layer_no in range(1, depth + 1):
        unit_ids: list[str] = []
        doc_ids: list[int] = []
        rows: list[np.ndarray] = []
        degenerate = 0
        for doc in corpus:
            for unit in segment(doc, layer_no):
                vec = embed(unit.text, layer_no, spec)
                if is_degenerate(vec):
                    degenerate += 1
                    continue
                unit_ids.append(unit.unit_id)
                doc_ids.append(unit.doc_id)
                rows.append(vec)
        unit_counts[layer_no] = len(unit_ids)
        degenerate_counts[layer_no] = degenerate
        matrix = np.stack(rows) if rows else np.zeros((0, spec.dim), dtype=np.float64)
        layers.append(
            LayerMemory(
                layer=layer_no,
                unit_ids=unit_ids,
                doc_ids=np.asarray(doc_ids, dtype=np.int64),
                vectors=matrix,
            )
        )
    if sum(unit_counts.values()) == 0:
        raise BuildError("corpus produced zero indexable units")
    manifest = BuildManifest(
        corpus_sha256=corpus_sha256(corpus),
        config_sha256=_config_sha256(spec, depth),
        n_documents=len(corpus),
        unit_counts=unit_counts,
        degenerate_counts=degenerate_counts,
    )
    return MemoryHierarchy(layers=layers, embedder_spec=spec, manifest=manifest)


def search_layer(mem: LayerMemory, query_vec: np.ndarray, k: int) -> list[Hit]:
    """Exact top-k by descending cosine, ties by ascending unit id.

    A degenerate (all-zero) query yields an empty result.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query_vec = np.asarray(query_vec, dtype=np.float64)
    if query_vec.shape != (mem.vectors.shape[1],):
        raise ValueError(
            f"query dim {query_vec.shape} does not match layer dim {mem.vectors.shape[1]}"
        )
    if not np.all(np.isfinite(query_vec)):
        raise ValueError("query vector has non-finite components")
    if mem.n_units == 0 or not np.any(query_vec):
        return []
    sims = mem.vectors @ query_vec
    neg = -sims
    k = min(k, mem.n_units)
    # sort only the rows at or above the k-th best sim, so ties across the cut stay in;
    # ~(neg > kth) also keeps NaN rows, which sort last as a full sort would place them
    kth = np.partition(neg, k - 1)[k - 1]
    rows = np.flatnonzero(~(neg > kth))
    # lexsort: primary descending sim, secondary ascending unit id
    order = rows[np.lexsort((np.asarray([mem.unit_ids[i] for i in rows]), neg[rows]))]
    return [
        Hit(unit_id=mem.unit_ids[i], doc_id=int(mem.doc_ids[i]), sim=float(sims[i]), row=int(i))
        for i in order[:k]
    ]


# --- persistence -----------------------------------------------------------
# layout: MAGIC, uint32 LE header length, JSON header, packed '<f8' rows per layer


def save(hier: MemoryHierarchy, path: str | Path) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "dim": hier.dim,
        "depth": hier.depth,
        "embedder_spec": hier.embedder_spec.to_dict(),
        "seg_spec": SEGMENTATION_RULES,
        "manifest": hier.manifest.to_dict(),
        "layers": [
            {
                "layer": mem.layer,
                "n_units": mem.n_units,
                "unit_ids": mem.unit_ids,
                "doc_ids": [int(d) for d in mem.doc_ids],
            }
            for mem in hier.layers
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<I", len(header_bytes)))
        handle.write(header_bytes)
        for mem in hier.layers:
            handle.write(np.ascontiguousarray(mem.vectors, dtype="<f8").tobytes())


def load(path: str | Path) -> MemoryHierarchy:
    """Read an index file; search results after load are bit-identical to save time.

    Each layer's vector block is read from the file straight into one aligned,
    writable float64 array: one copy, with no whole-file buffer or slice.  Every
    size is checked against the file's size before it is read, so the index must
    be a regular file; a pipe, FIFO or device is an ``IndexFormatError``.
    """
    with open(path, "rb") as handle:
        info = os.fstat(handle.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise IndexFormatError(f"{path}: not a regular file (an index is read by its size)")
        size = info.st_size
        prefix = handle.read(8)
        if len(prefix) < 8 or prefix[:4] != _MAGIC:
            raise IndexFormatError(f"{path}: not an index file (bad magic)")
        (header_len,) = struct.unpack("<I", prefix[4:])
        if size < 8 + header_len:
            raise IndexFormatError(f"{path}: truncated header")
        try:
            header = json.loads(handle.read(header_len).decode("utf-8"))
        except (RecursionError, ValueError) as exc:  # bad UTF-8 or JSON, deep nesting, a huge int
            raise IndexFormatError(f"{path}: unreadable header ({exc})") from None
        offset = 8 + header_len
        try:
            version = header.get("format_version")
            if version != FORMAT_VERSION:
                raise IndexFormatError(
                    f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})"
                )
            dim = header["dim"]
            if type(dim) is not int or dim < 1:
                raise IndexFormatError(f"{path}: header dim {dim!r} is not a positive integer")
            layers = []
            for meta in header["layers"]:
                n = meta["n_units"]
                if len(meta["unit_ids"]) != n or len(meta["doc_ids"]) != n:
                    raise IndexFormatError(f"{path}: layer {meta['layer']} metadata inconsistent")
                count = n * dim
                if size < offset + 8 * count:
                    raise IndexFormatError(
                        f"{path}: truncated vector block for layer {meta['layer']}")
                block = np.fromfile(handle, dtype="<f8", count=count)
                if block.size != count:  # the file shrank while it was read
                    raise IndexFormatError(
                        f"{path}: truncated vector block for layer {meta['layer']}")
                offset += 8 * count
                if not np.all(np.isfinite(block)):
                    raise IndexFormatError(
                        f"{path}: layer {meta['layer']} has non-finite vector entries")
                layers.append(
                    LayerMemory(
                        layer=meta["layer"],
                        unit_ids=list(meta["unit_ids"]),
                        doc_ids=np.asarray(meta["doc_ids"], dtype=np.int64),
                        # already native float64 on a little-endian host, so no copy
                        vectors=block.reshape(n, dim).astype(np.float64, copy=False),
                    )
                )
            manifest = BuildManifest.from_dict(header["manifest"])
            embedder_spec = EmbedderSpec.from_dict(header["embedder_spec"])
            depth, numbers = header["depth"], [mem.layer for mem in layers]
            if not 1 <= depth <= MAX_DEPTH or numbers != list(range(1, depth + 1)):
                raise IndexFormatError(
                    f"{path}: header depth {depth} but layers numbered {numbers}")
            if dim != embedder_spec.dim:
                raise IndexFormatError(
                    f"{path}: header dim {dim} but embedder dim {embedder_spec.dim}")
            if header["seg_spec"] != SEGMENTATION_RULES:
                raise IndexFormatError(f"{path}: segmentation rules {header['seg_spec']} "
                                       f"differ from the fixed rules {SEGMENTATION_RULES}")
        except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
            raise IndexFormatError(
                f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
        if offset != size:
            raise IndexFormatError(f"{path}: {size - offset} bytes after the last vector block")
        return MemoryHierarchy(layers=layers, embedder_spec=embedder_spec, manifest=manifest)
