"""Data model and bit-exact file formats for bags, concept sets and splits.

A bag on disk is a pair of files: a binary embedding blob (magic ``CMIL``,
little-endian u32 version, u64 row and column counts, then float32 row-major
payload) and a JSON sidecar manifest with the same basename and a ``.json``
extension. Concept sets use the same binary layout under magic ``CCPT``.
Embeddings are stored as float32 and promoted to float64 in memory.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataValidationError, FormatError

FORMAT_VERSION = 1
BAG_MAGIC = b"CMIL"
CONCEPTS_MAGIC = b"CCPT"
DEFAULT_PROMPT_TEMPLATE = "an H & E image of CONCEPT"

_HEADER = struct.Struct("<4sIQQ")


@dataclass(frozen=True)
class PatchRecord:
    """Grid position of one patch, with an optional ground-truth tumor flag."""

    grid_row: int
    grid_col: int
    in_tumor: bool | None = None


@dataclass
class Bag:
    """One slide: N patch embeddings plus per-patch metadata and a binary label."""

    slide_id: str
    label: int
    embeddings: np.ndarray
    patches: list[PatchRecord]

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] < 1:
            raise DataValidationError(f"bag {self.slide_id}: embeddings must be a nonempty N x D matrix")
        if self.label not in (0, 1):
            raise DataValidationError(f"bag {self.slide_id}: label must be 0 or 1, got {self.label!r}")
        if self.embeddings.shape[0] != len(self.patches):
            raise DataValidationError(
                f"bag {self.slide_id}: {self.embeddings.shape[0]} embedding rows "
                f"but {len(self.patches)} patch records"
            )
        coords = [(p.grid_row, p.grid_col) for p in self.patches]
        if len(set(coords)) != len(coords):
            raise DataValidationError(f"bag {self.slide_id}: duplicate patch grid coordinates")
        if any(p.grid_row < 0 or p.grid_col < 0 for p in self.patches):
            raise DataValidationError(f"bag {self.slide_id}: negative grid coordinates")
        if not np.all(np.isfinite(self.embeddings)):
            raise DataValidationError(f"bag {self.slide_id}: non-finite embedding values")

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def has_tumor_flags(self) -> bool:
        return all(p.in_tumor is not None for p in self.patches)


@dataclass
class ConceptSet:
    """Named concepts plus their C x D embedding matrix."""

    names: list[str]
    embeddings: np.ndarray
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if len(self.names) < 2:
            raise DataValidationError("a concept set needs at least 2 concepts")
        if len(set(self.names)) != len(self.names):
            raise DataValidationError("duplicate concept names")
        if any(not n for n in self.names):
            raise DataValidationError("empty concept name")
        if not isinstance(self.prompt_template, str):
            raise DataValidationError(
                f"prompt_template must be a string, got {self.prompt_template!r}")
        if (self.embeddings.ndim != 2 or self.embeddings.shape[0] != len(self.names)
                or self.embeddings.shape[1] < 1):
            raise DataValidationError(
                f"concept embeddings must be {len(self.names)} x D with D >= 1, "
                f"got shape {self.embeddings.shape}"
            )

    @property
    def num_concepts(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class DatasetSplit:
    """Bag file paths per split, resolved against the split file's directory."""

    train: list[Path] = field(default_factory=list)
    val: list[Path] = field(default_factory=list)
    test: list[Path] = field(default_factory=list)

    def all_paths(self) -> list[Path]:
        return list(self.train) + list(self.val) + list(self.test)


# -- binary blob layer --------------------------------------------------------


def _write_blob(path: Path, magic: bytes, matrix: np.ndarray) -> None:
    rows, cols = matrix.shape
    payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(_HEADER.pack(magic, FORMAT_VERSION, rows, cols))
        f.write(payload)


def _read_blob(path: Path, magic: bytes) -> np.ndarray:
    """Read a blob, promoting to float64. Never allocates beyond the declared payload."""
    path = Path(path)
    try:
        size = path.stat().st_size
        f = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    with f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        got_magic, version, rows, cols = _HEADER.unpack(header)
        if got_magic != magic:
            raise FormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        if rows < 1 or cols < 1:
            raise FormatError(f"{path}: degenerate shape {rows} x {cols}")
        expected = rows * cols * 4  # exact Python ints, no overflow
        if size - _HEADER.size != expected:
            raise FormatError(
                f"{path}: payload is {size - _HEADER.size} bytes, header declares {expected}"
            )
        raw = f.read(expected)
        if len(raw) != expected:
            raise FormatError(f"{path}: truncated payload")
    with np.errstate(invalid="ignore"):  # signaling-NaN bit patterns warn on cast
        values = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(rows, cols)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: non-finite values in payload")
    return values


def _sidecar(path: Path) -> Path:
    return Path(path).with_suffix(".json")


def _read_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: invalid JSON manifest: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    return doc


def dump_json(obj, path: Path) -> None:
    """Canonical JSON writer used for every artifact (sorted keys, stable floats)."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# -- bags ----------------------------------------------------------------------


def write_bag(bag: Bag, path: Path) -> None:
    path = Path(path)
    _write_blob(path, BAG_MAGIC, bag.embeddings)
    patches = []
    for p in bag.patches:
        rec = {"row": p.grid_row, "col": p.grid_col}
        if p.in_tumor is not None:
            rec["in_tumor"] = bool(p.in_tumor)
        patches.append(rec)
    dump_json({"slide_id": bag.slide_id, "label": bag.label, "patches": patches}, _sidecar(path))


def read_bag(path: Path) -> Bag:
    path = Path(path)
    values = _read_blob(path, BAG_MAGIC)
    doc = _read_json(_sidecar(path))
    for key in ("slide_id", "label", "patches"):
        if key not in doc:
            raise FormatError(f"{_sidecar(path)}: missing manifest key {key!r}")
    if not isinstance(doc["patches"], list):
        raise FormatError(f"{_sidecar(path)}: 'patches' must be a list")
    if len(doc["patches"]) != values.shape[0]:
        raise FormatError(
            f"{path}: blob has {values.shape[0]} rows but manifest lists {len(doc['patches'])} patches"
        )
    patches = []
    for i, rec in enumerate(doc["patches"]):
        if not isinstance(rec, dict) or "row" not in rec or "col" not in rec:
            raise FormatError(f"{_sidecar(path)}: patch {i} must have 'row' and 'col'")
        row, col = rec["row"], rec["col"]
        if not isinstance(row, int) or not isinstance(col, int) or isinstance(row, bool) or isinstance(col, bool):
            raise FormatError(f"{_sidecar(path)}: patch {i} coordinates must be integers")
        flag = rec.get("in_tumor")
        if flag is not None and not isinstance(flag, bool):
            raise FormatError(f"{_sidecar(path)}: patch {i} 'in_tumor' must be a boolean")
        patches.append(PatchRecord(row, col, flag))
    label = doc["label"]
    if label not in (0, 1) or isinstance(label, bool):
        raise FormatError(f"{_sidecar(path)}: label must be 0 or 1")
    if not isinstance(doc["slide_id"], str):
        raise FormatError(f"{_sidecar(path)}: slide_id must be a string")
    try:
        return Bag(doc["slide_id"], label, values, patches)
    except DataValidationError as exc:
        raise FormatError(str(exc)) from exc


# -- concept sets ---------------------------------------------------------------


def write_concepts(concepts: ConceptSet, path: Path) -> None:
    path = Path(path)
    _write_blob(path, CONCEPTS_MAGIC, concepts.embeddings)
    dump_json(
        {"names": list(concepts.names), "prompt_template": concepts.prompt_template},
        _sidecar(path),
    )


def read_concepts(path: Path) -> ConceptSet:
    path = Path(path)
    values = _read_blob(path, CONCEPTS_MAGIC)
    doc = _read_json(_sidecar(path))
    names = doc.get("names")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise FormatError(f"{_sidecar(path)}: 'names' must be a list of strings")
    return ConceptSet(names, values, doc.get("prompt_template", DEFAULT_PROMPT_TEMPLATE))


# -- splits -----------------------------------------------------------------------


def write_split(split_rel_paths: dict, path: Path) -> None:
    """Write a split file; paths are stored as given (normally relative)."""
    doc = {k: [str(p) for p in split_rel_paths[k]] for k in ("train", "val", "test")}
    dump_json(doc, Path(path))


def read_split(path: Path) -> DatasetSplit:
    """Read split.json; a bag listed in two splits is a leak and is rejected."""
    path = Path(path)
    doc = _read_json(path)
    out = {}
    split_of = {}
    for key in ("train", "val", "test"):
        entries = doc.get(key)
        if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
            raise FormatError(f"{path}: '{key}' must be a list of paths")
        out[key] = [path.parent / e if not Path(e).is_absolute() else Path(e) for e in entries]
        for bag in out[key]:
            first = split_of.setdefault(bag, key)
            if first != key:
                raise DataValidationError(f"{path}: {bag} is listed in both '{first}' and '{key}'")
    return DatasetSplit(**out)


# -- provenance --------------------------------------------------------------------


def content_hash(paths: Iterable[Path]) -> str:
    """SHA-256 over the contents of the given files, order-independent."""
    digests = sorted(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths)
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode("ascii"))
    return h.hexdigest()


def file_hash(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
