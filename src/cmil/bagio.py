"""Data model and bit-exact file formats for bags, concept sets and splits.

A bag on disk is a pair of files: a binary embedding blob (magic ``CMIL``,
little-endian u32 version, u64 row and column counts, then float32 row-major
payload) and a JSON sidecar manifest with the same basename and a ``.json``
extension. Concept sets use the same binary layout under magic ``CCPT``.
Bag embeddings stay float32 in memory, as stored; concept sets are promoted
to float64.
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


@dataclass
class Bag:
    """One slide: N patch embeddings, their grid positions and a binary label.

    `embeddings` keeps a float32 or float64 matrix as given (a read bag holds
    the file's float32 payload); any other dtype becomes float64.  `grid` is
    the N x 2 int64 (row, col) of each patch, and `in_tumor` an N-long bool
    array of ground-truth tumor flags, or None when the slide is unannotated.
    """

    slide_id: str
    label: int
    embeddings: np.ndarray
    grid: np.ndarray
    in_tumor: np.ndarray | None = None

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings)
        if self.embeddings.dtype not in (np.float32, np.float64):
            self.embeddings = self.embeddings.astype(np.float64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] < 1:
            raise DataValidationError(f"bag {self.slide_id}: embeddings must be a nonempty N x D matrix")
        if self.label not in (0, 1):
            raise DataValidationError(f"bag {self.slide_id}: label must be 0 or 1, got {self.label!r}")
        n = self.embeddings.shape[0]
        self.grid = np.asarray(self.grid, dtype=np.int64)
        if self.grid.ndim != 2 or self.grid.shape[1] != 2:
            raise DataValidationError(
                f"bag {self.slide_id}: grid must be N x 2 (row, col), got shape {self.grid.shape}")
        if self.grid.shape[0] != n:
            raise DataValidationError(
                f"bag {self.slide_id}: {n} embedding rows but {self.grid.shape[0]} patch records")
        if self.in_tumor is not None:
            self.in_tumor = np.asarray(self.in_tumor, dtype=bool)
            if self.in_tumor.shape != (n,):
                raise DataValidationError(
                    f"bag {self.slide_id}: {n} embedding rows but {self.in_tumor.size} tumor flags")
        ordered = self.grid[np.lexsort((self.grid[:, 1], self.grid[:, 0]))]
        if np.any((ordered[1:] == ordered[:-1]).all(axis=1)):
            raise DataValidationError(f"bag {self.slide_id}: duplicate patch grid coordinates")
        if np.any(self.grid < 0):
            raise DataValidationError(f"bag {self.slide_id}: negative grid coordinates")
        if not np.all(np.isfinite(self.embeddings)):
            raise DataValidationError(f"bag {self.slide_id}: non-finite embedding values")

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


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
    """Read a blob's float32 payload. Never allocates beyond the declared payload."""
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
        values = np.empty((rows, cols), dtype="<f4")
        if f.readinto(values) != expected:
            raise FormatError(f"{path}: truncated payload")
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
    grid = bag.grid.tolist()
    if bag.in_tumor is None:
        patches = [{"row": r, "col": c} for r, c in grid]
    else:
        patches = [{"row": r, "col": c, "in_tumor": t} for (r, c), t in zip(grid, bag.in_tumor.tolist())]
    dump_json({"slide_id": bag.slide_id, "label": bag.label, "patches": patches}, _sidecar(path))


def _patch_arrays(sidecar: Path, recs: list) -> tuple[np.ndarray, np.ndarray | None]:
    """The grid and tumor-flag arrays of a sidecar's patch records.

    Each record must be a dict with integer `row` and `col` and an optional
    boolean `in_tumor`; the first bad record is named.  Flags on only some
    patches are rejected.
    """
    rows, cols, flags = [], [], []
    for i, rec in enumerate(recs):
        if not isinstance(rec, dict) or "row" not in rec or "col" not in rec:
            raise FormatError(f"{sidecar}: patch {i} must have 'row' and 'col'")
        row, col = rec["row"], rec["col"]
        if not isinstance(row, int) or not isinstance(col, int) or isinstance(row, bool) or isinstance(col, bool):
            raise FormatError(f"{sidecar}: patch {i} coordinates must be integers")
        flag = rec.get("in_tumor")
        if flag is not None and not isinstance(flag, bool):
            raise FormatError(f"{sidecar}: patch {i} 'in_tumor' must be a boolean")
        rows.append(row)
        cols.append(col)
        flags.append(flag)
    try:
        grid = np.array((rows, cols), dtype=np.int64).T.copy()
    except OverflowError as exc:
        raise FormatError(f"{sidecar}: patch coordinates out of range") from exc
    flagged = len(flags) - flags.count(None)
    if flagged == 0:
        return grid, None
    if flagged != len(flags):
        raise FormatError(f"{sidecar}: 'in_tumor' is set on {flagged} of {len(flags)} patches, "
                          "expected all or none")
    return grid, np.array(flags, dtype=bool)


def read_bag(path: Path) -> Bag:
    path = Path(path)
    values = _read_blob(path, BAG_MAGIC)
    sidecar = _sidecar(path)
    doc = _read_json(sidecar)
    for key in ("slide_id", "label", "patches"):
        if key not in doc:
            raise FormatError(f"{sidecar}: missing manifest key {key!r}")
    if not isinstance(doc["patches"], list):
        raise FormatError(f"{sidecar}: 'patches' must be a list")
    if len(doc["patches"]) != values.shape[0]:
        raise FormatError(
            f"{path}: blob has {values.shape[0]} rows but manifest lists {len(doc['patches'])} patches"
        )
    grid, in_tumor = _patch_arrays(sidecar, doc["patches"])
    label = doc["label"]
    if label not in (0, 1) or isinstance(label, bool):
        raise FormatError(f"{sidecar}: label must be 0 or 1")
    if not isinstance(doc["slide_id"], str):
        raise FormatError(f"{sidecar}: slide_id must be a string")
    try:
        return Bag(doc["slide_id"], label, values, grid, in_tumor)
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
