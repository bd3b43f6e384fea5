"""Data model and bit-exact file formats for bags, concept sets, checkpoints and splits.

Every binary file is a pair: a blob and a JSON sidecar with the same basename
and a ``.json`` extension.  The blob (format version 2) opens with a 32-byte
little-endian header: a four-byte magic, u32 version, u64 rows, u64 columns, a
u32 flags word and a u32 CRC-32.  Its sections follow, row-major.  A bag
(magic ``CMIL``) holds the N x D float32 embeddings, the N x 2 int64 (row, col)
grid, and, when flags bit 0 is set, N uint8 tumor flags (0 or 1); its sidecar
holds ``slide_id`` (one file-name component), ``label`` and ``crc32``.  A
concept set (``CCPT``) holds its C x D float32 embeddings, with ``names``,
``prompt_template`` and ``crc32`` in its sidecar.  A checkpoint (``CMCK``,
written by ``trainer``) holds its C x D float64 concept embeddings and then
each model parameter as its own float64 section, in sorted-name order.

The CRC-32 (zlib) runs over the header's first 28 bytes, then the sidecar's
other fields as sorted-key ASCII JSON, then each section, and the sidecar's
``crc32`` repeats it, so a change to either file fails the read with a
FormatError.  Version 1 files are not read: re-run the command that wrote
them.  Bag embeddings stay float32 in memory, as stored; concept sets are
promoted to float64.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataValidationError, FormatError

FORMAT_VERSION = 2
BAG_MAGIC = b"CMIL"
CONCEPTS_MAGIC = b"CCPT"
CKPT_MAGIC = b"CMCK"
_WRITER = {BAG_MAGIC: "gen-data", CONCEPTS_MAGIC: "gen-data", CKPT_MAGIC: "train"}
DEFAULT_PROMPT_TEMPLATE = "an H & E image of CONCEPT"

_MAGIC_VERSION = struct.Struct("<4sI")
_HEADER = struct.Struct("<4sIQQII")  # magic, version, rows, cols, flags, CRC-32
_CRC = struct.Struct("<I")
_CRC_AT = _HEADER.size - _CRC.size  # the CRC covers the header bytes before it
_IN_TUMOR = 1  # flags bit: the bag stores its tumor flags


@dataclass
class Bag:
    """One slide: N patch embeddings, their grid positions and a binary label.

    `embeddings` keeps a float32 or float64 matrix as given (a read bag holds
    its file's float32 embedding section); any other dtype becomes float64.  `grid` is
    the N x 2 int64 (row, col) of each patch, and `in_tumor` an N-long bool
    array of ground-truth tumor flags, or None when the slide is unannotated.
    `slide_id` names the slide's artifacts, so it must be one file-name
    component: not empty, ``.`` or ``..``, and without ``/``, ``\\`` or NUL.
    """

    slide_id: str
    label: int
    embeddings: np.ndarray
    grid: np.ndarray
    in_tumor: np.ndarray | None

    def __post_init__(self):
        if (not isinstance(self.slide_id, str) or self.slide_id in ("", ".", "..")
                or any(c in self.slide_id for c in "/\\\0")):
            raise DataValidationError(f"slide_id {self.slide_id!r} is not one file-name component")
        self.embeddings = np.asarray(self.embeddings)
        if self.embeddings.dtype not in (np.float32, np.float64):
            self.embeddings = self.embeddings.astype(np.float64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] < 1:
            raise DataValidationError(f"bag {self.slide_id}: embeddings must be a nonempty N x D matrix")
        if type(self.label) is not int or self.label not in (0, 1):
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

    train: list[Path]
    val: list[Path]
    test: list[Path]

    def all_paths(self) -> list[Path]:
        return list(self.train) + list(self.val) + list(self.test)


# -- binary blob layer --------------------------------------------------------


def _crc(prefix: bytes, meta: dict, sections: list[np.ndarray]) -> int:
    crc = zlib.crc32(json.dumps(meta, sort_keys=True).encode("ascii"), zlib.crc32(prefix))
    for section in sections:
        crc = zlib.crc32(section, crc)
    return crc


def _write_blob(path: Path, magic: bytes, sections: list[np.ndarray], flags: int, meta: dict) -> None:
    """Write the blob of C-contiguous little-endian `sections`, the first a
    rows x cols matrix whose shape the header records, and its sidecar of
    `meta` plus the CRC."""
    rows, cols = sections[0].shape
    prefix = _HEADER.pack(magic, FORMAT_VERSION, rows, cols, flags, 0)[:_CRC_AT]
    crc = _crc(prefix, meta, sections)
    with open(path, "wb") as f:
        f.write(prefix + _CRC.pack(crc))
        for section in sections:
            f.write(section)
    dump_json({**meta, "crc32": crc}, _sidecar(path))


def _read_blob(path: Path, magic: bytes, fields: tuple[str, ...], layout) -> tuple[dict, list[np.ndarray]]:
    """Read a blob and its sidecar: the sidecar's `fields` and the sections.

    `layout(rows, cols, flags, sidecar)` gives the (dtype, shape) of each
    section the header declares, or None for flags it does not know;
    `sidecar()` reads the checked sidecar, for a layout that needs its fields.
    Each section is read into its own array, none before the file's size
    matches the header's, and the CRC is checked against both files before
    any value.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        f = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    sidecar = functools.cache(lambda: _read_sidecar(path, fields))
    with f:
        header = f.read(_HEADER.size)
        if len(header) < _MAGIC_VERSION.size:
            raise FormatError(f"{path}: truncated header")
        got_magic, version = _MAGIC_VERSION.unpack_from(header)
        if got_magic != magic:
            raise FormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
        if version == 1:
            raise FormatError(f"{path}: format version 1 is no longer read; "
                              f"re-run {_WRITER[magic]} to write version {FORMAT_VERSION}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        if len(header) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        _, _, rows, cols, flags, crc = _HEADER.unpack(header)
        if rows < 1 or cols < 1:
            raise FormatError(f"{path}: degenerate shape {rows} x {cols}")
        shapes = layout(rows, cols, flags, sidecar)
        if shapes is None:
            raise FormatError(f"{path}: unknown flags {flags:#x}")
        # exact Python ints, no overflow
        expected = sum(np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in shapes)
        if size - _HEADER.size != expected:
            raise FormatError(
                f"{path}: payload is {size - _HEADER.size} bytes, header declares {expected}"
            )
        sections = []
        for dtype, shape in shapes:
            section = np.empty(shape, dtype=dtype)
            if f.readinto(section) != section.nbytes:
                raise FormatError(f"{path}: truncated payload")
            sections.append(section)
    doc = sidecar()
    meta = {key: doc[key] for key in fields}
    if type(doc["crc32"]) is not int or doc["crc32"] != crc:
        raise FormatError(f"{_sidecar(path)}: crc32 {doc['crc32']!r} does not match its blob's {crc}")
    if _crc(header[:_CRC_AT], meta, sections) != crc:
        raise FormatError(f"{path}: CRC-32 mismatch: the blob or its sidecar has changed")
    if not all(np.isfinite(s).all() for s in sections if s.dtype.kind == "f"):
        raise FormatError(f"{path}: non-finite values in payload")
    return meta, sections


def _read_sidecar(path: Path, fields: tuple[str, ...]) -> dict:
    """The sidecar of blob `path`, holding exactly `fields` and ``crc32``."""
    sidecar = _sidecar(path)
    doc = _read_json(sidecar)
    for key in (*fields, "crc32"):
        if key not in doc:
            raise FormatError(f"{sidecar}: missing manifest key {key!r}")
    if len(doc) != len(fields) + 1:
        raise FormatError(f"{sidecar}: unexpected manifest keys {sorted(set(doc) - {*fields, 'crc32'})}")
    return doc


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


def _bag_layout(rows: int, cols: int, flags: int, sidecar):
    if flags & ~_IN_TUMOR:
        return None
    return [("<f4", (rows, cols)), ("<i8", (rows, 2))] + ([("u1", (rows,))] if flags else [])


def write_bag(bag: Bag, path: Path) -> None:
    sections = [np.ascontiguousarray(bag.embeddings, dtype="<f4"), np.ascontiguousarray(bag.grid, dtype="<i8")]
    flags = 0
    if bag.in_tumor is not None:
        sections.append(np.ascontiguousarray(bag.in_tumor).view(np.uint8))
        flags = _IN_TUMOR
    _write_blob(Path(path), BAG_MAGIC, sections, flags, {"label": bag.label, "slide_id": bag.slide_id})


def read_bag(path: Path) -> Bag:
    path = Path(path)
    meta, (values, grid, *flags) = _read_blob(path, BAG_MAGIC, ("label", "slide_id"), _bag_layout)
    label, slide_id = meta["label"], meta["slide_id"]
    if type(label) is not int or label not in (0, 1):
        raise FormatError(f"{_sidecar(path)}: label must be 0 or 1")
    if not isinstance(slide_id, str):
        raise FormatError(f"{_sidecar(path)}: slide_id must be a string")
    in_tumor = None
    if flags:
        if flags[0].max() > 1:
            raise FormatError(f"{path}: tumor flags must be 0 or 1")
        in_tumor = flags[0].view(bool)
    try:
        return Bag(slide_id, label, values, grid, in_tumor)
    except DataValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# -- concept sets ---------------------------------------------------------------


def _concepts_layout(rows: int, cols: int, flags: int, sidecar):
    return None if flags else [("<f4", (rows, cols))]


def write_concepts(concepts: ConceptSet, path: Path) -> None:
    _write_blob(Path(path), CONCEPTS_MAGIC, [np.ascontiguousarray(concepts.embeddings, dtype="<f4")], 0,
                {"names": list(concepts.names), "prompt_template": concepts.prompt_template})


def read_concepts(path: Path) -> ConceptSet:
    path = Path(path)
    meta, (values,) = _read_blob(path, CONCEPTS_MAGIC, ("names", "prompt_template"), _concepts_layout)
    names = meta["names"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise FormatError(f"{_sidecar(path)}: 'names' must be a list of strings")
    return ConceptSet(names, values, meta["prompt_template"])


# -- splits -----------------------------------------------------------------------


def write_split(split_rel_paths: dict, path: Path) -> None:
    """Write a split file; paths are stored as given (normally relative)."""
    doc = {k: [str(p) for p in split_rel_paths[k]] for k in ("train", "val", "test")}
    dump_json(doc, Path(path))


def read_split(path: Path) -> DatasetSplit:
    """Read split.json; a bag listed in two splits is a leak, and one listed twice
    in a split would be trained on or counted twice: both are rejected."""
    path = Path(path)
    doc = _read_json(path)
    out = {}
    split_of = {}
    for key in ("train", "val", "test"):
        entries = doc.get(key)
        if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
            raise FormatError(f"{path}: '{key}' must be a list of paths")
        out[key] = [path.parent / e for e in entries]
        for bag in out[key]:
            # keyed on the file, so `sub/../b.cmil` is the same bag as `b.cmil`
            file = bag.resolve()
            if file in split_of:
                first = split_of[file]
                where = f"twice in '{key}'" if first == key else f"in both '{first}' and '{key}'"
                raise DataValidationError(f"{path}: {bag} is listed {where}")
            split_of[file] = key
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
