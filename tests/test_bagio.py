import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmil.bagio import (
    Bag,
    ConceptSet,
    content_hash,
    read_bag,
    read_concepts,
    read_split,
    write_bag,
    write_concepts,
    write_split,
)
from cmil.errors import DataValidationError, FormatError, ShapeError
from cmil.synthgen import SynthConfig, gen_bag, gen_concepts, gen_dataset
from cmil.trainer import TrainConfig, init_model, predict, train
from blobs import HEADER, reseal


def make_bag(n=5, d=8, seed=0, label=1, slide_id="s0", flags=True):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
    grid = [(i // 3, i % 3) for i in range(n)]
    return Bag(slide_id, label, emb, grid, [bool(i % 2) for i in range(n)] if flags else None)


def write_v1(blob, magic, matrix, sidecar_doc):
    """A format-version-1 pair: 24-byte header, float32 payload, and the
    sidecar the old writer made."""
    rows, cols = matrix.shape
    blob.write_bytes(struct.pack("<4sIQQ", magic, 1, rows, cols) + matrix.astype("<f4").tobytes())
    blob.with_suffix(".json").write_text(json.dumps(sidecar_doc))


# slide ids that are not one file-name component: each would name an artifact outside `--out`
BAD_SLIDE_IDS = ["", ".", "..", "a/b", "../x", "a\x00b"]
# any text that is one file-name component
SLIDE_IDS = st.text(st.characters(codec="utf-8", exclude_characters="/\\\0"), min_size=1, max_size=12).filter(
    lambda s: s not in (".", ".."))


def assert_same_patches(a: Bag, b: Bag):
    np.testing.assert_array_equal(a.grid, b.grid)
    assert (a.in_tumor is None) == (b.in_tumor is None)
    if a.in_tumor is not None:
        np.testing.assert_array_equal(a.in_tumor, b.in_tumor)


class TestBagModel:
    def test_label_must_be_binary(self):
        # a bool or a float would be written to the sidecar, where read_bag rejects it
        for label in (2, True, 1.0):
            with pytest.raises(DataValidationError, match="label must be 0 or 1"):
                make_bag(label=label)

    def test_patch_count_must_match_rows(self):
        emb = np.zeros((3, 4))
        with pytest.raises(DataValidationError, match="patch records"):
            Bag("s", 0, emb, [(0, 0)], None)

    def test_duplicate_grid_coords_rejected(self):
        emb = np.zeros((2, 4))
        with pytest.raises(DataValidationError, match="duplicate"):
            Bag("s", 0, emb, [(1, 1), (1, 1)], None)

    def test_duplicates_found_wherever_they_sit(self):
        emb = np.zeros((4, 4))
        with pytest.raises(DataValidationError, match="duplicate"):
            Bag("s", 0, emb, [(1, 1), (0, 2), (2, 0), (1, 1)], None)
        Bag("s", 0, emb, [(1, 1), (1, 0), (0, 1), (0, 0)], None)  # shared rows or cols are fine

    def test_negative_grid_coords_rejected(self):
        with pytest.raises(DataValidationError, match="negative"):
            Bag("s", 0, np.zeros((2, 4)), [(0, 0), (3, -1)], None)

    def test_non_finite_rejected(self):
        emb = np.zeros((2, 4))
        emb[1, 2] = np.nan
        with pytest.raises(DataValidationError, match="finite"):
            Bag("s", 0, emb, [(0, 0), (0, 1)], None)

    @pytest.mark.parametrize("slide_id", BAD_SLIDE_IDS)
    def test_slide_id_must_be_one_file_name_component(self, slide_id):
        with pytest.raises(DataValidationError, match="not one file-name component"):
            make_bag(slide_id=slide_id)

    def test_tumor_flags_all_or_nothing_detection(self):
        bag = make_bag(flags=True)
        assert bag.in_tumor is not None
        assert make_bag(flags=False).in_tumor is None

    def test_float32_kept_other_dtypes_become_float64(self):
        grid = [(0, 0), (0, 1)]
        for dtype in (np.float32, np.float64):
            assert Bag("s", 0, np.ones((2, 3), dtype), grid, None).embeddings.dtype == dtype
        for emb in (np.ones((2, 3), np.float16), np.ones((2, 3), np.int32), [[1, 2], [3, 4]]):
            assert Bag("s", 0, emb, grid, None).embeddings.dtype == np.float64


class TestBagRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        bag = make_bag(n=7, d=16, seed=3)
        p = tmp_path / "bag0.cmil"
        write_bag(bag, p)
        back = read_bag(p)
        assert back.slide_id == bag.slide_id
        assert back.label == bag.label
        np.testing.assert_array_equal(back.embeddings, bag.embeddings)
        assert_same_patches(back, bag)

    def test_write_is_deterministic(self, tmp_path):
        bag = make_bag(n=4, d=6, seed=9)
        p1, p2 = tmp_path / "a.cmil", tmp_path / "b.cmil"
        write_bag(bag, p1)
        write_bag(bag, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(), p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_bag(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(), p)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_bag(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="bytes"):
            read_bag(p)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(), p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            read_bag(p)

    def test_oversized_header_does_not_allocate(self, tmp_path):
        # header claims ~3.7 TiB; must fail on the length check, not MemoryError
        p = tmp_path / "huge.cmil"
        p.write_bytes(struct.pack("<4sIQQII", b"CMIL", 2, 10**6, 10**6, 0, 0) + b"\x00" * 16)
        with pytest.raises(FormatError, match="declares"):
            read_bag(p)

    def test_manifest_row_mismatch(self, tmp_path):
        # another bag's sidecar, for 4 patches, beside a 5-patch blob
        write_bag(make_bag(n=5), tmp_path / "bag.cmil")
        write_bag(make_bag(n=4), tmp_path / "other.cmil")
        (tmp_path / "bag.json").write_bytes((tmp_path / "other.json").read_bytes())
        with pytest.raises(FormatError, match="crc32 .* does not match"):
            read_bag(tmp_path / "bag.cmil")

    def test_nan_payload_rejected(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(n=2, d=2), p)
        raw = bytearray(p.read_bytes())
        raw[HEADER + 12:HEADER + 16] = struct.pack("<f", float("nan"))  # the last embedding value
        p.write_bytes(bytes(raw))
        reseal(p)
        with pytest.raises(FormatError, match="finite"):
            read_bag(p)

    def test_optional_in_tumor_omitted(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(n=5, d=8, flags=False), p)
        raw = p.read_bytes()
        assert struct.unpack_from("<I", raw, 24) == (0,)  # the flags word
        assert len(raw) == HEADER + 5 * 8 * 4 + 5 * 2 * 8  # embeddings and grid, no flag section
        assert sorted(json.loads((tmp_path / "bag.json").read_text())) == ["crc32", "label", "slide_id"]
        assert read_bag(p).in_tumor is None

    def test_flag_bytes_other_than_0_or_1_rejected(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(n=5, d=2), p)
        raw = bytearray(p.read_bytes())
        raw[-2] = 2  # patch 3's tumor flag
        p.write_bytes(bytes(raw))
        reseal(p)
        with pytest.raises(FormatError, match="tumor flags must be 0 or 1"):
            read_bag(p)

    def test_unknown_flags_rejected(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(n=5, d=2), p)
        raw = bytearray(p.read_bytes())
        raw[24] |= 2
        p.write_bytes(bytes(raw))
        reseal(p)
        with pytest.raises(FormatError, match="unknown flags 0x3"):
            read_bag(p)

    def test_version_1_bag_names_gen_data(self, tmp_path):
        write_v1(tmp_path / "bag.cmil", b"CMIL", np.ones((2, 3)),
                 {"slide_id": "s", "label": 0, "patches": [{"row": 0, "col": 0}, {"row": 0, "col": 1}]})
        with pytest.raises(FormatError, match="version 1 is no longer read; re-run gen-data"):
            read_bag(tmp_path / "bag.cmil")

    def test_sections_are_read_in_place(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(n=5, d=3), p)
        bag = read_bag(p)
        # each array owns the buffer its section was read into: no slice of a whole-file copy
        for array in (bag.embeddings, bag.grid):
            assert array.base is None and array.flags.c_contiguous
        assert bag.in_tumor.base.base is None and bag.in_tumor.base.dtype == np.uint8

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 9),
        grid=st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**62)), min_size=1, max_size=12,
                      unique=True),
        flags=st.one_of(st.none(), st.lists(st.booleans(), min_size=12, max_size=12)),
        slide_id=SLIDE_IDS,
        seed=st.integers(0, 2**16),
        label=st.integers(0, 1),
    )
    @example(d=3, grid=[(4, 1), (0, 0), (2**62, 7)], flags=[True, False, True] + [False] * 9,
             slide_id="Schnitt \u00e4 \u5207\u7247 \U0001f52c", seed=0, label=1)
    def test_round_trip_property(self, tmp_path_factory, d, grid, flags, slide_id, seed, label):
        tmp = tmp_path_factory.mktemp("rt")
        n = len(grid)
        rng = np.random.default_rng(seed)
        emb = (rng.normal(size=(n, d)) * 10).astype(np.float32)
        bag = Bag(slide_id, label, emb, grid, None if flags is None else flags[:n])
        write_bag(bag, tmp / "b.cmil")
        back = read_bag(tmp / "b.cmil")
        assert back.embeddings.tobytes() == emb.tobytes()
        assert (back.slide_id, back.label) == (slide_id, label)
        assert_same_patches(back, bag)


def flip(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 1
    path.write_bytes(bytes(raw))


def edit_sidecar(path, key, value):
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), **{key: value})))


N, D = 5, 3
# the first, a middle and the last byte of each section of a flagged 5 x 3 bag's blob
BAG_SECTIONS = {"embeddings": (HEADER, HEADER + 4 * N * D),
                "grid": (HEADER + 4 * N * D, HEADER + 4 * N * D + 16 * N),
                "tumor flags": (HEADER + 4 * N * D + 16 * N, HEADER + 4 * N * D + 17 * N)}
BAG_FLIPS = [(part, i) for part, (lo, hi) in BAG_SECTIONS.items() for i in (lo, (lo + hi) // 2, hi - 1)]


class TestEveryChangeIsCaught:
    @pytest.mark.parametrize("part,offset", BAG_FLIPS, ids=[f"{p}-{i}" for p, i in BAG_FLIPS])
    def test_bag_blob_byte_flip(self, tmp_path, part, offset):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(n=N, d=D), p)
        assert p.stat().st_size == BAG_SECTIONS["tumor flags"][1]
        flip(p, offset)
        with pytest.raises(FormatError):
            read_bag(p)

    def test_every_header_byte(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(n=N, d=D), p)
        pristine = p.read_bytes()
        for offset in range(HEADER):
            p.write_bytes(pristine)
            flip(p, offset)
            with pytest.raises(FormatError):
                read_bag(p)

    @pytest.mark.parametrize("key,value", [("slide_id", "s1"), ("label", 0), ("crc32", 1)])
    def test_bag_sidecar_edit(self, tmp_path, key, value):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(n=N, d=D, slide_id="s0", label=1), p)
        edit_sidecar(p, key, value)
        with pytest.raises(FormatError, match="crc32|CRC-32"):
            read_bag(p)

    @pytest.mark.parametrize("key,value", [("names", ["a", "c"]), ("prompt_template", "x CONCEPT"),
                                           ("crc32", 1)])
    def test_concept_sidecar_edit(self, tmp_path, key, value):
        p = tmp_path / "c.ccpt"
        write_concepts(ConceptSet(["a", "b"], np.eye(2, 3)), p)
        edit_sidecar(p, key, value)
        with pytest.raises(FormatError, match="crc32|CRC-32"):
            read_concepts(p)

    @pytest.mark.parametrize("offset", [0, 24, 28, HEADER, HEADER + 23])
    def test_concept_blob_byte_flip(self, tmp_path, offset):
        p = tmp_path / "c.ccpt"
        write_concepts(ConceptSet(["a", "b"], np.eye(2, 3)), p)
        flip(p, offset)
        with pytest.raises(FormatError):
            read_concepts(p)


# (edited sidecar of a flagged 5-patch bag, CRC recomputed; expected message)
BAD_SIDECARS = {
    "not an object": (lambda doc: [doc], "manifest must be a JSON object"),
    "no label": (lambda doc: {k: v for k, v in doc.items() if k != "label"}, "missing manifest key 'label'"),
    "bool label": (lambda doc: {**doc, "label": True}, "label must be 0 or 1"),
    "label 2": (lambda doc: {**doc, "label": 2}, "label must be 0 or 1"),
    "float label": (lambda doc: {**doc, "label": 1.0}, "label must be 0 or 1"),
    "integer slide_id": (lambda doc: {**doc, "slide_id": 7}, "slide_id must be a string"),
    "string crc32": (lambda doc: {**doc, "crc32": str(doc["crc32"])}, "crc32 '[0-9]+' does not match"),
    "unknown key": (lambda doc: {**doc, "patches": []}, r"unexpected manifest keys \['patches'\]"),
}


@pytest.mark.parametrize("slide_id", BAD_SLIDE_IDS)
def test_read_bag_rejects_a_slide_id_that_is_not_one_file_name_component(slide_id, tmp_path):
    p = tmp_path / "bag.cmil"
    write_bag(make_bag(n=5), p)
    edit_sidecar(p, "slide_id", slide_id)
    reseal(p)
    with pytest.raises(FormatError, match="not one file-name component") as info:
        read_bag(p)
    assert str(info.value).startswith(f"{p}: ")


@pytest.mark.parametrize("case", list(BAD_SIDECARS))
def test_bad_sidecar_record_names_the_sidecar(case, tmp_path):
    edit, message = BAD_SIDECARS[case]
    write_bag(make_bag(n=5), tmp_path / "bag.cmil")
    sidecar = tmp_path / "bag.json"
    doc = edit(json.loads(sidecar.read_text()))
    sidecar.write_text(json.dumps(doc))
    if isinstance(doc, dict) and isinstance(doc.get("crc32"), int):
        reseal(tmp_path / "bag.cmil")
    with pytest.raises(FormatError, match=message) as info:
        read_bag(tmp_path / "bag.cmil")
    assert str(info.value).startswith(f"{sidecar}: ")


# (grid and flags of a flagged 5 x 8 bag -> edited in place, CRC recomputed; expected message)
BAD_SECTIONS = {
    "negative coordinate": (lambda grid, flags: grid.__setitem__((1, 1), -1), "negative grid coordinates"),
    "duplicate coordinate": (lambda grid, flags: grid.__setitem__(4, grid[0]), "duplicate patch grid"),
    "flag byte 2": (lambda grid, flags: flags.__setitem__(1, 2), "tumor flags must be 0 or 1"),
}


@pytest.mark.parametrize("case", list(BAD_SECTIONS))
def test_bad_patch_section_names_the_blob(case, tmp_path):
    edit, message = BAD_SECTIONS[case]
    p = tmp_path / "bag.cmil"
    write_bag(make_bag(n=5, d=8), p)
    raw = bytearray(p.read_bytes())
    start = HEADER + 5 * 8 * 4
    grid = np.frombuffer(raw, dtype="<i8", count=10, offset=start).reshape(5, 2)
    flags = np.frombuffer(raw, dtype=np.uint8, count=5, offset=start + 80)
    edit(grid, flags)
    p.write_bytes(bytes(raw))
    reseal(p)
    with pytest.raises(FormatError, match=message) as info:
        read_bag(p)
    assert str(info.value).startswith(f"{p}: ")


def test_read_bag_list_holds_little_more_than_its_payload(tmp_path):
    # 200 default bags: the list once held 2.4x the blobs' float32 payload
    split = gen_dataset(SynthConfig(seed=1), tmp_path)
    paths = split.all_paths()
    payload = sum(p.stat().st_size - HEADER for p in paths)
    tracemalloc.start()
    try:
        bags = [read_bag(p) for p in paths]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(bags) == 200
    assert held <= 1.25 * payload, f"{held / payload:.2f}x the payload"


class TestFloat32Exactness:
    """A read bag keeps the file's float32; promoting it first changes no predicted bit."""

    @pytest.mark.parametrize("mode", ["dual", "image-only"])
    def test_predict_matches_float64_promotion(self, mode, tmp_path):
        cfg = SynthConfig(seed=4, N_range=(30, 40), D=16, C=5, tumor_concept_count=2)
        concepts = gen_concepts(cfg)
        in_memory = gen_bag(cfg, np.random.default_rng(2), force_label=1, concepts=concepts,
                            slide_id="s")
        assert in_memory.embeddings.dtype == np.float64
        write_bag(in_memory, tmp_path / "b.cmil")
        bag = read_bag(tmp_path / "b.cmil")
        assert bag.embeddings.dtype == np.float32
        promoted = Bag(bag.slide_id, bag.label, bag.embeddings.astype(np.float64),
                       bag.grid, bag.in_tumor)
        model = init_model(TrainConfig(d_h=8, d_a=6, mode=mode), concepts)
        a, b = predict(bag, model), predict(promoted, model)
        for field in ("alpha", "kappa", "beta", "f_topk"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        for field in ("prob", "prob_concept", "prob_image"):
            assert getattr(a, field) == getattr(b, field), field


class TestConcepts:
    def test_round_trip(self, tmp_path):
        names = ["alpha", "beta", "gamma"]
        emb = np.eye(3, 5)
        cs = ConceptSet(names, emb, "a photo of CONCEPT")
        write_concepts(cs, tmp_path / "c.ccpt")
        back = read_concepts(tmp_path / "c.ccpt")
        assert back.names == names
        assert back.prompt_template == "a photo of CONCEPT"
        np.testing.assert_array_equal(back.embeddings, emb)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataValidationError, match="duplicate"):
            ConceptSet(["a", "a"], np.eye(2))

    def test_non_string_prompt_template_rejected(self, tmp_path):
        write_concepts(ConceptSet(["a", "b"], np.eye(2, 3)), tmp_path / "c.ccpt")
        edit_sidecar(tmp_path / "c.ccpt", "prompt_template", 5)
        reseal(tmp_path / "c.ccpt")
        with pytest.raises(DataValidationError, match="prompt_template must be a string"):
            read_concepts(tmp_path / "c.ccpt")

    def test_version_1_concepts_name_gen_data(self, tmp_path):
        write_v1(tmp_path / "c.ccpt", b"CCPT", np.eye(2, 3), {"names": ["a", "b"]})
        with pytest.raises(FormatError, match="version 1 is no longer read; re-run gen-data"):
            read_concepts(tmp_path / "c.ccpt")

    def test_wrong_magic_for_kind(self, tmp_path):
        write_bag(make_bag(), tmp_path / "b.cmil")
        with pytest.raises(FormatError, match="magic"):
            read_concepts(tmp_path / "b.cmil")


class TestSplits:
    def _write_dataset(self, tmp_path, n=6, d=4):
        paths = []
        for i in range(n):
            bag = make_bag(n=3, d=d, seed=i, label=i % 2, slide_id=f"slide_{i}")
            p = tmp_path / f"bag_{i}.cmil"
            write_bag(bag, p)
            paths.append(p.name)
        write_split(
            {"train": paths[:4], "val": paths[4:5], "test": paths[5:]},
            tmp_path / "split.json",
        )
        return tmp_path / "split.json"

    def _train(self, split_path):
        # train reads both splits and checks them before its first step
        return train(read_split(split_path), ConceptSet(["a", "b"], np.eye(2, 4)),
                     TrainConfig(epochs=1))

    def test_read_split_resolves_relative_paths(self, tmp_path):
        split_path = self._write_dataset(tmp_path)
        split = read_split(split_path)
        assert len(split.train) == 4 and len(split.val) == 1 and len(split.test) == 1
        assert all(p.exists() for p in split.all_paths())

    def test_cross_split_slide_collision(self, tmp_path):
        self._write_dataset(tmp_path)
        write_bag(make_bag(n=3, d=4, seed=99, slide_id="slide_0"), tmp_path / "dup.cmil")
        write_split(
            {"train": ["bag_0.cmil"], "val": ["dup.cmil"], "test": ["bag_5.cmil"]},
            tmp_path / "bad.json",
        )
        with pytest.raises(DataValidationError, match="slide_0"):
            self._train(tmp_path / "bad.json")

    def test_a_bag_spelled_two_ways_is_one_bag(self, tmp_path):
        self._write_dataset(tmp_path)
        (tmp_path / "sub").mkdir()
        cases = {
            "twice in 'train'": {"train": ["bag_0.cmil", "sub/../bag_0.cmil"],
                                 "val": [], "test": []},
            "in both 'train' and 'test'": {"train": ["bag_0.cmil"], "val": [],
                                           "test": ["sub/../bag_0.cmil"]},
        }
        for where, doc in cases.items():
            write_split(doc, tmp_path / "bad.json")
            with pytest.raises(DataValidationError, match=re.escape(
                    f"{tmp_path / 'sub/../bag_0.cmil'} is listed {where}")):
                read_split(tmp_path / "bad.json")

    def test_inconsistent_dims(self, tmp_path):
        write_bag(make_bag(n=2, d=4, seed=0, slide_id="a"), tmp_path / "a.cmil")
        write_bag(make_bag(n=2, d=5, seed=1, slide_id="b"), tmp_path / "b.cmil")
        write_split({"train": ["a.cmil", "b.cmil"], "val": [], "test": []}, tmp_path / "s.json")
        with pytest.raises(ShapeError, match="expects D=4"):
            self._train(tmp_path / "s.json")

    def test_missing_file(self, tmp_path):
        write_split({"train": ["ghost.cmil"], "val": [], "test": []}, tmp_path / "s.json")
        with pytest.raises(FormatError, match="cannot read"):
            self._train(tmp_path / "s.json")


class TestHashing:
    def test_content_hash_order_independent(self, tmp_path):
        (tmp_path / "x").write_bytes(b"aaa")
        (tmp_path / "y").write_bytes(b"bbb")
        h1 = content_hash([tmp_path / "x", tmp_path / "y"])
        h2 = content_hash([tmp_path / "y", tmp_path / "x"])
        assert h1 == h2
        (tmp_path / "y").write_bytes(b"ccc")
        assert content_hash([tmp_path / "x", tmp_path / "y"]) != h1
