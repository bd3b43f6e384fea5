import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmil.bagio import (
    Bag,
    ConceptSet,
    PatchRecord,
    content_hash,
    read_bag,
    read_concepts,
    read_split,
    write_bag,
    write_concepts,
    write_split,
)
from cmil.errors import DataValidationError, FormatError, ShapeError
from cmil.trainer import TrainConfig, train


def make_bag(n=5, d=8, seed=0, label=1, slide_id="s0", flags=True):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
    patches = [PatchRecord(i // 3, i % 3, bool(i % 2) if flags else None) for i in range(n)]
    return Bag(slide_id, label, emb, patches)


class TestBagModel:
    def test_label_must_be_binary(self):
        with pytest.raises(DataValidationError):
            make_bag(label=2)

    def test_patch_count_must_match_rows(self):
        emb = np.zeros((3, 4))
        with pytest.raises(DataValidationError, match="patch records"):
            Bag("s", 0, emb, [PatchRecord(0, 0)])

    def test_duplicate_grid_coords_rejected(self):
        emb = np.zeros((2, 4))
        with pytest.raises(DataValidationError, match="duplicate"):
            Bag("s", 0, emb, [PatchRecord(1, 1), PatchRecord(1, 1)])

    def test_non_finite_rejected(self):
        emb = np.zeros((2, 4))
        emb[1, 2] = np.nan
        with pytest.raises(DataValidationError, match="finite"):
            Bag("s", 0, emb, [PatchRecord(0, 0), PatchRecord(0, 1)])

    def test_tumor_flags_all_or_nothing_detection(self):
        bag = make_bag(flags=True)
        assert bag.has_tumor_flags()
        assert not make_bag(flags=False).has_tumor_flags()


class TestBagRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        bag = make_bag(n=7, d=16, seed=3)
        p = tmp_path / "bag0.cmil"
        write_bag(bag, p)
        back = read_bag(p)
        assert back.slide_id == bag.slide_id
        assert back.label == bag.label
        np.testing.assert_array_equal(back.embeddings, bag.embeddings)
        assert back.patches == bag.patches

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
        p.write_bytes(struct.pack("<4sIQQ", b"CMIL", 1, 10**6, 10**6) + b"\x00" * 16)
        with pytest.raises(FormatError, match="declares"):
            read_bag(p)

    def test_manifest_row_mismatch(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(n=5), p)
        doc = json.loads((tmp_path / "bag.json").read_text())
        doc["patches"] = doc["patches"][:-1]
        (tmp_path / "bag.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="manifest"):
            read_bag(p)

    def test_nan_payload_rejected(self, tmp_path):
        p = tmp_path / "bag.cmil"
        bag = make_bag(n=2, d=2)
        write_bag(bag, p)
        raw = bytearray(p.read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="finite"):
            read_bag(p)

    def test_optional_in_tumor_omitted(self, tmp_path):
        p = tmp_path / "bag.cmil"
        write_bag(make_bag(flags=False), p)
        doc = json.loads((tmp_path / "bag.json").read_text())
        assert all("in_tumor" not in rec for rec in doc["patches"])
        assert read_bag(p).patches[0].in_tumor is None

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 9),
        seed=st.integers(0, 2**16),
        label=st.integers(0, 1),
    )
    def test_round_trip_property(self, tmp_path_factory, n, d, seed, label):
        tmp = tmp_path_factory.mktemp("rt")
        rng = np.random.default_rng(seed)
        emb = (rng.normal(size=(n, d)) * 10).astype(np.float32).astype(np.float64)
        patches = [PatchRecord(i, 0) for i in range(n)]
        bag = Bag(f"s{seed}", label, emb, patches)
        write_bag(bag, tmp / "b.cmil")
        back = read_bag(tmp / "b.cmil")
        np.testing.assert_array_equal(back.embeddings, bag.embeddings)
        assert (back.slide_id, back.label, back.patches) == (bag.slide_id, bag.label, bag.patches)


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
        sidecar = tmp_path / "c.json"
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), prompt_template=5)))
        with pytest.raises(DataValidationError, match="prompt_template must be a string"):
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
