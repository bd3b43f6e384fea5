"""Edit helpers for format-version-2 blob pairs (bags, concept sets, checkpoints)."""

import json
import struct
import zlib

HEADER = 32  # magic, u32 version, u64 rows, u64 cols, u32 flags, u32 CRC-32


def reseal(blob):
    """Recompute the CRC-32 of an edited blob and sidecar pair, as the
    format defines it, so that a read gets past the checksum to the checks
    behind it."""
    sidecar = blob.with_suffix(".json")
    raw = bytearray(blob.read_bytes())
    doc = json.loads(sidecar.read_text())
    meta = {k: v for k, v in doc.items() if k != "crc32"}
    crc = zlib.crc32(json.dumps(meta, sort_keys=True).encode("ascii"), zlib.crc32(raw[:HEADER - 4]))
    crc = zlib.crc32(raw[HEADER:], crc)
    raw[HEADER - 4:HEADER] = struct.pack("<I", crc)
    blob.write_bytes(bytes(raw))
    sidecar.write_text(json.dumps({**doc, "crc32": crc}))
