#!/usr/bin/env python3
"""Wound an mdsd result store the way a dying disk would, then check the
restart scan dealt with it.

    wound_store.py wound DIR SKIP > state.json
        Flip a payload byte in the first whole record after the first SKIP
        records of the log (or, when the log holds no more, append a record
        whose payload fails its checksum), then append a torn partial record
        to the last segment. Prints what it did as JSON.

    wound_store.py check DIR state.json
        Exit non-zero unless the torn bytes are in DIR/quarantine/ and no
        longer in the segment they were appended to.

Only the log's framing is read here: segments are DIR/seg-<seq>.mdsl, and
each record is a 96-byte header (8-byte magic; payload length at byte 64,
little-endian) followed by its payload. The store checks everything else.
"""
import glob
import json
import os
import struct
import sys
import zlib

MAGIC = b"\x89MDSE\r\n\x1a"
HEADER = 96


def records(store):
    """Whole records in log order, as (segment path, offset, size)."""
    out = []
    for path in sorted(glob.glob(os.path.join(store, "seg-*.mdsl"))):
        data = open(path, "rb").read()
        off = 0
        while off + HEADER <= len(data) and data[off:off + 8] == MAGIC:
            size = HEADER + struct.unpack_from("<Q", data, off + 64)[0]
            if size > len(data) - off:
                break
            out.append((path, off, size))
            off += size
    return out


def entry(payload):
    """A record with a verifying header and a zero payload checksum."""
    hdr = bytearray(HEADER)
    hdr[0:8] = MAGIC
    struct.pack_into("<I", hdr, 8, 1)  # version
    struct.pack_into("<q", hdr, 56, 1)  # computed-at
    struct.pack_into("<Q", hdr, 64, len(payload))
    struct.pack_into("<I", hdr, 92, zlib.crc32(bytes(hdr[:92])))
    return bytes(hdr) + payload


def append(path, data):
    size = os.path.getsize(path)
    with open(path, "ab") as f:
        f.write(data)
    return size


def wound(store, skip):
    recs = records(store)
    if len(recs) < skip:
        sys.exit(f"wound_store: log holds {len(recs)} whole records, want >= {skip}")
    last = sorted(glob.glob(os.path.join(store, "seg-*.mdsl")))[-1]
    if len(recs) > skip:
        path, off, _ = recs[skip]
        with open(path, "r+b") as f:
            f.seek(off + HEADER)
            b = f.read(1)
            f.seek(off + HEADER)
            f.write(bytes([b[0] ^ 0x40]))
        flipped = {"segment": os.path.basename(path), "offset": off}
    else:
        flipped = {"segment": os.path.basename(last), "offset": append(last, entry(b'{"never":"served"}'))}
    torn = entry(b'{"torn":"mid-write"}')[:60]
    return {
        "records": len(recs),
        "flipped": flipped,
        "torn_segment": os.path.basename(last),
        "torn_offset": append(last, torn),
        "torn_hex": torn.hex(),
    }


def check(store, state):
    torn = bytes.fromhex(state["torn_hex"])
    seg = os.path.join(store, state["torn_segment"])
    with open(seg, "rb") as f:
        f.seek(state["torn_offset"])
        if f.read(len(torn)) == torn:
            sys.exit(f"wound_store: the torn bytes are still in {seg} at {state['torn_offset']}")
    for q in glob.glob(os.path.join(store, "quarantine", state["torn_segment"] + "@*")):
        if open(q, "rb").read().endswith(torn):
            print(f"torn bytes quarantined in {q}")
            return
    sys.exit("wound_store: torn bytes not found in quarantine/")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "wound":
        print(json.dumps(wound(sys.argv[2], int(sys.argv[3]))))
    elif len(sys.argv) == 4 and sys.argv[1] == "check":
        check(sys.argv[2], json.load(open(sys.argv[3])))
    else:
        sys.exit(__doc__)
