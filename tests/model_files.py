"""Byte-level edits of saved model files for the loader tests.  The layout
is walked here on its own, without ``dbtagger.tagger``'s reader."""

import struct


def size_fields(blob: bytes) -> list[tuple[str, int]]:
    """(kind, byte offset) of every u32 size field of a well-formed model
    file: the embedding dimension, counts, string lengths, the hidden size
    and matrix dimensions."""
    fields = []
    pos = 9  # magic DBTG1 and the u32 version

    def u32(kind):
        nonlocal pos
        fields.append((kind, pos))
        pos += 4
        return struct.unpack_from("<I", blob, pos - 4)[0]

    def string(kind):
        nonlocal pos
        length = u32(kind)
        pos += length

    dim = u32("dim")
    pos += 16  # u64 bucket count and subword seed
    for _ in range(u32("vector count")):
        string("token length")
        pos += 8 * dim
    for _ in range(3):
        for _ in range(u32("vocabulary size")):
            string("symbol length")
    u32("hidden")
    pos += 32  # three task weights and the dropout rate
    for _ in range(u32("parameter count")):
        string("name length")
        size = 8 * u32("rows") * u32("cols")
        pos += size
    assert pos == len(blob)
    return fields


def with_u32(blob: bytes, offset: int, value: int) -> bytes:
    return blob[:offset] + struct.pack("<I", value) + blob[offset + 4 :]


def crafted(blob: bytes) -> dict[str, bytes]:
    """Files that declare sizes their stored tensors do not carry: hidden 0,
    hidden 100000 (74.5 GiB of network), and a POS vocabulary of 300 000
    symbols (671 GiB of CRF transitions) in a file of about 2.7 MB."""
    fields = size_fields(blob)
    hidden = next(offset for kind, offset in fields if kind == "hidden")
    pos_size = next(offset for kind, offset in fields if kind == "vocabulary size")
    type_size = [offset for kind, offset in fields if kind == "vocabulary size"][1]
    symbols = b"".join(struct.pack("<I", 5) + b"%05x" % i for i in range(300_000))
    return {
        "hidden 0": with_u32(blob, hidden, 0),
        "hidden 100000": with_u32(blob, hidden, 100_000),
        "300000 POS symbols": (
            blob[:pos_size] + struct.pack("<I", 300_000) + symbols + blob[type_size:]
        ),
    }
