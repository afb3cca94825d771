"""Freeze golden digests of the erasure codec (encode → any-k decode).

For RS(9, 3) and RS(4, 2) and a ladder of object sizes — empty, one byte,
``k − 1`` / ``k`` / ``k + 1`` (the padding edge), 1,000, the serving tier's
16 KiB, 65,537 and ``k · 16384 + 1`` (a shard one byte longer than the GF
kernel's block, so the last block is a single byte) — the file records the
SHA-256 of every encoded shard and of the decoded object.  The decode digest
is taken over **every** survivor pattern (C(12, 9) = 220 / C(6, 4) = 15):
freezing refuses to write unless they all agree, and the replay decodes each
pattern again.  Payloads come from a SHA-256 counter stream, so neither the
inputs nor the digests depend on a NumPy version.  Only public API is driven,
so the same script runs unchanged on any commit.

Generate (refuses to overwrite without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_codec.py

``tests/erasure/test_codec_golden.py`` recomputes every case on every
available kernel backend and compares it with the committed
``tests/golden/codec.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from repro.erasure import ErasureCodec, ErasureCodingParams

GOLDEN_PATH = Path(__file__).with_name("codec.json")

PARAMS = ((9, 3), (4, 2))

#: Shard bytes per kernel block at the commit that introduced the file; a
#: literal, not an import, so a later block change does not move the case.
KERNEL_BLOCK = 16384


def sizes(k: int) -> tuple[int, ...]:
    """Object sizes covered for a code with ``k`` data chunks."""
    ladder = (0, 1, k - 1, k, k + 1, 1000, 16384, 65537, k * KERNEL_BLOCK + 1)
    return tuple(dict.fromkeys(ladder))  # RS(4, 2): 4 · 16384 + 1 is 65537 already


def cases() -> list[tuple[int, int, int]]:
    """Every ``(k, m, size)`` the file covers."""
    return [(k, m, size) for k, m in PARAMS for size in sizes(k)]


def case_name(k: int, m: int, size: int) -> str:
    return f"rs{k}+{m}/size{size}"


def patterns(k: int, m: int) -> list[tuple[int, ...]]:
    """Every set of ``k`` surviving chunk indices, in lexicographic order."""
    return list(combinations(range(k + m), k))


def payload(k: int, m: int, size: int) -> bytes:
    """``size`` deterministic bytes: SHA-256 in counter mode."""
    blocks = (hashlib.sha256(f"codec-golden/{k}+{m}/{size}/{counter}".encode()).digest()
              for counter in range(-(-size // 32)))
    return b"".join(blocks)[:size]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode_case(codec: ErasureCodec, k: int, m: int, size: int):
    """The case's :class:`EncodedObject` on ``codec``."""
    return codec.encode(case_name(k, m, size), payload(k, m, size))


def decode_digest(codec: ErasureCodec, encoded, survivors) -> str:
    """SHA-256 of the object decoded from exactly the ``survivors`` chunks."""
    chunks = {index: encoded.chunks[index] for index in survivors}
    return digest(codec.decode(encoded.metadata, chunks))


def run_case(k: int, m: int, size: int) -> dict:
    codec = ErasureCodec(ErasureCodingParams(k, m))
    encoded = encode_case(codec, k, m, size)
    decoded = {decode_digest(codec, encoded, survivors)
               for survivors in patterns(k, m)}
    if len(decoded) != 1:
        raise SystemExit(f"{case_name(k, m, size)}: survivor patterns disagree")
    return {
        "chunk_size": encoded.metadata.chunk_size,
        "shards": [digest(chunk.payload) for chunk in encoded.chunks],
        "decoded": decoded.pop(),
        "patterns": len(patterns(k, m)),
    }


def build() -> dict:
    return {case_name(*case): run_case(*case) for case in cases()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing codec.json")
    args = parser.parse_args(argv)
    if GOLDEN_PATH.exists() and not args.force:
        print(f"{GOLDEN_PATH} exists; pass --force to regenerate it",
              file=sys.stderr)
        return 2
    golden = build()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=GOLDEN_PATH.parent, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    # One case per line, in coverage order.
    lines = [f' "generated_at_commit": {json.dumps(commit)}']
    lines += [f" {json.dumps(name)}: "
              f"{json.dumps(golden[name], sort_keys=True, separators=(',', ':'))}"
              for name in golden]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
