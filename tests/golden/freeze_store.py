"""Freeze golden digests of what an :class:`ErasureCodedStore` holds and serves.

One SHA-256 per shape, taken over everything the store answers about its
objects: for every stored key and every chunk index the chunk's id, size,
``is_parity``, version and payload (``get_chunk``), the same chunks fetched
together in reverse index order (``get_chunks``), ``chunks_by_region``,
``placement_shapes`` of all keys, ``describe()`` and ``get_object`` with data
chunks preferred and with parity chunks preferred (the exception's type and
text where the object has no payloads).  A key the shape deleted records the
errors ``metadata``, ``get_chunk`` and ``chunks_by_region`` raise.

Shapes: the paper's 300 × 1 MiB virtual working set; 64 × 16 KiB objects with
payloads; payloads of 1, 7 and 1,001 bytes (``populate`` and ``put``); a
``SpreadPlacement`` store mixing virtual and payload objects; one object, with
and one without payloads, re-put at version 1; and one delete.  Only public
API is driven, so the same script runs unchanged on any commit.

Generate (refuses to overwrite without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_store.py

``tests/backend/test_store_golden.py`` rebuilds every shape and compares it
with the committed ``tests/golden/store_contents.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.backend import ErasureCodedStore, SpreadPlacement
from repro.erasure import ErasureCodingParams
from repro.geo import default_topology

GOLDEN_PATH = Path(__file__).with_name("store_contents.json")

MEBIBYTE = 1024 * 1024
KIBIBYTE = 1024


def _store(**kwargs) -> ErasureCodedStore:
    return ErasureCodedStore(default_topology(seed=0, jitter=0.0), **kwargs)


def virtual_working_set() -> ErasureCodedStore:
    store = _store()
    store.populate(300, MEBIBYTE)
    return store


def payloads_16k() -> ErasureCodedStore:
    store = _store()
    store.populate(64, 16 * KIBIBYTE, virtual=False, seed=11)
    return store


def small_payloads() -> ErasureCodedStore:
    store = _store(params=ErasureCodingParams(4, 2))
    for size in (1, 7, 1001):
        store.populate(3, size, key_prefix=f"size{size}", virtual=False, seed=size)
        store.put(f"put-{size}", bytes((7 * index + size) % 256 for index in range(size)))
    return store


def spread_placement() -> ErasureCodedStore:
    store = _store(placement=SpreadPlacement())
    store.populate(24, MEBIBYTE)
    store.populate(8, 4 * KIBIBYTE, key_prefix="real", virtual=False, seed=3)
    return store


def reput_at_version_1() -> ErasureCodedStore:
    store = _store()
    store.populate(4, 4 * KIBIBYTE, virtual=False, seed=2)
    store.populate(4, MEBIBYTE, key_prefix="virtual")
    store.put("object-1", bytes(range(256)) * 16, version=1)
    store.put_virtual("virtual-2", MEBIBYTE, version=1)
    return store


def one_delete() -> ErasureCodedStore:
    store = _store()
    store.populate(6, 2 * KIBIBYTE, virtual=False, seed=4)
    store.populate(6, MEBIBYTE, key_prefix="virtual")
    store.delete("object-3")
    store.delete("virtual-0")
    return store


SHAPES = {
    "virtual_300x1MiB": virtual_working_set,
    "payloads_64x16KiB": payloads_16k,
    "payloads_1_7_1001B": small_payloads,
    "spread_placement": spread_placement,
    "reput_version_1": reput_at_version_1,
    "one_delete": one_delete,
}

#: Keys a shape deleted: their errors are part of the digest.
DELETED = {"one_delete": ("object-3", "virtual-0")}


def _error(call) -> str:
    try:
        call()
    except Exception as error:  # noqa: BLE001 — the type and text are the record
        return f"{type(error).__name__}: {error}"
    return "no error"


def _chunk_record(chunk) -> bytes:
    payload = chunk.payload
    head = repr((str(chunk.chunk_id), chunk.key, chunk.index, chunk.size,
                 chunk.is_parity, chunk.version,
                 None if payload is None else len(payload)))
    return head.encode() + b"\n" + (payload or b"")


def shape_digest(name: str) -> str:
    """SHA-256 over everything the shape's store answers (module docstring)."""
    store = SHAPES[name]()
    sha = hashlib.sha256()

    def feed(value) -> None:
        sha.update(repr(value).encode() + b"\n")

    keys = store.keys()
    feed(keys)
    for key in keys:
        metadata = store.metadata(key)
        feed((metadata.key, metadata.size, metadata.chunk_size, metadata.version,
              sorted(metadata.chunk_locations.items())))
        indices = range(metadata.params.total_chunks)
        for index in indices:
            sha.update(_chunk_record(store.get_chunk(key, index)))
        fetched = store.get_chunks(key, reversed(indices))
        feed(list(fetched))
        for chunk in fetched.values():
            sha.update(_chunk_record(chunk))
        feed(store.chunks_by_region(key))
        for prefer in (True, False):
            try:
                body = store.get_object(key, prefer_data_chunks=prefer)
            except Exception as error:  # noqa: BLE001 — virtual objects do not decode
                feed(f"{type(error).__name__}: {error}")
            else:
                feed(len(body))
                sha.update(body)
    feed(store.placement_shapes(keys))
    feed(store.describe())
    for key in DELETED.get(name, ()):
        feed((key, key in store, _error(lambda: store.metadata(key)),
              _error(lambda: store.get_chunk(key, 0)),
              _error(lambda: store.chunks_by_region(key)),
              store.placement_shapes([key])))
    return sha.hexdigest()


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=GOLDEN_PATH.parent, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing store_contents.json")
    args = parser.parse_args(argv)
    if GOLDEN_PATH.exists() and not args.force:
        print(f"{GOLDEN_PATH} exists; pass --force to regenerate it", file=sys.stderr)
        return 2
    golden = {"generated_at_commit": _commit(),
              "shapes": {name: shape_digest(name) for name in SHAPES}}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(SHAPES)} shapes to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
