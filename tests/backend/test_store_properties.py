"""Properties of the object store's read side, over payload sizes 1 B – 40 KiB.

Any ``k`` chunks fetched through ``get_chunks`` decode to the object
``get_object`` returns, whether the object was written by ``put`` or by
``populate``; and after a re-put at version ``v + 1`` every chunk the store
serves is of version ``v + 1``.  Whatever writer stored an object (``put``,
``put_many`` or ``populate``), at whatever version and after a re-put, every
chunk ``get_chunk`` serves equals, field by field, the chunk
``codec.encode`` returns for the same bytes.  (Chunks of two versions handed to the codec
together are refused: ``tests/erasure/test_decode_missing_rows.py``.)
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backend import ErasureCodedStore
from repro.geo import default_topology

TOPOLOGY = default_topology(seed=0, jitter=0.0)
K, TOTAL = 9, 12

SIZES = st.integers(min_value=1, max_value=40 * 1024)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SURVIVORS = st.lists(st.integers(min_value=0, max_value=TOTAL - 1),
                     min_size=K, max_size=K, unique=True)


def _payload(size: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


@settings(max_examples=40, deadline=None)
@given(size=SIZES, seed=SEEDS, survivors=SURVIVORS, populated=st.booleans())
def test_any_k_chunks_from_the_store_decode_to_the_object(size, seed, survivors,
                                                          populated):
    store = ErasureCodedStore(TOPOLOGY)
    if populated:
        (key,) = store.populate(1, size, virtual=False, seed=seed)
    else:
        key = "object"
        store.put(key, _payload(size, seed))
    chunks = store.get_chunks(key, survivors)
    assert list(chunks) == survivors
    whole = store.get_object(key)
    assert len(whole) == size
    assert store.get_object(key, prefer_data_chunks=False) == whole
    assert store.codec.decode(store.metadata(key), chunks) == whole
    if not populated:
        assert whole == _payload(size, seed)


@settings(max_examples=40, deadline=None)
@given(size=SIZES, seed=SEEDS, version=st.integers(min_value=0, max_value=5),
       survivors=SURVIVORS, virtual=st.booleans())
def test_after_a_reput_every_chunk_served_is_of_the_new_version(size, seed, version,
                                                                survivors, virtual):
    store = ErasureCodedStore(TOPOLOGY)
    store.put("object", _payload(size, seed), version=version)
    if virtual:
        store.put_virtual("object", size, version=version + 1)
    else:
        store.put("object", _payload(size, seed + 1), version=version + 1)
    chunks = store.get_chunks("object", range(TOTAL))
    assert {chunk.version for chunk in chunks.values()} == {version + 1}
    assert all((chunk.payload is None) == virtual for chunk in chunks.values())
    assert store.metadata("object").version == version + 1
    if not virtual:
        picked = {index: chunks[index] for index in survivors}
        assert store.codec.decode(store.metadata("object"), picked) == \
            _payload(size, seed + 1)


#: Sizes at the codec's edges: empty, one byte, one short of ``k``, ``k``,
#: one past it, an odd size and the wire workloads' 16 KiB.
EDGE_SIZES = st.sampled_from([0, 1, K - 1, K, K + 1, 1001, 16 * 1024])
WRITERS = st.sampled_from(["put", "put_many", "populate"])


def _write(store: ErasureCodedStore, writer: str, size: int, seed: int,
           version: int) -> tuple[str, bytes, int]:
    """Store one object through ``writer``; its key, bytes and version.

    ``populate`` always writes version 0 and draws its payloads from one
    generator seeded with ``seed``, which ``_payload`` reproduces for a single
    object.
    """
    data = _payload(size, seed)
    if writer == "populate":
        (key,) = store.populate(1, size, virtual=False, seed=seed)
        return key, data, 0
    if writer == "put_many":
        store.put_many([("object", data)], version=version)
    else:
        store.put("object", data, version=version)
    return "object", data, version


def _fields(chunk) -> tuple:
    return (chunk.chunk_id, chunk.key, chunk.index, chunk.size, chunk.payload,
            chunk.is_parity, chunk.version)


@settings(max_examples=60, deadline=None)
@given(size=EDGE_SIZES, seed=SEEDS, writer=WRITERS,
       version=st.integers(min_value=0, max_value=4), reput=st.booleans(),
       reput_size=EDGE_SIZES, order=st.permutations(range(TOTAL)))
def test_stored_chunks_are_the_codecs_and_any_k_decode(size, seed, writer, version,
                                                       reput, reput_size, order):
    store = ErasureCodedStore(TOPOLOGY)
    key, data, version = _write(store, writer, size, seed, version)
    if reput:
        version += 1
        data = _payload(reput_size, seed + 1)
        store.put(key, data, version=version)
    metadata = store.metadata(key)
    assert (metadata.size, metadata.version) == (len(data), version)
    expected = store.codec.encode(key, data, version=version)
    assert metadata.chunk_size == expected.metadata.chunk_size
    for index, want in enumerate(expected.chunks):
        got = store.get_chunk(key, index)
        assert _fields(got) == _fields(want)
        assert got == want
    survivors = list(order[:K])
    chunks = store.get_chunks(key, survivors)
    assert list(chunks) == survivors
    assert store.codec.decode(metadata, chunks) == data
    assert store.get_object(key) == data
    assert store.get_object(key, prefer_data_chunks=False) == data
