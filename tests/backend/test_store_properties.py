"""Properties of the object store's read side, over payload sizes 1 B – 40 KiB.

Any ``k`` chunks fetched through ``get_chunks`` decode to the object
``get_object`` returns, whether the object was written by ``put`` or by
``populate``; and after a re-put at version ``v + 1`` every chunk the store
serves is of version ``v + 1``.  (Chunks of two versions handed to the codec
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
