"""Golden digests of the codec, frozen at the commit named in the file.

``tests/golden/codec.json`` was produced by ``tests/golden/freeze_codec.py``
before the GF(256) kernel was fused and decode learned to rebuild only the
missing rows; reproducing it pins every encoded shard and every any-``k``
decode bit-for-bit *across versions*.  Each case replays through the codec
twice (the ``kernel`` fixture): ``numpy`` as shipped, and ``naive``, where
every kernel application on the golden's operators — the parity rows and
each pattern's decode rows — is also checked against the scalar definition.
A legitimate format change regenerates the file in its own commit
(``--force``), never alongside an optimisation.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.erasure import ErasureCodec, ErasureCodingParams

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

_spec = importlib.util.spec_from_file_location(
    "freeze_codec", GOLDEN_DIR / "freeze_codec.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

GOLDEN = json.loads((GOLDEN_DIR / "codec.json").read_text())

#: The scalar check costs ~1 µs per byte per rebuilt row; above this shard
#: length it replays every ``_NAIVE_STRIDE``-th survivor pattern (the first
#: and the all-parity-heavy last included) instead of all of them.
_NAIVE_FULL_SHARD_BYTES = 128
_NAIVE_STRIDE = 71


def replayed_patterns(kernel: str, k: int, m: int, chunk_size: int):
    every = freeze.patterns(k, m)
    if kernel != "naive" or chunk_size <= _NAIVE_FULL_SHARD_BYTES:
        return every
    return every[::_NAIVE_STRIDE] + every[-1:]


def test_golden_file_covers_every_case():
    assert list(GOLDEN)[1:] == [freeze.case_name(*case) for case in freeze.cases()]
    assert GOLDEN["generated_at_commit"].startswith("2853b14")
    for case in freeze.cases():
        k, m, _ = case
        assert GOLDEN[freeze.case_name(*case)]["patterns"] == len(freeze.patterns(k, m))


def test_a_case_straddles_the_kernel_block():
    from repro.erasure.galois import GF_MATMUL_BLOCK

    assert GF_MATMUL_BLOCK == freeze.KERNEL_BLOCK
    for k, m in freeze.PARAMS:
        name = freeze.case_name(k, m, k * freeze.KERNEL_BLOCK + 1)
        assert GOLDEN[name]["chunk_size"] == GF_MATMUL_BLOCK + 1


@pytest.mark.parametrize("kernel", ("numpy", "naive"), indirect=True)
@pytest.mark.parametrize("case", freeze.cases(),
                         ids=[freeze.case_name(*case) for case in freeze.cases()])
def test_case_reproduces(case, kernel):
    k, m, size = case
    golden = GOLDEN[freeze.case_name(*case)]
    codec = ErasureCodec(ErasureCodingParams(k, m))
    encoded = freeze.encode_case(codec, k, m, size)
    assert encoded.metadata.chunk_size == golden["chunk_size"]
    assert [freeze.digest(chunk.payload) for chunk in encoded.chunks] == golden["shards"]
    for survivors in replayed_patterns(kernel, k, m, golden["chunk_size"]):
        assert freeze.decode_digest(codec, encoded, survivors) == golden["decoded"], survivors
