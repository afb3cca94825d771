"""Tests for the gather-based GF(256) matmul kernels against scalar gf_mul."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.backends import NaiveBackend
from repro.erasure.galois import (
    GF_MATMUL_BLOCK,
    PackedGFMatrix,
    gf_addmul_bytes,
    gf_matmul_bytes,
    gf_mul,
)


def scalar_matmul(matrix: np.ndarray, shards: np.ndarray) -> np.ndarray:
    """The defining row×col double loop over scalar gf_mul."""
    rows, cols = matrix.shape
    out = np.zeros((rows, shards.shape[1]), dtype=np.uint8)
    for row in range(rows):
        for col in range(cols):
            coefficient = int(matrix[row, col])
            for position in range(shards.shape[1]):
                out[row, position] ^= gf_mul(coefficient, int(shards[col, position]))
    return out


@pytest.mark.parametrize("seed", range(10))
def test_matmul_matches_scalar_definition(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 13))
    cols = int(rng.integers(1, 13))
    length = int(rng.integers(1, 64))
    matrix = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
    shards = rng.integers(0, 256, (cols, length), dtype=np.uint8)
    expected = scalar_matmul(matrix, shards)
    assert np.array_equal(gf_matmul_bytes(matrix, shards), expected)
    assert np.array_equal(PackedGFMatrix(matrix).apply(shards), expected)


def test_matmul_blocked_equals_unblocked():
    rng = np.random.default_rng(99)
    matrix = rng.integers(0, 256, (5, 9), dtype=np.uint8)
    shards = rng.integers(0, 256, (9, 1000), dtype=np.uint8)
    full = gf_matmul_bytes(matrix, shards)
    for block in (1, 7, 64, 999, 1000, 10_000):
        assert np.array_equal(gf_matmul_bytes(matrix, shards, block=block), full)


def test_xor_only_rows_fast_path():
    """Rows whose coefficients are all 0/1 are XOR combinations (or copies)."""
    shards = np.random.default_rng(1).integers(0, 256, (4, 128), dtype=np.uint8)
    matrix = np.array(
        [
            [0, 0, 0, 0],   # zero row
            [0, 1, 0, 0],   # plain copy
            [1, 1, 0, 1],   # XOR of three shards
            [3, 1, 0, 0],   # dense row (exercises the packed path alongside)
        ],
        dtype=np.uint8,
    )
    out = gf_matmul_bytes(matrix, shards)
    assert not out[0].any()
    assert np.array_equal(out[1], shards[1])
    assert np.array_equal(out[2], shards[0] ^ shards[1] ^ shards[3])
    assert np.array_equal(out[3], scalar_matmul(matrix[3:4], shards)[0])


def test_identity_matrix_is_passthrough():
    shards = np.random.default_rng(2).integers(0, 256, (6, 333), dtype=np.uint8)
    assert np.array_equal(gf_matmul_bytes(np.eye(6, dtype=np.uint8), shards), shards)


def test_more_than_eight_rows_use_multiple_groups():
    rng = np.random.default_rng(3)
    matrix = rng.integers(2, 256, (11, 4), dtype=np.uint8)
    shards = rng.integers(0, 256, (4, 77), dtype=np.uint8)
    assert np.array_equal(gf_matmul_bytes(matrix, shards), scalar_matmul(matrix, shards))


def test_empty_and_mismatched_shapes():
    shards = np.zeros((3, 10), dtype=np.uint8)
    assert gf_matmul_bytes(np.zeros((0, 3), dtype=np.uint8), shards).shape == (0, 10)
    with pytest.raises(ValueError):
        gf_matmul_bytes(np.zeros((2, 4), dtype=np.uint8), shards)
    with pytest.raises(ValueError):
        gf_matmul_bytes(np.zeros(3, dtype=np.uint8), shards)


def test_packed_matrix_reuse_is_consistent():
    rng = np.random.default_rng(4)
    matrix = rng.integers(0, 256, (3, 9), dtype=np.uint8)
    operator = PackedGFMatrix(matrix)
    for _ in range(3):
        shards = rng.integers(0, 256, (9, 500), dtype=np.uint8)
        assert np.array_equal(operator.apply(shards), scalar_matmul(matrix, shards))


# ---------------------------------------------------------------------- #
# Property and boundary tests of the blocked kernel (ISSUE 16)
# ---------------------------------------------------------------------- #
@st.composite
def coefficient_matrices(draw):
    """Matrices up to 12 × 12 with the shapes the row classifier branches on.

    Every row is drawn as dense bytes, all-0/1 (XOR-only), or zero, and a
    random set of columns is zeroed afterwards, so dense groups of 1–8 rows
    (every lane width from ``uint8`` to ``uint64``), XOR-only rows and unused
    columns all occur, alone and mixed.
    """
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(("dense", "binary", "zero")),
                          min_size=rows, max_size=rows))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = np.zeros((rows, cols), dtype=np.uint8)
    for row, kind in enumerate(kinds):
        if kind == "dense":
            matrix[row] = rng.integers(0, 256, cols)
        elif kind == "binary":
            matrix[row] = rng.integers(0, 2, cols)
    zeroed = draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=3))
    if cols:
        matrix[:, zeroed] = 0
    return matrix


@settings(max_examples=120, deadline=None)
@given(matrix=coefficient_matrices(),
       block=st.sampled_from((1, 5, 16)),
       span_kind=st.sampled_from(("0", "1", "b-1", "b", "b+1", "3b+7")),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_apply_equals_the_scalar_definition(matrix, block, span_kind, seed):
    span = {"0": 0, "1": 1, "b-1": block - 1, "b": block, "b+1": block + 1,
            "3b+7": 3 * block + 7}[span_kind]
    shards = np.random.default_rng(seed).integers(
        0, 256, (matrix.shape[1], span), dtype=np.uint8)
    expected = NaiveBackend().matmul(matrix, shards)
    out = PackedGFMatrix(matrix).apply(shards, block=block)
    assert out.dtype == np.uint8 and out.shape == expected.shape
    assert np.array_equal(out, expected)


def vector_matmul(matrix: np.ndarray, shards: np.ndarray) -> np.ndarray:
    """Row-by-row ``accumulator ^= coefficient * shard``: no packing, no blocks."""
    out = np.zeros((matrix.shape[0], shards.shape[1]), dtype=np.uint8)
    for row in range(matrix.shape[0]):
        for col in range(matrix.shape[1]):
            gf_addmul_bytes(out[row], int(matrix[row, col]), shards[col])
    return out


@pytest.mark.parametrize("rows", (1, 3, 4, 5, 8, 9, 12))
@pytest.mark.parametrize("span", (GF_MATMUL_BLOCK - 1, GF_MATMUL_BLOCK,
                                  GF_MATMUL_BLOCK + 1, 3 * GF_MATMUL_BLOCK + 7))
def test_default_block_boundaries(rows, span):
    """Spans around the real block length; ``rows`` 1 / 3 / 4 → 5 walk the
    lane widths up to ``uint64`` and 9 needs a second group."""
    rng = np.random.default_rng(rows * 1000 + span % 97)
    matrix = rng.integers(2, 256, (rows, 9), dtype=np.uint8)
    shards = rng.integers(0, 256, (9, span), dtype=np.uint8)
    assert np.array_equal(PackedGFMatrix(matrix).apply(shards),
                          vector_matmul(matrix, shards))


def test_lane_width_follows_group_size():
    rng = np.random.default_rng(5)
    for rows, lane in ((1, np.uint8), (2, np.uint16), (3, np.uint32),
                       (4, np.uint32), (5, np.uint64), (8, np.uint64)):
        (group,) = PackedGFMatrix(rng.integers(2, 256, (rows, 3), dtype=np.uint8)).packed_groups
        assert group[3] is lane and group[2].dtype == lane


def test_a_group_has_one_kernel_chosen_by_its_row_count():
    """Two to eight rows are gathered; a lone row is translated by the rows of
    the one-byte-lane table ``packed_groups`` still publishes for it."""
    rng = np.random.default_rng(7)
    for rows in range(1, 18):
        matrix = rng.integers(2, 256, (rows, 5), dtype=np.uint8)
        matrix[-1, 1:3] = 0, 1
        operator = PackedGFMatrix(matrix)
        sizes = [group[0].size for group in operator.packed_groups]
        assert sizes == [8] * (rows // 8) + [rows % 8] * (rows % 8 > 0)
        assert [group[0].size for group in operator._gathered] == \
            [size for size in sizes if size > 1]
        if rows % 8 != 1:
            assert operator._lone is None
            continue
        row, terms = operator._lone
        tables = operator.packed_groups[-1][2]
        assert row == rows - 1 and tables.dtype == np.uint8
        assert terms == [(0, tables[0].tobytes()), (2, None),
                         (3, tables[3].tobytes()), (4, tables[4].tobytes())]


def test_strided_and_read_only_inputs_are_read_in_place():
    rng = np.random.default_rng(6)
    matrix = rng.integers(0, 256, (5, 4), dtype=np.uint8)
    operator = PackedGFMatrix(matrix)
    base = rng.integers(0, 256, (8, 150), dtype=np.uint8)
    expected = scalar_matmul(matrix, base[::2, ::3].copy())

    strided = base[::2, ::3]
    before = base.copy()
    assert np.array_equal(operator.apply(strided, block=16), expected)
    assert np.array_equal(base, before)

    fortran = np.asfortranarray(strided)
    assert np.array_equal(operator.apply(fortran, block=16), expected)

    frozen = np.frombuffer(strided.tobytes(), dtype=np.uint8).reshape(strided.shape)
    assert not frozen.flags.writeable
    assert np.array_equal(operator.apply(frozen, block=16), expected)
    assert np.array_equal(operator.apply(frozen), expected)


# ---------------------------------------------------------------------- #
# A dense row that stands alone is computed by ``bytes.translate`` (ISSUE 20)
# ---------------------------------------------------------------------- #
#: Every operand ``apply`` takes: the ``(cols, span)`` array itself, and one
#: buffer per shard in each type ``ReedSolomon.decode_data`` accepts.
OPERANDS = {
    "matrix": lambda shards: shards,
    "bytes": lambda shards: [row.tobytes() for row in shards],
    "bytearray": lambda shards: [bytearray(row.tobytes()) for row in shards],
    "memoryview": lambda shards: [memoryview(row.tobytes()) for row in shards],
    "rows": lambda shards: [row.copy() for row in shards],
    "strided-rows": lambda shards: list(_widened(shards)[:, ::2]),
    "mixed": lambda shards: [row.tobytes() if index % 2 else row
                             for index, row in enumerate(shards)],
}


def _widened(shards: np.ndarray) -> np.ndarray:
    wide = np.full((shards.shape[0], 2 * shards.shape[1]), 0xA5, dtype=np.uint8)
    wide[:, ::2] = shards
    return wide


@st.composite
def lone_row_matrices(draw):
    """Matrices whose dense rows leave a packed group of exactly one.

    One dense row or nine (eight fill a ``uint64`` group, the ninth stands
    alone), optionally interleaved with all-0/1 and zero rows, and every
    dense row carries a 0 and a 1 among its coefficients when it is wide
    enough to stay dense with them.
    """
    cols = draw(st.integers(1, 12))
    dense = draw(st.sampled_from((1, 9)))
    filler = draw(st.lists(st.sampled_from(("binary", "zero")), max_size=4))
    kinds = draw(st.permutations(["dense"] * dense + filler))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = np.zeros((len(kinds), cols), dtype=np.uint8)
    for row, kind in enumerate(kinds):
        if kind == "dense":
            matrix[row] = rng.integers(2, 256, cols)
            if cols >= 3:
                zero, one = rng.choice(cols, 2, replace=False)
                matrix[row, zero], matrix[row, one] = 0, 1
        elif kind == "binary":
            matrix[row] = rng.integers(0, 2, cols)
    return matrix


@settings(max_examples=150, deadline=None)
@given(matrix=lone_row_matrices(),
       block=st.sampled_from((1, 5, 16)),
       span_kind=st.sampled_from(("0", "1", "b-1", "b", "b+1", "3b+7")),
       operand=st.sampled_from(sorted(OPERANDS)),
       seed=st.integers(0, 2**32 - 1))
def test_lone_rows_equal_the_scalar_definition(matrix, block, span_kind, operand, seed):
    span = {"0": 0, "1": 1, "b-1": block - 1, "b": block, "b+1": block + 1,
            "3b+7": 3 * block + 7}[span_kind]
    shards = np.random.default_rng(seed).integers(
        0, 256, (matrix.shape[1], span), dtype=np.uint8)
    assert PackedGFMatrix(matrix).packed_groups[-1][0].size == 1
    expected = NaiveBackend().matmul(matrix, shards)
    out = PackedGFMatrix(matrix).apply(OPERANDS[operand](shards), block=block)
    assert out.dtype == np.uint8 and out.shape == expected.shape
    assert np.array_equal(out, expected)


#: One rebuilt row of RS(9, 3) in shape: a 0 (skipped) and a 1 (passed
#: through) among seven table coefficients.
LONE_ROW = np.array([[7, 0, 211, 1, 92, 255, 2, 143, 30]], dtype=np.uint8)

REAL_SPANS = (0, 1, 1821, GF_MATMUL_BLOCK - 1, GF_MATMUL_BLOCK + 1,
              3 * GF_MATMUL_BLOCK + 7)


@pytest.fixture(scope="module", params=REAL_SPANS)
def lone_row_case(request):
    """Shards of a real span and the scalar definition's answer, computed
    once per span (the naive loop costs ≈ 1 µs per byte per coefficient)."""
    shards = np.random.default_rng(request.param).integers(
        0, 256, (LONE_ROW.shape[1], request.param), dtype=np.uint8)
    return shards, NaiveBackend().matmul(LONE_ROW, shards)


@pytest.mark.parametrize("operand", sorted(OPERANDS))
def test_lone_row_at_real_spans_and_the_default_block(lone_row_case, operand):
    shards, expected = lone_row_case
    operands = OPERANDS[operand](shards)
    before = [bytes(row) for row in operands]
    out = PackedGFMatrix(LONE_ROW).apply(operands)
    assert out.dtype == np.uint8 and np.array_equal(out, expected)
    assert [bytes(row) for row in operands] == before


@pytest.mark.parametrize("operand", sorted(OPERANDS))
def test_the_oracle_takes_the_same_operands(operand):
    rng = np.random.default_rng(8)
    matrix = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    shards = rng.integers(0, 256, (4, 37), dtype=np.uint8)
    assert np.array_equal(NaiveBackend().matmul(matrix, OPERANDS[operand](shards)),
                          scalar_matmul(matrix, shards))


def test_buffer_operands_are_validated_like_arrays():
    operator = PackedGFMatrix(LONE_ROW)
    shards = [bytes(10)] * 9
    with pytest.raises(ValueError, match="9 columns but 8 shards"):
        operator.apply(shards[:8])
    with pytest.raises(ValueError, match="same length"):
        operator.apply(shards[:8] + [bytes(9)])
    with pytest.raises(ValueError, match="1-D"):
        operator.apply(shards[:8] + [np.zeros((10, 2), dtype=np.uint8)])
    assert PackedGFMatrix(np.zeros((2, 0), dtype=np.uint8)).apply([]).shape == (2, 0)
