"""The fused coding loops against the class-API coder they replace.

``arithmetic_encode``, ``arithmetic_decode``, ``decode_int_sequence`` and
the dense-delta occupancy-bit coder (``repro.core.temporal``) run the
adaptive arithmetic coder as one loop over local variables.  These tests
pin them to :class:`ArithmeticEncoder` / :class:`ArithmeticDecoder` +
:class:`AdaptiveModel` and to the oracles in ``tests/oracles/``: the same
bytes, the same symbols, the same models — and the decoders' bound on
reading past the end of their input.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.temporal import (
    _N_CONTEXTS,
    _code_occupancy,
    _decode_occupancy,
    _fresh_models,
    _pred_maps,
)
from repro.entropy.arithmetic import (
    _HALF,
    MAX_OVERREAD_BITS,
    AdaptiveModel,
    ArithmeticEncoder,
    arithmetic_decode,
    arithmetic_encode,
    decode_int_sequence,
    encode_int_sequence,
)
from repro.entropy.varint import encode_uvarint
from repro.octree.morton import interleave3
from repro.octree.octree import build_octree_structure
from tests.oracles import arithmetic as oracle
from tests.oracles import occupancy as occ_oracle

ALPHABETS = [1, 2, 3, 16, 256]


@st.composite
def coded_streams(draw):
    """``(symbols, num_symbols, increment, max_total)``, often skewed."""
    n = draw(st.sampled_from(ALPHABETS))
    increment = draw(st.integers(1, 64))
    max_total = draw(st.one_of(st.just(2 * n), st.integers(2 * n, 1 << 16)))
    hot = draw(st.integers(1, n))  # a few hot symbols make long cheap runs
    raw = draw(st.lists(st.integers(0, 1 << 16), max_size=600))
    cold = draw(st.lists(st.integers(0, n - 1), max_size=20))
    symbols = [v % hot for v in raw] + cold
    return np.array(symbols, dtype=np.int64), n, increment, max_total


class TestArithmeticLoops:
    @given(coded_streams())
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_and_symbols_as_class_api(self, stream):
        symbols, n, increment, max_total = stream
        data = arithmetic_encode(symbols, n, increment, max_total)
        assert data == oracle.arithmetic_encode(symbols, n, increment, max_total)
        decoded = arithmetic_decode(data, len(symbols), n, increment, max_total)
        assert np.array_equal(decoded, symbols)
        assert np.array_equal(
            decoded, oracle.arithmetic_decode(data, len(symbols), n, increment, max_total)
        )

    def test_rescales_match(self):
        # max_total = 2n: the model halves on every other update.
        rng = np.random.default_rng(3)
        for n in ALPHABETS:
            symbols = rng.integers(0, n, size=500)
            data = arithmetic_encode(symbols, n, 64, 2 * n)
            assert data == oracle.arithmetic_encode(symbols, n, 64, 2 * n)
            assert np.array_equal(arithmetic_decode(data, 500, n, 64, 2 * n), symbols)

    @pytest.mark.parametrize("n, increment, max_total", [(2, 1, 4), (16, 1, 32), (256, 32, 1 << 16)])
    def test_long_underflow_runs(self, n, increment, max_total):
        # Pick, at every step, a symbol whose interval still straddles one
        # half: no bit ever settles and the underflow count only grows.
        model = AdaptiveModel(n, increment, max_total)
        encoder = ArithmeticEncoder()
        symbols = []
        for _ in range(2000):
            span = encoder._high - encoder._low + 1
            pick = 0
            for s in range(n):
                cum_low, cum_high = model.cum_range(s)
                low = encoder._low + span * cum_low // model.total
                high = encoder._low + span * cum_high // model.total - 1
                if low < _HALF <= high:
                    pick = s
                    break
            encoder.encode_symbol(model, pick)
            symbols.append(pick)
        assert encoder._pending > 1000
        data = arithmetic_encode(symbols, n, increment, max_total)
        assert data == encoder.finish()
        assert np.array_equal(arithmetic_decode(data, 2000, n, increment, max_total), symbols)

    def test_argument_checks_kept(self):
        with pytest.raises(ValueError, match="alphabet"):
            arithmetic_encode(np.array([3]), 3)
        with pytest.raises(ValueError):
            arithmetic_decode(b"\x00", 1, 256, max_total=100)
        with pytest.raises(ValueError):
            arithmetic_decode(b"\x00", -1, 4)


class TestIntSequenceLoop:
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=150))
    @settings(max_examples=100, deadline=None)
    def test_same_values_as_class_api(self, values):
        arr = np.array(values, dtype=np.int64)
        data = encode_int_sequence(arr)
        assert np.array_equal(decode_int_sequence(data), arr)
        assert np.array_equal(oracle.decode_int_sequence(data), arr)
        # The v1 layout: the same stream without its checksum byte.
        legacy = data[:1] + data[2:] if arr.size else data
        assert np.array_equal(decode_int_sequence(legacy, checksum=False), arr)

    def test_extreme_values(self):
        arr = np.array([2**62, -(2**62), 2**63 - 1, -(2**63), 0, -1], dtype=np.int64)
        assert np.array_equal(decode_int_sequence(encode_int_sequence(arr)), arr)

    def test_overlong_varint_rejected(self):
        # Ten continuation bytes: more than 63 bits of shift.
        header = bytearray()
        encode_uvarint(1, header)
        body = bytes([0xFF] * 10 + [0x01])
        header.append((sum(body) + len(body)) & 0xFF)
        data = bytes(header) + arithmetic_encode(np.frombuffer(body, np.uint8), 256)
        with pytest.raises(ValueError, match="corrupt varint"):
            decode_int_sequence(data)


def _bounded(decode):
    """Run ``decode`` expecting ValueError; return (seconds, peak bytes)."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="past its end"):
            decode()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return elapsed, peak


class TestReadPastEndBound:
    """A decoder stops once it reads 30 bits past its input.

    Before the bound, a claimed count was decoded from phantom zero bits:
    a million symbols out of two bytes took over a minute and allocated
    the output up front.
    """

    def test_claimed_symbol_count(self):
        elapsed, peak = _bounded(lambda: arithmetic_decode(b"\x12\x34", 10**6, 256))
        assert elapsed < 1.0
        assert peak < 4 << 20

    def test_claimed_int_count(self):
        data = bytearray()
        encode_uvarint(10**9, data)
        data += b"\x00\x12\x34"
        elapsed, peak = _bounded(lambda: decode_int_sequence(bytes(data)))
        assert elapsed < 1.0
        assert peak < 4 << 20

    def test_valid_streams_read_at_most_the_bound(self):
        # The bound is tight: some valid streams read all 30 bits.
        rng = np.random.default_rng(11)
        worst = 0
        for _ in range(400):
            n = int(rng.choice(ALPHABETS))
            symbols = rng.integers(0, n, size=int(rng.integers(0, 40)))
            data = arithmetic_encode(symbols, n)
            decoder = oracle.ArithmeticDecoder(data)  # has read its first 32 bits
            shifts = []
            read_bit = decoder._reader.read_bit
            decoder._reader.read_bit = lambda: shifts.append(1) or read_bit()
            model = oracle.AdaptiveModel(n)
            for _ in symbols:
                decoder.decode_symbol(model)
            worst = max(worst, 32 + len(shifts) - 8 * len(data))
            assert np.array_equal(arithmetic_decode(data, len(symbols), n), symbols)
        assert worst == MAX_OVERREAD_BITS


# -- the occupancy-bit coder ---------------------------------------------------


def _context_id(key: tuple) -> int:
    """Flat id of an oracle context ``(level, e, d, m, b, pop, dpop)``."""
    level, e, d, m, b, pop, dpop = key
    return (((((level * 2 + e) * 2 + d) * 2 + m) * 8 + b) * 4 + dpop) * 3 + pop


def _as_lists(models: dict) -> tuple[list[int], list[int]]:
    zeros, ones = _fresh_models()
    for key, model in models.items():
        zeros[_context_id(key)], ones[_context_id(key)] = model._freq
    return zeros, ones


def _tree(rng, n_points: int, depth: int):
    cells = rng.integers(0, 1 << depth, size=(n_points, 3))
    codes = interleave3(cells[:, 0], cells[:, 1], cells[:, 2])
    return build_octree_structure(codes, depth)


def _chain(rng, depth: int, sizes: list[int], spread: float):
    """Code a chain of random trees with fused and oracle models."""
    origin = np.zeros(3)
    leaf = 1.0
    fused = _fresh_models()
    tuples: dict = {}
    for n_points in sizes:
        structure = _tree(rng, n_points, depth)
        prev = rng.uniform(0, spread * (1 << depth), size=(max(n_points, 1), 3))
        ego = rng.normal(0.0, 0.5, size=3)
        maps = _pred_maps(prev, origin, leaf, depth, ego)
        before = (list(fused[0]), list(fused[1]))
        payload = _code_occupancy(structure, maps, fused)
        assert payload == occ_oracle._code_occupancy(structure, maps, tuples)
        assert fused == _as_lists(tuples)
        # The decoder, from the same starting models, rebuilds the tree
        # and ends with the encoder's models.
        decoded_models = before
        leaves = _decode_occupancy(payload, maps, depth, decoded_models, n_points)
        assert np.array_equal(leaves, structure.leaf_codes)
        assert decoded_models == fused
    return fused


class TestOccupancyLoops:
    def test_context_count(self):
        assert _N_CONTEXTS == _context_id((6, 1, 1, 1, 7, 2, 3)) + 1

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    @settings(max_examples=15, deadline=None)
    def test_chained_frames_match_oracle(self, seed, depth):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 300)) for _ in range(3)]
        _chain(rng, depth, sizes, spread=float(rng.choice([0.5, 1.0, 3.0])))

    def test_rescale_matches_oracle(self, monkeypatch):
        # Thousands of nodes at levels >= 6 share contexts; with the
        # predictor far away every bit lands in a handful of them.
        rescales = []
        original = occ_oracle.AdaptiveModel._rescale

        def counted(model):
            rescales.append(model.total)
            original(model)

        monkeypatch.setattr(occ_oracle.AdaptiveModel, "_rescale", counted)
        rng = np.random.default_rng(5)
        models = _chain(rng, 8, [6000, 6000], spread=40.0)
        assert rescales, "no context rescaled"
        assert max(z + o for z, o in zip(*models)) <= 1 << 16

    def test_decoder_bound(self):
        rng = np.random.default_rng(2)
        structure = _tree(rng, 200, 6)
        maps = _pred_maps(rng.uniform(0, 64, size=(200, 3)), np.zeros(3), 1.0, 6, (0, 0, 0))
        payload = _code_occupancy(structure, maps, _fresh_models())
        # Any cut that changes the tree either decodes another tree or
        # stops at the read bound; it never reads on indefinitely.
        for cut in range(len(payload)):
            try:
                _decode_occupancy(payload[:cut], maps, 6, _fresh_models(), 200)
            except ValueError as exc:
                assert "past its end" in str(exc) or "more nodes" in str(exc)
