"""The class API of the arithmetic coder against the bit-at-a-time reference.

:class:`ArithmeticEncoder` / :class:`ArithmeticDecoder` over the blocked
:class:`AdaptiveModel` are driven through the same random program as the
reference classes in ``tests/oracles/arithmetic.py``: per-symbol calls
interleaved over several models, raw ranges as the kd-tree coder makes
them, and batch runs as the v1 tree readers make them.  Bytes, decoded
symbols, register state and every model's counts must match.

``decode_int_sequence`` decodes its varint bytes in rounds of batch calls;
its corrupt-varint checks are tested here too.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy.arithmetic import (
    AdaptiveModel,
    ArithmeticDecoder,
    ArithmeticEncoder,
    arithmetic_decode,
    arithmetic_encode,
    decode_int_sequence,
)
from repro.entropy.varint import encode_uvarint
from tests.oracles import arithmetic as oracle

ALPHABETS = [1, 2, 9, 16, 256]


@st.composite
def model_specs(draw):
    """``(num_symbols, increment, max_total)``, down to the smallest total."""
    n = draw(st.sampled_from(ALPHABETS))
    increment = draw(st.integers(1, 64))
    max_total = draw(st.one_of(st.just(2 * n), st.integers(2 * n, 1 << 16)))
    return n, increment, max_total


def symbols_of(n: int, max_size: int):
    # A few hot symbols make long cheap runs; both ends of the alphabet
    # stay in play.
    return st.lists(
        st.one_of(
            st.integers(0, min(n - 1, 3)),
            st.sampled_from([0, n - 1]),
            st.integers(0, n - 1),
        ),
        max_size=max_size,
    )


@st.composite
def programs(draw):
    """Model specs and a list of ops over them.

    ``("symbol", model, s)`` codes one symbol, ``("range", low, high,
    total)`` one raw range, ``("batch", model, [s, ...])`` a run.
    """
    specs = draw(st.lists(model_specs(), min_size=1, max_size=4))
    ops = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["symbol", "range", "batch"]))
        if kind == "range":
            total = draw(st.integers(1, 1 << 16))
            low = draw(st.integers(0, total - 1))
            high = draw(st.one_of(st.just(low + 1), st.integers(low + 1, total)))
            ops.append(("range", low, high, total))
            continue
        m = draw(st.integers(0, len(specs) - 1))
        n = specs[m][0]
        if kind == "symbol":
            ops.append(("symbol", m, draw(st.integers(0, n - 1))))
        else:
            ops.append(("batch", m, draw(symbols_of(n, 120))))
    return specs, ops


def _encode(specs, ops, model_cls, encoder, batch):
    models = [model_cls(*spec) for spec in specs]
    for op in ops:
        if op[0] == "symbol":
            encoder.encode_symbol(models[op[1]], op[2])
        elif op[0] == "range":
            encoder.encode(*op[1:])
        elif batch:
            encoder.encode_symbols(models[op[1]], op[2])
        else:
            for symbol in op[2]:
                encoder.encode_symbol(models[op[1]], symbol)
    return models


def _decode(specs, ops, model_cls, decoder, batch):
    models = [model_cls(*spec) for spec in specs]
    out = []
    for op in ops:
        if op[0] == "symbol":
            out.append(decoder.decode_symbol(models[op[1]]))
        elif op[0] == "range":
            _, low, high, total = op
            target = decoder.decode_target(total)
            assert low <= target < high
            decoder.consume(low, high, total)
        elif batch:
            out.extend(decoder.decode_symbols(models[op[1]], len(op[2])))
        else:
            out.extend(decoder.decode_symbol(models[op[1]]) for _ in op[2])
    return out, models


def _counts(models):
    return [(model._freq, model.total) for model in models]


def _assert_blocks_consistent(models):
    for model in models:
        freq = model._freq
        assert model._blocks == [sum(freq[i : i + 16]) for i in range(0, len(freq), 16)]
        assert model.total == sum(freq)


class TestAgainstReference:
    @given(programs())
    @settings(max_examples=120, deadline=None)
    def test_same_program_same_stream(self, program):
        specs, ops = program
        expected = []
        for op in ops:
            if op[0] == "symbol":
                expected.append(op[2])
            elif op[0] == "batch":
                expected.extend(op[2])

        encoder = ArithmeticEncoder()
        enc_models = _encode(specs, ops, AdaptiveModel, encoder, batch=True)
        reference = oracle.ArithmeticEncoder()
        ref_models = _encode(specs, ops, oracle.AdaptiveModel, reference, batch=False)
        assert (encoder._low, encoder._high, encoder._pending) == (
            reference._low,
            reference._high,
            reference._pending,
        )
        data = encoder.finish()
        assert data == reference.finish()
        assert _counts(enc_models) == _counts(ref_models)
        _assert_blocks_consistent(enc_models)

        decoder = ArithmeticDecoder(data)
        decoded, dec_models = _decode(specs, ops, AdaptiveModel, decoder, batch=True)
        decoder.finish()  # a valid stream stays within the read bound
        ref_decoder = oracle.ArithmeticDecoder(data)
        ref_decoded, _ = _decode(specs, ops, oracle.AdaptiveModel, ref_decoder, batch=False)
        assert decoded == ref_decoded == expected
        assert (decoder._low, decoder._high, decoder._value + decoder._low) == (
            ref_decoder._low,
            ref_decoder._high,
            ref_decoder._code,
        )
        assert _counts(dec_models) == _counts(ref_models)
        _assert_blocks_consistent(dec_models)

    def test_batch_and_per_symbol_calls_mix_freely(self):
        # One model, coded in runs of varying length with single calls in
        # between, decodes with the opposite split.
        rng = np.random.default_rng(4)
        symbols = rng.integers(0, 256, size=3000) % rng.integers(1, 256, size=3000)
        encoder = ArithmeticEncoder()
        model = AdaptiveModel(256, increment=24, max_total=1 << 12)
        for start in range(0, 3000, 100):
            encoder.encode_symbols(model, symbols[start : start + 99].tolist())
            encoder.encode_symbol(model, int(symbols[start + 99]))
        data = encoder.finish()
        assert data == arithmetic_encode(symbols, 256, 24, 1 << 12)
        decoder = ArithmeticDecoder(data)
        model = AdaptiveModel(256, increment=24, max_total=1 << 12)
        decoded = [decoder.decode_symbol(model)]
        while len(decoded) < 3000:
            decoded += decoder.decode_symbols(model, min(37, 3000 - len(decoded)))
        decoder.finish()
        assert decoded == symbols.tolist()
        assert np.array_equal(arithmetic_decode(data, 3000, 256, 24, 1 << 12), symbols)


def _int_sequence(count: int, body: bytes) -> bytes:
    """An int-sequence payload claiming ``count`` values over ``body``."""
    data = bytearray()
    encode_uvarint(count, data)
    data.append((sum(body) + len(body)) & 0xFF)
    return bytes(data) + arithmetic_encode(np.frombuffer(body, np.uint8), 256)


class TestIntSequenceRounds:
    def test_unterminated_varint_stops_after_ten_bytes(self):
        # One claimed value, then only continuation bytes: each round asks
        # for one byte, so the rounds must stop at the varint's length
        # limit, not run one byte at a time to the end of the stream.
        data = _int_sequence(1, bytes([0xFF] * 200_000) + b"\x01")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="corrupt varint"):
            decode_int_sequence(data)
        assert time.perf_counter() - start < 0.5

    def test_tenth_byte_past_bit_63_rejected(self):
        with pytest.raises(ValueError, match="corrupt varint"):
            decode_int_sequence(_int_sequence(1, bytes([0xFF] * 9 + [0x02])))
        # The largest 64-bit value still decodes: zigzag(-2**63).
        values = decode_int_sequence(_int_sequence(1, bytes([0xFF] * 9 + [0x01])))
        assert values.tolist() == [-(2**63)]
