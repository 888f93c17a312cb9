import hashlib
import itertools
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdhkit import huffman
from rdhkit.errors import BadMagic, CorruptTable, RdhError, TooLarge, Truncated


def optimal_code_cost(freqs: list[int]) -> int:
    """Exhaustive oracle: minimum total bits over every possible merge order.

    Total cost of a prefix tree equals the sum of all internal node weights,
    so trying every pair at every merge step enumerates every tree shape.
    Only usable for small symbol counts.
    """
    weights = tuple(sorted(freqs))
    assert len(weights) >= 2

    def best(ws: tuple[int, ...]) -> int:
        if len(ws) == 1:
            return 0
        result = None
        for i, j in itertools.combinations(range(len(ws)), 2):
            merged = ws[i] + ws[j]
            rest = tuple(w for k, w in enumerate(ws) if k not in (i, j))
            cost = merged + best(tuple(sorted(rest + (merged,))))
            if result is None or cost < result:
                result = cost
        return result

    return best(weights)


def dynamic(container: bytes) -> bool:
    """Whether a container's stream opens with a final dynamic block: BFINAL 1, BTYPE 2."""
    return container[8] & 7 == 0b101


def growth_bound(n: int) -> int:
    """The container bytes an n-byte input may take: the 8-byte header and 5 per
    started 65,535 input bytes, one stored block at least."""
    return n + 8 + 5 * max(1, -(-n // 65535))


def test_single_symbol_gets_length_one():
    freq = [0] * 256
    freq[ord("a")] = 7
    lengths = huffman.code_lengths(freq, 15)
    assert lengths[ord("a")] == 1
    assert sum(lengths) == 1
    assert huffman._pack_codes(np.array([ord("a")]), np.array(lengths)).tolist() == [0]


def test_two_equal_symbols():
    freq = [0] * 256
    freq[ord("x")] = 5
    freq[ord("y")] = 5
    lengths = huffman.code_lengths(freq, 15)
    assert lengths[ord("x")] == lengths[ord("y")] == 1
    assert huffman._pack_codes(np.array([ord("x"), ord("y")]), np.array(lengths)).tolist() == [0, 1]


def test_abracadabra_lengths_and_total():
    freq = [b"abracadabra".count(s) for s in range(256)]
    lengths = huffman.code_lengths(freq, 15)
    assert {ch: lengths[ord(ch)] for ch in "abrcd"} == {"a": 1, "r": 2, "b": 3, "c": 4, "d": 4}
    total = sum(freq[s] * lengths[s] for s in range(256))
    assert total == 23
    # the exhaustive oracle confirms 23 is optimal for these frequencies
    assert optimal_code_cost([5, 2, 2, 1, 1]) == 23


@pytest.mark.parametrize("num_symbols", [2, 3, 4, 5, 6])
def test_optimality_matches_exhaustive_oracle(num_symbols):
    rng = random.Random(900 + num_symbols)
    for _ in range(8):
        freq = [0] * 256
        symbols = rng.sample(range(256), num_symbols)
        for s in symbols:
            freq[s] = rng.randrange(1, 50)
        lengths = huffman.code_lengths(freq, 15)
        total = sum(freq[s] * lengths[s] for s in symbols)
        assert total == optimal_code_cost([freq[s] for s in symbols])


def test_compress_empty():
    container = huffman.huffman_compress(b"")
    # one empty stored block: BFINAL 1 and BTYPE 0, LEN 0 and NLEN 0xFFFF
    assert container == b"HUF2" + struct.pack(">I", 0) + bytes([1, 0, 0, 0xFF, 0xFF])
    assert huffman.huffman_decompress(container) == b""


def test_compress_abracadabra_bitstream_is_23_bits():
    data = b"abracadabra"
    lengths = huffman.code_lengths([data.count(s) for s in range(256)], 15)
    assert huffman._pack_codes(np.frombuffer(data, np.uint8), np.array(lengths)).size == 23
    # with end-of-block and the 258 code lengths, a dynamic block outweighs
    # one stored block of the 11 bytes
    container = huffman.huffman_compress(data)
    assert container == b"HUF2" + struct.pack(">I", 11) + bytes([1, 11, 0, 0xF4, 0xFF]) + data
    assert huffman.huffman_decompress(container) == data


def test_single_repeated_byte_bitstream():
    data = b"\x42" * 1024
    container = huffman.huffman_compress(data)
    # 0x42 and end-of-block get one bit each, the 255 other bytes and the
    # distance code length 0, so the code-length code gives 0 and 1 one bit
    # each and is sent up to 1's place, the 18th of the RFC's order: 17 header
    # bits, 3 x 18, 258 code lengths, 1,024 codes and end-of-block
    assert dynamic(container)
    assert len(container) == 8 + (17 + 3 * 18 + 258 + 1024 + 1 + 7) // 8
    assert huffman.huffman_decompress(container) == data


def test_container_is_deterministic():
    data = bytes(random.Random(1).randbytes(500))
    assert huffman.huffman_compress(data) == huffman.huffman_compress(data)


# English letter frequencies (per 10,000), most common first
LETTER_WEIGHTS = dict(
    zip(
        "etaoinshrdlcumwfgypbvkjxqz",
        (1270, 906, 817, 751, 697, 675, 633, 609, 599, 425, 403, 278, 276,
         241, 236, 223, 202, 197, 193, 149, 98, 77, 15, 15, 10, 7),
    )
)


def seeded_prose(seed: int, nbytes: int) -> bytes:
    """Prose-like bytes: English-frequency letters, rare capitals, spaces and
    punctuation, so the rarest symbols get long codes."""
    symbols = list(LETTER_WEIGHTS) + [c.upper() for c in LETTER_WEIGHTS] + [" ", ".", ",", "\n"]
    weights = (
        list(LETTER_WEIGHTS.values())
        + [w / 40 for w in LETTER_WEIGHTS.values()]
        + [1800, 90, 110, 20]
    )
    return "".join(random.Random(seed).choices(symbols, weights, k=nbytes)).encode()


def fibonacci_weights(nsymbols: int) -> list[int]:
    weights = [1, 1]
    while len(weights) < nsymbols:
        weights.append(weights[-1] + weights[-2])
    return weights


def fibonacci_weighted(nsymbols: int, seed: int) -> bytes:
    """Shuffled bytes whose counts are Fibonacci numbers: the most skewed tree,
    with codes up to nsymbols - 1 bits long."""
    data = bytearray()
    for sym, weight in enumerate(fibonacci_weights(nsymbols)):
        data += bytes([sym]) * weight
    random.Random(seed).shuffle(data)
    return bytes(data)


HUF2_DIGESTS = {
    "prose": "a66994e2b178101b0b77a35ce0a19deecb890a388a6625aa29931e4456b889f2",
    "one-symbol": "81dc05da6eedde073173c78067e6e966b68e2e2fd21bf35cda22a1376493f924",
    "empty": "d8a2208a9e469c83f8d652e464daada1905086eea67bff82e28e1a14f0f55978",
    "limited": "fbfbad9d1c788b9a8ce49226c9273fe68925d0192e6628856292d2bd397af0de",
}


@pytest.mark.parametrize(
    "name, data",
    [
        ("prose", seeded_prose(15, 8192)),
        ("one-symbol", b"\x42" * 1000),
        ("empty", b""),
        ("limited", fibonacci_weighted(22, seed=21)),  # codes of up to 22 bits, halved to 12
    ],
)
def test_container_golden_digest(name, data):
    container = huffman.huffman_compress(data)
    assert hashlib.sha256(container).hexdigest() == HUF2_DIGESTS[name]
    assert huffman.huffman_decompress(container) == data


def test_bad_magic():
    container = bytearray(huffman.huffman_compress(b"abracadabra"))
    container[:4] = b"XUF2"
    with pytest.raises(BadMagic):
        huffman.huffman_decompress(bytes(container))
    # a HUF1 container, as written before the codec became Deflate
    with pytest.raises(BadMagic):
        huffman.huffman_decompress(b"HUF1" + struct.pack(">IH", 1, 1) + bytes([65, 1]) + b"\x00")


def mislength(monkeypatch, data: bytes, step: int, symbol: int | None = None) -> bytes:
    """The container of data with one literal code, the longest unless symbol
    is given, step bits longer, so that the code it sends is broken."""
    build = huffman.code_lengths

    def changed(freq, limit):
        lengths = build(freq, limit)
        if limit == 15:
            lengths[lengths.index(max(lengths)) if symbol is None else symbol] += step
        return lengths

    with monkeypatch.context() as patch:
        patch.setattr(huffman, "code_lengths", changed)
        container = huffman.huffman_compress(data)
    assert dynamic(container)
    return container


def test_corrupt_table_kraft_violation(monkeypatch):
    # one code a bit shorter over-subscribes the code: more codewords than fit
    container = mislength(monkeypatch, seeded_prose(3, 2000), -1)
    with pytest.raises(CorruptTable, match="literal/lengths set") as exc:
        huffman.huffman_decompress(container)
    assert exc.type is CorruptTable


def test_unfilled_table_slots_raise_rather_than_decode_symbol_zero(monkeypatch):
    # one code a bit longer leaves the code incomplete: a bit pattern that
    # starts no codeword, which zlib refuses in the header before any output
    container = mislength(monkeypatch, seeded_prose(3, 2000), +1)
    with pytest.raises(CorruptTable, match="literal/lengths set") as exc:
        huffman.huffman_decompress(container)
    assert exc.type is CorruptTable


def test_corrupt_table_zero_length_entry(monkeypatch):
    # end-of-block sent with length 0: no codeword could end the block
    data = seeded_prose(3, 2000)
    end = huffman.code_lengths([data.count(s) for s in range(256)] + [1], 15)[huffman._END]
    container = mislength(monkeypatch, data, -end, symbol=huffman._END)
    with pytest.raises(CorruptTable, match="missing end-of-block") as exc:
        huffman.huffman_decompress(container)
    assert exc.type is CorruptTable


def stored_block(data: bytes) -> bytes:
    return struct.pack("<BHH", 1, len(data), len(data) ^ 0xFFFF) + data


def test_corrupt_table_no_symbols_for_a_nonempty_input():
    data = b"HUF2" + struct.pack(">I", 5) + stored_block(b"")
    with pytest.raises(CorruptTable, match="exactly 5 bytes") as exc:
        huffman.huffman_decompress(data)
    assert exc.type is CorruptTable


@pytest.mark.parametrize("data", [seeded_prose(4, 3000), random.Random(4).randbytes(3000)], ids=["dynamic", "stored"])
def test_a_declared_length_that_disagrees_with_the_block_raises(data):
    container = huffman.huffman_compress(data)
    assert dynamic(container) == (data == seeded_prose(4, 3000))
    for declared in (0, 1, len(data) - 1, len(data) + 1, 8 * (len(container) - 8)):
        with pytest.raises(CorruptTable, match=f"exactly {declared} bytes") as exc:
            huffman.huffman_decompress(container[:4] + struct.pack(">I", declared) + container[8:])
        assert exc.type is CorruptTable


def test_trailing_bytes_after_the_final_block_raise():
    container = huffman.huffman_compress(seeded_prose(5, 500))
    for tail in (b"\x00", stored_block(b"")):
        with pytest.raises(CorruptTable, match="exactly 500 bytes"):
            huffman.huffman_decompress(container + tail)


def test_last_codeword_running_past_the_stream_is_truncated():
    # the last byte holds end-of-block's code, or part of it
    container = huffman.huffman_compress(seeded_prose(6, 700))
    assert dynamic(container)
    with pytest.raises(Truncated, match="before its final block") as exc:
        huffman.huffman_decompress(container[:-1])
    assert exc.type is Truncated


def test_truncated_bitstream():
    container = huffman.huffman_compress(b"abracadabra")
    with pytest.raises(Truncated):
        huffman.huffman_decompress(container[:-1])


def test_too_large_guard(monkeypatch):
    monkeypatch.setattr(huffman, "_MAX_INPUT", 10)
    with pytest.raises(TooLarge):
        huffman.huffman_compress(b"x" * 11)
    assert huffman.huffman_decompress(huffman.huffman_compress(b"x" * 10)) == b"x" * 10


def test_thousand_random_roundtrips():
    rng = random.Random(2024)
    cases = [b"", b"\x00", b"\xff" * 37]
    while len(cases) < 1000:
        n = rng.randrange(0, 600)
        alphabet = rng.randrange(1, 257)
        cases.append(bytes(rng.randrange(alphabet) for _ in range(n)))
    for data in cases:
        assert huffman.huffman_decompress(huffman.huffman_compress(data)) == data


@settings(max_examples=200)
@given(st.binary(max_size=400))
def test_roundtrip_property(data):
    assert huffman.huffman_decompress(huffman.huffman_compress(data)) == data


# seeded random bytes, up to past the 65,535 bytes of one stored block
random_bytes = st.builds(lambda seed, n: random.Random(seed).randbytes(n), st.integers(0, 2**32), st.integers(0, 140_000))


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=3000) | random_bytes)
def test_every_input_round_trips_within_the_growth_bound(data):
    container = huffman.huffman_compress(data)
    assert len(container) <= growth_bound(len(data))
    assert huffman.huffman_decompress(container) == data


@pytest.mark.parametrize("n", [0, 1, 1024, 65535, 65536, 131070, 131071])
def test_random_bytes_grow_by_the_stored_block_headers_alone(n):
    data = random.Random(n).randbytes(n)
    container = huffman.huffman_compress(data)
    assert len(container) == growth_bound(n)
    assert huffman.huffman_decompress(container) == data


def test_every_container_inflates_with_plain_zlib():
    cases = [b"", b"a", b"abracadabra", b"\x42" * 1000, seeded_prose(15, 8192), fibonacci_weighted(22, seed=7)]
    cases += [random.Random(n).randbytes(n) for n in (100, 70_000)]
    for data in cases:
        assert zlib.decompress(huffman.huffman_compress(data)[8:], -15) == data


def test_codes_longer_than_the_limit_round_trip():
    # Fibonacci counts want 22 bits; counts int(1.35^i) want 16 and, halved
    # once, keep 15-bit codes, the longest a Deflate literal code has
    geometric = bytearray(b"".join(bytes([i]) * max(1, int(1.35**i)) for i in range(31)))
    random.Random(31).shuffle(geometric)
    for data, unlimited, limited in ((fibonacci_weighted(22, seed=21), 22, 12), (bytes(geometric), 16, 15)):
        freq = [data.count(s) for s in range(256)] + [1]  # and end-of-block
        assert (max(huffman.code_lengths(freq, 99)), max(huffman.code_lengths(freq, 15))) == (unlimited, limited)
        container = huffman.huffman_compress(data)
        assert dynamic(container)
        assert huffman.huffman_decompress(container) == zlib.decompress(container[8:], -15) == data
        with pytest.raises(Truncated):
            huffman.huffman_decompress(container[:-1])


def test_a_code_length_code_longer_than_7_bits_is_limited():
    # n symbols of count 2^(15 - l) for geometric n per code length l: the
    # 258 literal lengths then want a code-length code of 8 bits, over
    # Deflate's 7-bit limit for it
    plan = {1: 1, 2: 1, 3: 1, 5: 1, 6: 1, 7: 2, 8: 3, 9: 5, 10: 8, 11: 13, 12: 21, 13: 34, 14: 55, 15: 89}
    counts = [1 << (15 - length) for length, n in sorted(plan.items()) for _ in range(n)]
    data = bytearray(b"".join(bytes([s]) * n for s, n in enumerate(counts)))
    random.Random(15).shuffle(data)
    lengths = huffman.code_lengths([data.count(s) for s in range(256)] + [1], 15)
    cl_freq = [(lengths + [0]).count(n) for n in range(19)]
    assert (max(huffman.code_lengths(cl_freq, 99)), max(huffman.code_lengths(cl_freq, 7))) == (8, 7)
    container = huffman.huffman_compress(bytes(data))
    assert dynamic(container)
    assert huffman.huffman_decompress(container) == zlib.decompress(container[8:], -15) == data


def test_halving_weights_keeps_every_symbol():
    # weights 1 stay 1 while the large ones halve, so no symbol drops out
    freq = fibonacci_weights(40) + [0] * 3
    lengths = huffman.code_lengths(freq, 7)
    assert max(lengths) <= 7 and lengths[-3:] == [0, 0, 0]
    assert all(lengths[:40]) and sum(2.0 ** -n for n in lengths[:40]) <= 1


@pytest.fixture(scope="module")
def reference():
    """The spec reader's decoder, stdlib zlib's inflater, which shares no code with rdhkit."""
    return pytest.importorskip("spec_reader")._huffman_decode


@settings(max_examples=200)
@given(st.binary(max_size=600))
def test_decoder_agrees_with_the_spec_reader(reference, data):
    container = huffman.huffman_compress(data)
    assert huffman.huffman_decompress(container) == reference(container) == data


def test_every_truncation_across_chunk_edges_is_a_package_error(monkeypatch):
    # the packer lays out _PACK_CHUNK symbols at a time; 16 puts chunk edges
    # all over the stream, and the bytes are those of whole-input packing
    containers = [huffman.huffman_compress(data) for data in (fibonacci_weighted(14, seed=14), seeded_prose(9, 300))]
    monkeypatch.setattr(huffman, "_PACK_CHUNK", 16)
    assert [huffman.huffman_compress(data) for data in (fibonacci_weighted(14, seed=14), seeded_prose(9, 300))] == containers
    for container in containers + [huffman.huffman_compress(random.Random(5).randbytes(300)), huffman.huffman_compress(b"")]:
        for cut in range(len(container)):
            _cut_raises(container, cut)


def _cut_raises(container: bytes, cut: int) -> None:
    expected = BadMagic if cut < 8 else Truncated
    with pytest.raises(RdhError) as exc:
        huffman.huffman_decompress(container[:cut])
    assert exc.type is expected, (cut, exc.value)


def test_truncations_at_full_size_chunk_edges_are_truncated():
    # stored blocks of 65,535 bytes: cut around each block's 5-byte header
    container = huffman.huffman_compress(random.Random(6).randbytes(140_000))
    assert len(container) == growth_bound(140_000)
    edges = {8 + k * 65540 + d for k in (1, 2) for d in range(-2, 7)}
    for cut in sorted(edges | {len(container) - 2, len(container) - 1}):
        _cut_raises(container, cut)


def long_code_at_a_chunk_edge() -> bytes:
    """Bytes whose longest code, 12 bits once halving has cut 22, starts the packer's second chunk."""
    data = bytearray(fibonacci_weighted(22, seed=22) * 2)
    lengths = huffman.code_lengths([data.count(s) for s in range(256)] + [1], 15)
    longest = lengths.index(max(lengths))
    assert max(lengths) == 12 and len(data) > huffman._PACK_CHUNK
    data.remove(longest)
    data.insert(huffman._PACK_CHUNK, longest)
    return bytes(data)


def test_long_code_across_a_chunk_edge_decodes(reference):
    data = long_code_at_a_chunk_edge()
    container = huffman.huffman_compress(data)
    assert dynamic(container)
    assert huffman.huffman_decompress(container) == reference(container) == data


def test_long_codeword_running_past_the_stream_is_truncated():
    # end-of-block, at weight 1, gets one of the longest codes, 12 bits, and
    # ends the stream: the last byte holds its end
    data = fibonacci_weighted(22, seed=21)
    lengths = huffman.code_lengths([data.count(s) for s in range(256)] + [1], 15)
    assert lengths[256] == max(lengths) == 12
    container = huffman.huffman_compress(data)
    with pytest.raises(Truncated, match="before its final block") as exc:
        huffman.huffman_decompress(container[:-1])
    assert exc.type is Truncated


def test_declared_length_beyond_the_stream_is_rejected_before_allocating():
    import tracemalloc

    container = b"HUF2" + struct.pack(">I", 0xFFFFFFFF) + stored_block(b"\x55")
    tracemalloc.start()
    try:
        with pytest.raises(Truncated):
            huffman.huffman_decompress(container)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def mutation_cases() -> list[bytes]:
    """Containers of each kind: dynamic blocks with codes of 1 to 13 bits and
    of text, stored blocks, and the empty block."""
    cases = [fibonacci_weighted(14, seed=14), seeded_prose(8, 400), random.Random(8).randbytes(200), b""]
    return [huffman.huffman_compress(data) for data in cases]


def test_mutated_containers_raise_only_package_errors():
    rng = random.Random(4096)
    for container in mutation_cases():
        for _ in range(1000):
            mutant = bytearray(container)
            kind = rng.randrange(4)
            if kind == 0:
                for _ in range(rng.randrange(1, 4)):
                    mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
            elif kind == 1:
                mutant[rng.randrange(len(mutant))] = rng.randrange(256)
            elif kind == 2:
                del mutant[rng.randrange(len(mutant) + 1) :]
            else:
                mutant[rng.randrange(len(mutant) + 1) : 0] = rng.randbytes(rng.randrange(1, 9))
            try:
                huffman.huffman_decompress(bytes(mutant))
            except RdhError:
                pass


def test_bit_flips_raise_package_errors_or_give_the_declared_length():
    # a flip in a stored block's data, or one that swaps two codewords of a
    # length, still inflates; every other flip must raise a package error
    rng = random.Random(1408)
    raised = 0
    for container in mutation_cases():
        for _ in range(5000):
            mutant = bytearray(container)
            for _ in range(rng.randrange(1, 4)):
                bit = rng.randrange(8 * len(mutant))
                mutant[bit >> 3] ^= 1 << (bit & 7)
            try:
                out = huffman.huffman_decompress(bytes(mutant))
            except RdhError:
                raised += 1
            else:
                assert len(out) == struct.unpack_from(">I", mutant, 4)[0]
    assert raised > 10_000
