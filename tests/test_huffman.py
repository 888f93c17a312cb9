import hashlib
import itertools
import random
import struct
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rdhkit import huffman
from rdhkit.errors import BadMagic, CorruptTable, EmptyInput, RdhError, TooLarge, Truncated


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


def container_lengths(container: bytes) -> list[int]:
    """The code lengths a HUF1 container lists, in table order."""
    (count,) = struct.unpack_from(">H", container, 8)
    return list(container[11 : 10 + 2 * count : 2])


def test_single_symbol_gets_length_one():
    freq = [0] * 256
    freq[ord("a")] = 7
    lengths = huffman.code_lengths(freq)
    assert lengths[ord("a")] == 1
    assert sum(lengths) == 1
    assert huffman._assign_canonical(lengths)[ord("a")] == 0


def test_two_equal_symbols():
    freq = [0] * 256
    freq[ord("x")] = 5
    freq[ord("y")] = 5
    lengths = huffman.code_lengths(freq)
    assert lengths[ord("x")] == lengths[ord("y")] == 1
    codes = huffman._assign_canonical(lengths)
    assert codes[ord("x")] == 0
    assert codes[ord("y")] == 1


def test_abracadabra_lengths_and_total():
    freq = [b"abracadabra".count(s) for s in range(256)]
    lengths = huffman.code_lengths(freq)
    assert {ch: lengths[ord(ch)] for ch in "abrcd"} == {"a": 1, "r": 2, "b": 3, "c": 4, "d": 4}
    total = sum(freq[s] * lengths[s] for s in range(256))
    assert total == 23
    # the exhaustive oracle confirms 23 is optimal for these frequencies
    assert optimal_code_cost([5, 2, 2, 1, 1]) == 23


def test_empty_frequency_table_rejected():
    with pytest.raises(EmptyInput):
        huffman.code_lengths([0] * 256)


@pytest.mark.parametrize("num_symbols", [2, 3, 4, 5, 6])
def test_optimality_matches_exhaustive_oracle(num_symbols):
    rng = random.Random(900 + num_symbols)
    for _ in range(8):
        freq = [0] * 256
        symbols = rng.sample(range(256), num_symbols)
        for s in symbols:
            freq[s] = rng.randrange(1, 50)
        lengths = huffman.code_lengths(freq)
        total = sum(freq[s] * lengths[s] for s in symbols)
        assert total == optimal_code_cost([freq[s] for s in symbols])


def test_compress_empty():
    container = huffman.huffman_compress(b"")
    assert container == b"HUF1" + struct.pack(">IH", 0, 0)
    assert huffman.huffman_decompress(container) == b""


def test_compress_abracadabra_bitstream_is_23_bits():
    container = huffman.huffman_compress(b"abracadabra")
    # header 10 + table 2*5 + ceil(23/8)=3 bitstream bytes
    assert len(container) == 10 + 10 + 3
    assert huffman.huffman_decompress(container) == b"abracadabra"


def test_single_repeated_byte_bitstream():
    data = b"\x42" * 1024
    container = huffman.huffman_compress(data)
    # 1024 one-bit codes pack into exactly 128 bytes
    assert len(container) == 10 + 2 + 128
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
    punctuation, so the rarest symbols get codes longer than the peek."""
    symbols = list(LETTER_WEIGHTS) + [c.upper() for c in LETTER_WEIGHTS] + [" ", ".", ",", "\n"]
    weights = (
        list(LETTER_WEIGHTS.values())
        + [w / 40 for w in LETTER_WEIGHTS.values()]
        + [1800, 90, 110, 20]
    )
    return "".join(random.Random(seed).choices(symbols, weights, k=nbytes)).encode()


HUF1_DIGESTS = {
    "prose": "dc57eb8ecbb5fab0a11d39e93c1bf9c37729c840b0077c54124dd1aa8bab483f",
    "one-symbol": "1138fa58e6c3805051c6dac84d748b7b70e196b27feab81373f5b98d4bf95b61",
    "empty": "36569ee492a570999b90567cabcd8c5a3a7531bfb7fc50521183ebda4c6ac194",
}


@pytest.mark.parametrize(
    "name, data",
    [("prose", seeded_prose(15, 8192)), ("one-symbol", b"\x42" * 1000), ("empty", b"")],
)
def test_container_golden_digest(name, data):
    container = huffman.huffman_compress(data)
    assert hashlib.sha256(container).hexdigest() == HUF1_DIGESTS[name]
    assert huffman.huffman_decompress(container) == data


def test_golden_prose_reaches_the_long_code_path():
    lengths = container_lengths(huffman.huffman_compress(seeded_prose(15, 8192)))
    assert max(lengths) > huffman._PEEK_BITS


def test_bad_magic():
    container = bytearray(huffman.huffman_compress(b"abracadabra"))
    container[:4] = b"XUF1"
    with pytest.raises(BadMagic):
        huffman.huffman_decompress(bytes(container))


def test_corrupt_table_kraft_violation():
    container = bytearray(huffman.huffman_compress(b"abracadabra"))
    # growing one listed length breaks the Kraft equality
    assert container[11] >= 1
    container[11] += 1
    with pytest.raises(CorruptTable):
        huffman.huffman_decompress(bytes(container))


def test_corrupt_table_duplicate_symbol():
    data = b"HUF1" + struct.pack(">IH", 2, 2) + bytes([65, 1, 65, 1]) + b"\x00"
    with pytest.raises(CorruptTable):
        huffman.huffman_decompress(data)


def test_corrupt_table_zero_length_entry():
    data = b"HUF1" + struct.pack(">IH", 1, 1) + bytes([65, 0]) + b"\x00"
    with pytest.raises(CorruptTable):
        huffman.huffman_decompress(data)


@pytest.mark.parametrize(
    "count, table, reason",
    [
        (257, bytes(b for s in list(range(256)) + [7] for b in (s, 8)), "listed twice"),
        (257, bytes(b for s in range(256) for b in (s, 8)) + bytes([7, 0]), "length 0"),
        (0xFFFF, bytes(b for s in range(256) for b in (s, 8)), "ends inside the code table"),
    ],
    ids=["repeat", "length-0", "short"],
)
def test_a_table_of_more_than_256_symbols_is_corrupt(count, table, reason):
    # 257 one-byte symbols must repeat one, so no count check of its own is needed
    data = b"HUF1" + struct.pack(">IH", 300, count) + table + bytes(300)
    with pytest.raises(CorruptTable, match=reason) as exc:
        huffman.huffman_decompress(data)
    assert exc.type is CorruptTable


def test_corrupt_table_no_symbols_for_a_nonempty_input():
    data = b"HUF1" + struct.pack(">IH", 5, 0)
    with pytest.raises(CorruptTable, match="no symbols") as exc:
        huffman.huffman_decompress(data)
    assert exc.type is CorruptTable


def test_last_codeword_running_past_the_stream_is_truncated():
    # codes 0, 10, 11: seven 0s decode, then the stream's last bit starts a 2-bit code
    data = b"HUF1" + struct.pack(">IH", 8, 3) + bytes([0, 1, 1, 2, 2, 2]) + b"\x01"
    with pytest.raises(Truncated, match="inside symbol 7") as exc:
        huffman.huffman_decompress(data)
    assert exc.type is Truncated


def test_long_codeword_running_past_the_stream_is_truncated():
    # lengths 1..11, then two 12-bit codes; after five 0s come eleven 1s, the
    # start of a 12-bit code longer than the peek whose last bit is missing
    table = [b for s in range(13) for b in (s, min(s + 1, 12))]
    data = b"HUF1" + struct.pack(">IH", 6, 13) + bytes(table) + b"\x07\xff"
    with pytest.raises(Truncated, match="inside a codeword") as exc:
        huffman.huffman_decompress(data)
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


def test_codes_longer_than_the_peek_round_trip():
    data = fibonacci_weighted(22, seed=21)
    container = huffman.huffman_compress(data)
    assert max(container_lengths(container)) >= 20 > huffman._PEEK_BITS
    assert huffman.huffman_decompress(container) == data
    with pytest.raises(Truncated):
        huffman.huffman_decompress(container[:-1])


@pytest.fixture(scope="module")
def reference():
    """The spec reader's bit-by-bit decoder, which shares no code with rdhkit."""
    return pytest.importorskip("spec_reader")._huffman_decode


@settings(max_examples=200)
@given(st.binary(max_size=600), st.integers(1, 64))
def test_decoder_agrees_with_the_spec_reader(reference, data, chunk):
    # small table chunks put chunk edges all over the stream
    container = huffman.huffman_compress(data)
    with mock.patch.object(huffman, "_TABLE_CHUNK", chunk):
        assert huffman.huffman_decompress(container) == reference(container) == data


@pytest.mark.parametrize("nsymbols, chunk", [(14, 1), (14, 3), (14, huffman._TABLE_CHUNK), (22, huffman._TABLE_CHUNK)])
def test_decoder_agrees_with_the_spec_reader_beyond_the_peek(reference, monkeypatch, nsymbols, chunk):
    monkeypatch.setattr(huffman, "_TABLE_CHUNK", chunk)
    container = huffman.huffman_compress(fibonacci_weighted(nsymbols, seed=nsymbols))
    assert max(container_lengths(container)) > huffman._PEEK_BITS
    assert huffman.huffman_decompress(container) == reference(container)


def table_end(container: bytes) -> int:
    """Where a HUF1 container's bitstream starts."""
    return 10 + 2 * struct.unpack_from(">H", container, 8)[0]


def long_code_across_a_chunk_edge(chunk: int) -> tuple[bytes, bytes]:
    """(data, container) whose stream spans at least three table chunks of
    chunk bytes, with a codeword longer than the peek across the first edge."""
    counts = [24 * chunk] + fibonacci_weights(14)
    lengths = huffman.code_lengths(counts + [0] * (256 - len(counts)))
    longest = max(range(len(counts)), key=lengths.__getitem__)
    lead = (8 * chunk - 1) // lengths[0]  # symbol 0's codes end just before the edge
    rest = bytearray(b"".join(bytes([s]) * n for s, n in enumerate(counts)))
    del rest[:lead]
    rest.remove(longest)
    random.Random(chunk).shuffle(rest)
    data = bytes(lead) + bytes([longest]) + rest
    start, length = lead * lengths[0], lengths[longest]
    assert length > huffman._PEEK_BITS and start < 8 * chunk < start + length
    container = huffman.huffman_compress(data)
    assert len(container) - table_end(container) > 2 * chunk
    return data, container


def test_long_code_across_a_chunk_edge_decodes(reference):
    data, container = long_code_across_a_chunk_edge(huffman._TABLE_CHUNK)
    assert huffman.huffman_decompress(container) == reference(container) == data


def _cut_raises_package_error(container: bytes, cut: int) -> None:
    expected = BadMagic if cut < 10 else CorruptTable if cut < table_end(container) else Truncated
    with pytest.raises(RdhError) as exc:
        huffman.huffman_decompress(container[:cut])
    assert exc.type is expected, (cut, exc.value)


def test_every_truncation_across_chunk_edges_is_a_package_error(monkeypatch):
    monkeypatch.setattr(huffman, "_TABLE_CHUNK", 16)
    _, container = long_code_across_a_chunk_edge(16)
    for cut in range(len(container)):
        _cut_raises_package_error(container, cut)


def test_truncations_at_full_size_chunk_edges_are_truncated():
    chunk = huffman._TABLE_CHUNK
    _, container = long_code_across_a_chunk_edge(chunk)
    edges = {table_end(container) + k * chunk + d for k in (1, 2) for d in range(-2, 3)}
    for cut in sorted(edges | {len(container) - 2, len(container) - 1}):
        _cut_raises_package_error(container, cut)


def test_unfilled_table_slots_raise_rather_than_decode_symbol_zero():
    # one symbol, 0, with a 5-bit code 00000: no codeword starts with a 1 bit
    header = b"HUF1" + struct.pack(">IH", 1, 1) + bytes([0, 5])
    assert huffman.huffman_decompress(header + b"\x00") == b"\x00"
    with pytest.raises(Truncated):
        huffman.huffman_decompress(header + b"\xff")


def test_declared_length_beyond_the_stream_is_rejected_before_allocating():
    import tracemalloc

    container = b"HUF1" + struct.pack(">IH", 0xFFFFFFFF, 2) + bytes([65, 1, 66, 1]) + b"\x55"
    tracemalloc.start()
    try:
        with pytest.raises(Truncated):
            huffman.huffman_decompress(container)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mutated_containers_raise_only_package_errors():
    rng = random.Random(4096)
    # codes of 1 to 13 bits, so mutants reach the long-code path too
    container = huffman.huffman_compress(fibonacci_weighted(14, seed=14))
    for _ in range(3000):
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
