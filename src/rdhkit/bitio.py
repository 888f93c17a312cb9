"""MSB-first bit packing and unpacking over byte buffers.

Every bitstream in the package (Huffman codes, payload frames read back out
of LSB planes) goes through these two classes, so there is exactly one bit
ordering everywhere: the first bit written lands in the most significant
position of the first byte.
"""

from .errors import OutOfBits


class BitWriter:
    """Accumulates bits MSB-first; the final partial byte is zero-padded."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0        # pending bits, high bit first
        self._nacc = 0       # number of pending bits, always < 8
        self.bit_count = 0

    def write_bits(self, value: int, n: int) -> None:
        """Append the low ``n`` bits of ``value``, most significant first."""
        if not 0 <= n <= 64:
            raise ValueError(f"bit count must be in 0..64, got {n}")
        if n == 0:
            return
        value &= (1 << n) - 1
        self._acc = (self._acc << n) | value
        self._nacc += n
        self.bit_count += n
        while self._nacc >= 8:
            self._nacc -= 8
            self._buf.append((self._acc >> self._nacc) & 0xFF)
        self._acc &= (1 << self._nacc) - 1

    def getvalue(self) -> bytes:
        """Buffer contents with the partial byte padded; the writer stays usable."""
        if self._nacc == 0:
            return bytes(self._buf)
        return bytes(self._buf) + bytes([(self._acc << (8 - self._nacc)) & 0xFF])


class BitReader:
    """Reads bits MSB-first from a byte sequence; over-reads raise, never zero-fill."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self.cursor = 0

    @property
    def remaining(self) -> int:
        return 8 * len(self._data) - self.cursor

    def read_bits(self, n: int) -> int:
        if not 0 <= n <= 64:
            raise ValueError(f"bit count must be in 0..64, got {n}")
        if n > self.remaining:
            raise OutOfBits(f"requested {n} bits, {self.remaining} remain")
        out = 0
        pos = self.cursor
        taken = 0
        while taken < n:
            byte = self._data[pos >> 3]
            offset = pos & 7
            chunk = min(8 - offset, n - taken)
            bits = (byte >> (8 - offset - chunk)) & ((1 << chunk) - 1)
            out = (out << chunk) | bits
            taken += chunk
            pos += chunk
        self.cursor = pos
        return out

    def read_bit(self) -> int:
        return self.read_bits(1)
