"""Exception hierarchy shared across the toolkit.

Grouped by how the CLI reports them: capacity problems (exit 2), payload /
stego integrity problems (exit 3), on-disk container problems (exit 4) and
key material problems (exit 5).  ``check_nonce`` holds the nonce's one domain.
"""


class RdhError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(RdhError):
    """Two rasters that must share a shape do not."""


class ZeroBinNotEmpty(RdhError):
    """The chosen zero bin already contains samples."""


class EmptyInput(RdhError):
    """An operation that needs at least one symbol got none."""


class TooLarge(RdhError):
    """Input exceeds the 32-bit length field of the container."""


class BadLength(RdhError):
    """Ciphertext length is not a positive multiple of the block size."""


class BadKeyLength(RdhError):
    """Key bytes violate the cipher's length rule."""


class CapacityError(RdhError):
    """Base for conditions where the cover cannot host the payload."""


class CapacityExceeded(CapacityError):
    def __init__(self, needed: int, available: int, detail: str = ""):
        self.needed = needed
        self.available = available
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"need {needed} bits, only {available} available{suffix}")


class CoverTooSmall(CapacityError):
    """The cover has too few samples for even the fixed overhead."""


class NoZeroBin(CapacityError):
    """All 256 gray values occur; histogram shifting is impossible."""


class PayloadError(RdhError):
    """Base for corrupted or foreign embedded payloads."""


class BadMagic(PayloadError):
    """A payload container does not start with its magic bytes."""


class BadVersion(PayloadError):
    """A payload frame declares an unsupported version."""


class BadCrc(PayloadError):
    """A payload frame fails its CRC-32 check."""


class CorruptTable(PayloadError):
    """A Huffman code table violates the Kraft equality or lists duplicates."""


class Truncated(PayloadError):
    """A Huffman bitstream ends before the declared symbol count."""


class BadPadding(PayloadError):
    """Block padding is invalid: wrong key or corrupted ciphertext."""


class HeaderChecksum(PayloadError):
    """The side header fails validation: wrong image key or damaged cover."""


class MissingSegment(PayloadError):
    """Segments do not join: a gap, a repeat, or units of different hides."""


class PayloadOverrun(PayloadError):
    """Fewer embedding candidates than the declared payload length."""


class FormatError(RdhError):
    """Base for malformed on-disk image/video containers."""


class BadImageMagic(FormatError):
    """A netpbm file does not start with the expected magic."""


class BadMaxval(FormatError):
    """A netpbm file declares a maxval other than 255."""


class MalformedHeader(FormatError):
    """A netpbm header cannot be parsed."""


class TruncatedFile(FormatError):
    """A file ends before its declared raster."""


class BadSignature(FormatError):
    """A Y4M stream lacks the YUV4MPEG2 signature or a required parameter."""


class UnsupportedColorspace(FormatError):
    """A Y4M colorspace this toolkit does not handle."""


class TruncatedFrame(FormatError):
    """A Y4M frame ends before its declared plane data."""


class KeyEncodingError(RdhError):
    """Key material is malformed: hex on the command line that cannot be
    decoded, or a counter nonce outside 0..2^64-1."""


def check_nonce(nonce: object) -> None:
    """Raise KeyEncodingError unless nonce is an int in 0..2^64-1, the one
    domain of the counter base every path stores or encrypts under."""
    if not isinstance(nonce, int) or not 0 <= nonce <= 0xFFFFFFFFFFFFFFFF:
        raise KeyEncodingError(f"nonce must be an int in 0..2^64-1, got {nonce!r}")
