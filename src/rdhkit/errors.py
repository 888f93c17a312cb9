"""Exception hierarchy shared across the toolkit.

Grouped by how the CLI reports them: capacity problems (exit 2), payload /
stego integrity problems (exit 3), on-disk container problems (exit 4) and
key material problems (exit 5).  ``check_nonce`` holds the nonce's one domain,
``check_samples`` the one sample type of every plane, raster and unit, and
``check_flat`` adds the 1-D rule of every unit and counted or keyed buffer.  The
PPM and Y4M readers share two rules: ``read_decimal`` reads each header
number and ``read_samples`` each raster or frame.
"""

import numpy as np


class RdhError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(RdhError):
    """An array or its parameters break a layer's input rule: a shape, a
    sample type, or a value range such as payload bits of 0 and 1."""


class ZeroBinNotEmpty(RdhError):
    """The chosen zero bin already contains samples."""


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
    """A Deflate stream is malformed, or inflates to other than its declared length."""


class Truncated(PayloadError):
    """A Deflate stream ends early, or is too short for its declared length."""


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


def check_samples(array: object, what: str) -> np.ndarray:
    """array itself if it is a numpy uint8 array, else DimensionMismatch naming
    what: a cast would wrap or truncate samples silently."""
    if not isinstance(array, np.ndarray) or array.dtype != np.uint8:
        kind = getattr(array, "dtype", type(array).__name__)
        raise DimensionMismatch(f"{what} must be uint8 samples, got {kind}")
    return array


def check_flat(array: object, what: str) -> np.ndarray:
    """array itself if it is a 1-D numpy uint8 array, else DimensionMismatch naming what."""
    if check_samples(array, what).ndim != 1:
        raise DimensionMismatch(f"{what} must be 1-D, got shape {array.shape}")
    return array


def read_decimal(tok: bytes, what: str, error: type[RdhError]) -> int:
    """The positive ASCII decimal tok, leading zeros and all, else error naming what."""
    digits = tok.lstrip(b"0")
    if not tok.isdigit() or not digits:
        raise error(f"{what} must be a positive decimal, got {tok!r}")
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads
        raise error(f"{what} has {len(digits)} digits, too many to read") from None


def read_samples(
    data: bytes, offset: int, count: int, error: type[RdhError], what: str
) -> np.ndarray:
    """A read-only view of count uint8 samples at data[offset:], else error naming
    what, the dimensions: count may have more digits than str() writes."""
    if (left := len(data) - offset) < count:
        raise error(f"{what} needs more than the {left} bytes left")
    samples = np.frombuffer(data, np.uint8, count=count, offset=offset)
    samples.flags.writeable = False  # whatever buffer type data is
    return samples
