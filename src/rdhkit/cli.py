"""Command-line front end.

Commands: hide (alias video-hide), reveal (alias video-reveal), recover-image,
psnr and inspect.  A file's first bytes name its container, "P6" a PPM image and
"YUV4MPEG2" a Y4M video, so hide, reveal, recover-image and inspect serve both;
psnr reads files the same way but compares PPM images only.

Exit codes: 0 success, 2 capacity exceeded, 3 bad magic/CRC/checksum (wrong
key or not a marked file), 4 file-format error, 5 bad key/nonce/IV encoding,
1 anything else, command-line usage errors included.  Outputs are written
atomically (temp file + rename) and summary lines are stable "KEY: VALUE"
pairs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace
from functools import partial

import numpy as np

from . import blowfish, metrics, netpbm, pipeline, video
from .errors import (
    CapacityError,
    FormatError,
    KeyEncodingError,
    BadKeyLength,
    PayloadError,
    RdhError,
)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CAPACITY = 2
EXIT_PAYLOAD = 3
EXIT_FORMAT = 4
EXIT_KEYS = 5

_NONCE_HELP = "16 hex chars; hide: random if omitted; reveal: default 0, used if the file has none"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means "capacity exceeded"
        return EXIT_OK if exc.code == 0 else EXIT_OTHER
    try:
        return args.func(args)
    except CapacityError as exc:
        return _fail(exc, EXIT_CAPACITY)
    except PayloadError as exc:
        return _fail(exc, EXIT_PAYLOAD)
    except FormatError as exc:
        return _fail(exc, EXIT_FORMAT)
    except (KeyEncodingError, BadKeyLength) as exc:
        return _fail(exc, EXIT_KEYS)
    except (OSError, RdhError) as exc:
        return _fail(exc, EXIT_OTHER)


def _fail(exc: Exception, code: int) -> int:
    print(f"ERROR: {exc}", file=sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdhkit",
        description="Reversible data hiding in encrypted PPM images and Y4M video.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("hide", aliases=["video-hide"], help="embed a secret in a PPM or Y4M cover")
    p.add_argument("--cover", required=True, help="the PPM or Y4M cover")
    p.add_argument("--data", required=True, help="the secret file")
    p.add_argument("--out", required=True, help="where the marked cover is written")
    _key_args(p)
    p.add_argument("--iv", help="32 hex chars; random when omitted")
    p.set_defaults(func=_cmd_hide, nonce=None)

    p = sub.add_parser("reveal", aliases=["video-reveal"],
                       help="extract the secret and restore the PPM or Y4M cover")
    p.add_argument("--input", required=True, help="the marked PPM or Y4M file")
    p.add_argument("--out", required=True, help="where the secret is written")
    p.add_argument("--recovered", help="optional path for the restored cover")
    _key_args(p)
    p.set_defaults(func=_cmd_reveal)

    p = sub.add_parser("recover-image",
                       help="restore the PPM or Y4M cover with the image key alone")
    p.add_argument("--input", required=True, help="the marked PPM or Y4M file")
    p.add_argument("--out", required=True, help="where the restored cover is written")
    _image_key_args(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("psnr", help="PSNR between two PPM images")
    p.add_argument("image_a")
    p.add_argument("image_b")
    p.set_defaults(func=_cmd_psnr)

    p = sub.add_parser("inspect", help="describe a PPM or Y4M file without touching it")
    p.add_argument("path")
    p.set_defaults(func=_cmd_inspect)
    return parser


def _key_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-key", help="32 hex chars (AES-128)")
    p.add_argument("--data-key-file", help="file holding the hex data key")
    _image_key_args(p)


def _image_key_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image-key", help="8..112 hex chars, even length (Blowfish)")
    p.add_argument("--image-key-file", help="file holding the hex image key")
    p.add_argument("--nonce", default="0" * 16, help=_NONCE_HELP)


def _hex_bytes(value: str, what: str, nbytes: int | None = None) -> bytes:
    try:
        raw = bytes.fromhex(value)
    except ValueError as exc:
        raise KeyEncodingError(f"{what} is not valid hex: {exc}") from None
    if nbytes is not None and len(raw) != nbytes:
        raise KeyEncodingError(f"{what} must be {2 * nbytes} hex chars, got {2 * len(raw)}")
    return raw


def _key_material(inline: str | None, path: str | None, what: str, nbytes: int | None) -> bytes:
    if inline and path:
        raise KeyEncodingError(f"give {what} either inline or as a file, not both")
    if path:
        try:
            inline = _read(path).decode("ascii").strip()
        except UnicodeDecodeError:
            raise KeyEncodingError(f"{what} file {path} is not ASCII hex") from None
    if not inline:
        raise KeyEncodingError(f"{what} is required")
    return _hex_bytes(inline, what, nbytes)


def _data_key(args) -> bytes:
    return _key_material(args.data_key, args.data_key_file, "data key", 16)


def _image_key(args) -> bytes:
    key = _key_material(args.image_key, args.image_key_file, "image key", None)
    if not blowfish.MIN_KEY_BYTES <= len(key) <= blowfish.MAX_KEY_BYTES:
        span = f"{2 * blowfish.MIN_KEY_BYTES}..{2 * blowfish.MAX_KEY_BYTES}"
        raise KeyEncodingError(f"image key must be {span} hex chars, got {2 * len(key)}")
    return key


def _nonce(args, file_nonce: int | None = None) -> int:
    """--nonce, always checked; the nonce a file carries wins over it."""
    if args.nonce is None:
        # hide only: a fixed default reuses one keystream for every cover
        return int.from_bytes(os.urandom(8), "big")
    nonce = int.from_bytes(_hex_bytes(args.nonce, "nonce", 8), "big")
    return nonce if file_nonce is None else file_nonce


def _keys(args, file_nonce: int | None = None) -> pipeline.StegoKeys:
    return pipeline.StegoKeys(_data_key(args), _image_key(args), _nonce(args, file_nonce))


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rdhkit-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load(path: str) -> tuple[np.ndarray | video.Y4mVideo, int | None]:
    """The cover a file holds, PPM or Y4M by its first bytes, and the nonce it carries."""
    data = _read(path)
    if data[:2] == b"P6":
        return netpbm.load_ppm(data)
    if data[:9] == b"YUV4MPEG2":
        clip = video.parse_y4m(data)
        return clip, video.video_nonce(clip)
    raise FormatError(f"unrecognized file: starts with {data[:9]!r}")


def _units(cover: np.ndarray | video.Y4mVideo) -> tuple[list[np.ndarray], slice]:
    """The units and host the pipeline's loops take for a loaded cover."""
    if isinstance(cover, video.Y4mVideo):
        return cover.frames, video.y_host(cover)
    return [cover.reshape(-1)], pipeline.RED


def _cmd_hide(args) -> int:
    keys = _keys(args)
    cover, _ = _load(args.cover)
    secret = _read(args.data)
    iv = None if args.iv is None else _hex_bytes(args.iv, "IV", 16)
    if isinstance(cover, video.Y4mVideo):
        marked = video.video_hide(cover, secret, keys, iv=iv)
        _write_atomic(args.out, video.write_y4m(video.with_video_nonce(marked, keys.nonce)))
        print(f"FRAMES: {len(marked.frames)}")
    else:
        result = pipeline.hide(cover, secret, keys, iv=iv)
        _write_atomic(args.out, netpbm.save_ppm(result.image, nonce=keys.nonce))
        print(f"CAPACITY-BITS: {result.capacity_bits}")
        print(f"FRAME-BITS: {result.frame_bits}")
        print(f"PSNR(plain-marked): {metrics.format_psnr(result.plain_psnr)}")
    print(f"OUT: {args.out}")
    return EXIT_OK


def _cmd_reveal(args) -> int:
    marked, file_nonce = _load(args.input)
    keys = _keys(args, file_nonce)
    if isinstance(marked, video.Y4mVideo):
        secret, original = video.video_reveal(marked, keys)
        restored = partial(video.write_y4m, video.without_video_nonce(original))
    else:
        secret, original = pipeline.reveal(marked, keys)
        restored = partial(netpbm.save_ppm, original)
    _write_atomic(args.out, secret)
    print(f"SECRET-BYTES: {len(secret)}")
    print(f"OUT: {args.out}")
    if args.recovered:
        _write_atomic(args.recovered, restored())
        print(f"RECOVERED: {args.recovered}")
    return EXIT_OK


def _cmd_recover(args) -> int:
    marked, nonce = _load(args.input)
    _, restored = pipeline.recover_units(*_units(marked), _image_key(args), _nonce(args, nonce))
    if isinstance(marked, video.Y4mVideo):
        out = video.write_y4m(video.without_video_nonce(replace(marked, frames=restored)))
    else:
        out = netpbm.save_ppm(restored[0].reshape(marked.shape))
    _write_atomic(args.out, out)
    print(f"OUT: {args.out}")
    return EXIT_OK


def _cmd_psnr(args) -> int:
    a, _ = _load(args.image_a)
    b, _ = _load(args.image_b)
    if isinstance(a, video.Y4mVideo) or isinstance(b, video.Y4mVideo):
        raise FormatError("psnr compares PPM images only, not Y4M video")
    print(f"PSNR: {metrics.format_psnr(metrics.psnr(a, b))}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    cover, nonce = _load(args.path)
    if isinstance(cover, video.Y4mVideo):
        print("FORMAT: y4m")
        print(f"WIDTH: {cover.width}")
        print(f"HEIGHT: {cover.height}")
        print(f"COLORSPACE: {cover.colorspace}")
        print(f"FRAMES: {len(cover.frames)}")
    else:
        print("FORMAT: ppm")
        print(f"WIDTH: {cover.shape[1]}")
        print(f"HEIGHT: {cover.shape[0]}")
    units, host = _units(cover)
    print(f"NONCE: {f'{nonce:016x}' if nonce is not None else 'none'}")
    try:  # the payload line describes frame 0; a clip of no frames has none
        frame = pipeline.extract(units[0], host) if units else None
    except PayloadError:
        frame = None
    if frame is not None:
        print(f"PAYLOAD: segment {frame.segment_index + 1} of {frame.segment_count}")
        print(f"CIPHERTEXT-BYTES: {len(frame.ciphertext)}")
    else:
        print("PAYLOAD: none")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
