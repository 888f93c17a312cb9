"""Command-line front end.

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

from . import metrics, netpbm, pipeline, video
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
    except OSError as exc:
        return _fail(exc, EXIT_OTHER)
    except RdhError as exc:
        return _fail(exc, EXIT_OTHER)


def _fail(exc: Exception, code: int) -> int:
    print(f"ERROR: {exc}", file=sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdhkit",
        description="Reversible data hiding in encrypted PPM images and Y4M video.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hide", help="embed a secret file into a PPM cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _key_args(p)
    p.add_argument("--iv", help="32 hex chars; random when omitted")
    p.set_defaults(func=_cmd_hide, nonce=None)

    p = sub.add_parser("reveal", help="extract the secret and restore the cover")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="where the secret is written")
    p.add_argument("--recovered", help="optional path for the restored cover")
    _key_args(p)
    p.set_defaults(func=_cmd_reveal)

    p = sub.add_parser("recover-image", help="restore the cover without the data key")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--image-key")
    p.add_argument("--image-key-file")
    p.add_argument("--nonce", default="0" * 16, help=_NONCE_HELP)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("psnr", help="PSNR between two PPM images")
    p.add_argument("image_a")
    p.add_argument("image_b")
    p.set_defaults(func=_cmd_psnr)

    p = sub.add_parser("video-hide", help="embed a secret file into a Y4M video")
    p.add_argument("--cover", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _key_args(p)
    p.add_argument("--iv")
    p.set_defaults(func=_cmd_video_hide, nonce=None)

    p = sub.add_parser("video-reveal", help="extract the secret and restore the video")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--recovered")
    _key_args(p)
    p.set_defaults(func=_cmd_video_reveal)

    p = sub.add_parser("inspect", help="describe a PPM or Y4M file without touching it")
    p.add_argument("path")
    p.set_defaults(func=_cmd_inspect)
    return parser


def _key_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-key", help="32 hex chars (AES-128)")
    p.add_argument("--data-key-file", help="file holding the hex data key")
    p.add_argument("--image-key", help="8..112 hex chars, even length (Blowfish)")
    p.add_argument("--image-key-file", help="file holding the hex image key")
    p.add_argument("--nonce", default="0" * 16, help=_NONCE_HELP)


def _hex_bytes(value: str, what: str, nbytes: int | None = None) -> bytes:
    try:
        raw = bytes.fromhex(value)
    except ValueError as exc:
        raise KeyEncodingError(f"{what} is not valid hex: {exc}") from None
    if nbytes is not None and len(raw) != nbytes:
        raise KeyEncodingError(f"{what} must be {2 * nbytes} hex chars, got {len(value)}")
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
    if not 4 <= len(key) <= 56:
        raise KeyEncodingError(f"image key must be 8..112 hex chars, got {2 * len(key)}")
    return key


def _nonce(args) -> int:
    if args.nonce is None:
        # hide commands only: a fixed default reuses one keystream for every cover
        return int.from_bytes(os.urandom(8), "big")
    if len(args.nonce) != 16:
        raise KeyEncodingError(f"nonce must be 16 hex chars, got {len(args.nonce)}")
    return int.from_bytes(_hex_bytes(args.nonce, "nonce", 8), "big")


def _iv(args) -> bytes | None:
    if args.iv is None:
        return None
    return _hex_bytes(args.iv, "IV", 16)


def _keys(args) -> pipeline.StegoKeys:
    return pipeline.StegoKeys(_data_key(args), _image_key(args), _nonce(args))


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


def _cmd_hide(args) -> int:
    keys = _keys(args)
    cover, _ = netpbm.load_ppm(_read(args.cover))
    secret = _read(args.data)
    result = pipeline.hide(cover, secret, keys, iv=_iv(args))
    _write_atomic(args.out, netpbm.save_ppm(result.image, nonce=keys.nonce))
    print(f"CAPACITY-BITS: {result.capacity_bits}")
    print(f"FRAME-BITS: {result.frame_bits}")
    print(f"PSNR(plain-marked): {metrics.format_psnr(result.plain_psnr)}")
    print(f"OUT: {args.out}")
    return EXIT_OK


def _cmd_reveal(args) -> int:
    img, file_nonce = netpbm.load_ppm(_read(args.input))
    keys = _keys(args)
    if file_nonce is not None:
        keys = pipeline.StegoKeys(keys.data_key, keys.image_key, file_nonce)
    secret, original = pipeline.reveal(img, keys)
    _write_atomic(args.out, secret)
    print(f"SECRET-BYTES: {len(secret)}")
    print(f"OUT: {args.out}")
    if args.recovered:
        _write_atomic(args.recovered, netpbm.save_ppm(original))
        print(f"RECOVERED: {args.recovered}")
    return EXIT_OK


def _cmd_recover(args) -> int:
    img, file_nonce = netpbm.load_ppm(_read(args.input))
    key = _image_key(args)
    nonce = file_nonce if file_nonce is not None else _nonce(args)
    original = pipeline.recover_original(img, key, nonce)
    _write_atomic(args.out, netpbm.save_ppm(original))
    print(f"OUT: {args.out}")
    return EXIT_OK


def _cmd_psnr(args) -> int:
    a, _ = netpbm.load_ppm(_read(args.image_a))
    b, _ = netpbm.load_ppm(_read(args.image_b))
    print(f"PSNR: {metrics.format_psnr(metrics.psnr(a, b))}")
    return EXIT_OK


def _cmd_video_hide(args) -> int:
    keys = _keys(args)
    cover = video.parse_y4m(_read(args.cover))
    secret = _read(args.data)
    marked = video.video_hide(cover, secret, keys, iv=_iv(args))
    marked = video.with_video_nonce(marked, keys.nonce)
    _write_atomic(args.out, video.write_y4m(marked))
    print(f"FRAMES: {len(marked.frames)}")
    print(f"OUT: {args.out}")
    return EXIT_OK


def _cmd_video_reveal(args) -> int:
    clip = video.parse_y4m(_read(args.input))
    keys = _keys(args)
    file_nonce = video.video_nonce(clip)
    if file_nonce is not None:
        keys = pipeline.StegoKeys(keys.data_key, keys.image_key, file_nonce)
    secret, original = video.video_reveal(clip, keys)
    _write_atomic(args.out, secret)
    print(f"SECRET-BYTES: {len(secret)}")
    print(f"OUT: {args.out}")
    if args.recovered:
        _write_atomic(args.recovered, video.write_y4m(video.without_video_nonce(original)))
        print(f"RECOVERED: {args.recovered}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    data = _read(args.path)
    if data[:2] == b"P6":
        img, nonce = netpbm.load_ppm(data)
        print("FORMAT: ppm")
        print(f"WIDTH: {img.shape[1]}")
        print(f"HEIGHT: {img.shape[0]}")
        print(f"NONCE: {f'{nonce:016x}' if nonce is not None else 'none'}")
        _inspect_frame(lambda: pipeline.extract_frame(img))
    elif data[: len(b"YUV4MPEG2")] == b"YUV4MPEG2":
        clip = video.parse_y4m(data)
        nonce = video.video_nonce(clip)
        print("FORMAT: y4m")
        print(f"WIDTH: {clip.width}")
        print(f"HEIGHT: {clip.height}")
        print(f"COLORSPACE: {clip.colorspace}")
        print(f"FRAMES: {len(clip.frames)}")
        print(f"NONCE: {f'{nonce:016x}' if nonce is not None else 'none'}")
        if clip.frames:
            _inspect_frame(lambda: video.extract_frame_payload(clip.frames[0]))
    else:
        raise FormatError(f"unrecognized file: starts with {data[:9]!r}")
    return EXIT_OK


def _inspect_frame(reader) -> None:
    try:
        frame = reader()
    except PayloadError:
        print("PAYLOAD: none")
        return
    print(f"PAYLOAD: segment {frame.segment_index + 1} of {frame.segment_count}")
    print(f"CIPHERTEXT-BYTES: {len(frame.ciphertext)}")


if __name__ == "__main__":
    sys.exit(main())
