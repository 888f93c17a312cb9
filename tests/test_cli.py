import argparse
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (embed_clip, host_hist, image_with_frame, make_cover, planes,
                      zero_segment_clip)
from rdhkit import cli, netpbm, video as vid
from rdhkit.pipeline import PayloadFrame, StegoKeys, max_embeddable_bits

DATA_KEY = "000102030405060708090a0b0c0d0e0f"
IMAGE_KEY = "deadbeefcafebabe"
NONCE = "00000000000000aa"
IV = "ffeeddccbbaa99887766554433221100"


@pytest.fixture
def cover_file(tmp_path):
    rng = np.random.default_rng(40)
    cover = make_cover(rng, 64, 64)
    path = tmp_path / "cover.ppm"
    path.write_bytes(netpbm.save_ppm(cover))
    return path, cover


@pytest.fixture
def clip_file(tmp_path):
    rng = np.random.default_rng(41)
    frames = []
    for _ in range(3):
        y = np.full((32, 32), 77, dtype=np.uint8)
        y[rng.random((32, 32)) < 0.02] = 78
        u = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        v = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        frames.append(np.concatenate((y, u, v), axis=None))
    clip = vid.Y4mVideo([b"W32", b"H32", b"F25:1", b"C420"], frames, [b""] * 3)
    path = tmp_path / "cover.y4m"
    path.write_bytes(vid.write_y4m(clip))
    return path, clip


def run(argv):
    return cli.main([str(a) for a in argv])


def test_hide_reveal_happy_path(tmp_path, cover_file, capsys):
    cover_path, cover = cover_file
    secret_path = tmp_path / "secret.bin"
    secret_path.write_bytes(b"rendezvous at 06:00")
    marked = tmp_path / "marked.ppm"

    code = run(
        ["hide", "--cover", cover_path, "--data", secret_path, "--out", marked,
         "--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--nonce", NONCE, "--iv", IV]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PSNR(plain-marked): " in out
    red = cover[:, :, 0]
    assert f"CAPACITY-BITS: {max_embeddable_bits(red, host_hist(red))}" in out.splitlines()

    # nonce travels inside the marked file
    _, nonce = netpbm.load_ppm(marked.read_bytes())
    assert nonce == 0xAA

    revealed = tmp_path / "revealed.bin"
    recovered = tmp_path / "recovered.ppm"
    code = run(
        ["reveal", "--input", marked, "--out", revealed, "--recovered", recovered,
         "--data-key", DATA_KEY, "--image-key", IMAGE_KEY]
    )
    assert code == 0
    assert revealed.read_bytes() == b"rendezvous at 06:00"
    back, _ = netpbm.load_ppm(recovered.read_bytes())
    assert np.array_equal(back, cover)



def test_a_hide_reveal_round_trip_writes_nothing_to_stderr(tmp_path, cover_file):
    # libgcrypt writes its own warnings straight to file descriptor 2, so the
    # commands run in a fresh interpreter, where the library first loads
    cover_path, _ = cover_file
    secret, marked, revealed = tmp_path / "secret.bin", tmp_path / "marked.ppm", tmp_path / "out.bin"
    secret.write_bytes(b"quiet, please")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    keys = ["--data-key", DATA_KEY, "--image-key", IMAGE_KEY]
    for argv in (
        ["hide", "--cover", cover_path, "--data", secret, "--out", marked, "--nonce", NONCE, *keys],
        ["reveal", "--input", marked, "--out", revealed, *keys],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "rdhkit.cli", *map(str, argv)],
            capture_output=True, cwd=tmp_path, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b""), argv
    assert revealed.read_bytes() == b"quiet, please"

def test_hide_without_nonce_draws_a_fresh_one_per_cover(tmp_path, cover_file):
    cover_path, cover = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"two covers, two keystreams")
    nonces = []
    for name in ("a", "b"):
        marked = tmp_path / f"{name}.ppm"
        assert run(["hide", "--cover", cover_path, "--data", secret, "--out", marked,
                    "--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--iv", IV]) == 0
        nonces.append(netpbm.load_ppm(marked.read_bytes())[1])
        out, rec = tmp_path / f"{name}.bin", tmp_path / f"{name}-rec.ppm"
        assert run(["reveal", "--input", marked, "--out", out, "--recovered", rec,
                    "--data-key", DATA_KEY, "--image-key", IMAGE_KEY]) == 0
        assert out.read_bytes() == secret.read_bytes()
        assert np.array_equal(netpbm.load_ppm(rec.read_bytes())[0], cover)
    assert None not in nonces and nonces[0] != nonces[1]


def test_recover_image_without_data_key(tmp_path, cover_file):
    cover_path, cover = cover_file
    secret_path = tmp_path / "s.bin"
    secret_path.write_bytes(b"x" * 40)
    marked = tmp_path / "m.ppm"
    assert run(
        ["hide", "--cover", cover_path, "--data", secret_path, "--out", marked,
         "--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--nonce", NONCE]
    ) == 0
    out = tmp_path / "r.ppm"
    assert run(["recover-image", "--input", marked, "--out", out, "--image-key", IMAGE_KEY]) == 0
    back, _ = netpbm.load_ppm(out.read_bytes())
    assert np.array_equal(back, cover)


def test_reveal_on_plain_photo_exits_3(tmp_path, cover_file):
    cover_path, _ = cover_file
    code = run(
        ["reveal", "--input", cover_path, "--out", tmp_path / "x.bin",
         "--data-key", DATA_KEY, "--image-key", IMAGE_KEY]
    )
    assert code == 3


def test_wrong_data_key_exits_3(tmp_path, cover_file):
    cover_path, _ = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"abc")
    marked = tmp_path / "m.ppm"
    run(["hide", "--cover", cover_path, "--data", secret, "--out", marked,
         "--data-key", DATA_KEY, "--image-key", IMAGE_KEY])
    code = run(["reveal", "--input", marked, "--out", tmp_path / "o.bin",
                "--data-key", "00" * 16, "--image-key", IMAGE_KEY])
    assert code == 3


def test_capacity_exceeded_exits_2(tmp_path, cover_file):
    cover_path, _ = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(os.urandom(4096))  # far beyond a 64x64 cover
    out = tmp_path / "m.ppm"
    code = run(["hide", "--cover", cover_path, "--data", secret, "--out", out,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY])
    assert code == 2
    assert not out.exists()  # no partial output


def test_format_error_exits_4(tmp_path):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P6\nnot a header")
    code = run(["psnr", bad, bad])
    assert code == 4


def test_bad_key_encoding_exits_5(tmp_path, cover_file):
    cover_path, _ = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"x")
    args = ["hide", "--cover", cover_path, "--data", secret, "--out", tmp_path / "m.ppm"]
    assert run(args + ["--data-key", "zz", "--image-key", IMAGE_KEY]) == 5
    assert run(args + ["--data-key", DATA_KEY, "--image-key", "ab"]) == 5  # too short
    assert run(args + ["--data-key", DATA_KEY, "--image-key", IMAGE_KEY,
                       "--nonce", "123"]) == 5
    assert run(args + ["--data-key", DATA_KEY, "--image-key", IMAGE_KEY,
                       "--iv", "00"]) == 5


def test_nonce_is_hex_read_like_the_keys_and_the_iv(tmp_path, cover_file, capsys):
    # bytes.fromhex skips the spaces between byte pairs, as it does for --data-key and --iv
    cover_path, _ = cover_file
    secret, marked = tmp_path / "s.bin", tmp_path / "m.ppm"
    secret.write_bytes(b"x")
    args = ["hide", "--cover", cover_path, "--data", secret, "--out", marked,
            "--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--nonce"]
    assert run(args + ["00 00 00 00 00 00 00 aa"]) == 0
    assert netpbm.load_ppm(marked.read_bytes())[1] == int(NONCE, 16)
    marked.unlink()
    capsys.readouterr()
    # a count of the hex digits read, not of the characters given
    for bad, got in (("00 00 00 00 00 00 aa", "got 14"), ("00" * 9, "got 18")):
        assert run(args + [bad]) == 5
        assert capsys.readouterr().err.strip().endswith(f"nonce must be 16 hex chars, {got}")
    assert run(args + ["0" * 15]) == 5  # 7.5 bytes
    assert not marked.exists()


def test_data_key_given_twice_or_not_at_all_exits_5(tmp_path, cover_file, capsys):
    cover_path, _ = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"x")
    dk = tmp_path / "dk.hex"
    dk.write_text(DATA_KEY + "\n")
    out = tmp_path / "m.ppm"
    args = ["hide", "--cover", cover_path, "--data", secret, "--out", out,
            "--image-key", IMAGE_KEY]
    assert run(args + ["--data-key", DATA_KEY, "--data-key-file", dk]) == 5
    assert "either inline or as a file" in capsys.readouterr().err
    assert run(args) == 5
    assert "data key is required" in capsys.readouterr().err
    assert not out.exists()


def test_key_files(tmp_path, cover_file):
    cover_path, _ = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"via key files")
    dk = tmp_path / "dk.hex"
    dk.write_text(DATA_KEY + "\n")
    ik = tmp_path / "ik.hex"
    ik.write_text(IMAGE_KEY + "\n")
    marked = tmp_path / "m.ppm"
    assert run(["hide", "--cover", cover_path, "--data", secret, "--out", marked,
                "--data-key-file", dk, "--image-key-file", ik]) == 0
    out = tmp_path / "o.bin"
    assert run(["reveal", "--input", marked, "--out", out,
                "--data-key-file", dk, "--image-key-file", ik]) == 0
    assert out.read_bytes() == b"via key files"


def test_non_ascii_key_files_exit_5(tmp_path, cover_file):
    cover_path, _ = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"x")
    bad = tmp_path / "key.hex"
    bad.write_bytes("é".encode() + DATA_KEY.encode())  # UTF-8, not ASCII
    args = ["hide", "--cover", cover_path, "--data", secret, "--out", tmp_path / "m.ppm"]
    assert run(args + ["--data-key-file", bad, "--image-key", IMAGE_KEY]) == 5
    assert run(args + ["--data-key", DATA_KEY, "--image-key-file", bad]) == 5


def test_usage_errors_exit_1_not_the_capacity_code(tmp_path, cover_file, capsys):
    cover_path, _ = cover_file
    assert run([]) == 1
    assert run(["hide"]) == 1
    assert run(["hide", "--cover", cover_path, "--data", cover_path,
                "--out", tmp_path / "m.ppm", "--data-key", DATA_KEY, "--image-key", IMAGE_KEY,
                "--skip-image-encryption"]) == 1
    assert not (tmp_path / "m.ppm").exists()
    assert run(["--help"]) == 0
    assert run(["reveal", "--help"]) == 0
    assert "usage: rdhkit" in capsys.readouterr().out


def test_psnr_identical_prints_inf(tmp_path, cover_file, capsys):
    cover_path, _ = cover_file
    assert run(["psnr", cover_path, cover_path]) == 0
    assert capsys.readouterr().out.strip() == "PSNR: inf"


def test_psnr_between_files(tmp_path, cover_file, capsys):
    cover_path, cover = cover_file
    other = tmp_path / "b.ppm"
    other.write_bytes(netpbm.save_ppm((cover.astype(np.int16) + 1).clip(0, 255).astype(np.uint8)))
    assert run(["psnr", cover_path, other]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PSNR: ") and out.strip().endswith(" dB")


def test_psnr_of_images_of_two_sizes_exits_1(tmp_path, cover_file, capsys):
    cover_path, cover = cover_file
    half = tmp_path / "half.ppm"
    half.write_bytes(netpbm.save_ppm(cover[:32]))
    assert run(["psnr", cover_path, half]) == 1
    assert "shape (64, 64, 3) vs (32, 64, 3)" in capsys.readouterr().err


def test_psnr_of_a_y4m_exits_4(tmp_path, cover_file, clip_file, capsys):
    cover_path, clip_path = cover_file[0], clip_file[0]
    for pair in ((clip_path, clip_path), (cover_path, clip_path), (clip_path, cover_path)):
        assert run(["psnr", *pair]) == 4
        assert "psnr compares PPM images only" in capsys.readouterr().err


def test_inspect_reports_and_does_not_modify(tmp_path, cover_file, capsys):
    cover_path, cover = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"q")
    marked = tmp_path / "m.ppm"
    run(["hide", "--cover", cover_path, "--data", secret, "--out", marked,
         "--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--nonce", NONCE])
    before = marked.read_bytes()
    assert run(["inspect", marked]) == 0
    out = capsys.readouterr().out
    assert "FORMAT: ppm" in out
    assert f"NONCE: {NONCE}" in out
    assert "PAYLOAD: segment 1 of 1" in out
    assert marked.read_bytes() == before

    assert run(["inspect", cover_path]) == 0
    assert "PAYLOAD: none" in capsys.readouterr().out


def test_video_hide_reveal_cli(tmp_path, clip_file, capsys):
    clip_path, clip = clip_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"moving pictures")
    marked = tmp_path / "m.y4m"
    assert run(["video-hide", "--cover", clip_path, "--data", secret, "--out", marked,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--nonce", NONCE,
                "--iv", IV]) == 0
    assert vid.video_nonce(vid.parse_y4m(marked.read_bytes())) == 0xAA

    out = tmp_path / "o.bin"
    rec = tmp_path / "r.y4m"
    assert run(["video-reveal", "--input", marked, "--out", out, "--recovered", rec,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY]) == 0
    assert out.read_bytes() == b"moving pictures"
    assert rec.read_bytes() == vid.write_y4m(clip)

    assert run(["inspect", marked]) == 0
    text = capsys.readouterr().out
    assert "FORMAT: y4m" in text
    assert "FRAMES: 3" in text


def test_video_hide_of_a_frame_without_an_empty_bin_exits_2(tmp_path, clip_file):
    _, clip = clip_file
    planes(clip, 1)[0].reshape(-1)[-256:] = np.arange(256)
    cover = tmp_path / "full.y4m"
    cover.write_bytes(vid.write_y4m(clip))
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"x")
    out = tmp_path / "m.y4m"
    assert run(["video-hide", "--cover", cover, "--data", secret, "--out", out,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY]) == 2
    assert not out.exists()


def test_video_reveal_of_zero_segments_exits_3(tmp_path, clip_file):
    _, clip = clip_file
    keys = StegoKeys(bytes.fromhex(DATA_KEY), bytes.fromhex(IMAGE_KEY), int(NONCE, 16))
    marked = tmp_path / "m.y4m"
    marked.write_bytes(vid.write_y4m(vid.with_video_nonce(zero_segment_clip(clip, keys), keys.nonce)))
    assert run(["video-reveal", "--input", marked, "--out", tmp_path / "o.bin",
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY]) == 3


@pytest.mark.parametrize("index,count", [(1, 2), (0, 2), (0, 0)])
def test_reveal_of_anything_but_segment_0_of_1_exits_3(tmp_path, cover_file, index, count):
    _, cover = cover_file
    keys = StegoKeys(bytes.fromhex(DATA_KEY), bytes.fromhex(IMAGE_KEY), int(NONCE, 16))
    frame = PayloadFrame(index, count, bytes.fromhex(IV), bytes(32) if count else b"")
    marked = tmp_path / "m.ppm"
    marked.write_bytes(netpbm.save_ppm(image_with_frame(cover, frame, keys), nonce=keys.nonce))
    assert run(["reveal", "--input", marked, "--out", tmp_path / "o.bin",
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY]) == 3


@pytest.mark.parametrize(
    "data",
    [
        b"P6 " + b"1" * 4301 + b" 1 255 ",
        b"YUV4MPEG2 W2 H2 F25:1 C444 W" + b"1" * 4301 + b"\n",
    ],
    ids=["ppm", "y4m"],
)
def test_inspect_of_an_overlong_digit_token_exits_4(tmp_path, data):
    path = tmp_path / "long.bin"
    path.write_bytes(data)
    assert run(["inspect", path]) == 4


def test_inspect_reads_the_payload_of_frame_zero(tmp_path, clip_file, capsys):
    clip_path, _ = clip_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"frame zero")
    marked = tmp_path / "m.y4m"
    assert run(["video-hide", "--cover", clip_path, "--data", secret, "--out", marked,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY]) == 0
    capsys.readouterr()
    assert run(["inspect", marked]) == 0
    assert "PAYLOAD: segment 1 of 2" in capsys.readouterr().out.splitlines()
    assert run(["inspect", clip_path]) == 0
    assert "PAYLOAD: none" in capsys.readouterr().out.splitlines()


def test_video_round_trip_keeps_a_malformed_nonce_token_of_the_cover(tmp_path, clip_file):
    _, clip = clip_file
    cover = tmp_path / "odd.y4m"
    cover.write_bytes(vid.write_y4m(replace(clip, params=[*clip.params, b"XRDHCTR=zz"])))
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"odd token")
    marked, out, rec = tmp_path / "m.y4m", tmp_path / "o.bin", tmp_path / "r.y4m"
    keys = ["--data-key", DATA_KEY, "--image-key", IMAGE_KEY]
    assert run(["video-hide", "--cover", cover, "--data", secret, "--out", marked,
                "--nonce", NONCE] + keys) == 0
    assert run(["video-reveal", "--input", marked, "--out", out, "--recovered", rec] + keys) == 0
    assert out.read_bytes() == b"odd token"
    assert rec.read_bytes() == cover.read_bytes()


def test_inspect_unknown_format_exits_4(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"\x00\x01\x02")
    assert run(["inspect", path]) == 4


def test_atomic_write_never_leaves_partial_files(tmp_path, cover_file, monkeypatch):
    cover_path, _ = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"x")
    target = tmp_path / "out.ppm"

    def boom(path, data):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_atomic", boom)
    code = run(["hide", "--cover", cover_path, "--data", secret, "--out", target,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY])
    assert code == 1
    assert not target.exists()
    assert not list(tmp_path.glob(".rdhkit-*"))


def test_hide_onto_a_directory_exits_1_and_removes_its_temp_file(tmp_path, cover_file):
    cover_path, _ = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"x")
    target = tmp_path / "taken"
    target.mkdir()
    code = run(["hide", "--cover", cover_path, "--data", secret, "--out", target,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY])
    assert code == 1
    assert target.is_dir() and not list(target.iterdir())
    assert not list(tmp_path.glob(".rdhkit-*"))


OTHER_NONCE = "00000000000000bb"


@pytest.fixture
def marked_ppm(tmp_path, cover_file):
    cover_path, cover = cover_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"nonce rule")
    marked = tmp_path / "m.ppm"
    assert run(["hide", "--cover", cover_path, "--data", secret, "--out", marked,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--nonce", NONCE]) == 0
    return marked, cover


@pytest.fixture
def marked_y4m(tmp_path, clip_file):
    clip_path, clip = clip_file
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"nonce rule")
    marked = tmp_path / "m.y4m"
    assert run(["video-hide", "--cover", clip_path, "--data", secret, "--out", marked,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--nonce", NONCE]) == 0
    return marked, clip


def test_file_nonce_overrides_a_different_nonce_option(tmp_path, marked_ppm, marked_y4m):
    keys = ["--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--nonce", OTHER_NONCE]
    (ppm, cover), (y4m, _) = marked_ppm, marked_y4m
    out = tmp_path / "o.bin"
    assert run(["reveal", "--input", ppm, "--out", out] + keys) == 0
    assert out.read_bytes() == b"nonce rule"
    assert run(["video-reveal", "--input", y4m, "--out", out] + keys) == 0
    assert out.read_bytes() == b"nonce rule"
    rec = tmp_path / "r.ppm"
    assert run(["recover-image", "--input", ppm, "--out", rec,
                "--image-key", IMAGE_KEY, "--nonce", OTHER_NONCE]) == 0
    assert np.array_equal(netpbm.load_ppm(rec.read_bytes())[0], cover)


def test_nonce_option_is_used_when_the_file_has_none(tmp_path, marked_ppm, marked_y4m):
    (ppm, cover), (y4m, _) = marked_ppm, marked_y4m
    bare_ppm = tmp_path / "bare.ppm"
    bare_ppm.write_bytes(netpbm.save_ppm(netpbm.load_ppm(ppm.read_bytes())[0]))
    bare_y4m = tmp_path / "bare.y4m"
    bare_y4m.write_bytes(vid.write_y4m(vid.without_video_nonce(vid.parse_y4m(y4m.read_bytes()))))
    keys = ["--data-key", DATA_KEY, "--image-key", IMAGE_KEY]
    out = tmp_path / "o.bin"
    for command, path in (("reveal", bare_ppm), ("video-reveal", bare_y4m)):
        assert run([command, "--input", path, "--out", out] + keys) == 3  # default nonce 0
        assert run([command, "--input", path, "--out", out] + keys + ["--nonce", NONCE]) == 0
        assert out.read_bytes() == b"nonce rule"
    rec = tmp_path / "r.ppm"
    assert run(["recover-image", "--input", bare_ppm, "--out", rec,
                "--image-key", IMAGE_KEY, "--nonce", NONCE]) == 0
    assert np.array_equal(netpbm.load_ppm(rec.read_bytes())[0], cover)


@pytest.mark.parametrize("bad", ["zz" * 8, "123", "0x" + "0" * 14])
def test_malformed_nonce_option_exits_5_even_when_the_file_has_one(
    tmp_path, marked_ppm, marked_y4m, bad
):
    (ppm, _), (y4m, _) = marked_ppm, marked_y4m
    keys = ["--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--nonce", bad]
    out = tmp_path / "o.bin"
    assert run(["reveal", "--input", ppm, "--out", out] + keys) == 5
    assert run(["video-reveal", "--input", y4m, "--out", out] + keys) == 5
    assert run(["recover-image", "--input", ppm, "--out", tmp_path / "r.ppm",
                "--image-key", IMAGE_KEY, "--nonce", bad]) == 5
    assert not out.exists() and not (tmp_path / "r.ppm").exists()


@pytest.fixture(params=["ppm", "y4m"])
def either_cover(request, cover_file, clip_file):
    """Each container's cover file, with the bytes a restored cover must match."""
    path = (cover_file if request.param == "ppm" else clip_file)[0]
    return path, path.read_bytes()


def test_both_hide_names_write_the_same_bytes_and_lines(tmp_path, either_cover, capsys):
    cover, _ = either_cover
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"one front door")
    marked = tmp_path / "m.bin"
    results = []
    for command in ("hide", "video-hide"):
        assert run([command, "--cover", cover, "--data", secret, "--out", marked,
                    "--data-key", DATA_KEY, "--image-key", IMAGE_KEY, "--nonce", NONCE,
                    "--iv", IV]) == 0
        results.append((marked.read_bytes(), capsys.readouterr().out))
    assert results[0] == results[1]
    assert ("FRAMES: 3" in results[0][1].splitlines()) == (cover.suffix == ".y4m")


def test_both_reveal_names_restore_either_container(tmp_path, either_cover):
    cover, cover_bytes = either_cover
    secret = tmp_path / "s.bin"
    secret.write_bytes(b"one front door")
    marked = tmp_path / "m.bin"
    keys = ["--data-key", DATA_KEY, "--image-key", IMAGE_KEY]
    assert run(["hide", "--cover", cover, "--data", secret, "--out", marked] + keys) == 0
    for command in ("reveal", "video-reveal"):
        out, rec = tmp_path / f"{command}.bin", tmp_path / f"{command}-rec.bin"
        assert run([command, "--input", marked, "--out", out, "--recovered", rec] + keys) == 0
        assert out.read_bytes() == b"one front door"
        assert rec.read_bytes() == cover_bytes


@pytest.mark.parametrize("command", ["hide", "video-hide", "reveal", "video-reveal"])
def test_a_file_of_neither_container_exits_4_and_writes_nothing(tmp_path, command, capsys):
    blob = tmp_path / "blob.bin"
    blob.write_bytes(b"GIF89a\x01\x00\x01\x00")
    out = tmp_path / "out.bin"
    source = ["--cover", blob, "--data", blob] if "hide" in command else ["--input", blob]
    assert run([command, *source, "--out", out,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY]) == 4
    assert "unrecognized file" in capsys.readouterr().err
    assert not out.exists() and not list(tmp_path.glob(".rdhkit-*"))


def test_inspect_of_a_clip_without_frames_reports_no_payload(tmp_path, capsys):
    path = tmp_path / "empty.y4m"
    path.write_bytes(b"YUV4MPEG2 W4 H4 F25:1 C420\n")
    assert run(["inspect", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "FORMAT: y4m", "WIDTH: 4", "HEIGHT: 4", "COLORSPACE: C420", "FRAMES: 0",
        "NONCE: none", "PAYLOAD: none",
    ]


def test_recover_image_restores_a_clip_with_the_image_key_alone(
    tmp_path, marked_y4m, cover_file, clip_file, capsys
):
    marked, clip = marked_y4m
    out = tmp_path / "r.y4m"
    assert run(["recover-image", "--input", marked, "--out", out, "--image-key", IMAGE_KEY]) == 0
    assert out.read_bytes() == vid.write_y4m(clip)  # the nonce token goes with the payload
    assert capsys.readouterr().out.splitlines() == [f"OUT: {out}"]
    empty = tmp_path / "empty.y4m"
    empty.write_bytes(b"YUV4MPEG2 W4 H4 F25:1 C420\n")
    failed = tmp_path / "f.bin"
    for path, key in ((marked, "00" * 8), (clip_file[0], IMAGE_KEY), (empty, IMAGE_KEY),
                      (cover_file[0], IMAGE_KEY)):  # a wrong key, then three unmarked files
        assert run(["recover-image", "--input", path, "--out", failed, "--image-key", key]) == 3
        assert not failed.exists()


def test_help_lists_each_command_once_with_its_alias(capsys):
    assert run(["--help"]) == 0
    text = capsys.readouterr().out
    assert "hide (video-hide)" in text and "reveal (video-reveal)" in text
    for name in ("hide", "video-hide", "reveal", "video-reveal", "recover-image", "psnr",
                 "inspect"):
        assert len(re.findall(rf"(?<![\w-]){name}(?![\w-])", text)) == 1, name


@pytest.mark.parametrize(
    "command,alias",
    [("hide", "video-hide"), ("reveal", "video-reveal"), ("recover-image", "recover-image")],
)
def test_every_option_of_hide_and_reveal_has_help(command, alias):
    (commands,) = [a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert commands.choices[alias] is commands.choices[command]
    options = commands.choices[command]._actions
    assert [a.dest for a in options if not a.help] == []
    assert "PPM or Y4M" in next(a.help for a in commands._choices_actions if a.dest == command)


SHORT_CIPHERTEXTS = [0, 15, 17]  # joined ciphertext lengths that are not whole AES blocks


def short_ciphertext_file(tmp_path, container, n, cover, clip):
    """A PPM or Y4M marked under the CLI keys whose one segment holds n
    ciphertext bytes behind a valid frame CRC."""
    keys = StegoKeys(bytes.fromhex(DATA_KEY), bytes.fromhex(IMAGE_KEY), int(NONCE, 16))
    frame = PayloadFrame(0, 1, bytes.fromhex(IV), bytes(n))
    path = tmp_path / f"short-{n}.{container}"
    if container == "ppm":
        path.write_bytes(netpbm.save_ppm(image_with_frame(cover, frame, keys), nonce=keys.nonce))
    else:
        marked = embed_clip(clip, [frame], keys)
        path.write_bytes(vid.write_y4m(vid.with_video_nonce(marked, keys.nonce)))
    return path


@pytest.mark.parametrize("n", SHORT_CIPHERTEXTS)
@pytest.mark.parametrize("container", ["ppm", "y4m"])
def test_reveal_of_a_ciphertext_of_no_whole_blocks_exits_3(
    tmp_path, cover_file, clip_file, container, n, capsys
):
    marked = short_ciphertext_file(tmp_path, container, n, cover_file[1], clip_file[1])
    out = tmp_path / "o.bin"
    assert run(["reveal", "--input", marked, "--out", out,
                "--data-key", DATA_KEY, "--image-key", IMAGE_KEY]) == 3
    assert "not whole AES blocks" in capsys.readouterr().err
    assert not out.exists()


def test_no_bit_flip_in_a_marked_file_exits_1(tmp_path, marked_ppm, marked_y4m, cover_file,
                                              clip_file):
    rng = np.random.default_rng(42)
    inputs = []
    for marked in (marked_ppm[0], marked_y4m[0]):
        data = marked.read_bytes()
        for _ in range(40):  # seeded 1-3 bit flips anywhere in the file
            mutant = np.frombuffer(data, np.uint8).copy()
            for bit in rng.choice(8 * len(data), size=rng.integers(1, 4), replace=False):
                mutant[bit // 8] ^= 1 << (bit % 8)
            inputs.append(mutant.tobytes())
    inputs += [
        short_ciphertext_file(tmp_path, container, n, cover_file[1], clip_file[1]).read_bytes()
        for container in ("ppm", "y4m") for n in SHORT_CIPHERTEXTS
    ]
    path, out = tmp_path / "mutant", tmp_path / "out"
    for data in inputs:
        path.write_bytes(data)
        for argv in (
            ["reveal", "--input", path, "--out", out, "--data-key", DATA_KEY,
             "--image-key", IMAGE_KEY],
            ["recover-image", "--input", path, "--out", out, "--image-key", IMAGE_KEY],
            ["inspect", path],
        ):
            assert run(argv) in (0, 3, 4), argv[0]
