import os

import numpy as np
import pytest

from conftest import image_with_frame, make_cover, zero_segment_clip
from rdhkit import cli, netpbm, video as vid
from rdhkit.pipeline import PayloadFrame, StegoKeys

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
        frames.append(vid.YuvFrame(y, u, v))
    clip = vid.Y4mVideo(32, 32, "C420", [b"W32", b"H32", b"F25:1", b"C420"], frames, [b""] * 3)
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
    assert any(line.startswith("CAPACITY-BITS: ") for line in out.splitlines())

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
