import numpy as np


def make_cover(rng, height, width, red_spread=4, red_base=None, concentration=0.88):
    """Random RGB cover whose red histogram is dominated by one value, so the
    histogram-shift host has room; green and blue are fully random."""
    img = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    if red_base is None:
        red_base = int(rng.integers(10, 240))
    red = np.full((height, width), red_base, dtype=np.uint8)
    noisy = rng.random((height, width)) >= concentration
    red[noisy] = (red_base + rng.integers(1, max(2, red_spread), size=int(noisy.sum()))).astype(
        np.uint8
    )
    img[:, :, 0] = red
    return img


def random_keys(rng):
    from rdhkit import StegoKeys

    return StegoKeys(
        data_key=rng.bytes(16),
        image_key=rng.bytes(int(rng.integers(4, 57))),
        nonce=int(rng.integers(0, 2**63)),
    )


def max_secret_bytes(cover):
    """Conservative upper bound on a random-bytes secret that must fit this cover."""
    from rdhkit.pipeline import FRAME_OVERHEAD_BYTES, HEADER_SLOTS, max_embeddable_bits

    red = cover[:, :, 0].reshape(-1)
    limit = max_embeddable_bits(red)
    if limit is None:
        return None
    limit = min(limit, red.size - HEADER_SLOTS)
    max_ct = limit // 8 - FRAME_OVERHEAD_BYTES
    if max_ct < 16:
        return None
    budget = max_ct - 16 - 11  # CBC padding + container fixed header
    if budget <= 0:
        return 0
    # random bytes cost at most 2 table bytes + 1 bitstream byte each while
    # the alphabet is growing, and 523 fixed table bytes once it is full
    small = budget // 3
    if small <= 256:
        return small
    return max(256, budget - 523)


def image_with_frame(cover, frame, keys):
    """Encrypted copy of an RGB cover carrying the given payload frame in its
    red LSBs, embedded under the given keys."""
    from rdhkit.blowfish import bf_key_schedule
    from rdhkit.pipeline import RED, embed

    raw = cover.reshape(-1).copy()
    out = embed(raw, RED, frame.serialize(), bf_key_schedule(keys.image_key), keys.nonce)
    return out.reshape(cover.shape)


def embed_clip(clip, segments, keys):
    """Copy of a Y4M clip whose frame i carries segments[i] (an empty segment
    past the last), embedded under the given keys."""
    from rdhkit import pipeline, video

    buffers = pipeline.embed_segments(
        video._frame_buffers(clip), video._y_plane(clip), segments, keys
    )
    return video._with_frames(clip, buffers)


def zero_segment_clip(clip, keys, iv=bytes(16)):
    """Copy of a Y4M clip whose every frame carries a payload frame declaring
    zero segments, embedded under the given keys."""
    from rdhkit.pipeline import PayloadFrame

    return embed_clip(clip, [PayloadFrame(0, 0, iv, b"")] * len(clip.frames), keys)
