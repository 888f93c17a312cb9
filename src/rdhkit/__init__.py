"""Reversible data hiding in encrypted images and video.

The pipeline compresses a secret with canonical Huffman coding, encrypts it
with AES-128-CBC, reserves room in the cover via histogram shifting, encrypts
the cover with a Blowfish counter keystream, and substitutes the payload into
the encrypted cover's LSBs.  Both the secret and the cover come back bit-exactly;
the cover needs only the image key, the secret both keys.
"""

from .errors import RdhError
from .histshift import hs_embed, hs_extract, plan_hs
from .huffman import huffman_compress, huffman_decompress
from .metrics import mse, psnr
from .netpbm import load_ppm, save_ppm
from .pipeline import (
    HideResult,
    PayloadFrame,
    SideHeader,
    StegoKeys,
    build_frames,
    hide,
    parse_frame,
    reveal,
)
from .video import Y4mVideo, parse_y4m, video_hide, video_reveal, write_y4m

__version__ = "0.1.0"

__all__ = [
    "RdhError",
    "plan_hs",
    "hs_embed",
    "hs_extract",
    "huffman_compress",
    "huffman_decompress",
    "mse",
    "psnr",
    "load_ppm",
    "save_ppm",
    "StegoKeys",
    "HideResult",
    "PayloadFrame",
    "SideHeader",
    "build_frames",
    "parse_frame",
    "hide",
    "reveal",
    "Y4mVideo",
    "parse_y4m",
    "write_y4m",
    "video_hide",
    "video_reveal",
]
