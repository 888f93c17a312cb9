"""Reversible data hiding in encrypted images and video.

The pipeline compresses a secret with canonical Huffman coding, encrypts it
with AES-128-CBC, reserves room in the cover via histogram shifting, encrypts
the cover with a Blowfish counter keystream, and substitutes the payload into
the encrypted cover's LSBs.  Both the secret and the cover come back bit-exactly;
the cover needs only the image key, the secret both keys.

The root exports the entry points: the container readers and writers, the
image and video hide/reveal, and the base of every error; the layers behind
them are imported as submodules.
"""

from .errors import RdhError
from .netpbm import load_ppm, save_ppm
from .pipeline import HideResult, StegoKeys, hide, reveal
from .video import Y4mVideo, parse_y4m, video_hide, video_reveal, write_y4m

__version__ = "0.1.0"

__all__ = [
    "RdhError",
    "load_ppm", "save_ppm",
    "StegoKeys", "HideResult", "hide", "reveal",
    "Y4mVideo", "parse_y4m", "write_y4m", "video_hide", "video_reveal",
]
