"""libgcrypt (``libgcrypt.so.20``), the one native library rdhkit binds.

Where it loads, AES-128-CBC and Blowfish-CTR run there, and elsewhere both
run in Python and numpy.  ``aes`` and ``blowfish`` each check a handle
against their own known answers before they use the library.
"""

import ctypes
import functools
import threading
import weakref

import numpy as np

# gcry_cipher_algos and gcry_cipher_modes
AES128, BLOWFISH = 7, 4
CBC, CTR = 3, 6
# GCRYCTL_SET_ALLOW_WEAK_KEY, and the error code setkey still returns after it
_ALLOW_WEAK_KEY, _WEAK_KEY = 79, 43
_CALLS = ("check_version cipher_open cipher_ctl cipher_setkey cipher_setiv cipher_setctr"
          " cipher_encrypt cipher_decrypt cipher_close").split()


@functools.cache
def _load():
    """libgcrypt, typed and initialised, or None."""
    try:
        return _typed(ctypes.CDLL("libgcrypt.so.20"))
    except OSError:
        return None


def _typed(lib):
    """lib with every call this module makes typed, once gcry_check_version has
    initialised it; or None where lib is None, lacks a call or fails the check."""
    try:
        calls = [getattr(lib, "gcry_" + name) for name in _CALLS]
    except AttributeError:
        return None
    version, open_, ctl, setkey, setiv, setctr, encrypt, decrypt, close = calls
    handle, size = ctypes.c_void_p, ctypes.c_size_t
    version.argtypes, version.restype = (ctypes.c_char_p,), ctypes.c_char_p
    # gcry_cipher_open(&handle, algo, mode, flags); it and the calls after it
    # but close return a gcry_error_t, 0 on success
    open_.argtypes = (ctypes.POINTER(handle), ctypes.c_int, ctypes.c_int, ctypes.c_uint)
    ctl.argtypes = (handle, ctypes.c_int, ctypes.c_void_p, size)  # (handle, cmd, buffer, buflen)
    setkey.argtypes = setiv.argtypes = setctr.argtypes = (handle, ctypes.c_char_p, size)
    # gcry_cipher_encrypt(handle, out, outsize, in, inlen), and decrypt alike
    encrypt.argtypes = decrypt.argtypes = (handle, ctypes.c_void_p, size, ctypes.c_void_p, size)
    open_.restype = ctl.restype = setkey.restype = setiv.restype = setctr.restype = ctypes.c_uint
    encrypt.restype = decrypt.restype = ctypes.c_uint
    close.argtypes, close.restype = (handle,), None
    return lib if version(None) is not None else None


def cipher(lib, algo: int, mode: int, key: bytes):
    """A lib handle of algo in mode (CBC or CTR) keyed with key, as a function
    (iv or counter, data, decrypt=False) -> a fresh uint8 array, data being
    bytes or a contiguous uint8 array.  The handle allows weak keys, so a weak
    Blowfish key is keyed as any other, and setkey's weak-key error is no
    failure.  Collecting the function closes the handle; an error raises
    RuntimeError."""
    handle = ctypes.c_void_p()
    if err := lib.gcry_cipher_open(ctypes.byref(handle), algo, mode, 0):
        raise RuntimeError(f"gcry_cipher_open failed with gcry_error_t {err:#x}")
    start = lib.gcry_cipher_setctr if mode == CTR else lib.gcry_cipher_setiv
    run = functools.partial(_run, lib, handle, start, threading.Lock())
    weakref.finalize(run, lib.gcry_cipher_close, handle)
    err = lib.gcry_cipher_ctl(handle, _ALLOW_WEAK_KEY, None, 1)
    err = err or lib.gcry_cipher_setkey(handle, bytes(key), len(key))
    if err and err & 0xFFFF != _WEAK_KEY:
        raise RuntimeError(f"libgcrypt refused a key with gcry_error_t {err:#x}")
    return run


def _run(lib, handle, start, lock, iv: bytes, data, decrypt: bool = False) -> np.ndarray:
    src = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(src.size, dtype=np.uint8)
    crypt = lib.gcry_cipher_decrypt if decrypt else lib.gcry_cipher_encrypt
    with lock:  # the handle carries the chain or counter between the two calls
        err = start(handle, iv, len(iv))
        err = err or crypt(handle, out.ctypes.data, out.size, src.ctypes.data, src.size)
    if err:
        raise RuntimeError(f"libgcrypt failed with gcry_error_t {err:#x}")
    return out
