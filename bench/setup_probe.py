"""One cold start for setup_s: a fresh interpreter imports rdhkit and makes one round trip.

run.py times this script from process start to exit.  The workload arrives
on stdin as ``kind NL secret_length NL secret cover``, generated by the
parent so that input generation is not part of the measurement.  The exit
status is 0 only if the round trip came back bit-exact.
"""

import sys

import ops


def main() -> int:
    kind, secret_len, rest = sys.stdin.buffer.read().split(b"\n", 2)
    secret, cover = rest[: int(secret_len)], rest[int(secret_len) :]
    hide, reveal = ops.OPS[kind.decode()]
    marked, _ = hide(cover, secret)
    return 0 if reveal(marked) == (secret, cover) else 1


if __name__ == "__main__":
    sys.exit(main())
