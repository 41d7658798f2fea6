"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by 20-30% over
seconds to minutes, as the other tenants' load comes and goes, which is
more than a regression bound can absorb.  So a run times a fixed piece of
work, :func:`kernel`, between short segments of operations, and reports
each timing scaled to a host on which the kernel takes
:data:`REFERENCE_S`:

    reference time = measured time * REFERENCE_S / kernel time nearby

The kernel uses only the interpreter and its standard library, never the
program, so no change to the program can move it: what the program gains
or loses still shows, in proportion, while the host's drift cancels.  It
mixes the kinds of work the program does: big-integer modular
exponentiation (Schnorr, Diffie-Hellman), hashing, and dictionary, string
and bytes handling.
"""

from __future__ import annotations

import hashlib
import statistics
import time

#: The kernel's wall time on the reference host, in seconds.
REFERENCE_S = 0.020

#: A fixed odd 2048-bit modulus and base; any values would do.
_MODULUS = (1 << 2048) - 1942289
_BASE = int.from_bytes(hashlib.sha512(b"perfbench host speed").digest() * 4, "big")
_EXPONENT = (1 << 320) - 2357


def _work() -> int:
    x = _BASE
    for _ in range(3):
        x = pow(x, _EXPONENT, _MODULUS)
    table = {}
    digest = b""
    for i in range(4000):
        key = "k%d" % i
        table[key] = (i, key.encode())
        digest = hashlib.sha256(digest + table[key][1]).digest()
    return x ^ int.from_bytes(digest, "big") ^ len(table)


def kernel() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def kernel_median(runs: int = 3) -> float:
    """Median wall time of a few kernel runs back to back."""
    return statistics.median(kernel() for _ in range(runs))
