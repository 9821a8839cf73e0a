"""Transaction-set bitsets.

A single cover is a plain Python int used as a bitset: bit i is set iff
transaction i is in the set, with cheap intersection (``&``) and population
count (``int.bit_count``).  The searches pack many covers into one uint64
word matrix instead, one cover per row, so a single numpy step serves them
all.
"""

from __future__ import annotations

import numpy as np


def pack(flags: np.ndarray) -> int:
    """Pack a boolean/0-1 array into an int bitset (bit i == flags[i])."""
    arr = np.asarray(flags, dtype=bool)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d array")
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def pack_rows(flags: np.ndarray) -> np.ndarray:
    """Pack a (rows, m) 0/1 matrix into a (rows, ceil(m/64)) uint64
    matrix for vectorized ``&`` and popcount; padding bits are 0."""
    rows, m = flags.shape
    out = np.zeros((rows, 8 * ((m + 63) // 64)), dtype=np.uint8)
    out[:, : (m + 7) // 8] = np.packbits(flags, axis=1, bitorder="little")
    return out.view(np.uint64)


def unpack_rows(words: np.ndarray, m: int) -> np.ndarray:
    """Inverse of `pack_rows`: the first m bits of each row, as 0/1 uint8."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=m, bitorder="little")


def full(m: int) -> int:
    """Bitset with all m transactions set."""
    return (1 << m) - 1
