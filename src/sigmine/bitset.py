"""Transaction-set bitsets.

Covers are plain Python ints used as bitsets: bit i is set iff transaction i
is in the set.  Arbitrary-precision ints give cheap intersection (``&``) and
population count (``int.bit_count``), and are hashable, which the
distinct-projection counter relies on.  The supremum search packs many
covers into one uint64 word matrix instead, one cover per row, so a single
numpy step serves them all.
"""

from __future__ import annotations

import numpy as np


def pack(flags: np.ndarray) -> int:
    """Pack a boolean/0-1 array into an int bitset (bit i == flags[i])."""
    arr = np.asarray(flags, dtype=bool)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d array")
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def from_indices(indices, m: int) -> int:
    """Bitset with exactly the given transaction indices set."""
    mask = 0
    for i in indices:
        if not 0 <= i < m:
            raise ValueError(f"index {i} outside [0, {m})")
        mask |= 1 << i
    return mask


def to_words(masks: list[int], m: int) -> np.ndarray:
    """Int bitsets over m transactions as a (len(masks), ceil(m/64)) uint64
    matrix, one bitset per row, laid out as `pack_rows` lays them out."""
    nbytes = 8 * ((m + 63) // 64)
    raw = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    return np.frombuffer(raw, dtype=np.uint64).reshape(len(masks), nbytes // 8)


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
