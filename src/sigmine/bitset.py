"""The searches' packed cover format.

Outside the engine a cover is a numpy bool array of length m (see
`sigmine.language.Cover`).  The searches pack many covers into one uint64
word matrix instead, one cover per row, bit i of a row set iff transaction i
is in that cover, so that a single numpy ``&`` and popcount step serves them
all.
"""

from __future__ import annotations

import numpy as np


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
