"""The NumPy spellings of the buffer byte moves, kept as a test oracle.

Before ``repro.hardware.memory`` stopped importing NumPy, ``Buffer.copy_from``
flattened both payloads with ``reshape(-1).view(np.uint8)`` and assigned the
first ``n`` bytes, and ``view`` / ``fill`` went through the same flat byte
view.  These are those expressions, moved here verbatim as functions of the
arrays, so ``tests/test_byte_moves.py`` can require the ``memoryview`` path to
produce the same bytes.  Never imported by the runtime.
"""

from __future__ import annotations

import numpy as np


def copy_from(dst: np.ndarray, src: np.ndarray, n: int) -> None:
    dst_flat = dst.reshape(-1).view(np.uint8)
    src_flat = src.reshape(-1).view(np.uint8)
    dst_flat[:n] = src_flat[:n]


def view(data: np.ndarray, offset: int, nbytes: int) -> np.ndarray:
    return data.reshape(-1).view(np.uint8)[offset:offset + nbytes]


def fill(data: np.ndarray, byte: int) -> None:
    data.reshape(-1).view(np.uint8)[:] = byte
