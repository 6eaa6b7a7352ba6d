"""Jacobi3D GPU kernels: cost models plus functional NumPy bodies.

At paper scale (hundreds of millions of cells per GPU) no kernel touches
a byte and only the roofline cost matters; for correctness tests the same
kernels carry functional bodies that move real data, so the distributed
result can be checked cell-for-cell against :func:`jacobi_reference_step`.

Cost model: the 7-point stencil is memory-bound.  Effective DRAM traffic is
~2 doubles per cell (one streaming read of ``u``, one write of ``u_new``;
neighbour reads hit cache) — 16 B/cell, which lands the 1536³/6-GPU base
block at ~11 ms/iteration on a V100, matching the scale of the paper's
Fig. 14a.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hardware.gpu import Kernel

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

#: effective DRAM bytes per cell for the 7-point Jacobi sweep
STENCIL_BYTES_PER_CELL = 16
#: flops per cell (6 adds + 1 multiply)
STENCIL_FLOPS_PER_CELL = 7

_FACE_SLICES = {
    "-x": (slice(0, 1), slice(None), slice(None)),
    "+x": (slice(-1, None), slice(None), slice(None)),
    "-y": (slice(None), slice(0, 1), slice(None)),
    "+y": (slice(None), slice(-1, None), slice(None)),
    "-z": (slice(None), slice(None), slice(0, 1)),
    "+z": (slice(None), slice(None), slice(-1, None)),
}

_GHOST_SLICES = {
    "-x": (0, slice(1, -1), slice(1, -1)),
    "+x": (-1, slice(1, -1), slice(1, -1)),
    "-y": (slice(1, -1), 0, slice(1, -1)),
    "+y": (slice(1, -1), -1, slice(1, -1)),
    "-z": (slice(1, -1), slice(1, -1), 0),
    "+z": (slice(1, -1), slice(1, -1), -1),
}


def pack_kernel(direction: str, face_bytes: int,
                u: Optional[np.ndarray] = None,
                out: Optional[np.ndarray] = None) -> Kernel:
    """Copy one interior face of ``u`` (ghosted array) into a send buffer;
    without ``u``, a cost-only kernel (no body, no closure)."""
    if u is None:
        return Kernel(f"pack{direction}", 2 * face_bytes)

    def body() -> None:
        if out is None:
            return
        interior = u[1:-1, 1:-1, 1:-1]
        face = interior[_FACE_SLICES[direction]]
        out.reshape(-1)[: face.size] = face.reshape(-1)

    return Kernel(name=f"pack{direction}", bytes_moved=2 * face_bytes, body=body)


def unpack_kernel(direction: str, face_bytes: int,
                  u: Optional[np.ndarray] = None,
                  src: Optional[np.ndarray] = None) -> Kernel:
    """Copy a received halo into the ghost shell of ``u``; without ``u``, a
    cost-only kernel (no body, no closure)."""
    if u is None:
        return Kernel(f"unpack{direction}", 2 * face_bytes)

    def body() -> None:
        if src is None:
            return
        ghost = u[_GHOST_SLICES[direction]]
        ghost[...] = src.reshape(-1)[: ghost.size].reshape(ghost.shape)

    return Kernel(name=f"unpack{direction}", bytes_moved=2 * face_bytes, body=body)


def stencil_kernel(cells: int,
                   u: Optional[np.ndarray] = None,
                   u_new: Optional[np.ndarray] = None) -> Kernel:
    """One Jacobi sweep over ``cells`` interior points; without ``u``, a
    cost-only kernel (no body, no closure)."""
    bytes_moved = cells * STENCIL_BYTES_PER_CELL
    flops = cells * STENCIL_FLOPS_PER_CELL
    if u is None:
        return Kernel("jacobi", bytes_moved, flops)

    def body() -> None:
        if u_new is None:
            return
        u_new[1:-1, 1:-1, 1:-1] = (
            u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]
            + u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]
            + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]
        ) / 6.0

    return Kernel(name="jacobi", bytes_moved=bytes_moved, flops=flops, body=body)


def jacobi_reference_step(u: np.ndarray) -> np.ndarray:
    """Sequential reference: one Jacobi sweep of a ghosted array (ghost
    cells held fixed — Dirichlet boundary).  Returns the new ghosted array."""
    out = u.copy()
    out[1:-1, 1:-1, 1:-1] = (
        u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]
    ) / 6.0
    return out
