"""Cuboid domain decomposition minimising communication surface.

The domain (nx, ny, nz) is split across P blocks arranged in a (px, py, pz)
process grid with ``px*py*pz == P``, chosen to minimise the total halo
surface per block — the paper's "decomposed into equal-size cuboid blocks,
minimizing surface area".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

DIRS = ("-x", "+x", "-y", "+y", "-z", "+z")

_OPPOSITE = {"-x": "+x", "+x": "-x", "-y": "+y", "+y": "-y", "-z": "+z", "+z": "-z"}


def opposite(direction: str) -> str:
    return _OPPOSITE[direction]


def _factor_triples(p: int) -> Iterator[Tuple[int, int, int]]:
    for px in range(1, p + 1):
        if p % px:
            continue
        rest = p // px
        for py in range(1, rest + 1):
            if rest % py:
                continue
            yield px, py, rest // py


def best_grid(p: int, domain: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Process grid dividing ``domain`` exactly, minimising block surface."""
    nx, ny, nz = domain
    best: Optional[Tuple[int, int, int]] = None
    best_surface = float("inf")
    for px, py, pz in _factor_triples(p):
        if nx % px or ny % py or nz % pz:
            continue
        bx, by, bz = nx // px, ny // py, nz // pz
        surface = 2 * (bx * by + by * bz + bx * bz)
        if surface < best_surface:
            best_surface = surface
            best = (px, py, pz)
    if best is None:
        raise ValueError(f"no process grid of {p} blocks divides domain {domain}")
    return best


def weak_scaling_domain(base: int, nodes: int) -> Tuple[int, int, int]:
    """The paper's weak-scaling rule: base³ doubled "in x, y, z order" as the
    node count doubles (nodes must be a power of two)."""
    if nodes < 1 or nodes & (nodes - 1):
        raise ValueError("weak scaling is defined for power-of-two node counts")
    dims = [base, base, base]
    k = nodes.bit_length() - 1  # number of doublings
    for i in range(k):
        dims[i % 3] *= 2
    return tuple(dims)  # type: ignore[return-value]


@dataclass(frozen=True)
class Decomposition:
    """Block layout of one Jacobi3D run."""

    domain: Tuple[int, int, int]
    grid: Tuple[int, int, int]
    dtype_bytes: int = 8  # doubles

    @classmethod
    def create(cls, domain: Tuple[int, int, int], p: int) -> "Decomposition":
        return cls(domain=domain, grid=best_grid(p, domain))

    @property
    def n_blocks(self) -> int:
        px, py, pz = self.grid
        return px * py * pz

    @property
    def block(self) -> Tuple[int, int, int]:
        return (
            self.domain[0] // self.grid[0],
            self.domain[1] // self.grid[1],
            self.domain[2] // self.grid[2],
        )

    @property
    def cells_per_block(self) -> int:
        bx, by, bz = self.block
        return bx * by * bz

    def coords(self, rank: int) -> Tuple[int, int, int]:
        px, py, pz = self.grid
        if not 0 <= rank < self.n_blocks:
            raise ValueError(f"rank {rank} out of range")
        return rank % px, (rank // px) % py, rank // (px * py)

    def rank_of(self, x: int, y: int, z: int) -> int:
        px, py, _pz = self.grid
        return x + px * (y + py * z)

    def neighbor(self, rank: int, direction: str) -> Optional[int]:
        """Neighbouring block in ``direction``, or None at a domain face."""
        x, y, z = self.coords(rank)
        px, py, pz = self.grid
        step = {"-x": (-1, 0, 0), "+x": (1, 0, 0), "-y": (0, -1, 0),
                "+y": (0, 1, 0), "-z": (0, 0, -1), "+z": (0, 0, 1)}[direction]
        nx_, ny_, nz_ = x + step[0], y + step[1], z + step[2]
        if not (0 <= nx_ < px and 0 <= ny_ < py and 0 <= nz_ < pz):
            return None
        return self.rank_of(nx_, ny_, nz_)

    def neighbors(self, rank: int) -> List[Tuple[str, int]]:
        out = []
        for d in DIRS:
            n = self.neighbor(rank, d)
            if n is not None:
                out.append((d, n))
        return out

    def face_bytes(self, direction: str) -> int:
        bx, by, bz = self.block
        cells = {"x": by * bz, "y": bx * bz, "z": bx * by}[direction[1]]
        return cells * self.dtype_bytes
