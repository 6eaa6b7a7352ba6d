"""MPI basic datatypes (the subset the benchmarks and tests exercise)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Datatype:
    """An MPI basic datatype: name and byte extent."""

    name: str
    extent: int

    def bytes_for(self, count: int) -> int:
        if count < 0:
            raise ValueError("negative element count")
        return count * self.extent


BYTE = Datatype("MPI_BYTE", 1)
INT = Datatype("MPI_INT", 4)
FLOAT = Datatype("MPI_FLOAT", 4)
DOUBLE = Datatype("MPI_DOUBLE", 8)
LONG = Datatype("MPI_LONG", 8)

ALL_TYPES = (BYTE, INT, FLOAT, DOUBLE, LONG)
