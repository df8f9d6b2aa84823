"""``DistArray``: a block-distributed global array (X10's ``DistArray``).

The *data* lives in one NumPy array (the simulator runs in one address
space); the *placement* is a block distribution over places, with one
:class:`~repro.cluster.memory.DataBlock` per (place, array) chunk so tasks
can declare which chunks they read and write and have those touches priced
by the memory model — exactly the information an X10 programmer reasons
about when deciding which tasks are locality-flexible (§III).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.apgas.api import Apgas
from repro.cluster.memory import DataBlock, block_distribution
from repro.errors import ConfigError


class DistArray:
    """A 1-D distributed array with block placement."""

    def __init__(self, apgas: Apgas, data: np.ndarray,
                 bytes_per_element: int, label: str = "distarray") -> None:
        if data.ndim != 1:
            raise ConfigError("DistArray is one-dimensional")
        self.apgas = apgas
        self.data = data
        self.label = label
        self.bytes_per_element = int(bytes_per_element)
        self.chunks: List[range] = block_distribution(len(data), apgas.n_places)
        self.blocks: List[DataBlock] = [
            apgas.alloc(p, len(chunk) * self.bytes_per_element,
                        label=f"{label}[p{p}]")
            for p, chunk in enumerate(self.chunks)
        ]

    # -- construction ------------------------------------------------------
    @classmethod
    def make(cls, apgas: Apgas, n: int,
             init: Optional[Callable[[int], float]] = None,
             dtype=np.float64, bytes_per_element: int = 8,
             label: str = "distarray") -> "DistArray":
        """X10's ``DistArray.make[T](Dist.makeBlock(R), init)``."""
        if n < 0:
            raise ConfigError(f"array size must be >= 0, got {n}")
        if init is None:
            data = np.zeros(n, dtype=dtype)
        else:
            data = np.fromiter((init(i) for i in range(n)), dtype=dtype,
                               count=n)
        return cls(apgas, data, bytes_per_element, label)

    @classmethod
    def from_numpy(cls, apgas: Apgas, array: np.ndarray,
                   bytes_per_element: Optional[int] = None,
                   label: str = "distarray") -> "DistArray":
        """Wrap an existing 1-D NumPy array."""
        bpe = bytes_per_element if bytes_per_element is not None \
            else array.dtype.itemsize
        return cls(apgas, np.asarray(array), bpe, label)

    # -- placement queries ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def chunk_of(self, place: int) -> range:
        """Index range homed at ``place``."""
        if not (0 <= place < len(self.chunks)):
            raise ConfigError(f"no such place: {place}")
        return self.chunks[place]

    def block_of(self, place: int) -> DataBlock:
        """The data block backing ``place``'s chunk."""
        if not (0 <= place < len(self.blocks)):
            raise ConfigError(f"no such place: {place}")
        return self.blocks[place]

    # -- data access (real values; pricing is declared on tasks) -----------------
    def __getitem__(self, index):
        return self.data[index]

    def __setitem__(self, index, value) -> None:
        self.data[index] = value

    def local_view(self, place: int) -> np.ndarray:
        """NumPy view of the chunk homed at ``place``."""
        chunk = self.chunk_of(place)
        return self.data[chunk.start:chunk.stop]
