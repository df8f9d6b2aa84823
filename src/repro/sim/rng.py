"""Deterministic random-number streams.

Every stochastic decision in the simulator (victim selection, workload
synthesis, app inputs) draws from a named substream derived from a single
experiment seed, so that (a) runs are bit-reproducible and (b) changing one
component's consumption pattern does not perturb any other component's
stream — a standard requirement for comparable discrete-event experiments.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a name path.

    The derivation hashes the textual path so that streams are independent
    of declaration order and stable across runs and platforms.
    """
    text = f"{int(root_seed)}/" + "/".join(str(n) for n in names)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


class RngStreams:
    """A factory of independent named :class:`numpy.random.Generator` streams."""

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, *names: object) -> np.random.Generator:
        """Return the generator for the given name path, creating it once.

        Repeated calls with the same path return the *same* generator object,
        so consumption state is shared along a path but isolated across paths.
        """
        key = "/".join(str(n) for n in names)
        gen = self._cache.get(key)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.root_seed, *names))
            self._cache[key] = gen
        return gen
