"""Unit and property tests for deterministic RNG streams."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_distinct_paths_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_distinct_roots_distinct_seeds(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_fits_63_bits(self):
        for i in range(50):
            assert 0 <= derive_seed(i, "n") < 2**63

    @settings(max_examples=50, deadline=None)
    @given(root=st.integers(min_value=0, max_value=2**31),
           names=st.lists(st.text(max_size=8), max_size=4))
    def test_stable_under_repetition(self, root, names):
        assert derive_seed(root, *names) == derive_seed(root, *names)


class TestRngStreams:
    def test_same_path_same_generator_object(self):
        rngs = RngStreams(3)
        assert rngs.stream("a", 1) is rngs.stream("a", 1)

    def test_different_paths_independent(self):
        rngs = RngStreams(3)
        a = rngs.stream("a").integers(0, 1_000_000, size=10)
        b = rngs.stream("b").integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_reproducible_across_instances(self):
        a = RngStreams(9).stream("w", 2).integers(0, 1000, size=20)
        b = RngStreams(9).stream("w", 2).integers(0, 1000, size=20)
        assert np.array_equal(a, b)

    def test_consuming_one_stream_leaves_others_alone(self):
        rngs1 = RngStreams(5)
        rngs1.stream("noise").integers(0, 10, size=100)  # consume
        x1 = rngs1.stream("signal").integers(0, 1000, size=10)

        rngs2 = RngStreams(5)
        x2 = rngs2.stream("signal").integers(0, 1000, size=10)
        assert np.array_equal(x1, x2)
