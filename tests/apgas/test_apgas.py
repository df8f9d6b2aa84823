"""Tests for the APGAS programmer-facing layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterSpec, DistWS, SimRuntime
from repro.apgas import Apgas, DistArray, PlaceLocalHandle, any_place_task
from repro.apgas.annotations import is_any_place_task, resolve_locality
from repro.errors import ConfigError, PlacementError
from repro.runtime.task import FLEXIBLE, SENSITIVE


@pytest.fixture
def rt():
    spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
    return SimRuntime(spec, DistWS(), seed=0)


@pytest.fixture
def ap(rt):
    return Apgas(rt)


class TestAnnotations:
    def test_decorator_marks_body(self):
        @any_place_task
        def body(ctx):
            pass

        assert is_any_place_task(body)
        assert not is_any_place_task(lambda ctx: None)
        assert not is_any_place_task(None)

    def test_resolution_precedence(self):
        @any_place_task
        def marked(ctx):
            pass

        assert resolve_locality(marked, None) is FLEXIBLE
        assert resolve_locality(marked, False) is SENSITIVE  # explicit wins
        assert resolve_locality(None, True) is FLEXIBLE
        assert resolve_locality(None, None) is SENSITIVE

    def test_async_at_respects_decorator(self, rt, ap):
        @any_place_task
        def body(ctx):
            pass

        t = ap.async_at(0, body, work=1000)
        assert t.is_flexible


class TestApgas:
    def test_places(self, ap):
        assert ap.n_places == 4
        assert list(ap.places()) == [0, 1, 2, 3]

    def test_alloc_homes_block(self, ap):
        b = ap.alloc(2, 128, "x")
        assert b.home_place == 2

    def test_finish_scope_parenting(self, rt, ap):
        scope = ap.finish("phase")
        assert scope.parent is rt.root_finish

    def test_rng_deterministic(self, ap):
        a = ap.rng("x").integers(0, 100, 5)
        spec = ClusterSpec(n_places=4, workers_per_place=2, max_threads=4)
        ap2 = Apgas(SimRuntime(spec, DistWS(), seed=0))
        b = ap2.rng("x").integers(0, 100, 5)
        assert np.array_equal(a, b)


class TestDistArray:
    def test_make_with_init(self, ap):
        arr = DistArray.make(ap, 10, init=lambda i: i * 2.0)
        assert arr[4] == 8.0
        assert len(arr) == 10

    def test_from_numpy(self, ap):
        data = np.arange(12, dtype=np.float64)
        arr = DistArray.from_numpy(ap, data)
        assert arr.bytes_per_element == 8
        assert np.array_equal(arr.local_view(0), data[:3])

    def test_placement_queries(self, ap):
        arr = DistArray.make(ap, 8)
        assert arr.chunk_of(1) == range(2, 4)
        assert arr.block_of(2).home_place == 2

    def test_out_of_range_rejected(self, ap):
        arr = DistArray.make(ap, 8)
        with pytest.raises(ConfigError):
            arr.chunk_of(9)

    def test_multidim_rejected(self, ap):
        with pytest.raises(ConfigError):
            DistArray(ap, np.zeros((3, 3)), 8)

    def test_setitem(self, ap):
        arr = DistArray.make(ap, 4)
        arr[2] = 9.0
        assert arr[2] == 9.0


class TestPlaceLocalHandle:
    def test_factory_initialisation(self):
        plh = PlaceLocalHandle(3, factory=lambda p: {"place": p})
        assert plh.at(2) == {"place": 2}

    def test_set_and_items(self):
        plh = PlaceLocalHandle(2)
        assert list(plh.items()) == []
        plh.set(0, "a")
        plh.set(1, "b")
        assert list(plh.items()) == [(0, "a"), (1, "b")]

    def test_missing_value_rejected(self):
        plh = PlaceLocalHandle(2)
        with pytest.raises(PlacementError):
            plh.at(1)

    def test_bad_place_rejected(self):
        plh = PlaceLocalHandle(2)
        with pytest.raises(PlacementError):
            plh.at(5)
        with pytest.raises(PlacementError):
            PlaceLocalHandle(0)
