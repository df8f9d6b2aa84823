"""ParamSpace validation: knobs reject bad values, spaces stay typed."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError
from repro.sched import SCHEDULERS, make_scheduler
from repro.tune import (
    SCHEDULER_KNOBS,
    Knob,
    ParamSpace,
    accepted_kwargs,
    knob_table,
    parse_sched_args,
    parse_sched_args_any,
    union_knob_names,
)


class TestKnob:
    def test_int_out_of_range_rejected(self):
        k = Knob("chunk", "int", default=2, lo=1, hi=16)
        with pytest.raises(ConfigError, match="out of range"):
            k.validate(0)
        with pytest.raises(ConfigError, match="out of range"):
            k.validate(17)
        assert k.validate(16) == 16

    def test_int_rejects_bool_and_float(self):
        k = Knob("chunk", "int", default=2, lo=1, hi=16)
        with pytest.raises(ConfigError):
            k.validate(True)
        with pytest.raises(ConfigError):
            k.validate(2.5)

    def test_float_range_and_coercion(self):
        k = Knob("base", "float", default=400.0, lo=50.0, hi=50_000.0)
        assert k.validate(100) == 100.0
        with pytest.raises(ConfigError):
            k.validate(49.9)

    def test_categorical_choices(self):
        k = Knob("order", "categorical", default="random",
                 choices=("random", "nearest"))
        assert k.validate("nearest") == "nearest"
        with pytest.raises(ConfigError, match="not one of"):
            k.validate("fastest")

    def test_parse_reports_configerror_not_valueerror(self):
        k = Knob("chunk", "int", default=2, lo=1, hi=16)
        with pytest.raises(ConfigError, match="cannot parse"):
            k.parse("two")

    def test_bool_parse_spellings(self):
        k = Knob("fifo", "bool", default=True)
        assert k.parse("yes") is True
        assert k.parse("0") is False
        with pytest.raises(ConfigError):
            k.parse("maybe")

    def test_sample_stays_in_range(self):
        rng = random.Random(0)
        for k in SCHEDULER_KNOBS["DistWS"]:
            for _ in range(50):
                k.validate(k.sample(rng))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown knob kind"):
            Knob("x", "enum", choices=("a",))


class TestScheduleKnobTables:
    def test_every_registered_scheduler_has_knobs(self):
        assert set(SCHEDULER_KNOBS) == set(SCHEDULERS)

    def test_every_knob_is_a_constructor_kwarg(self):
        """Each declared knob must be accepted by the scheduler ctor."""
        for sched, knobs in SCHEDULER_KNOBS.items():
            config = {}
            rng = random.Random(1)
            for k in knobs:
                config[k.name] = k.sample(rng)
            make_scheduler(sched, **config)

    def test_declared_defaults_match_class_attributes(self):
        for sched, knobs in SCHEDULER_KNOBS.items():
            instance = make_scheduler(sched)
            for k in knobs:
                if k.default is None:
                    continue
                assert getattr(instance, k.name) == k.default, \
                    f"{sched}.{k.name}"

    def test_every_other_knob_is_rejected_at_construction(self):
        """The other direction: a knob outside a scheduler's table is a
        ConfigError naming the scheduler, never a silent no-op or a
        TypeError from a constructor signature."""
        union = union_knob_names()
        for sched, knobs in SCHEDULER_KNOBS.items():
            own = {k.name for k in knobs}
            for name, knob in union.items():
                if name in own:
                    continue
                value = knob.grid_points()[0]
                with pytest.raises(ConfigError, match=repr(sched)):
                    make_scheduler(sched, **{name: value})

    def test_each_knob_is_declared_once(self):
        """Every table that lists a knob holds the same Knob object."""
        by_name = {}
        for knobs in SCHEDULER_KNOBS.values():
            for k in knobs:
                assert by_name.setdefault(k.name, k) is k, k.name

    def test_table_order_is_search_order(self):
        """Grid and random search walk knobs in table order."""
        idle = ["idle_threshold", "idle_backoff_base", "idle_backoff_cap"]
        assert {s: [k.name for k in knob_table(s)][3:]
                for s in SCHEDULERS} == {
            "X10WS": [],
            "DistWS": ["remote_chunk_size", "victim_order",
                       "underutil_threshold", "shared_fifo"],
            "DistWS-NS": ["remote_chunk_size"],
            "RandomWS": ["attempts_per_round"],
            "Lifeline": ["attempts_per_round"],
            "AdaptiveDistWS": ["remote_chunk_size", "victim_order",
                               "underutil_threshold", "min_work",
                               "max_bytes_per_kcycle", "shared_fifo"],
            "StealHalfWS": ["victim_order", "underutil_threshold",
                            "shared_fifo"],
            "MultiStealWS": ["remote_chunk_size", "victim_order",
                             "underutil_threshold", "shared_fifo",
                             "steal_width"],
            "LocalizedWS": ["remote_chunk_size", "underutil_threshold",
                            "steal_radius", "radius_strikes"],
        }
        for sched in SCHEDULERS:
            assert [k.name for k in knob_table(sched)][:3] == idle

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError, match="no knob table"):
            knob_table("TurboWS")


class TestParamSpace:
    def test_unknown_knob_in_config_rejected(self):
        with pytest.raises(ConfigError, match="unknown knob"):
            make_scheduler("DistWS", warp_factor=9)

    def test_out_of_range_config_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            make_scheduler("DistWS", remote_chunk_size=99)

    def test_restricted_space_rejects_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown knob"):
            ParamSpace.for_scheduler("DistWS", names=["chunky"])

    def test_sample_assigns_every_knob(self):
        space = ParamSpace.for_scheduler("DistWS",
                                         names=["remote_chunk_size",
                                                "victim_order"])
        config = space.sample(random.Random(3))
        assert set(config) == {"remote_chunk_size", "victim_order"}
        make_scheduler("DistWS", **config)

    def test_grid_is_cartesian_and_deterministic(self):
        space = ParamSpace.for_scheduler("DistWS",
                                         names=["remote_chunk_size",
                                                "victim_order"])
        grid = list(space.grid())
        assert len(grid) == 4 * 2
        assert grid == list(space.grid())
        assert grid[0] == {"remote_chunk_size": 1,
                           "victim_order": "random"}


class TestSchedArgParsing:
    def test_parses_typed_values(self):
        config = parse_sched_args(
            "DistWS", ["remote_chunk_size=4", "victim_order=nearest",
                       "shared_fifo=false"])
        assert config == {"remote_chunk_size": 4,
                          "victim_order": "nearest",
                          "shared_fifo": False}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_sched_args("DistWS", ["remote_chunk_size"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown knob"):
            parse_sched_args("DistWS", ["warp=1"])

    def test_empty_returns_none(self):
        assert parse_sched_args("DistWS", []) is None
        assert parse_sched_args("DistWS", None) is None

    def test_union_parser_accepts_any_scheduler_knob(self):
        config = parse_sched_args_any(
            ["remote_chunk_size=4", "min_work=100000",
             "attempts_per_round=3"])
        assert config["remote_chunk_size"] == 4
        with pytest.raises(ConfigError, match="unknown knob"):
            parse_sched_args_any(["warp=1"])

    def test_accepted_kwargs_filters_per_scheduler(self):
        config = {"remote_chunk_size": 4, "min_work": 100_000.0,
                  "attempts_per_round": 3}
        assert accepted_kwargs("X10WS", config) is None
        assert accepted_kwargs("DistWS", config) == {
            "remote_chunk_size": 4}
        assert accepted_kwargs("AdaptiveDistWS", config) == {
            "remote_chunk_size": 4, "min_work": 100_000.0}
        assert accepted_kwargs("RandomWS", config) == {
            "attempts_per_round": 3}
        assert accepted_kwargs("DistWS", {}) is None
        assert accepted_kwargs("DistWS", None) is None
