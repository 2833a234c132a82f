"""Unit tests for the :mod:`repro.api` registry and spec layer."""

import pytest

from repro.analysis import HBAnalysis, MAZAnalysis, SHBAnalysis
from repro.api import AnalysisSpec, coerce_spec, parse_spec
from repro.api.registry import CLOCKS, ORDERS, Registry, clock_class, order_class
from repro.clocks import TreeClock, VectorClock


class TestRegistry:
    def test_seeded_orders(self):
        assert ORDERS.get("HB") is HBAnalysis
        assert ORDERS.get("shb") is SHBAnalysis
        assert ORDERS.get("Maz") is MAZAnalysis
        assert ORDERS.names() == ["HB", "MAZ", "SHB"]

    def test_seeded_clocks_and_aliases(self):
        assert CLOCKS.get("TC") is TreeClock
        assert CLOCKS.get("vc") is VectorClock
        assert CLOCKS.get("treeclock") is TreeClock
        assert CLOCKS.get("vector") is VectorClock

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown partial order"):
            ORDERS.get("CP")
        with pytest.raises(ValueError, match="unknown clock"):
            CLOCKS.get("hybrid")

    def test_contains_is_case_insensitive(self):
        assert "hb" in ORDERS and "HB" in ORDERS
        assert "nope" not in ORDERS

    def test_register_and_resolve_through_every_surface(self):
        registry = Registry("thing")

        class Thing:
            pass

        registry.register("X", Thing, aliases=("ex",))
        assert registry.get("x") is Thing
        assert registry.get("EX") is Thing
        assert registry.canonical("ex") == "X"

    def test_reregistration_is_idempotent_but_conflicts_raise(self):
        registry = Registry("thing")

        class A:
            pass

        class B:
            pass

        registry.register("X", A)
        registry.register("X", A)  # same class: fine
        with pytest.raises(ValueError, match="already registered"):
            registry.register("X", B)
        registry.register("X", B, overwrite=True)
        assert registry.get("x") is B

    def test_lookups_resolve_registered_orders(self):
        assert order_class("hb") is HBAnalysis
        assert clock_class("tc") is TreeClock

        class FakeOrder:
            PARTIAL_ORDER = "FAKE"

        ORDERS.register("FAKE", FakeOrder)
        try:
            assert order_class("fake") is FakeOrder
        finally:
            ORDERS._classes.pop("FAKE")
            ORDERS._aliases.pop("FAKE")


class TestParseSpec:
    def test_defaults(self):
        spec = parse_spec("hb")
        assert spec == AnalysisSpec()
        assert (spec.order, spec.clock, spec.detect) == ("HB", "TC", False)

    def test_full_spec(self):
        spec = parse_spec("shb+vc+detect+ts+work")
        assert spec.order == "SHB" and spec.clock == "VC"
        assert spec.detect and spec.timestamps and spec.work and spec.keep_races

    def test_flag_aliases(self):
        assert parse_spec("hb+races").detect
        assert parse_spec("hb+analysis").detect
        assert parse_spec("hb+timestamps").timestamps
        assert not parse_spec("hb+countonly").keep_races

    def test_token_order_and_case_do_not_matter(self):
        assert parse_spec("detect+VC+MAZ") == parse_spec("maz+vc+detect")

    def test_clock_only_spec_defaults_the_order(self):
        spec = parse_spec("vc")
        assert spec.order == "HB" and spec.clock == "VC"

    def test_rejects_unknown_tokens(self):
        with pytest.raises(ValueError, match="unknown spec token"):
            parse_spec("hb+warp")

    def test_unknown_token_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            parse_spec("hb+warp")
        message = str(excinfo.value)
        assert "'warp'" in message
        assert "partial orders" in message and "clocks" in message and "flags" in message
        for name in ORDERS.names():
            assert name.lower() in message
        for name in CLOCKS.names():
            assert name.lower() in message
        assert "detect" in message

    def test_rejects_duplicate_orders_and_clocks(self):
        with pytest.raises(ValueError, match="two partial orders"):
            parse_spec("hb+shb")
        with pytest.raises(ValueError, match="two clocks"):
            parse_spec("hb+tc+vc")

    def test_duplicate_error_names_both_offenders(self):
        with pytest.raises(ValueError, match="'hb' and 'shb'"):
            parse_spec("hb+shb")

    def test_rejects_empty_tokens(self):
        with pytest.raises(ValueError, match="empty token"):
            parse_spec("hb++tc")

    @pytest.mark.parametrize("malformed", ["hb+", "+hb", "++", "+", ""])
    def test_rejects_dangling_separators(self, malformed):
        with pytest.raises(ValueError, match="empty token"):
            parse_spec(malformed)

    def test_empty_token_error_explains_the_format(self):
        with pytest.raises(ValueError, match="hb\\+tc\\+detect"):
            parse_spec("hb+")

    @pytest.mark.parametrize("malformed", ["bogus", "hb+tc+bogus", "detect+nope"])
    def test_rejects_unknown_names_everywhere(self, malformed):
        with pytest.raises(ValueError, match="unknown spec token"):
            parse_spec(malformed)


class TestSpecRoundTrip:
    ALL_SPECS = [
        AnalysisSpec(order=order, clock=clock, detect=detect, timestamps=ts, work=work, keep_races=keep)
        for order in ("HB", "SHB", "MAZ")
        for clock in ("TC", "VC")
        for detect in (False, True)
        for ts in (False, True)
        for work in (False, True)
        for keep in (True, False)
    ]

    def test_key_round_trips_for_every_combination(self):
        for spec in self.ALL_SPECS:
            assert parse_spec(spec.key) == spec, spec.key

    def test_key_is_canonical_and_hashable(self):
        assert AnalysisSpec(order="hb", clock="treeclock") == AnalysisSpec(order="HB", clock="TC")
        assert len({spec.key for spec in self.ALL_SPECS}) == len(self.ALL_SPECS)

    def test_str_and_label(self):
        spec = AnalysisSpec(order="SHB", clock="VC", detect=True)
        assert str(spec) == "shb+vc+detect"
        assert spec.label == "SHB/VC"

    def test_with_updates(self):
        spec = AnalysisSpec().with_updates(detect=True, clock="VC")
        assert spec == AnalysisSpec(clock="VC", detect=True)


class TestCoerceAndBuild:
    def test_coerce_accepts_spec_and_string(self):
        spec = AnalysisSpec(order="SHB")
        assert coerce_spec(spec) is spec
        assert coerce_spec("shb") == spec

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError):
            coerce_spec(42)

    def test_build_wires_the_analysis(self):
        analysis = parse_spec("shb+vc+detect+work+countonly").build()
        assert isinstance(analysis, SHBAnalysis)
        assert analysis.clock_class is VectorClock
        assert analysis.detect and analysis.count_work
        assert not analysis.keep_races and not analysis.capture_timestamps
