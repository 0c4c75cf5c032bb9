"""The ``op_ms`` estimator and the unit timer, on hand-built readings."""

import pytest

from attribution import Spans
from hostspeed import Unit, UnitTimer, lower_quartile, reference_ms


class FakeProbe:
    """A probe whose readings are scripted."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def slowdown(self, samples=1):
        return next(self._readings)


def _units(kind, walls, slowdown=1.0):
    return [Unit(i, kind, w, slowdown, slowdown) for i, w in enumerate(walls)]


def test_lower_quartile_is_an_order_statistic():
    assert lower_quartile([4.0, 1.0, 3.0, 2.0, 5.0]) == 2.0
    assert lower_quartile([7.0]) == 7.0
    assert lower_quartile([2.0, 1.0]) == 1.0


def test_reference_ms_ignores_stalls_but_not_a_lasting_slowdown():
    quiet = _units("step", [0.010] * 40)
    stalled = _units("step", [0.010, 0.030, 0.010, 0.050] * 10)
    slower = _units("step", [0.012] * 40)
    assert reference_ms(quiet) == pytest.approx(10.0)
    assert reference_ms(stalled) == pytest.approx(10.0)
    assert reference_ms(slower) == pytest.approx(12.0)


def test_reference_ms_divides_out_the_host_slowdown():
    # The host ran 1.5x slow for the whole run, or only for its second
    # half: the readings around each unit take it back out.
    assert reference_ms(_units("step", [0.015] * 40, 1.5)) == (
        pytest.approx(10.0))
    mixed = _units("step", [0.010] * 20) + _units("step", [0.015] * 20, 1.5)
    assert reference_ms(mixed) == pytest.approx(10.0)
    # A unit that straddles the change sits between the two readings.
    assert Unit(0, "step", 0.0125, 1.0, 1.5).slowdown == pytest.approx(1.25)
    # A real 1.5x slowdown of the program is not explained away.
    assert reference_ms(_units("step", [0.015] * 40)) == pytest.approx(15.0)


def test_reference_ms_sums_over_the_kinds_of_unit_in_an_op():
    units = (_units("alexnet", [0.002, 0.002, 0.002, 0.009])
             + _units("resnet152", [0.200, 0.200, 0.450, 0.200]))
    assert reference_ms(units) == pytest.approx(202.0)


def test_unit_timer_brackets_every_unit_with_probe_readings():
    timer = UnitTimer(FakeProbe([1.0, 1.2, 1.4, 2.0]))
    for op in range(3):
        timer.op = op // 2
        with timer.unit("step"):
            pass
    assert [(u.op, u.kind, u.before, u.after) for u in timer.units] == [
        (0, "step", 1.0, 1.2), (0, "step", 1.2, 1.4), (1, "step", 1.4, 2.0)]
    assert len(timer.op_wall_s()) == 2


def test_unit_timer_records_a_failed_unit_and_the_traced_span():
    spans = Spans()
    spans.op = 0
    timer = UnitTimer(FakeProbe([1.0, 1.0]), spans)
    with pytest.raises(RuntimeError):
        with timer.unit("graph-100"):
            raise RuntimeError("oracle blew up")
    assert len(timer.units) == 1
    assert spans.to_json()[0]["name"] == "op"
    assert spans.to_json()[0]["end_s"] is not None
