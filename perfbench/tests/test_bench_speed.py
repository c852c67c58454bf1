"""Scaling operation times by the interleaved speed probe.

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import speed  # noqa: E402


class _ScriptedProbe:
    """Returns the given probe times in order."""

    def __init__(self, times):
        self.times = list(times)
        self.calls = 0

    def run(self):
        self.calls += 1
        return self.times.pop(0)


def test_each_stretch_is_scaled_by_its_bracketing_probes():
    # probes: 1.0 at the start, 3.0 once EVERY_MS of work has run, 2.0 at
    # the end
    probe = _ScriptedProbe([1.0, 3.0, 2.0])
    clock = speed.Clock(probe)
    first, second = speed.EVERY_MS * 0.4, speed.EVERY_MS * 0.6
    for ms in (first, second, 8.0):
        clock.add(ms)
    scaled = clock.finish()
    nominal = speed.NOMINAL_MS
    assert scaled == pytest.approx([first * nominal / 2.0,
                                    second * nominal / 2.0,
                                    8.0 * nominal / 2.5])
    assert clock.raw == [first, second, 8.0]
    assert clock.probes == [1.0, 3.0, 2.0]


def test_a_machine_twice_as_slow_reads_the_same():
    fast = speed.Clock(_ScriptedProbe([1.0] * 20))
    slow = speed.Clock(_ScriptedProbe([2.0] * 20))
    for ms in (10.0, 20.0, 30.0, 40.0, 5.0):
        fast.add(ms)
        slow.add(2 * ms)
    assert fast.finish() == pytest.approx(slow.finish())


def test_scaled_runs_the_work_between_two_probes():
    probe = _ScriptedProbe([4.0, 4.0])
    result, seconds = speed.scaled(probe, lambda: "done")
    assert result == "done"
    assert probe.calls == 2
    assert 0.0 <= seconds < 0.01


def test_probe_is_deterministic_work():
    probe = speed.Probe()
    assert probe.reached > speed.PROBE_NODES // 2
    assert all(probe.run() > 0.0 for _ in range(3))
