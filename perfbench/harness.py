"""Rounds: replay one operation sequence several times across the run.

A workload object provides ``round(recorder)`` returning a :class:`Round`
(``recorder`` is ``None`` for an untraced round) and ``peak_rss_mb()``.
:func:`drive` keeps starting rounds until the run's time is spent, and
:func:`summarize` turns the untraced rounds into the end-to-end metrics.
Operation times are scaled to the reference speed (:mod:`speed`).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional

import summary
from spans import Recorder

#: the paper's interactive budgets (Sec. 5): 100 ms for argument queries,
#: 500 ms for method-name and lookup queries
BUDGET_MS = {"methods": 500.0, "arguments": 100.0,
             "assignments": 500.0, "comparisons": 500.0}

#: untraced rounds a run needs at least (per-operation medians)
MIN_ROUNDS = 3
#: traced rounds a traced run needs at least
MIN_TRACED_ROUNDS = 2


class Round:
    """One replay of the sequence."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        #: per-operation latency (scaled), in sequence order
        self.op_ms: List[float] = []
        #: per-operation deterministic outcome: (ok, top-10 hit or None)
        self.outcomes: List[tuple] = []
        #: the round's time: the sum of its scaled operation times
        self.wall_s = 0.0
        #: exact work counters (engine steps, cache counters)
        self.counters: Dict[str, float] = {}
        #: per-layer values measured in this round
        self.layers: Dict[str, float] = {}
        #: the speed probes taken during the round, in ms
        self.probe_ms: List[float] = []

    def close(self, clock) -> None:
        """Take the scaled operation times from a :class:`speed.Clock`."""
        self.op_ms = clock.finish()
        self.wall_s = sum(self.op_ms) / 1000.0
        self.probe_ms = clock.probes


def drive(workload, seconds: float, trace: bool) -> List[Round]:
    """Run rounds until ``seconds`` are spent; with ``trace``, every
    other round is traced so both kinds see the same machine state."""
    started = time.perf_counter()
    rounds: List[Round] = []
    recorder = Recorder() if trace else None
    while True:
        traced = trace and len(rounds) % 2 == 1
        round_started = time.perf_counter()
        rounds.append(workload.round(recorder if traced else None))
        now = time.perf_counter()
        plain = sum(1 for r in rounds if not r.traced)
        traced_count = len(rounds) - plain
        enough = plain >= MIN_ROUNDS and (
            not trace or traced_count >= MIN_TRACED_ROUNDS)
        if enough and (now - started) + (now - round_started) > seconds:
            break
    workload.recorder = recorder
    return rounds


def consistency_failures(rounds: List[Round]) -> List[str]:
    """Rounds of one kind must repeat their outcomes and counters
    exactly; returns what differed."""
    problems: List[str] = []
    for traced in (False, True):
        group = [r for r in rounds if r.traced == traced]
        for other in group[1:]:
            if other.outcomes != group[0].outcomes:
                problems.append("answers differ between rounds")
            if other.counters != group[0].counters:
                problems.append("work counters differ between rounds: "
                                "{} vs {}".format(group[0].counters,
                                                  other.counters))
    return problems


def summarize(rounds: List[Round], families: List[Optional[str]],
              setup_samples: List[float], peak_rss_mb: float,
              tally: summary.Tally) -> Dict[str, float]:
    """End-to-end metrics from the untraced rounds.

    ``families`` names each operation's query family, or ``None`` for an
    operation that is not a query (an edit).  Every operation of the
    first round is counted once in ``tally``.
    """
    plain = [r for r in rounds if not r.traced]
    op_ms = summary.round_medians([r.op_ms for r in plain])
    first = plain[0]
    queries = within = hits = 0
    for family, ms, (ok, hit) in zip(families, op_ms, first.outcomes):
        tally.check(ok, "operation failed")
        if family is None:
            continue
        queries += 1
        if ok and ms <= BUDGET_MS[family]:
            within += 1
        if hit:
            hits += 1
    metrics = summary.latency_summary(op_ms)
    metrics.update({
        "throughput_ops": summary.throughput(
            len(op_ms), [r.wall_s for r in plain]),
        "within_budget": within / queries,
        "top10_share": hits / queries,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
    })
    return metrics


def layer_medians(rounds: List[Round]) -> Dict[str, float]:
    """Median of each per-round layer value over the untraced rounds
    (spans add their own cost to whatever they enclose)."""
    plain = [r for r in rounds if not r.traced]
    names = sorted({name for r in plain for name in r.layers})
    return {name: statistics.median(r.layers.get(name, 0.0) for r in plain)
            for name in names}


def overhead_pct(rounds: List[Round]) -> float:
    """Traced over untraced median round time, as a percentage."""
    plain = statistics.median(r.wall_s for r in rounds if not r.traced)
    traced = statistics.median(r.wall_s for r in rounds if r.traced)
    return (traced / plain - 1.0) * 100.0
