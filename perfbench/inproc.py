"""The in-process workloads: ``cold`` and ``edit``.

Both call the public API (``repro.api``) the way an embedding IDE would.
A traced round instead calls each layer's public function itself --
``parse`` -> ``CompletionEngine.complete_query`` -> ``to_source`` -- with
a span around each call; the self time of the enclosing ``ide.session``
span is the scope set-up the session layer does.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from typing import Dict, List, Optional, Tuple

import checks
import gen
import speed
from harness import Round
from spans import Recorder

#: cold: the fixed query set, per family.  Full garbage collections land
#: on different queries in different orders and change a round's time by
#: up to ~15%; with 440 queries a round averages over about fourteen of
#: them (round time spread between orders 0.03, against 0.08 with 220)
COLD_SET = {"methods": 140, "arguments": 80, "assignments": 140,
            "comparisons": 80}
#: edit: hot-set size per family (kept well under the 512-entry stream
#: cache), sequence length, and one member edit every EDIT_EVERY ops
EDIT_HOT = {"methods": 30, "assignments": 30}
EDIT_OPS = 1000
EDIT_EVERY = 10
#: set-ups measured before the rounds
SETUPS = 5
#: Zipf exponent of the replayed hot mixes
ZIPF_S = 1.1

#: exact cache counters reported per round (deltas of ``cache_stats()``)
CACHE_COUNTERS = ("stream_hits", "stream_misses", "placement_hits",
                  "placement_misses", "roots_hits", "roots_misses",
                  "evictions", "entries_dropped", "entries_preserved",
                  "invalidations_fine", "invalidations_coarse")


def zipf_sequence(rng: random.Random, size: int, length: int,
                  s: float = ZIPF_S) -> List[int]:
    """``length`` draws from a Zipf(``s``) law over ``size`` ranks."""
    weights = [1.0 / (rank ** s) for rank in range(1, size + 1)]
    return rng.choices(range(size), weights=weights, k=length)


def rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _InProcess:
    """Shared machinery: opening workspaces from packs and running one
    query through the API or, traced, through each layer."""

    def __init__(self, inputs: dict, probe: speed.Probe) -> None:
        self.packs: Dict[str, str] = inputs["packs"]
        self.probe = probe
        self.recorder: Optional[Recorder] = None
        self.setup_samples: List[float] = []
        #: (completions, universe) pairs for the well-typedness check
        self.checked: List[tuple] = []
        #: served answers that differ from in-process ones (``serve`` only)
        self.mismatches: List[str] = []

    def open_workspaces(self, result: Round) -> Dict[str, object]:
        """Fresh workspaces from the packs; the set-up time is pack
        loading plus ``engine.warm()``."""
        from repro import api

        marks: List[float] = []

        def set_up():
            marks.append(time.perf_counter())
            workspaces = {name: api.load_pack(path)
                          for name, path in sorted(self.packs.items())}
            marks.append(time.perf_counter())
            for workspace in workspaces.values():
                workspace.engine.warm()
            marks.append(time.perf_counter())
            return workspaces

        # collect the previous round's workspaces outside the timing
        gc.collect()
        workspaces, setup_s = speed.scaled(self.probe, set_up)
        self.setup_samples.append(setup_s)
        result.layers["pack.load_ms"] = (marks[1] - marks[0]) * 1000.0
        result.layers["engine.warm_ms"] = (marks[2] - marks[1]) * 1000.0
        return workspaces

    @staticmethod
    def cache_counters(workspaces: Dict[str, object]) -> Dict[str, float]:
        totals = {name: 0 for name in CACHE_COUNTERS}
        for workspace in workspaces.values():
            stats = workspace.cache_stats() or {}
            for name in CACHE_COUNTERS:
                totals[name] += stats.get(name, 0)
        return totals

    def query(self, workspace, query: dict, op: int,
              recorder: Optional[Recorder]) -> Tuple[bool, bool, int, list]:
        """Run one query; returns (ok, top-10 hit, steps, completions)."""
        if recorder is None:
            from repro import api

            record = api.complete(workspace, query["text"],
                                  locals=query["locals"],
                                  this=query["this"], n=10)
            if record.error is not None:
                return False, False, 0, []
            exprs = [s.expr for s in record.suggestions]
            texts = [s.text for s in record.suggestions]
            ok = record.truncated is None
            steps = record.steps
        else:
            from repro.lang.parser import ParseError, parse
            from repro.lang.printer import to_source

            with recorder.span("ide.session", op):
                context = workspace.context(
                    locals={name: workspace.resolve_type(type_name)
                            for name, type_name in query["locals"].items()},
                    this_type=(workspace.resolve_type(query["this"])
                               if query["this"] is not None else None))
                try:
                    with recorder.span("lang.parse", op):
                        pe = parse(query["text"], context)
                except ParseError:
                    return False, False, 0, []
                with recorder.span("engine.query", op):
                    outcome = workspace.engine.complete_query(
                        pe, context, n=10)
                with recorder.span("lang.print", op):
                    texts = [to_source(c.expr) for c in outcome.completions]
            exprs = [c.expr for c in outcome.completions]
            ok = outcome.status.truncation is None
            steps = outcome.steps
        return ok, checks.expected_hit(query, texts, exprs), steps, exprs

    def start(self) -> None:
        """Set up ``SETUPS`` times before the rounds (each round sets up
        once more), so ``setup_s`` is a median of many start-ups."""
        for _ in range(SETUPS):
            self.open_workspaces(Round(False))

    def stop(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return rss_mb()


class Cold(_InProcess):
    """The paper's own traffic: a fixed stratified set of corpus queries,
    in a seeded order, against fresh workspaces every round."""

    def __init__(self, inputs: dict, seed: int, probe: speed.Probe) -> None:
        super().__init__(inputs, probe)
        # the set is fixed: query cost is heavy-tailed (argument queries
        # run from ~1 ms to ~900 ms), so a per-seed sample of this size
        # would move throughput by ~20% between seeds; the seed orders it
        self.ops = gen.sample(inputs["queries"], COLD_SET, "cold")
        random.Random("cold-order:{}".format(seed)).shuffle(self.ops)
        self.families = [q["family"] for q in self.ops]

    def round(self, recorder: Optional[Recorder]) -> Round:
        result = Round(recorder is not None)
        workspaces = self.open_workspaces(result)
        collect = not self.checked
        steps = 0
        clock = speed.Clock(self.probe)
        for op, query in enumerate(self.ops):
            workspace = workspaces[query["project"]]
            t0 = time.perf_counter()
            ok, hit, op_steps, exprs = self.query(
                workspace, query, op, recorder)
            clock.add((time.perf_counter() - t0) * 1000.0)
            result.outcomes.append((ok, hit))
            steps += op_steps
            if collect and op % 10 == 0:
                self.checked.append((exprs, workspace.ts))
        result.close(clock)
        result.counters = self.cache_counters(workspaces)
        result.counters["engine.steps"] = steps
        return result


class Edit(_InProcess):
    """Writes beside reads: a seeded Zipf replay over a small hot set on
    warm workspaces, with a seeded member edit every ``EDIT_EVERY``-th
    operation.  Every round restarts from the packs."""

    def __init__(self, inputs: dict, seed: int, probe: speed.Probe) -> None:
        super().__init__(inputs, probe)
        rng = random.Random("edit:{}".format(seed))
        # a fixed hot set in a fixed popularity order, for the reason the
        # cold set is fixed; the seed draws the sequence and the edits
        hot = gen.sample(inputs["queries"], EDIT_HOT, "edit-hot")
        draws = zipf_sequence(rng, len(hot), EDIT_OPS)
        self.ops: List[dict] = []
        for index, rank in enumerate(draws):
            if index % EDIT_EVERY == EDIT_EVERY - 1:
                # a member of a seeded type of the project being queried;
                # the types are picked when the universe is open, as
                # fractions of its sorted type list.  (Editing a type in
                # the next query's scope instead put about half of all
                # reads out of the cache, and p50 on the cliff between
                # hits and misses: it read 0.29-0.77 ms across seeds.)
                self.ops.append({
                    "edit": "field" if rng.random() < 0.5 else "method",
                    "project": hot[rank]["project"],
                    "type": rng.random(),
                    "member_type": rng.random(),
                    "name": "benchEdit{}".format(index),
                })
            else:
                self.ops.append(hot[rank])
        self.families = [op.get("family") for op in self.ops]
        self.hot = hot

    @staticmethod
    def _edit(workspace, types: list, op: dict) -> None:
        from repro.codemodel.members import Field, Method, Parameter

        typedef = types[int(op["type"] * len(types))]
        member_type = types[int(op["member_type"] * len(types))]
        if op["edit"] == "field":
            typedef.add_field(Field(op["name"], member_type))
        else:
            typedef.add_method(Method(op["name"], member_type,
                                      (Parameter("value", member_type),)))

    def round(self, recorder: Optional[Recorder]) -> Round:
        result = Round(recorder is not None)
        workspaces = self.open_workspaces(result)
        for query in self.hot:
            self.query(workspaces[query["project"]], query, -1, None)
        collect = not self.checked
        types = {name: sorted(workspace.ts.all_types(),
                              key=lambda t: t.full_name)
                 for name, workspace in workspaces.items()}
        before = self.cache_counters(workspaces)
        steps = 0
        edit_ms: List[float] = []
        requery_ms: List[float] = []
        after_edit = False
        clock = speed.Clock(self.probe)
        for op, entry in enumerate(self.ops):
            workspace = workspaces[entry["project"]]
            t0 = time.perf_counter()
            if "edit" in entry:
                project_types = types[entry["project"]]
                if recorder is not None:
                    with recorder.span("codemodel.edit", op):
                        self._edit(workspace, project_types, entry)
                else:
                    self._edit(workspace, project_types, entry)
                elapsed = (time.perf_counter() - t0) * 1000.0
                edit_ms.append(elapsed)
                clock.add(elapsed)
                result.outcomes.append((True, None))
                after_edit = True
                continue
            ok, hit, op_steps, exprs = self.query(
                workspace, entry, op, recorder)
            elapsed = (time.perf_counter() - t0) * 1000.0
            clock.add(elapsed)
            result.outcomes.append((ok, hit))
            steps += op_steps
            if after_edit:
                requery_ms.append(elapsed)
                after_edit = False
            if collect and op % 10 == 0:
                self.checked.append((exprs, workspace.ts))
        result.close(clock)
        after = self.cache_counters(workspaces)
        result.counters = {name: after[name] - before[name]
                           for name in CACHE_COUNTERS}
        result.counters["engine.steps"] = steps
        result.layers["codemodel.edit_ms"] = sum(edit_ms) / len(edit_ms)
        result.layers["deps.requery_ms"] = sum(requery_ms) / len(requery_ms)
        return result
