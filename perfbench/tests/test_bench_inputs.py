"""Input generation, answer matching and span self times.

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import gen  # noqa: E402
import inproc  # noqa: E402
from spans import Recorder  # noqa: E402


def _corpus():
    rng = random.Random(7)
    corpus = []
    for family in gen.FAMILIES:
        for project, size in (("A", 60), ("B", 30), ("C", 10)):
            for i in range(size):
                corpus.append({"family": family, "project": project,
                               "text": "{}-{}-{}".format(family, project, i),
                               "cost": rng.random()})
    return corpus


COUNTS = {"methods": 10, "arguments": 5, "assignments": 10,
          "comparisons": 3}


def test_sample_is_deterministic_per_tag():
    corpus = _corpus()
    first = gen.sample(corpus, COUNTS, "t")
    assert first == gen.sample(corpus, COUNTS, "t")
    assert first != gen.sample(corpus, COUNTS, "other-tag")


def test_sample_keeps_the_family_mix_for_every_tag():
    corpus = _corpus()
    for tag in range(20):
        chosen = gen.sample(corpus, COUNTS, str(tag))
        for family, wanted in COUNTS.items():
            assert sum(q["family"] == family for q in chosen) == wanted
        assert len({q["text"] for q in chosen}) == len(chosen)


def test_sample_spreads_a_family_over_projects_by_size():
    chosen = gen.sample(_corpus(), {"methods": 10}, "t")
    by_project = {p: sum(q["project"] == p for q in chosen)
                  for p in ("A", "B", "C")}
    assert by_project == {"A": 6, "B": 3, "C": 1}


def test_zipf_sequence_is_deterministic_and_skewed():
    draws = inproc.zipf_sequence(random.Random(5), 50, 2000)
    assert draws == inproc.zipf_sequence(random.Random(5), 50, 2000)
    assert draws.count(0) > draws.count(49) * 10


class _Method:
    def __init__(self, name, arity):
        self.name, self.arity = name, arity


class _Call:
    def __init__(self, name, arity):
        self.method = _Method(name, arity)


def test_expected_hit_matches_text_or_method_name_and_arity():
    lookup = {"expect": {"text": "a.B := c"}}
    assert checks.expected_hit(lookup, ["x", "a.B := c"])
    assert not checks.expected_hit(lookup, ["a.B := d"])
    method = {"expect": {"name": "Draw", "arity": 2}}
    assert checks.expected_hit(method, [], [_Call("Fill", 2),
                                            _Call("Draw", 2)])
    assert not checks.expected_hit(method, [], [_Call("Draw", 3)])
    assert not checks.expected_hit(method, ["Draw"], None)


def test_self_time_subtracts_children():
    recorder = Recorder()
    with recorder.span("outer", 0):
        time.sleep(0.01)
        with recorder.span("inner", 0):
            time.sleep(0.02)
    recorder.add("outer", 10.0, 10.5, 1, parent=-1)
    recorder.add("inner", 10.0, 10.2, 1, parent=2)
    own = recorder.self_ms()
    spans = recorder.spans()
    whole = (spans[0][2] - spans[0][1]) * 1000.0 + 500.0
    assert abs(own["outer"] + own["inner"] - whole) < 1e-6
    assert own["inner"] >= 20.0 + 200.0 - 1e-6


def test_extraction_is_deterministic_and_round_trips():
    sys.path.insert(0, gen.SRC)
    from repro.analysis.scope import Context
    from repro.corpus.projects import build_banshee_project
    from repro.lang.parser import parse

    project = build_banshee_project(0.2)
    kept, extracted, dropped = gen._extract(project)
    assert (kept, extracted, dropped) == gen._extract(project)
    assert set(extracted) == set(gen.FAMILIES)
    assert len(kept) == sum(extracted.values()) - sum(dropped.values())
    for query in kept:
        locals_map = {name: project.ts.get(full_name)
                      for name, full_name in query["locals"].items()}
        this = project.ts.get(query["this"]) if query["this"] else None
        context = Context(project.ts, locals=locals_map, this_type=this)
        parse(query["text"], context)
