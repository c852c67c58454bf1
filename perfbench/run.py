"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {cold,edit,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Each workload replays a fixed, seeded
operation sequence in rounds for ``--seconds`` seconds, checks the
answers, and prints one JSON object as its last line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every operation and every check passed.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import speed  # noqa: E402
import summary  # noqa: E402

#: end-to-end metric -> unit
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_ops": "1/s",
    "within_budget": "share",
    "ok_share": "share",
    "top10_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

CACHE_LAYER = ["cache." + name for name in (
    "stream_hits", "stream_misses", "placement_hits", "placement_misses",
    "roots_hits", "roots_misses", "evictions", "entries_dropped",
    "entries_preserved", "invalidations_fine", "invalidations_coarse")]

#: per-layer metric -> unit; a layer a workload does not pass through
#: reports 0
PER_LAYER = dict(
    [("pack.load_ms", "ms"), ("engine.warm_ms", "ms"),
     ("serve.ready_ms", "ms"), ("engine.query_ms", "ms"),
     ("engine.steps", "count"), ("lang.parse_ms", "ms"),
     ("lang.print_ms", "ms"), ("ide.session_ms", "ms"),
     ("deps.requery_ms", "ms"), ("codemodel.edit_ms", "ms"),
     ("serve.server_ms", "ms"), ("serve.transport_ms", "ms"),
     ("serve.http_latency_ms", "ms"), ("serve.shed", "count"),
     ("trace.overhead_pct", "%"), ("machine.probe_ms", "ms")]
    + [(name, "count") for name in CACHE_LAYER])

WORKLOADS = ("cold", "edit", "serve")


def _make(name: str, inputs: dict, seed: int, probe: speed.Probe):
    if name == "serve":
        import served

        return served.Serve(inputs, seed, probe)
    import inproc

    kind = inproc.Cold if name == "cold" else inproc.Edit
    return kind(inputs, seed, probe)


def _layers(workload, rounds, name: str) -> dict:
    """Per-layer values of a traced run.  Times are raw milliseconds per
    query operation: span self times from the traced rounds, everything
    else from the untraced ones."""
    layers = {key: 0.0 for key in PER_LAYER}
    layers.update(harness.layer_medians(rounds))
    traced = [r for r in rounds if r.traced]
    queries = sum(1 for family in workload.families if family is not None)
    self_ms = workload.recorder.self_ms()
    for span, key in (("engine.query", "engine.query_ms"),
                      ("lang.parse", "lang.parse_ms"),
                      ("lang.print", "lang.print_ms"),
                      ("ide.session", "ide.session_ms")):
        layers[key] = self_ms.get(span, 0.0) / (queries * len(traced))
    plain = next(r for r in rounds if not r.traced)
    for counter, value in plain.counters.items():
        key = counter if counter.startswith("engine.") else "cache." + counter
        layers[key] = value
    if name == "serve":
        layers["serve.ready_ms"] = statistics.median(workload.ready_ms)
        total, count = workload.latency_delta()
        layers["serve.http_latency_ms"] = total / count
        # the engine's own time is the response's elapsed_ms, measured
        # on untraced requests; what the server spends outside parsing
        # and the engine -- protocol, pool hand-off, session, JSON -- is
        # the session layer's share
        layers["engine.query_ms"] = layers["serve.server_ms"]
        layers["ide.session_ms"] = (layers["serve.http_latency_ms"]
                                    - layers["lang.parse_ms"]
                                    - layers["engine.query_ms"])
    layers["trace.overhead_pct"] = harness.overhead_pct(rounds)
    layers["machine.probe_ms"] = statistics.median(
        ms for r in rounds for ms in r.probe_ms)
    return layers


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    inputs = gen.corpus_inputs()
    speed.pin_to_one_cpu()
    workload = _make(name, inputs, seed, speed.Probe())
    print("inputs: {} corpus queries; dropped by the round-trip check: "
          "{}".format(len(inputs["queries"]), ", ".join(
              "{} {}".format(count, family)
              for family, count in sorted(inputs["dropped"].items()))),
          file=sys.stderr)
    try:
        workload.start()
        rounds = harness.drive(workload, seconds, trace)
    finally:
        workload.stop()

    tally = summary.Tally()
    metrics = harness.summarize(rounds, workload.families,
                                workload.setup_samples,
                                workload.peak_rss_mb(), tally)
    problems = harness.consistency_failures(rounds)
    for exprs, ts in workload.checked:
        if not checks.well_typed_all(exprs, ts):
            problems.append("ill-typed completion")
    problems.extend("served answer differs from in-process: {}".format(text)
                    for text in workload.mismatches)
    for problem in problems:
        tally.fail(problem)
    metrics["ok_share"] = tally.ok_share

    if trace:
        values = _layers(workload, rounds, name)
        units = PER_LAYER
        os.makedirs(gen.TRACE_DIR, exist_ok=True)
        workload.recorder.write(os.path.join(
            gen.TRACE_DIR, "{}-seed{}.ndjson".format(name, seed)))
    else:
        values, units = metrics, END_TO_END
    plain = [r for r in rounds if not r.traced]
    print("{}: seed {}, {} rounds ({} traced), {} ops per round; speed "
          "probe median per round (ms): {}".format(
              name, seed, len(rounds), len(rounds) - len(plain),
              len(workload.families),
              " ".join("{:.2f}".format(statistics.median(r.probe_ms))
                       for r in rounds)),
          file=sys.stderr)
    for problem in problems:
        print("check failed: {}".format(problem), file=sys.stderr)
    for reason, count in sorted(tally.reasons.items()):
        print("failed x{}: {}".format(count, reason), file=sys.stderr)
    correct = not problems and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(gen.SRC, "repro")):
        print("error: no program sources at {}; run from a checkout of the "
              "repository".format(gen.SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, gen.SRC)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
