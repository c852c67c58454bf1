"""The ``serve`` workload: a ``repro serve --pack`` subprocess and a
single-process, closed-loop client on one keep-alive connection.

The client replays a seeded Zipf mix over a hot set; every distinct
query is sent once before timing, so the server answers from its warm
caches and HTTP, protocol, session and JSON costs dominate.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import selectors
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import checks
import gen
import inproc
import speed
from harness import Round
from spans import Recorder

#: hot-set size per family and sequence length
SERVE_HOT = {"methods": 30, "arguments": 12, "assignments": 30,
             "comparisons": 12}
SERVE_OPS = 600
#: server start-ups per run; ``setup_s`` is their median
SPAWNS = 7
#: distinct queries whose served answer is compared with the in-process one
COMPARE_SAMPLE = 24
#: the server's peak memory is read after this many rounds: each tenant's
#: run log keeps every request record in memory, so the peak grows by
#: ~1.4 KB a request and would otherwise depend on how many rounds fit
#: in the run
RSS_ROUNDS = 3
#: error codes of requests the server refused under load
SHED_CODES = ("shed", "deadline_exceeded")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0

_SERVING = re.compile(r"serving on (http://[0-9.]+:(\d+))")
_HISTOGRAM = re.compile(
    r'^repro_server_latency_ms_(sum|count)\{[^}]*\} ([0-9.eE+-]+)$')


class Server:
    """One ``repro serve`` process, started and stopped by the client."""

    def __init__(self, packs: Dict[str, str]) -> None:
        command = [sys.executable, "-m", "repro", "serve",
                   "--universes", "bcl", "--port", "0"]
        for path in sorted(packs.values()):
            command += ["--pack", path]
        env = dict(os.environ, PYTHONPATH=gen.SRC, PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=gen.ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.output: List[str] = []
        try:
            self.port = self._await_port(started)
            self._await_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _await_port(self, started: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        try:
            while time.perf_counter() - started < START_TIMEOUT_S:
                if not selector.select(timeout=0.5):
                    if self.process.poll() is not None:
                        break
                    continue
                line = self.process.stdout.readline()
                if not line:
                    break
                self.output.append(line)
                match = _SERVING.search(line)
                if match:
                    return int(match.group(2))
        finally:
            selector.close()
        raise RuntimeError("server did not start:\n" + "".join(self.output))

    def _await_healthy(self, started: float) -> None:
        while time.perf_counter() - started < START_TIMEOUT_S:
            connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=5)
            try:
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.005)
        raise RuntimeError("server never answered /v1/healthz with 200")

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory (``VmHWM``), in MB."""
        with open("/proc/{}/status".format(self.process.pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def scrape_latency(self) -> tuple:
        """(sum, count) of the server's ``server_latency_ms`` histograms
        over every tenant, from ``/v1/metrics``."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            connection.request("GET", "/v1/metrics")
            text = connection.getresponse().read().decode()
        finally:
            connection.close()
        totals = {"sum": 0.0, "count": 0.0}
        for line in text.splitlines():
            match = _HISTOGRAM.match(line)
            if match:
                totals[match.group(1)] += float(match.group(2))
        return totals["sum"], totals["count"]

    def stop(self) -> None:
        """Terminate the server and wait for it; kill it on a hang.

        SIGTERM, not SIGINT: a process started in the background of a
        non-interactive shell inherits SIGINT ignored, and Python then
        installs no KeyboardInterrupt handler, so the server would never
        see the interrupt."""
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


class Serve:
    def __init__(self, inputs: dict, seed: int, probe: speed.Probe) -> None:
        self.packs = inputs["packs"]
        self.probe = probe
        rng = random.Random("serve:{}".format(seed))
        # a fixed hot set in a fixed popularity order, as for ``edit``;
        # the seed draws the request sequence
        self.hot = gen.sample(inputs["queries"], SERVE_HOT, "serve-hot")
        draws = inproc.zipf_sequence(rng, len(self.hot), SERVE_OPS)
        self.ops = [self.hot[rank] for rank in draws]
        self.families = [q["family"] for q in self.ops]
        self.bodies = [self._encode(q) for q in self.ops]
        self.server: Optional[Server] = None
        self.connection: Optional[http.client.HTTPConnection] = None
        self.setup_samples: List[float] = []
        #: raw spawn-to-healthy times, in ms
        self.ready_ms: List[float] = []
        self.recorder: Optional[Recorder] = None
        self._latency_before = (0.0, 0.0)
        self.rss = 0.0
        self.rounds_done = 0
        #: request body -> (in-process suggestion texts, top-10 hit), for
        #: ``?({..})`` queries
        self.method_answers: Dict[bytes, tuple] = {}
        #: problems found comparing served with in-process answers
        self.mismatches: List[str] = []
        #: (completions, universe) pairs for the well-typedness check
        self.checked: List[tuple] = []

    @staticmethod
    def _body(query: dict, trace: bool = False) -> dict:
        body = {"workspace": query["project"], "query": query["text"],
                "locals": query["locals"], "n": 10}
        if query["this"] is not None:
            body["this"] = query["this"]
        if trace:
            body["trace"] = True
        return body

    @classmethod
    def _encode(cls, query: dict, trace: bool = False) -> bytes:
        return json.dumps(cls._body(query, trace), sort_keys=True).encode()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the server ``SPAWNS`` times (keeping the last one), then
        send every distinct query once so timing sees a warm server."""
        for _ in range(SPAWNS):
            if self.server is not None:
                self.server.stop()
            self.server, ready_s = speed.scaled(self.probe,
                                                lambda: Server(self.packs))
            self.setup_samples.append(ready_s)
            self.ready_ms.append(self.server.ready_s * 1000.0)
        server = self.server
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60)
        served: Dict[bytes, dict] = {}
        for body in self.bodies:
            if body not in served:
                _status, raw = self.send(body)
                served[body] = json.loads(raw)
        self._compare(served)
        self._latency_before = server.scrape_latency()

    def _compare(self, served: Dict[bytes, dict]) -> None:
        """Answer every distinct ``?({..})`` query and a seeded sample of
        the others in process, on fresh workspaces from the same packs,
        and require the served answers to match with the timing and
        cache-state fields (``elapsed_ms``, ``cached``, ``steps``)
        stripped."""
        from repro import api
        from repro.serve.protocol import record_to_dict

        distinct = dict(zip(self.bodies, self.ops))
        methods = [q for q in distinct.values() if q["family"] == "methods"]
        others = sorted((q for q in distinct.values()
                         if q["family"] != "methods"),
                        key=self._encode)
        rng = random.Random("serve-compare")
        sample = methods + rng.sample(others, min(COMPARE_SAMPLE,
                                                  len(others)))
        workspaces = {name: api.load_pack(path)
                      for name, path in self.packs.items()}
        volatile = ("elapsed_ms", "cached", "steps")
        for query in sample:
            workspace = workspaces[query["project"]]
            record = api.complete(workspace, query["text"],
                                  locals=query["locals"], this=query["this"],
                                  n=10)
            local = record_to_dict(record, include_timing=False)
            remote = {key: value
                      for key, value in served[self._encode(query)].items()
                      if key in local and key not in volatile}
            local = {key: value for key, value in local.items()
                     if key not in volatile}
            if local != remote:
                self.mismatches.append(query["text"])
            exprs = [s.expr for s in record.suggestions]
            self.checked.append((exprs, workspace.ts))
            if query["family"] == "methods":
                self.method_answers[self._encode(query)] = (
                    [s.text for s in record.suggestions],
                    checks.expected_hit(query, (), exprs))

    def stop(self) -> None:
        if self.connection is not None:
            self.connection.close()
        if self.server is None:
            return
        try:
            total, count = self.server.scrape_latency()
            before_total, before_count = self._latency_before
            self._latency = (total - before_total, count - before_count)
        finally:
            self.server.stop()

    def latency_delta(self) -> tuple:
        """(sum ms, count) of server-side latency over the timed rounds."""
        return self._latency

    def send(self, body: bytes) -> tuple:
        self.connection.request("POST", "/v1/complete", body=body,
                                headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        return response.status, response.read()

    def round(self, recorder: Optional[Recorder]) -> Round:
        result = Round(recorder is not None)
        server_ms: List[float] = []
        steps = shed = 0
        clock = speed.Clock(self.probe)
        for op, query in enumerate(self.ops):
            body = self.bodies[op]
            if recorder is not None:
                body = self._encode(query, trace=True)
            t0 = time.perf_counter()
            status, raw = self.send(body)
            t1 = time.perf_counter()
            clock.add((t1 - t0) * 1000.0)
            payload = json.loads(raw)
            ok = (status == 200 and payload.get("truncated") is None
                  and payload.get("exit_code") == 0)
            hit = self._hit(query, payload) if ok else False
            result.outcomes.append((ok, hit))
            if payload.get("error", {}).get("code") in SHED_CODES:
                shed += 1
            if ok:
                server_ms.append(payload["elapsed_ms"])
                steps += payload["steps"]
            if recorder is not None:
                self._record(recorder, op, t0, t1, payload)
        result.layers["serve.server_ms"] = statistics.fmean(server_ms)
        result.layers["serve.transport_ms"] = (
            statistics.fmean(clock.raw) - result.layers["serve.server_ms"])
        result.close(clock)
        result.counters["engine.steps"] = steps
        result.layers["serve.shed"] = shed
        self.rounds_done += 1
        if self.rounds_done == RSS_ROUNDS:
            self.rss = self.server.peak_rss_mb()
        return result

    def _hit(self, query: dict, payload: dict) -> bool:
        texts = [s["text"] for s in payload["suggestions"]]
        if "text" in query["expect"]:
            return checks.expected_hit(query, texts)
        # ?({..}) answers match by method name and arity, which the text
        # does not show: a served answer hits when it equals the
        # in-process answer and that one hits
        texts_in_process, hit = self.method_answers[self._encode(query)]
        return hit and texts == texts_in_process

    @staticmethod
    def _record(recorder: Recorder, op: int, t0: float, t1: float,
                payload: dict) -> None:
        """The round trip, with the server's own top-level spans (parse,
        query) laid out as its children."""
        top = recorder.add("serve.request", t0, t1, op, parent=-1)
        cursor = t0
        for span in payload.get("spans", []):
            if span.get("parent") is None:
                name = {"parse": "lang.parse",
                        "query": "engine.query"}.get(span["name"],
                                                     span["name"])
                duration = span["duration_ms"] / 1000.0
                recorder.add(name, cursor, cursor + duration, op, parent=top)
                cursor += duration

    def peak_rss_mb(self) -> float:
        return self.rss
