"""The warm engine pool behind the completion server.

One :class:`Tenant` per named workspace: a warm
:class:`~repro.ide.workspace.Workspace` (engine + indexes + cross-query
cache), its own :class:`~repro.obs.metrics.Metrics` registry (the
engine's), its own structured run log, and a **single-threaded**
executor.  Every request for a workspace runs on that one thread —
that is the session affinity: cache warmth survives across requests,
and concurrent clients hammering one tenant serialise into exactly the
order the engine sees, so results match serial execution.

Admission control happens before a request ever reaches the tenant
thread.  A request carrying ``deadline_ms`` is shed up front
(429-style) when the tenant's queue is already estimated to outlast
the deadline; once dequeued, whatever deadline remains is mapped onto
the engine's own :class:`~repro.engine.budget.QueryBudget`, so the
queue wait and the engine's wall both charge the same clock
(docs/SERVING.md, docs/RESILIENCE.md).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Union

from ..ide.session import CompletionSession, QueryRecord
from ..ide.workspace import Workspace
from ..testing import faults
from . import protocol
from .chaos import ChaosSpec, ChaosStream
from .protocol import CompletionRequestBody, ProtocolError

#: queue-wait estimate before any request has finished (ms) — only a
#: fallback: :meth:`Tenant.warm` replaces it with a measured probe-query
#: latency, so a cold guess never drives admission on a warmed server
_INITIAL_ESTIMATE_MS = 2.0
#: EMA weight of the latest request latency in the queue-wait estimate
_ESTIMATE_ALPHA = 0.3


class AdmissionError(Exception):
    """A request refused or expired before reaching the engine."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class Tenant:
    """One named workspace's long-lived serving state."""

    def __init__(self, name: str, workspace: Workspace) -> None:
        self.name = name
        self.workspace = workspace
        self.run_log = workspace.start_run_log(label="serve/{}".format(name))
        #: all requests for this tenant run on this one thread
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="tenant-{}".format(name))
        self.warmed = False
        self._admission_lock = threading.Lock()
        self._pending = 0
        self._avg_ms = _INITIAL_ESTIMATE_MS
        #: measured warmup probe latency (ms); ``None`` until warmed or
        #: when the probe could not run
        self.warm_probe_ms: Optional[float] = None
        #: per-tenant chaos draw stream (chaos-through-serve); ``None``
        #: unless the pool mounted a :class:`ChaosSpec`
        self.chaos: Optional[ChaosStream] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Warm the engine's indexes and global root pool on the tenant
        thread (so the warm state lives where the queries will run),
        then time one representative query there to seed the admission
        EMA with a measured latency instead of the cold-start guess."""
        self.executor.submit(self.workspace.engine.warm).result()
        probe_ms = self.executor.submit(self._warm_probe).result()
        if probe_ms is not None:
            self.warm_probe_ms = probe_ms
            with self._admission_lock:
                self._avg_ms = probe_ms
        self.warmed = True

    def _warm_probe(self) -> Optional[float]:
        """Run one battery query (or a bare hole for custom universes)
        on the tenant thread; returns its wall ms, ``None`` on failure
        (the probe must never block serving)."""
        try:
            try:
                from ..eval.battery import battery_for
                battery = battery_for(self.name)
                session = battery.session(self.workspace, n=5)
                query = battery.queries[0]
            except ValueError:
                session = CompletionSession(self.workspace, n=5)
                query = "?"
            start = time.monotonic()
            session.complete(query)
            return (time.monotonic() - start) * 1000.0
        except Exception:  # pragma: no cover - diagnostics only
            return None

    def set_chaos(self, spec: Optional[ChaosSpec]) -> None:
        """(Un)mount serve-path fault injection for this tenant."""
        self.chaos = spec.stream(self.name) if spec is not None else None

    def shutdown(self, drain: bool = True) -> None:
        """Stop the tenant thread; with ``drain`` (the default) queued
        requests finish first."""
        self.executor.shutdown(wait=drain, cancel_futures=not drain)

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def admit(self, deadline_ms: Optional[float]) -> float:
        """Admit a request (or raise :class:`AdmissionError` with the
        ``shed`` code) and return its admission timestamp.

        The estimate is deliberately simple — queue depth times a
        latency EMA — because it only has to be right about order of
        magnitude: a request whose deadline the queue would blow by 10x
        must not sit in the queue holding a connection open.
        """
        with self._admission_lock:
            if deadline_ms is not None:
                estimated_wait = self._pending * self._avg_ms
                if estimated_wait > deadline_ms:
                    raise AdmissionError(
                        protocol.SHED,
                        "queue of {} request(s) (~{:.0f} ms) would blow the "
                        "{:.0f} ms deadline".format(
                            self._pending, estimated_wait, deadline_ms))
            self._pending += 1
        return time.monotonic()

    def _finish(self, admitted: float) -> float:
        """Record a request leaving the engine; returns its total ms."""
        elapsed_ms = (time.monotonic() - admitted) * 1000.0
        with self._admission_lock:
            self._pending -= 1
            self._avg_ms += _ESTIMATE_ALPHA * (elapsed_ms - self._avg_ms)
        return elapsed_ms

    def _cancel(self) -> None:
        with self._admission_lock:
            self._pending -= 1

    @property
    def pending(self) -> int:
        """Requests admitted but not yet finished (queue depth)."""
        return self._pending

    # ------------------------------------------------------------------
    # query execution (tenant thread)
    # ------------------------------------------------------------------
    def _session(self, request: CompletionRequestBody,
                 timeout_ms: Optional[float] = None) -> CompletionSession:
        try:
            return CompletionSession(
                self.workspace, locals=request.locals, this=request.this,
                n=request.n, expected=request.expected,
                keyword=request.keyword, timeout_ms=timeout_ms,
                max_steps=request.max_steps, trace=request.trace)
        except ValueError as error:
            raise ProtocolError(protocol.BAD_REQUEST, str(error))

    def _run(self, request: CompletionRequestBody,
             admitted: float) -> List[QueryRecord]:
        """Execute on the tenant thread: re-check the deadline (the
        queue may have eaten it), give the engine what remains, run."""
        remaining = None
        if request.deadline_ms is not None:
            remaining = request.deadline_ms - (
                (time.monotonic() - admitted) * 1000.0)
            if remaining <= 0:
                raise AdmissionError(
                    protocol.DEADLINE_EXCEEDED,
                    "deadline of {:.0f} ms expired in the queue".format(
                        request.deadline_ms))
        session = self._session(request, timeout_ms=remaining)
        plan = self.chaos.next_plan() if self.chaos is not None else None
        previous = faults.install_local(plan) if plan is not None else None
        try:
            with self.run_log.bind(request_id=request.request_id):
                if len(request.queries) == 1:
                    return [session.complete(request.queries[0])]
                return session.complete_many(request.queries)
        finally:
            if plan is not None:
                faults.uninstall_local(previous)
                request.fault_events = [
                    "{}@{}".format(site, call)
                    for site, call in plan.triggered]

    def complete(self, request: CompletionRequestBody) -> List[QueryRecord]:
        """Admit, queue, and run a request; blocks the calling thread
        (the server wraps this in ``run_in_executor``)."""
        admitted = self.admit(request.deadline_ms)
        try:
            future = self.executor.submit(self._run, request, admitted)
        except RuntimeError:
            # executor already shut down mid-flight
            self._cancel()
            raise AdmissionError(protocol.SHED, "tenant is shutting down")
        try:
            return future.result()
        finally:
            self._finish(admitted)

    def explain(self, request: CompletionRequestBody) -> list:
        """Ranking attribution on the tenant thread (same admission)."""
        admitted = self.admit(request.deadline_ms)

        def run():
            session = self._session(request)
            with self.run_log.bind(request_id=request.request_id):
                return session.explain(rank=request.rank,
                                       source=request.queries[0])

        try:
            future = self.executor.submit(run)
        except RuntimeError:
            self._cancel()
            raise AdmissionError(protocol.SHED, "tenant is shutting down")
        try:
            return future.result()
        finally:
            self._finish(admitted)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        document = {
            "workspace": self.name,
            "universe_version": self.workspace.ts.version,
            "warmed": self.warmed,
            "pending": self._pending,
            "metrics": self.workspace.metrics(),
            "run_log_records": len(self.run_log),
        }
        if self.warm_probe_ms is not None:
            document["warm_probe_ms"] = self.warm_probe_ms
        cache = self.workspace.cache_stats()
        if cache is not None:
            document["cache"] = cache
        return document


class EnginePool:
    """The server's tenants: named workspaces with warm engines."""

    def __init__(self, universes: Iterable[str] = ("paint", "geometry",
                                                   "bcl")) -> None:
        self.tenants: Dict[str, Tenant] = {}
        self.chaos_spec: Optional[ChaosSpec] = None
        for key in universes:
            self.tenants[key] = Tenant(key, Workspace.builtin(key))

    def add_workspace(self, name: str, workspace: Workspace) -> Tenant:
        """Serve an already-built workspace under ``name`` (how tests
        and embedders mount custom universes); a name already served
        raises ``ValueError``."""
        if name in self.tenants:
            raise ValueError(
                "workspace name {!r} is already served; two universes "
                "cannot share one name".format(name))
        tenant = Tenant(name, workspace)
        tenant.set_chaos(self.chaos_spec)
        self.tenants[name] = tenant
        return tenant

    def mount_pack(self, path: str) -> Tenant:
        """Serve a pack artifact under its recorded universe name;
        raises :class:`~repro.errors.PackError` for a bad pack and
        ``ValueError`` when that name is already served."""
        from ..pack import load_pack

        workspace = load_pack(path)
        return self.add_workspace(workspace.name, workspace)

    def set_chaos(
        self,
        spec: Union[ChaosSpec, Dict[str, object], str, None],
    ) -> None:
        """Mount (or clear, with ``None``) chaos-through-serve: every
        tenant gets a deterministic per-tenant draw stream off the
        spec's seed.  Accepts a :class:`ChaosSpec`, a dict, a JSON
        string, or a path to a JSON file."""
        self.chaos_spec = (
            ChaosSpec.from_source(spec) if spec is not None else None)
        for tenant in self.tenants.values():
            tenant.set_chaos(self.chaos_spec)

    def get(self, name: str) -> Tenant:
        try:
            return self.tenants[name]
        except KeyError:
            raise AdmissionError(
                protocol.UNKNOWN_WORKSPACE,
                "unknown workspace {!r}; this server exposes: {}".format(
                    name, ", ".join(sorted(self.tenants))))

    def warm_all(self) -> None:
        for tenant in self.tenants.values():
            tenant.warm()

    def shutdown(self, drain: bool = True) -> None:
        for tenant in self.tenants.values():
            tenant.shutdown(drain=drain)

    def stats(self) -> dict:
        return {name: tenant.stats()
                for name, tenant in sorted(self.tenants.items())}
