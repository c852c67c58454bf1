"""Structured error taxonomy for the completion service.

Every failure the engine can surface deliberately derives from
:class:`CompletionError`, so callers (the CLI, the IDE session, the
evaluation harness) can catch one base class and still branch on the
specific condition.  The taxonomy mirrors the resilience design in
``docs/RESILIENCE.md``:

* :class:`QueryTimeout` / :class:`BudgetExhausted` / :class:`QueryCancelled`
  — a :class:`~repro.engine.budget.QueryBudget` tripped while the caller
  asked for *strict* enforcement.  (The default engine mode never raises
  these: it returns best-so-far results tagged with a ``truncated``
  reason instead.)
* :class:`FeatureUnavailable` — an optional ranking signal (the
  abstract-type oracle, the namespace analysis, ...) cannot answer.
  Oracles may raise it to ask for graceful degradation explicitly; the
  ranker treats *any* exception from an optional feature the same way.
* :class:`CorpusError` — a corpus project failed to build or contained a
  malformed program.  ``build_all_projects`` collects these as
  diagnostics and skips the offending project rather than aborting.
* :class:`PackError` (:class:`PackCorruptError` /
  :class:`PackStaleError`) — a persistent universe pack
  (:mod:`repro.pack`) failed load-time verification.  Each carries a
  stable ``code`` registered in :data:`ERROR_TABLE`.

This module also owns the **canonical error-code table**: every stable
error code maps to exactly one ``(HTTP status, exit code)`` pair, and
both the serving protocol (:mod:`repro.serve.protocol`) and the CLI
(:mod:`repro.__main__`) consume it — one table, two surfaces, so a
service client sees the same status space a CLI user does.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

# ----------------------------------------------------------------------
# the canonical error-code table
# ----------------------------------------------------------------------

#: stable code -> (HTTP status, exit-style code).  Exit codes mirror the
#: CLI taxonomy (0 ok, 1 parse error / lint findings, 2 usage/admission,
#: 3 deadline truncation, 4 step-budget truncation); HTTP statuses are
#: what the serving layer answers with.  Register new codes with
#: :func:`register_error_code` — exactly once, at definition site.
ERROR_TABLE: Dict[str, Tuple[int, int]] = {}

#: QueryStatus truncation reason -> exit-style code (a truncated query
#: still answers 200/exit-coded with best-so-far results)
TRUNCATION_EXIT: Dict[str, int] = {"timeout": 3, "budget": 4,
                                   "cancelled": 4}


def register_error_code(code: str, http_status: int, exit_code: int) -> str:
    """Register a stable error code's status mapping (idempotent for an
    identical mapping; conflicting re-registration is a bug)."""
    existing = ERROR_TABLE.get(code)
    if existing is not None and existing != (http_status, exit_code):
        raise ValueError(
            "error code {!r} already registered as {!r}".format(
                code, existing))
    ERROR_TABLE[code] = (http_status, exit_code)
    return code


def http_status_for(code: str) -> int:
    """The HTTP status the serving layer answers ``code`` with."""
    return ERROR_TABLE[code][0]


def exit_code_for(code: str) -> int:
    """The CLI exit code for ``code``."""
    return ERROR_TABLE[code][1]


# request/service codes (historically defined in repro.serve.protocol;
# the protocol module now re-exports these)
register_error_code("bad_request", 400, 2)
register_error_code("unknown_workspace", 404, 2)
register_error_code("not_found", 404, 2)
register_error_code("method_not_allowed", 405, 2)
register_error_code("payload_too_large", 413, 2)
register_error_code("parse_error", 422, 1)
register_error_code("shed", 429, 2)
register_error_code("deadline_exceeded", 504, 3)
register_error_code("internal_error", 500, 2)
# pack verification codes (repro.pack): a corrupted artifact is an
# unprocessable payload; a stale one conflicts with the live universe
PACK_CORRUPT = register_error_code("pack_corrupt", 422, 2)
PACK_STALE = register_error_code("pack_stale", 409, 2)


class CompletionError(Exception):
    """Base class of every deliberate engine failure."""


class QueryTimeout(CompletionError):
    """A query exceeded its wall-clock deadline (strict mode only)."""

    def __init__(self, elapsed_ms: float, deadline_ms: float) -> None:
        super().__init__(
            "query exceeded its {:.0f} ms deadline ({:.1f} ms elapsed)".format(
                deadline_ms, elapsed_ms
            )
        )
        self.elapsed_ms = elapsed_ms
        self.deadline_ms = deadline_ms


class BudgetExhausted(CompletionError):
    """A query exhausted its expansion-step budget (strict mode only)."""

    def __init__(self, steps: int, max_steps: int) -> None:
        super().__init__(
            "query exhausted its step budget ({} of {} steps)".format(
                steps, max_steps
            )
        )
        self.steps = steps
        self.max_steps = max_steps


class QueryCancelled(CompletionError):
    """A query's cooperative cancellation token was cancelled."""

    def __init__(self, message: str = "query cancelled") -> None:
        super().__init__(message)


class FeatureUnavailable(CompletionError):
    """An optional ranking feature cannot currently answer.

    Raising this (or any exception) inside an optional feature makes the
    ranker substitute the feature's neutral score and record the feature
    name in the query's ``degraded`` set — it never aborts the query.
    """

    def __init__(self, feature: str, reason: Optional[str] = None) -> None:
        message = "feature {!r} unavailable".format(feature)
        if reason:
            message += ": " + reason
        super().__init__(message)
        self.feature = feature
        self.reason = reason


class CorpusError(CompletionError):
    """A corpus project (or one of its programs) failed to build."""

    def __init__(self, project: str, reason: str) -> None:
        super().__init__("corpus project {!r}: {}".format(project, reason))
        self.project = project
        self.reason = reason


class PackError(CompletionError):
    """A persistent universe pack failed load-time verification.

    Every subclass carries a stable ``code`` registered in
    :data:`ERROR_TABLE`, so the CLI and the serving layer refuse a bad
    artifact with the same machine-readable identity
    (``docs/ARTIFACTS.md``).
    """

    code = "pack_corrupt"

    def __init__(self, message: str, path: Optional[str] = None) -> None:
        super().__init__(message)
        self.path = path


class PackCorruptError(PackError):
    """The pack's bytes do not verify: truncated file, checksum
    mismatch, malformed envelope, or an undecodable section.  The
    artifact cannot be trusted at all."""

    code = PACK_CORRUPT


class PackStaleError(PackError):
    """The pack verifies byte-wise but its universe fingerprint does not
    match what the caller (or the pack's own derived state) requires —
    the artifact describes a different universe version than the one it
    would be serving.  Rebuild the pack."""

    code = PACK_STALE

    def __init__(
        self,
        message: str,
        path: Optional[str] = None,
        expected: Optional[str] = None,
        actual: Optional[str] = None,
    ) -> None:
        super().__init__(message, path=path)
        self.expected = expected
        self.actual = actual


class StreamInvariantViolation(CompletionError):
    """A stream combinator emitted a score lower than a previous one.

    Every combinator in :mod:`repro.engine.streams` promises non-decreasing
    scores; this is raised by the opt-in stream sanitizer
    (``sanitize_streams``, see ``docs/ANALYSIS.md``) when a combinator
    breaks that promise — always a bug in the combinator or in a caller's
    cost function, never a recoverable condition.
    """

    def __init__(self, combinator: str, previous: int, current: int) -> None:
        super().__init__(
            "stream invariant violated in {!r}: score {} emitted after {}".format(
                combinator, current, previous
            )
        )
        self.combinator = combinator
        self.previous = previous
        self.current = current
