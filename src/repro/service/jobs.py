"""Job specifications and job state for the synthesis service.

A :class:`JobSpec` is the client-visible description of one unit of work: a
job *kind* (``optimize`` / ``sample`` / ``orchestrate`` / ``flow`` — thin
wrappers around :meth:`repro.engine.Engine.run`, :meth:`~repro.engine.Engine.sample`
and :meth:`~repro.engine.Engine.flow` — plus the operational ``selftest``
kind used by health checks and the test-suite), the design it operates on and
a kind-specific options mapping.  Specs are JSON all the way down
(:meth:`JobSpec.to_dict` / :meth:`JobSpec.from_dict`), options are normalized
against per-kind defaults so two spellings of the same request are the same
request, and every spec maps to a deterministic *coalescing key*:

    ``combine_keys(aig_fingerprint(design), config_fingerprint(kind, options))``

built from :mod:`repro.store.fingerprint`.  The scheduler keys duplicate
detection and the completed-result cache on it, and the job id served back to
clients is derived from it — submitting the same work twice yields the same
id on purpose.

:func:`execute_spec` runs a spec to completion and returns its *canonical
result payload*: a JSON-serializable dict in which every ``runtime_seconds``
field is zeroed, so payloads are byte-identical (via
:func:`canonical_payload_bytes`) across serial re-runs, worker processes,
coalesced duplicates and warm store hits.  Wall-clock timing is reported
separately on the job status, never inside the payload.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.aig.aig import Aig
from repro.obs.trace import parse_traceparent
from repro.store.fingerprint import aig_fingerprint, combine_keys, config_fingerprint

# Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Per-kind option schemas: every option a kind accepts, with its default.
#: Normalization fills the defaults in, so a spec that spells a default
#: explicitly coalesces with one that omits it.
JOB_KINDS: Dict[str, Dict[str, Any]] = {
    "optimize": {"script": "rw; rs; rf", "verify": False},
    "sample": {"num_samples": 10, "guided": True, "seed": 0, "evaluator": None},
    "orchestrate": {"guided": True, "seed": 0},
    "flow": {"num_samples": 60, "top_k": 5, "epochs": 60, "seed": 0},
    # Operational kind: echoes, sleeps, or (in a worker process) crashes.
    # Health checks use "ok"; the test-suite uses "hang"/"crash" to exercise
    # per-job timeouts and worker crash-isolation.
    "selftest": {"action": "ok", "seconds": 0.0, "payload": None},
}

#: Set by :mod:`repro.service.workers` inside spawned worker processes so a
#: ``selftest`` crash really kills the worker there, but degrades to an
#: ordinary job failure when jobs run inline in the server process.
_IN_WORKER_PROCESS = False


@dataclass(frozen=True)
class JobSpec:
    """One unit of service work: kind + design + normalized options.

    ``priority`` and ``timeout_seconds`` shape *scheduling* (higher priority
    is served first; the timeout bounds one execution attempt) and are
    deliberately excluded from the coalescing key — they do not change the
    result.
    """

    kind: str
    design: str = ""
    options: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r} (expected {sorted(JOB_KINDS)})"
            )
        defaults = JOB_KINDS[self.kind]
        unknown = set(self.options) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown option(s) {sorted(unknown)} for job kind {self.kind!r} "
                f"(expected {sorted(defaults)})"
            )
        if self.kind != "selftest" and not self.design:
            raise ValueError(f"job kind {self.kind!r} requires a design")
        normalized = dict(defaults)
        normalized.update(self.options)
        object.__setattr__(self, "options", normalized)

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def design_key(self, aig: Optional[Aig] = None) -> str:
        """Content-addressed identity of the spec's *design* alone.

        Result payloads carry the design name and the PI/PO symbol table
        (reports, netlists), so — unlike the pure artifact-store keys — those
        names are part of the identity here: a renamed copy of a structurally
        identical design is a *different* job, or the byte-identity guarantee
        would break.  ``aig`` skips re-loading the design when the caller
        already holds it.  Otherwise the design is read without a copy (the
        key only reads it): a benchmark name hits the process-wide benchmark
        cache and the memoized fingerprint, while a netlist path is parsed
        again, so a rewritten file gets a new key.  This part depends only on
        ``design`` (never on the kind or options), which is what lets the
        cluster router cache it per design string when computing routing keys.
        """
        if self.kind == "selftest":
            return "selftest"
        if aig is None:
            from repro.engine.engine import load_design

            aig = load_design(self.design)
        names = {
            "design": aig.name,
            "pis": [aig.pi_name(index) for index in range(aig.num_pis())],
            "pos": [aig.po_name(index) for index in range(aig.num_pos())],
        }
        return combine_keys(aig_fingerprint(aig), config_fingerprint(names))

    def config_key(self) -> str:
        """Fingerprint of the (kind, normalized options) configuration."""
        return config_fingerprint({"kind": self.kind, "options": self.options})

    def coalesce_key(self, aig: Optional[Aig] = None) -> str:
        """Content-addressed identity of this spec's *result*.

        The key combines the structural fingerprint of the design
        (:meth:`design_key`) with a configuration fingerprint of (kind,
        options): two in-flight requests with equal keys are guaranteed to
        produce byte-identical payloads, which is what licenses the scheduler
        to run only one of them — and what lets the cluster router send
        duplicates to the same shard so coalescing keeps working fleet-wide.
        """
        return combine_keys(self.design_key(aig), self.config_key())

    def job_id(self, aig: Optional[Aig] = None) -> str:
        """Deterministic job id: the kind plus a prefix of the coalescing key."""
        return f"{self.kind}-{self.coalesce_key(aig)[:16]}"

    # ------------------------------------------------------------------ #
    # JSON interchange
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """Return a JSON-serializable rendering of the spec."""
        return {
            "kind": self.kind,
            "design": self.design,
            "options": dict(self.options),
            "priority": self.priority,
            "timeout_seconds": self.timeout_seconds,
        }

    @staticmethod
    def from_dict(payload: Dict) -> "JobSpec":
        """Rebuild a spec previously rendered by :meth:`to_dict`.

        Raises :class:`ValueError` on malformed payloads (the HTTP front end
        maps this to a 400 response).
        """
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError("job spec must be an object with a 'kind' field")
        options = payload.get("options", {})
        if not isinstance(options, dict):
            raise ValueError("job spec 'options' must be an object")
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValueError("job spec 'priority' must be an integer")
        timeout = payload.get("timeout_seconds")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise ValueError("job spec 'timeout_seconds' must be a number")
        return JobSpec(
            kind=payload["kind"],
            design=payload.get("design", ""),
            options=options,
            priority=priority,
            timeout_seconds=timeout,
        )


# --------------------------------------------------------------------------- #
# Execution: one spec -> one canonical payload
# --------------------------------------------------------------------------- #
def _zero_runtimes(payload: Any) -> Any:
    """Recursively zero every ``runtime_seconds`` field of a payload."""
    if isinstance(payload, dict):
        return {
            key: 0.0 if key == "runtime_seconds" else _zero_runtimes(value)
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [_zero_runtimes(item) for item in payload]
    return payload


def canonical_payload_bytes(payload: Dict) -> bytes:
    """Canonical JSON bytes of a result payload (sorted keys, ASCII).

    Two jobs are *the same result* exactly when these bytes are equal; the
    acceptance tests compare coalesced / warm-store results against direct
    :class:`~repro.engine.Engine` runs this way.
    """
    return json.dumps(payload, sort_keys=True).encode("ascii")


def execute_spec(spec: JobSpec, aig: Optional[Aig] = None) -> Dict:
    """Run ``spec`` to completion and return its canonical result payload.

    Pure function of the spec (plus the design it names): orchestration,
    pipelines and the flow are deterministic, and all wall-clock fields are
    zeroed, so repeated executions return byte-identical payloads.  This is
    what worker processes run, and it is deliberately exactly the code path a
    direct :class:`~repro.engine.Engine` user would take.
    """
    if spec.kind == "selftest":
        return _execute_selftest(spec)

    from repro.engine.engine import Engine
    from repro.io.aiger import aiger_ascii

    engine = Engine.load(spec.design) if aig is None else Engine.from_aig(aig, copy=True)
    options = spec.options
    if spec.kind == "optimize":
        report = engine.run(options["script"], verify=options["verify"])
        return {
            "kind": "optimize",
            "design": engine.name,
            "report": _zero_runtimes(report.to_dict()),
            "netlist": aiger_ascii(engine.aig),
        }
    if spec.kind == "sample":
        records = engine.sample(
            num_samples=options["num_samples"],
            guided=options["guided"],
            seed=options["seed"],
            evaluator=options["evaluator"],
        )
        return {
            "kind": "sample",
            "design": engine.name,
            "records": _zero_runtimes([record.to_dict() for record in records]),
        }
    if spec.kind == "orchestrate":
        from repro.orchestration.orchestrate import orchestrate
        from repro.orchestration.sampling import PriorityGuidedSampler, RandomSampler

        if options["guided"]:
            decisions = PriorityGuidedSampler(engine.aig, seed=options["seed"]).base_sample()
        else:
            decisions = RandomSampler(engine.aig, seed=options["seed"]).sample()
        result = orchestrate(engine.aig, decisions)
        return {
            "kind": "orchestrate",
            "design": engine.name,
            "result": _zero_runtimes(result.to_dict()),
            "netlist": aiger_ascii(engine.aig),
        }
    if spec.kind == "flow":
        from repro.flow.config import fast_config

        config = fast_config(
            num_samples=options["num_samples"],
            top_k=options["top_k"],
            epochs=options["epochs"],
            seed=options["seed"],
        )
        result = engine.flow(config)
        return {
            "kind": "flow",
            "design": engine.name,
            "result": _zero_runtimes(result.to_dict()),
        }
    raise ValueError(f"unknown job kind {spec.kind!r}")  # pragma: no cover


def _execute_selftest(spec: JobSpec) -> Dict:
    options = spec.options
    action = options["action"]
    if action == "ok":
        pass
    elif action == "hang":
        time.sleep(float(options["seconds"]))
    elif action == "crash":
        if _IN_WORKER_PROCESS:
            import os

            os._exit(3)  # hard-kill the worker: exercises crash isolation
        raise RuntimeError("selftest crash (inline execution)")
    else:
        raise ValueError(f"unknown selftest action {action!r}")
    return {"kind": "selftest", "action": action, "payload": options["payload"]}


# --------------------------------------------------------------------------- #
# Job: one tracked execution of a spec
# --------------------------------------------------------------------------- #
class Job:
    """A spec plus its lifecycle state inside the service.

    Duplicate submissions *attach* to an existing job instead of creating a
    new one; ``submit_count`` counts every submission that landed on this job
    (so ``submit_count - 1`` executions were saved by coalescing).  State
    transitions are driven by the scheduler and worker pool; ``wait`` blocks
    until the job reaches a terminal state.
    """

    def __init__(self, spec: JobSpec, key: str, job_id: Optional[str] = None) -> None:
        self.spec = spec
        self.key = key
        self.job_id = job_id or f"{spec.kind}-{key[:16]}"
        self.state = QUEUED
        self.result: Optional[Dict] = None
        self.error: Optional[str] = None
        self.submit_count = 1
        #: How the result was obtained: "computed", "coalesced" (attached to
        #: an in-flight duplicate) or "store" (warm artifact-store hit).
        self.source = "computed"
        #: Structured failure diagnostics: how the job failed ("error",
        #: "timeout" or "crash"), the worker's exit code on a crash and the
        #: expired limit on a timeout.  Surfaced on the snapshot so clients
        #: (and ``boolgebra submit``) can report more than a bare string.
        self.failure_kind: Optional[str] = None
        self.exit_code: Optional[int] = None
        self.timeout_limit: Optional[float] = None
        #: ``traceparent`` header of the submission that created the job (if
        #: the client was tracing); worker dispatch and the queue-wait span
        #: parent at it, and ``GET /v1/trace/{job_id}`` resolves through it.
        self.traceparent: Optional[str] = None
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cancel_requested = False
        self._done = threading.Event()

    # State transitions (called under the scheduler lock) ------------------- #
    def mark_running(self) -> None:
        self.state = RUNNING
        self.started_at = time.time()

    def finish(self, payload: Dict) -> None:
        self.result = payload
        self.state = DONE
        self.finished_at = time.time()
        self._done.set()

    def fail(
        self,
        error: str,
        failure_kind: str = "error",
        exit_code: Optional[int] = None,
        timeout_limit: Optional[float] = None,
    ) -> None:
        self.error = error
        self.failure_kind = failure_kind
        self.exit_code = exit_code
        self.timeout_limit = timeout_limit
        self.state = FAILED
        self.finished_at = time.time()
        self._done.set()

    def cancel(self) -> None:
        self.state = CANCELLED
        self.error = "cancelled"
        self.finished_at = time.time()
        self._done.set()

    # Introspection --------------------------------------------------------- #
    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED, CANCELLED)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; return whether it is."""
        return self._done.wait(timeout)

    def queue_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.created_at

    def run_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def trace_id(self) -> Optional[str]:
        """Trace id of the submitting client's trace, if the job carries one."""
        parsed = parse_traceparent(self.traceparent)
        return parsed[0] if parsed else None

    def snapshot(self) -> Dict:
        """JSON-serializable status of the job (the ``/status`` payload)."""
        return {
            "job_id": self.job_id,
            "trace_id": self.trace_id(),
            "kind": self.spec.kind,
            "design": self.spec.design,
            "state": self.state,
            "priority": self.spec.priority,
            "submit_count": self.submit_count,
            "source": self.source,
            "error": self.error,
            "failure_kind": self.failure_kind,
            "exit_code": self.exit_code,
            "timeout_limit": self.timeout_limit,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_seconds": self.queue_seconds(),
            "run_seconds": self.run_seconds(),
        }

    def __repr__(self) -> str:
        return f"<Job {self.job_id} {self.spec.kind} {self.state}>"
