"""The service's JSON wire protocol: requests, errors, job states.

Everything that crosses the wire is strict JSON.  Requests are parsed
by :func:`parse_submission` into a validated :class:`Submission`;
failures surface as :class:`ServiceError` with a machine-readable
``code`` from :data:`ERROR_CODES` and the HTTP status the server maps
it to.  The response envelope is uniform::

    {"ok": true,  ...payload...}                          # success
    {"ok": false, "error": "<code>", "message": "..."}    # failure

Error codes are part of the contract — clients branch on them:

``bad_request``
    The submission is malformed (unknown fields, invalid spec, ...).
``not_found``
    No such job (or its result is gone).
``conflict``
    The job exists but is not in a state that allows the request
    (e.g. fetching the result of a still-running job).
``rate_limited``
    The client's token bucket is empty; retry later.
``overloaded``
    The admission queue is at capacity; the server sheds the request
    instead of growing the queue.  Retry with backoff.
``deadline_exceeded``
    The job's deadline passed before it could finish.
``shutting_down``
    The server is draining (SIGTERM); no new work is admitted.
``internal``
    The server failed; the message carries the error class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.byzantine import min_byzantine_fleet
from repro.errors import InvalidParameterError, LineSearchError
# VARIANTS is re-exported: the wire vocabulary of a spec's ``variant``.
from repro.robustness.campaign import FAULT_KINDS, VARIANTS, ScenarioSpec
from repro.robustness.plan import plan_for, validate_spec

__all__ = [
    "ERROR_CODES",
    "JOB_STATES",
    "PROTOCOL_VERSION",
    "ServiceError",
    "Submission",
    "http_status_for",
    "parse_submission",
]

#: Bumped when the wire format changes incompatibly.
PROTOCOL_VERSION = 1

#: Machine-readable error codes, mapped to HTTP statuses below.
ERROR_CODES = (
    "bad_request",
    "not_found",
    "conflict",
    "rate_limited",
    "overloaded",
    "deadline_exceeded",
    "shutting_down",
    "internal",
)

_HTTP_STATUS = {
    "bad_request": 400,
    "not_found": 404,
    "conflict": 409,
    "rate_limited": 429,
    "overloaded": 503,
    "deadline_exceeded": 504,
    "shutting_down": 503,
    "internal": 500,
}

#: Job lifecycle.  ``queued -> running -> done|failed|deadline_exceeded``;
#: ``interrupted`` marks a job whose campaign was checkpointed by a
#: drain — it is requeued (back to ``queued``) on the next start.
JOB_STATES = (
    "queued",
    "running",
    "done",
    "failed",
    "deadline_exceeded",
    "interrupted",
)

#: Terminal states: a report artifact exists and the job never runs again.
TERMINAL_STATES = ("done", "failed", "deadline_exceeded")


class ServiceError(LineSearchError):
    """A request the service refuses, with a wire-protocol error code.

    ``retry_after`` (seconds, optional) tells the client when retrying
    is worthwhile; the server surfaces it both as a ``Retry-After``
    header and in the JSON envelope on ``rate_limited`` and
    ``overloaded`` responses.
    """

    def __init__(
        self, code: str, message: str, retry_after: Optional[float] = None
    ):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown service error code {code!r}")
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after

    @property
    def http_status(self) -> int:
        return _HTTP_STATUS[self.code]

    def body(self) -> Dict[str, Any]:
        """The JSON error envelope for this failure."""
        body: Dict[str, Any] = {
            "ok": False, "error": self.code, "message": str(self)
        }
        if self.retry_after is not None:
            body["retry_after"] = self.retry_after
        return body

    def headers(self) -> Dict[str, str]:
        """Extra HTTP headers for this failure (``Retry-After``)."""
        if self.retry_after is None:
            return {}
        # HTTP Retry-After takes integer seconds; round up so clients
        # never retry before the window reopens.
        import math as _math

        return {"Retry-After": str(max(1, _math.ceil(self.retry_after)))}


def http_status_for(code: str) -> int:
    """The HTTP status the server answers with for an error ``code``."""
    return _HTTP_STATUS[code]


# ----------------------------------------------------------------------
# submissions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Submission:
    """A validated submit request: the specs to run and how to run them.

    Produced by :func:`parse_submission`; re-serialized verbatim into
    the job manifest so a crashed server can rebuild the exact request.
    """

    specs: Tuple[ScenarioSpec, ...]
    method: str = "event"
    check_invariants: bool = True
    client: str = "anonymous"
    deadline: Optional[float] = None
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation; inverse of :meth:`from_dict`."""
        return {
            "specs": [spec.to_dict() for spec in self.specs],
            "method": self.method,
            "check_invariants": self.check_invariants,
            "client": self.client,
            "deadline": self.deadline,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Submission":
        """Rebuild a submission from :meth:`to_dict` output."""
        return cls(
            specs=tuple(
                ScenarioSpec.from_dict(entry) for entry in data["specs"]
            ),
            method=str(data.get("method", "event")),
            check_invariants=bool(data.get("check_invariants", True)),
            client=str(data.get("client", "anonymous")),
            deadline=(
                None if data.get("deadline") is None
                else float(data["deadline"])
            ),
            seed=int(data.get("seed", 0)),
        )


def _bad(message: str) -> ServiceError:
    return ServiceError("bad_request", message)


def _parse_spec(entry: Any) -> ScenarioSpec:
    if not isinstance(entry, dict):
        raise _bad(f"each spec must be an object, got {type(entry).__name__}")
    unknown = set(entry) - {
        "n", "f", "target", "fault", "seed", "protocol", "mode", "variant"
    }
    if unknown:
        raise _bad(f"unknown spec field(s): {', '.join(sorted(unknown))}")
    try:
        spec = ScenarioSpec.from_dict(entry)
    except (KeyError, TypeError, ValueError) as exc:
        raise _bad(f"invalid scenario spec: {exc}") from None
    if spec.n < 1 or spec.f < 0 or spec.f >= spec.n:
        raise _bad(
            f"spec requires 1 <= f+1 <= n, got n={spec.n} f={spec.f}"
        )
    needed = min_byzantine_fleet(spec.f)
    if spec.protocol == "confirmation" and spec.n < needed:
        raise _bad(
            f"the confirmation protocol needs n >= 2f + 1 = "
            f"{needed} robots to tolerate {spec.f} liars, "
            f"got n = {spec.n}"
        )
    try:
        validate_spec(spec)
    except InvalidParameterError as exc:
        raise _bad(str(exc)) from None
    return spec


def _grid_specs(payload: Dict[str, Any]) -> List[ScenarioSpec]:
    """Expand a ``pairs``/``targets``/``faults`` grid, seeded exactly
    like :func:`~repro.robustness.campaign.chaos_scenarios`."""
    import random

    pairs = payload.get("pairs")
    targets = payload.get("targets")
    if not isinstance(pairs, list) or not pairs:
        raise _bad("grid submissions need a non-empty 'pairs' list")
    if not isinstance(targets, list) or not targets:
        raise _bad("grid submissions need a non-empty 'targets' list")
    faults = payload.get("faults", list(FAULT_KINDS))
    if not isinstance(faults, list) or not faults:
        raise _bad("'faults' must be a non-empty list when given")
    try:
        seed = int(payload.get("seed", 0))
    except (TypeError, ValueError):
        raise _bad("'seed' must be an integer") from None
    protocol = payload.get("protocol", "none")
    if not isinstance(protocol, str):
        raise _bad("'protocol' must be a string")
    mode = payload.get("mode", "sync")
    if not isinstance(mode, str):
        raise _bad("'mode' must be a string")
    variant = payload.get("variant", "line")
    if not isinstance(variant, str):
        raise _bad("'variant' must be a string")
    master = random.Random(seed)
    specs: List[ScenarioSpec] = []
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise _bad(f"each pair must be [n, f], got {pair!r}")
        n, f = int(pair[0]), int(pair[1])
        for target in targets:
            for fault in faults:
                specs.append(
                    ScenarioSpec(
                        n=n,
                        f=f,
                        target=float(target),
                        fault=str(fault),
                        seed=master.randrange(2**32),
                        protocol=protocol,
                        mode=mode,
                        variant=variant,
                    )
                )
    return [_parse_spec(spec.to_dict()) for spec in specs]


def parse_submission(
    payload: Any,
    default_method: str = "event",
    default_deadline: Optional[float] = None,
    max_deadline: Optional[float] = None,
    max_scenarios: Optional[int] = None,
) -> Submission:
    """Validate a raw JSON submit body into a :class:`Submission`.

    Three request shapes are accepted:

    * single scenario: ``{"spec": {...}}``;
    * explicit campaign: ``{"specs": [{...}, ...]}``;
    * grid campaign: ``{"pairs": [[n, f], ...], "targets": [...],
      "faults": [...], "seed": 0}`` — expanded with the same master
      seeding as ``chaos_scenarios`` so the served grid equals the CLI
      grid.

    Common optional fields: ``method`` (``"event"`` or ``"batch"``),
    ``check_invariants``, ``client``, ``deadline`` (seconds).  Specs may
    carry ``protocol`` (``"none"`` or ``"confirmation"`` — the Byzantine
    voting layer) and ``mode`` (``"sync"`` or an activation-scheduler
    spec like ``"event:adversarial:1.0"`` — the scheduled-time engine)
    and ``variant`` (``"line"``, ``"halfline"``, or ``"evacuation"`` —
    the problem variant, see :mod:`repro.variants`); grid submissions
    set each once at the top level.  Specs are checked by
    :func:`~repro.robustness.plan.validate_spec`, and ``method="batch"``
    is refused with ``bad_request`` wherever
    :func:`~repro.robustness.plan.plan_for` refuses it.

    Examples:
        >>> sub = parse_submission({"spec": {"n": 3, "f": 1, "target": 2.0}})
        >>> (len(sub.specs), sub.method)
        (1, 'event')
        >>> parse_submission({"specs": []})
        Traceback (most recent call last):
          ...
        repro.service.protocol.ServiceError: 'specs' must not be empty
    """
    if not isinstance(payload, dict):
        raise _bad("the request body must be a JSON object")
    shapes = [k for k in ("spec", "specs", "pairs") if k in payload]
    if len(shapes) != 1:
        raise _bad(
            "the submission must contain exactly one of 'spec' (single "
            "scenario), 'specs' (campaign), or 'pairs' (grid campaign)"
        )
    if "spec" in payload:
        specs = [_parse_spec(payload["spec"])]
    elif "specs" in payload:
        raw = payload["specs"]
        if not isinstance(raw, list):
            raise _bad("'specs' must be a list of scenario specs")
        if not raw:
            raise _bad("'specs' must not be empty")
        specs = [_parse_spec(entry) for entry in raw]
    else:
        specs = _grid_specs(payload)
    if max_scenarios is not None and len(specs) > max_scenarios:
        raise _bad(
            f"submission holds {len(specs)} scenarios; this server "
            f"accepts at most {max_scenarios} per job"
        )

    method = str(payload.get("method", default_method))
    if method not in ("event", "batch"):
        raise _bad(f"method must be 'event' or 'batch', got {method!r}")
    if method == "batch":
        # Refuse rather than silently downgrade the client's choice.
        for spec in specs:
            _, refusal = plan_for(spec, method)
            if refusal is not None:
                raise _bad(refusal)
    # The batch fast path needs the invariant audit off (the audit
    # requires an event log only the engine produces); default
    # accordingly but let the client force either.
    default_invariants = method != "batch"
    check_invariants = bool(
        payload.get("check_invariants", default_invariants)
    )

    client = payload.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise _bad("'client' must be a non-empty string")

    deadline = payload.get("deadline", default_deadline)
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise _bad("'deadline' must be a number of seconds") from None
        if deadline <= 0:
            raise _bad("'deadline' must be positive")
        if max_deadline is not None:
            deadline = min(deadline, max_deadline)

    try:
        seed = int(payload.get("seed", 0))
    except (TypeError, ValueError):
        raise _bad("'seed' must be an integer") from None

    return Submission(
        specs=tuple(specs),
        method=method,
        check_invariants=check_invariants,
        client=client,
        deadline=deadline,
        seed=seed,
    )


def dumps(body: Dict[str, Any]) -> bytes:
    """Canonical JSON encoding for wire responses."""
    return (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
