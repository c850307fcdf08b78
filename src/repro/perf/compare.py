"""Baseline comparison with noise-aware regression thresholds.

pyperf-style judgement call, miniaturized: a candidate workload is a
**regression** only when its median exceeds the baseline median by
*both* gates at once —

* the **relative gate**: more than ``max_regression`` (a fraction;
  ``0.25`` = 25% slower), and
* the **noise gate**: more than ``noise_stdevs`` pooled standard
  deviations (``sqrt((s_b² + s_c²)/2)``), so a jittery workload whose
  spread swallows the delta cannot fail the build.

Symmetric medians that beat both gates downward are reported as
improvements (informational).  Workloads present on only one side are
reported as ``missing``/``new`` without failing the comparison.
Fingerprint differences are surfaced in the report header, never
gated on.

Examples:
    >>> base = {"fingerprint": {}, "workloads": {"w": {
    ...     "seconds": {"median": 1.0, "stdev": 0.01}}}}
    >>> fast = {"fingerprint": {}, "workloads": {"w": {
    ...     "seconds": {"median": 1.05, "stdev": 0.01}}}}
    >>> compare_reports(base, fast).passed      # +5% < the 25% gate
    True
    >>> slow = {"fingerprint": {}, "workloads": {"w": {
    ...     "seconds": {"median": 2.0, "stdev": 0.01}}}}
    >>> report = compare_reports(base, slow)
    >>> report.passed, report.deltas[0].status
    (False, 'regression')
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvalidParameterError

__all__ = [
    "CompareReport",
    "WorkloadDelta",
    "compare_reports",
]

DEFAULT_MAX_REGRESSION = 0.25
DEFAULT_NOISE_STDEVS = 3.0


@dataclass(frozen=True)
class WorkloadDelta:
    """One workload's baseline-vs-candidate verdict."""

    name: str
    status: str  # ok | regression | improved | missing | new
    baseline_median: Optional[float] = None
    candidate_median: Optional[float] = None
    relative_delta: Optional[float] = None
    noise: float = 0.0

    @property
    def percent(self) -> Optional[str]:
        """Signed percent delta, e.g. ``'+12.3%'``, or ``None``."""
        if self.relative_delta is None:
            return None
        return f"{self.relative_delta * 100.0:+.1f}%"


@dataclass(frozen=True)
class CompareReport:
    """Every :class:`WorkloadDelta` plus the overall verdict."""

    deltas: Tuple[WorkloadDelta, ...]
    max_regression: float
    noise_stdevs: float
    fingerprint_matches: bool
    fingerprint_diff: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """True when no workload regressed past both gates."""
        return all(d.status != "regression" for d in self.deltas)

    @property
    def regressions(self) -> List[WorkloadDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    def describe(self) -> str:
        """The human report: header, per-workload table, verdict."""
        from repro.experiments.report import render_table

        lines = [
            f"thresholds: +{self.max_regression * 100:.0f}% relative AND "
            f"{self.noise_stdevs:g} pooled stdevs"
        ]
        if not self.fingerprint_matches:
            lines.append(
                "fingerprint mismatch (numbers compared anyway): "
                + ", ".join(self.fingerprint_diff)
            )
        rows = []
        for d in self.deltas:
            rows.append([
                d.name,
                "-" if d.baseline_median is None else d.baseline_median,
                "-" if d.candidate_median is None else d.candidate_median,
                d.percent or "-",
                d.noise,
                d.status,
            ])
        lines.append(render_table(
            ["workload", "base median s", "cand median s", "delta",
             "noise s", "status"],
            rows,
            precision=6,
        ))
        failed = self.regressions
        if failed:
            lines.append(
                f"FAIL: {len(failed)} regression(s): "
                + ", ".join(d.name for d in failed)
            )
        else:
            lines.append("PASS: no workload regressed past the thresholds")
        return "\n".join(lines)


def _workload_timings(report: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    workloads = report.get("workloads")
    if not isinstance(workloads, dict):
        raise InvalidParameterError(
            "benchmark record has no 'workloads' mapping"
        )
    out = {}
    for name, entry in workloads.items():
        seconds = entry.get("seconds", {})
        if "median" not in seconds:
            raise InvalidParameterError(
                f"workload {name!r} record carries no median timing"
            )
        out[name] = {
            "median": float(seconds["median"]),
            "stdev": float(seconds.get("stdev", 0.0)),
        }
    return out


def compare_reports(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    max_regression: float = DEFAULT_MAX_REGRESSION,
    noise_stdevs: float = DEFAULT_NOISE_STDEVS,
) -> CompareReport:
    """Compare two suite records; see the module docstring for the rule."""
    if max_regression <= 0:
        raise InvalidParameterError("max_regression must be > 0")
    if noise_stdevs < 0:
        raise InvalidParameterError("noise_stdevs must be >= 0")
    base = _workload_timings(baseline)
    cand = _workload_timings(candidate)

    base_fp = baseline.get("fingerprint", {}) or {}
    cand_fp = candidate.get("fingerprint", {}) or {}
    diff_keys = tuple(sorted(
        key
        for key in set(base_fp) | set(cand_fp)
        if base_fp.get(key) != cand_fp.get(key)
    ))

    deltas: List[WorkloadDelta] = []
    for name in sorted(set(base) | set(cand)):
        if name not in cand:
            deltas.append(WorkloadDelta(
                name, "missing", baseline_median=base[name]["median"]
            ))
            continue
        if name not in base:
            deltas.append(WorkloadDelta(
                name, "new", candidate_median=cand[name]["median"]
            ))
            continue
        b, c = base[name], cand[name]
        if b["median"] <= 0:
            raise InvalidParameterError(
                f"workload {name!r} baseline median must be positive, "
                f"got {b['median']!r}"
            )
        delta = c["median"] - b["median"]
        relative = delta / b["median"]
        noise = math.sqrt((b["stdev"] ** 2 + c["stdev"] ** 2) / 2.0)
        threshold = max(max_regression * b["median"], noise_stdevs * noise)
        if delta > threshold:
            status = "regression"
        elif -delta > threshold:
            status = "improved"
        else:
            status = "ok"
        deltas.append(WorkloadDelta(
            name,
            status,
            baseline_median=b["median"],
            candidate_median=c["median"],
            relative_delta=relative,
            noise=noise,
        ))
    return CompareReport(
        deltas=tuple(deltas),
        max_regression=max_regression,
        noise_stdevs=noise_stdevs,
        fingerprint_matches=not diff_keys,
        fingerprint_diff=diff_keys,
    )
