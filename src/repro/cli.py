"""Command-line interface: ``linesearch``.

Subcommands:

* ``info n f`` — regime, formulas, and bounds for a parameter pair;
* ``simulate`` — run one search scenario and print the event log;
* ``ratio`` — measure the empirical competitive ratio of an algorithm;
* ``table1`` — reproduce Table 1;
* ``figure5`` — reproduce Figure 5 (``--side left|right``);
* ``diagram`` — regenerate the illustrative figures (``--figure 1..7``);
* ``lowerbound`` — play the Theorem 2 adversary game;
* ``schedule`` — inspect an ``A(n, f)`` schedule's turning points;
* ``validate`` — admissibility check for a configuration;
* ``experiment`` — run any experiment from the registry by id;
* ``export`` — write experiment data as CSV;
* ``batch`` — the batch evaluation subsystem: ``batch ratio``
  measures a competitive ratio through the batch kernels, ``batch sweep``
  evaluates a ratio profile over a geometric target grid, and
  ``batch parity`` replays a seeded grid through both the kernels and
  the event engine, gating (exit 1) on any disagreement;
* ``chaos`` — run a seeded fault-injection campaign across the fault
  taxonomy with per-scenario isolation and invariant checking, on the
  resilient executor: parallel workers (``--jobs``), watchdog timeouts
  (``--timeout``), retry budgets (``--retries``), a crash-safe
  journal (``--journal`` / ``--resume``), and full telemetry capture
  (``--telemetry-dir`` writes a JSONL span trace, a Prometheus text
  file, and a human summary);
* ``serve`` — run the long-lived search service: a threaded HTTP
  server with a bounded admission queue (explicit ``overloaded``
  shedding), per-client rate limits, per-request deadlines, a
  scenario-fingerprint result cache, graceful drain on SIGTERM, and
  crash-safe restart that resumes interrupted campaigns
  byte-identically from their journals;
* ``dashboard`` — the live campaign dashboard outside the browser:
  ``--attach URL`` follows a running ``serve`` instance (optionally
  consuming its SSE stream until idle with ``--follow``) while
  ``--telemetry-dir DIR`` replays a drained run's ``trace.jsonl`` +
  ``metrics.prom`` into the byte-identical final panel state; either
  mode can save the canonical state JSON (``--state-json``), a
  self-contained HTML page (``--html``), or the animated trajectory
  panel SVG (``--svg``);
* ``telemetry`` — summarize a telemetry artifact written by
  ``chaos --telemetry-dir``: a ``trace.jsonl`` span trace (where the
  wall-clock time went, by span) or a ``metrics.prom`` file
  (counters/gauges table plus estimated histogram quantiles);
* ``perf`` — the performance observatory: ``perf run`` times a named
  workload suite and writes a fingerprinted ``BENCH_<suite>.json``
  record, ``perf compare`` gates a candidate record against a
  baseline with noise-aware thresholds (exit 1 on regression),
  ``perf report`` pretty-prints a record, and ``perf flamegraph``
  converts a span trace into collapsed-stack text for flamegraph
  tools.

Exit codes: ``0`` success, ``1`` a chaos campaign recorded failures
(suppressed by ``--allow-failures``) or a perf comparison found a
regression, ``2`` usage or domain error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__
from repro.errors import LineSearchError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="linesearch",
        description=(
            "Reproduction of 'Search on a Line with Faulty Robots' "
            "(Czyzowicz et al., PODC 2016)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="bounds and formulas for (n, f)")
    p_info.add_argument("n", type=int)
    p_info.add_argument("f", type=int)

    p_sim = sub.add_parser("simulate", help="run one search scenario")
    p_sim.add_argument("n", type=int)
    p_sim.add_argument("f", type=int)
    p_sim.add_argument("target", type=float)
    p_sim.add_argument(
        "--faults",
        choices=("adversarial", "random", "none"),
        default="adversarial",
        help="fault model (default: adversarial)",
    )
    p_sim.add_argument("--seed", type=int, default=None)

    p_ratio = sub.add_parser(
        "ratio", help="measure the empirical competitive ratio"
    )
    p_ratio.add_argument("n", type=int)
    p_ratio.add_argument("f", type=int)
    p_ratio.add_argument("--beta", type=float, default=None,
                         help="override the cone slope (ablation)")
    p_ratio.add_argument("--x-max", type=float, default=200.0)

    sub.add_parser("table1", help="reproduce Table 1")

    p_fig5 = sub.add_parser("figure5", help="reproduce Figure 5")
    p_fig5.add_argument("--side", choices=("left", "right", "both"),
                        default="both")

    p_diag = sub.add_parser(
        "diagram", help="regenerate Figure 1-4 style diagrams"
    )
    p_diag.add_argument(
        "--figure", choices=("1", "2", "3", "4", "6", "7", "all"),
        default="all",
    )
    p_diag.add_argument("--svg", type=str, default=None,
                        help="also write an SVG of figure 3 to this path")

    p_lb = sub.add_parser(
        "lowerbound", help="play the Theorem 2 adversary game"
    )
    p_lb.add_argument("n", type=int)
    p_lb.add_argument("f", type=int)
    p_lb.add_argument("--alpha", type=float, default=None)

    p_exp = sub.add_parser("experiment", help="run a registered experiment")
    p_exp.add_argument("id", nargs="?", default=None,
                       help="experiment id (omit to list)")

    p_export = sub.add_parser(
        "export", help="export experiment data as CSV"
    )
    p_export.add_argument("id", nargs="?", default=None,
                          help="experiment id (omit to list)")
    p_export.add_argument("--out", type=str, default=None,
                          help="write to this file instead of stdout")
    p_export.add_argument("--measure", action="store_true",
                          help="include simulation measurements")

    p_val = sub.add_parser(
        "validate", help="check an algorithm's admissibility"
    )
    p_val.add_argument("n", type=int)
    p_val.add_argument("f", type=int)
    p_val.add_argument("--beta", type=float, default=None)
    p_val.add_argument("--x-max", type=float, default=20.0)

    p_sched = sub.add_parser(
        "schedule", help="inspect the A(n,f) schedule's turning points"
    )
    p_sched.add_argument("n", type=int)
    p_sched.add_argument("f", type=int)
    p_sched.add_argument("--turns", type=int, default=5,
                         help="turning points shown per robot")
    p_sched.add_argument("--diagram", action="store_true",
                         help="also draw the space-time diagram")

    p_batch = sub.add_parser(
        "batch", help="batch evaluation: vectorized kernels + parity"
    )
    batch_sub = p_batch.add_subparsers(dest="batch_command", required=True)

    pb_ratio = batch_sub.add_parser(
        "ratio", help="competitive ratio through the batch kernels"
    )
    pb_ratio.add_argument("n", type=int)
    pb_ratio.add_argument("f", type=int)
    pb_ratio.add_argument("--x-max", type=float, default=200.0)

    pb_sweep = batch_sub.add_parser(
        "sweep", help="ratio profile over a geometric target grid"
    )
    pb_sweep.add_argument("n", type=int)
    pb_sweep.add_argument("f", type=int)
    pb_sweep.add_argument("--points", type=int, default=10000,
                          help="targets per sign (default: 10000)")
    pb_sweep.add_argument("--x-max", type=float, default=100.0)

    pb_parity = batch_sub.add_parser(
        "parity", help="replay a seeded grid through batch AND the engine"
    )
    pb_parity.add_argument(
        "--pairs", nargs="+", default=None, metavar="N,F",
        help="regimes compared (default: the built-in six)",
    )
    pb_parity.add_argument("--targets", type=int, default=40,
                           help="seeded targets per regime (default: 40)")
    pb_parity.add_argument("--fault-sets", type=int, default=5,
                           help="fault assignments per target (default: 5)")
    pb_parity.add_argument("--seed", type=int, default=2016)
    pb_parity.add_argument("--x-max", type=float, default=32.0)
    pb_parity.add_argument("--report-json", type=str, default=None,
                           metavar="PATH",
                           help="write the full parity report as JSON")

    p_async = sub.add_parser(
        "async",
        help="discrete-event scheduling: CR-degradation sweeps + parity",
    )
    async_sub = p_async.add_subparsers(dest="async_command", required=True)

    pa_sweep = async_sub.add_parser(
        "sweep",
        help="competitive-ratio degradation as activation delays grow",
    )
    pa_sweep.add_argument("n", type=int)
    pa_sweep.add_argument("f", type=int)
    pa_sweep.add_argument(
        "--scheduler", choices=("ssync", "async", "adversarial"),
        default="adversarial",
        help="activation scheduler family swept over the delay knob "
             "(default: adversarial — the greedy target-aware delayer)",
    )
    pa_sweep.add_argument(
        "--delays", nargs="+", type=float, default=[0.0, 0.5, 1.0, 2.0],
        help="max-delay knob values (default: 0 0.5 1 2)",
    )
    pa_sweep.add_argument("--quantum", type=float, default=0.5,
                          help="plan time per activation burst "
                               "(default: 0.5)")
    pa_sweep.add_argument("--seed", type=int, default=0)
    pa_sweep.add_argument("--x-max", type=float, default=8.0,
                          help="largest |target| probed (default: 8)")
    pa_sweep.add_argument("--points", type=int, default=12,
                          help="targets probed, both signs "
                               "(default: 12)")
    pa_sweep.add_argument(
        "--speeds", nargs="+", type=float, default=None,
        help="per-robot speeds in (0, 1] (multi-speed fleets; "
             "default: unit speed)",
    )
    pa_sweep.add_argument("--report-json", type=str, default=None,
                          metavar="PATH",
                          help="write the full degradation report as JSON")

    pa_parity = async_sub.add_parser(
        "parity",
        help="prove the FSYNC event engine reproduces the continuous "
             "engine bit-exactly",
    )
    pa_parity.add_argument(
        "--pairs", nargs="+", default=None, metavar="N,F",
        help="regimes compared (default: the built-in six)",
    )
    pa_parity.add_argument("--targets", type=int, default=12,
                           help="seeded targets per regime (default: 12)")
    pa_parity.add_argument("--seed", type=int, default=2016)
    pa_parity.add_argument("--x-max", type=float, default=16.0)
    pa_parity.add_argument("--quantum", type=float, default=0.5,
                           help="FSYNC round length (default: 0.5)")
    pa_parity.add_argument("--report-json", type=str, default=None,
                           metavar="PATH",
                           help="write the full parity report as JSON")

    p_chaos = sub.add_parser(
        "chaos", help="run a seeded fault-injection campaign"
    )
    p_chaos.add_argument(
        "--pairs", nargs="+", default=["3,1", "4,2", "5,3"],
        metavar="N,F", help="fleet parameter pairs (default: 3,1 4,2 5,3)",
    )
    p_chaos.add_argument(
        "--targets", nargs="+", type=float,
        default=[1.0, -1.5, 2.5, -4.0, 7.0],
        help="target positions probed per pair",
    )
    p_chaos.add_argument(
        "--faults", nargs="+", default=None,
        help="fault spec strings (default: the whole taxonomy)",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="master seed for the campaign")
    p_chaos.add_argument("--method", choices=("event", "batch"),
                         default=None,
                         help="scenario evaluation path (default: the "
                              "plan decides, taking the analytic "
                              "kernels for crash faults with "
                              "--no-invariants); 'event' forces the "
                              "engines, 'batch' asks for the kernels "
                              "and is refused where they cannot run")
    p_chaos.add_argument("--protocol", choices=("none", "confirmation"),
                         default="none",
                         help="termination protocol; 'confirmation' "
                              "requires n >= 2f+1 per pair and commits "
                              "a detection only after f+1 confirming "
                              "votes (Byzantine-tolerant; incompatible "
                              "with --method batch)")
    p_chaos.add_argument("--mode", type=str, default="sync",
                         metavar="SPEC",
                         help="activation timing: 'sync' (default) or a "
                              "scheduler spec like "
                              "'event:adversarial:1.0' routing every "
                              "scenario through the discrete-event "
                              "engine (incompatible with "
                              "--method batch)")
    p_chaos.add_argument("--variant", type=str, default="line",
                         choices=("line", "halfline", "evacuation"),
                         help="problem variant the grid is swept over "
                              "(default: line; variant scenarios never "
                              "take the batch fast path, so "
                              "--method batch is refused)")
    p_chaos.add_argument("--no-invariants", action="store_true",
                         help="skip the runtime invariant audit")
    p_chaos.add_argument("--max-failures", type=int, default=10,
                         help="failures shown in the report")
    p_chaos.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default: 1, in-process)")
    p_chaos.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-scenario wall-clock budget; overdue "
                              "scenarios are killed and recorded as "
                              "ScenarioTimeoutError failures")
    p_chaos.add_argument("--retries", type=int, default=1,
                         help="retries for failed stochastic scenarios "
                              "(default: 1)")
    p_chaos.add_argument("--journal", type=str, default=None,
                         metavar="PATH",
                         help="append every outcome to this crash-safe "
                              "JSONL journal")
    p_chaos.add_argument("--resume", action="store_true",
                         help="skip scenarios already recorded in "
                              "--journal (requires --journal)")
    p_chaos.add_argument("--report-json", type=str, default=None,
                         metavar="PATH",
                         help="also write the full CampaignReport as JSON")
    p_chaos.add_argument("--allow-failures", action="store_true",
                         help="exit 0 even when scenarios fail")
    p_chaos.add_argument("--telemetry-dir", type=str, default=None,
                         metavar="DIR",
                         help="collect spans and metrics for the whole "
                              "campaign and write trace.jsonl, "
                              "metrics.prom, and summary.txt into DIR")

    p_var = sub.add_parser(
        "variants",
        help="problem variants: half-line analytics + evacuation runs",
    )
    var_sub = p_var.add_subparsers(dest="variants_command", required=True)

    pv_sweep = var_sub.add_parser(
        "sweep",
        help="validate the half-line closed forms against simulation "
             "across a p-grid",
    )
    pv_sweep.add_argument(
        "--ps", nargs="+", type=float, default=None,
        help="detection probabilities swept (default: the built-in grid)",
    )
    pv_sweep.add_argument("--target", type=float, default=3.7,
                          help="validation target distance (default: 3.7)")
    pv_sweep.add_argument("--rtol", type=float, default=1e-12,
                          help="series summation tolerance "
                               "(default: 1e-12)")
    pv_sweep.add_argument("--report-json", type=str, default=None,
                          metavar="PATH",
                          help="write the full sweep report as JSON")

    pv_bound = var_sub.add_parser(
        "bound",
        help="closed-form half-line optima and evacuation bounds",
    )
    pv_bound.add_argument("p", type=float,
                          help="per-visit detection probability in (0, 1]")
    pv_bound.add_argument("--target", type=float, default=None,
                          help="also evaluate E[T] at this distance "
                               "under the optimal expansion ratio")
    pv_bound.add_argument("--pair", type=str, default=None, metavar="N,F",
                          help="also print the evacuation feasibility "
                               "and ratio bound for this fleet")

    pv_evac = var_sub.add_parser(
        "evacuate",
        help="run one audited commit-then-gather evacuation scenario",
    )
    pv_evac.add_argument("n", type=int)
    pv_evac.add_argument("f", type=int)
    pv_evac.add_argument("target", type=float)
    pv_evac.add_argument("--fault", type=str, default="none",
                         help="fault spec string (default: none)")
    pv_evac.add_argument("--seed", type=int, default=None)
    pv_evac.add_argument("--mode", type=str, default="sync",
                         metavar="SPEC",
                         help="activation timing: 'sync' (default) or a "
                              "scheduler spec like "
                              "'event:adversarial:1.0'")
    pv_evac.add_argument("--no-invariants", action="store_true",
                         help="skip the evacuation invariant audit")

    pv_parity = var_sub.add_parser(
        "parity",
        help="prove variant='line' dispatch reproduces the continuous "
             "engine bit-exactly",
    )
    pv_parity.add_argument(
        "--pairs", nargs="+", default=None, metavar="N,F",
        help="regimes compared (default: the built-in six)",
    )
    pv_parity.add_argument("--targets", type=int, default=8,
                           help="seeded targets per regime (default: 8)")
    pv_parity.add_argument("--seed", type=int, default=2016)
    pv_parity.add_argument("--x-max", type=float, default=16.0)
    pv_parity.add_argument("--report-json", type=str, default=None,
                           metavar="PATH",
                           help="write the full parity report as JSON")

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived search service (HTTP, crash-safe)",
    )
    p_serve.add_argument("--state-dir", required=True, metavar="DIR",
                         help="durable state directory (job manifest, "
                              "journals, reports); restart resumes "
                              "interrupted campaigns from it")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8347,
                         help="bind port; 0 picks a free port "
                              "(default: 8347)")
    p_serve.add_argument("--port-file", type=str, default=None,
                         metavar="PATH",
                         help="write the chosen port here once bound "
                              "(for scripts using --port 0)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker threads executing jobs "
                              "(default: 2)")
    p_serve.add_argument("--queue-capacity", type=int, default=16,
                         help="admission queue bound; beyond it "
                              "submissions get 'overloaded' "
                              "(default: 16)")
    p_serve.add_argument("--rate-capacity", type=float, default=None,
                         help="per-client token-bucket burst size "
                              "(default: rate limiting off)")
    p_serve.add_argument("--rate-per-second", type=float, default=10.0,
                         help="per-client token refill rate "
                              "(default: 10)")
    p_serve.add_argument("--cache-size", type=int, default=4096,
                         help="result-cache entries; 0 disables "
                              "(default: 4096)")
    p_serve.add_argument("--default-deadline", type=float, default=300.0,
                         help="deadline for submissions that carry "
                              "none, seconds (default: 300)")
    p_serve.add_argument("--max-deadline", type=float, default=3600.0,
                         help="ceiling on client deadlines "
                              "(default: 3600)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-scenario watchdog budget forwarded "
                              "to the executor")
    p_serve.add_argument("--jobs", type=int, default=1,
                         help="executor worker processes per campaign "
                              "(default: 1, in-process)")
    p_serve.add_argument("--method", choices=("event", "batch"),
                         default="event",
                         help="evaluation path for submissions that "
                              "don't choose (default: event)")
    p_serve.add_argument("--no-parity-check", action="store_true",
                         help="skip the startup engine-parity harness")
    p_serve.add_argument("--telemetry-dir", type=str, default=None,
                         metavar="DIR",
                         help="on drain, write trace.jsonl, "
                              "metrics.prom, and summary.txt into DIR")

    p_dash = sub.add_parser(
        "dashboard",
        help="campaign dashboard: attach to a service or replay telemetry",
    )
    dash_mode = p_dash.add_mutually_exclusive_group(required=True)
    dash_mode.add_argument("--attach", type=str, default=None, metavar="URL",
                           help="base URL of a running 'linesearch serve' "
                                "(e.g. http://127.0.0.1:8347)")
    dash_mode.add_argument("--telemetry-dir", type=str, default=None,
                           metavar="DIR",
                           help="replay mode: reconstruct the final panel "
                                "state from DIR/trace.jsonl + "
                                "DIR/metrics.prom")
    p_dash.add_argument("--follow", action="store_true",
                        help="(attach) consume the SSE stream until the "
                             "service goes idle before reading the state")
    p_dash.add_argument("--timeout", type=float, default=60.0,
                        help="attach-mode socket/stream timeout, seconds "
                             "(default: 60)")
    p_dash.add_argument("--state-json", type=str, default=None,
                        metavar="PATH",
                        help="write the canonical panel state as JSON "
                             "(the byte-identity surface CI diffs)")
    p_dash.add_argument("--html", type=str, default=None, metavar="PATH",
                        help="write a self-contained replay HTML page")
    p_dash.add_argument("--svg", type=str, default=None, metavar="PATH",
                        help="write the animated space-time trajectory "
                             "panel as standalone SVG")
    p_dash.add_argument("--top", type=int, default=10,
                        help="span rows in the terminal summary "
                             "(default: 10)")

    p_tel = sub.add_parser(
        "telemetry",
        help="summarize a telemetry trace written by chaos --telemetry-dir",
    )
    p_tel.add_argument("trace", type=str,
                       help="path to a trace.jsonl or metrics.prom file")
    p_tel.add_argument("--top", type=int, default=20,
                       help="rows shown, by total time / value (default: 20)")

    p_perf = sub.add_parser(
        "perf", help="performance observatory: suites, baselines, flamegraphs"
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    pp_run = perf_sub.add_parser(
        "run", help="time a workload suite, write BENCH_<suite>.json"
    )
    pp_run.add_argument("--suite", default="quick",
                        help="suite name (default: quick; see --list)")
    pp_run.add_argument("--repeats", type=int, default=None,
                        help="timed runs per workload (default: 5)")
    pp_run.add_argument("--warmup", type=int, default=None,
                        help="untimed warmup runs per workload (default: 1)")
    pp_run.add_argument("--workload", action="append", default=None,
                        metavar="NAME",
                        help="restrict to this workload (repeatable)")
    pp_run.add_argument("--quick", action="store_true",
                        help="force the reduced parameter sets (CI smoke)")
    pp_run.add_argument("--out", type=str, default=None, metavar="PATH",
                        help="record path (default: "
                             "benchmarks/BENCH_<suite>.json)")
    pp_run.add_argument("--list", action="store_true",
                        help="list suites and workloads, run nothing")

    pp_cmp = perf_sub.add_parser(
        "compare", help="gate a candidate record against a baseline"
    )
    pp_cmp.add_argument("baseline", type=str,
                        help="baseline BENCH_*.json record")
    pp_cmp.add_argument("candidate", type=str,
                        help="candidate BENCH_*.json record")
    pp_cmp.add_argument("--max-regression", type=float, default=0.25,
                        metavar="FRACTION",
                        help="relative slowdown gate (default: 0.25 = 25%%)")
    pp_cmp.add_argument("--noise-stdevs", type=float, default=3.0,
                        help="pooled-stdev noise gate (default: 3.0)")

    pp_rep = perf_sub.add_parser(
        "report", help="pretty-print a BENCH_*.json record"
    )
    pp_rep.add_argument("record", type=str, help="a BENCH_*.json record")

    pp_flame = perf_sub.add_parser(
        "flamegraph",
        help="collapsed-stack text (flamegraph input) from a span trace",
    )
    pp_flame.add_argument("trace", type=str,
                          help="path to a trace.jsonl file")
    pp_flame.add_argument("--out", type=str, default=None, metavar="PATH",
                          help="write here instead of stdout")
    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------

def _cmd_info(args: argparse.Namespace) -> str:
    from repro.core import (
        SearchParameters,
        competitive_ratio,
        lower_bound,
        optimal_beta,
        optimal_expansion_factor,
    )

    params = SearchParameters(args.n, args.f)
    lines = [params.describe()]
    lines.append(f"competitive ratio achieved: {competitive_ratio(args.n, args.f):.6g}")
    lines.append(f"lower bound on any algorithm: {lower_bound(args.n, args.f):.6g}")
    if params.is_proportional:
        lines.append(f"optimal cone slope beta*: {optimal_beta(args.n, args.f):.6g}")
        lines.append(
            "expansion factor: "
            f"{optimal_expansion_factor(args.n, args.f):.6g}"
        )
    return "\n".join(lines)


def _make_algorithm(n: int, f: int, beta: Optional[float] = None):
    from repro.baselines import TwoGroupAlgorithm
    from repro.core import SearchParameters
    from repro.schedule import CustomBetaAlgorithm, ProportionalAlgorithm

    params = SearchParameters(n, f)
    if params.is_proportional:
        if beta is not None:
            return CustomBetaAlgorithm(n, f, beta)
        return ProportionalAlgorithm(n, f)
    if beta is not None:
        raise LineSearchError(
            "--beta only applies in the proportional regime f < n < 2f+2"
        )
    return TwoGroupAlgorithm(n, f)


def _cmd_simulate(args: argparse.Namespace) -> str:
    from repro.robots import AdversarialFaults, Fleet, RandomFaults
    from repro.simulation import SearchSimulation

    algorithm = _make_algorithm(args.n, args.f)
    if args.faults == "adversarial":
        model = AdversarialFaults(args.f)
    elif args.faults == "random":
        model = RandomFaults(args.f, seed=args.seed)
    else:
        model = AdversarialFaults(0)
    sim = SearchSimulation(
        Fleet.from_algorithm(algorithm), args.target, fault_model=model
    )
    outcome = sim.run()
    return f"{algorithm.describe()}\n{outcome.describe()}"


def _cmd_ratio(args: argparse.Namespace) -> str:
    from repro.simulation import measure_competitive_ratio

    algorithm = _make_algorithm(args.n, args.f, beta=args.beta)
    estimate = measure_competitive_ratio(algorithm, x_max=args.x_max)
    theory = algorithm.theoretical_competitive_ratio()
    lines = [algorithm.describe(), estimate.describe()]
    if theory is not None:
        lines.append(f"agreement with closed form: {estimate.matches(theory)}")
    return "\n".join(lines)


def _cmd_table1(_: argparse.Namespace) -> str:
    from repro.experiments.table1 import render_table1, run_table1

    return render_table1(run_table1(measure=True))


def _cmd_figure5(args: argparse.Namespace) -> str:
    from repro.experiments.registry import run_experiment

    parts: List[str] = []
    if args.side in ("left", "both"):
        parts.append(run_experiment("figure5_left"))
    if args.side in ("right", "both"):
        parts.append(run_experiment("figure5_right"))
    return "\n\n".join(parts)


def _cmd_diagram(args: argparse.Namespace) -> str:
    from repro.experiments.diagrams import (
        all_diagrams,
        figure1_diagram,
        figure2_diagram,
        figure3_diagram,
        figure4_diagram,
        figure6_diagram,
        figure7_diagram,
    )

    if args.svg:
        from repro.schedule import ProportionalAlgorithm
        from repro.viz import save_fleet_svg

        algorithm = ProportionalAlgorithm(3, 1)
        save_fleet_svg(
            args.svg,
            algorithm.build(),
            until=algorithm.beta * algorithm.expansion_factor**2,
            cone=algorithm.schedule.cone,
        )
    pick = {
        "1": figure1_diagram,
        "2": figure2_diagram,
        "3": figure3_diagram,
        "4": figure4_diagram,
        "6": figure6_diagram,
        "7": figure7_diagram,
    }
    if args.figure == "all":
        return "\n\n".join(all_diagrams().values())
    return pick[args.figure]()


def _cmd_lowerbound(args: argparse.Namespace) -> str:
    from repro.lowerbound import TheoremTwoGame
    from repro.robots import Fleet

    algorithm = _make_algorithm(args.n, args.f)
    game = TheoremTwoGame(
        Fleet.from_algorithm(algorithm), f=args.f, alpha=args.alpha
    )
    witness = game.play()
    return (
        f"adversary enforces alpha = {game.alpha:.6g} against "
        f"{algorithm.name}\nwitness: {witness.describe()}"
    )


def _cmd_experiment(args: argparse.Namespace) -> str:
    from repro.experiments.registry import experiment_ids, run_experiment

    if args.id is None:
        return "available experiments:\n  " + "\n  ".join(experiment_ids())
    return run_experiment(args.id)


def _cmd_export(args: argparse.Namespace) -> str:
    from repro.experiments.export import export_csv, exportable_ids

    if args.id is None:
        return "exportable experiments:\n  " + "\n  ".join(exportable_ids())
    csv_text = export_csv(args.id, measure=args.measure)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(csv_text + "\n")
        return f"wrote {args.out} ({len(csv_text.splitlines()) - 1} rows)"
    return csv_text


def _cmd_validate(args: argparse.Namespace) -> str:
    from repro.schedule.validation import validate_algorithm

    algorithm = _make_algorithm(args.n, args.f, beta=args.beta)
    report = validate_algorithm(algorithm, x_max=args.x_max)
    return report.describe()


def _cmd_schedule(args: argparse.Namespace) -> str:
    from repro.experiments.report import render_table
    from repro.schedule import ProportionalAlgorithm

    algorithm = ProportionalAlgorithm(args.n, args.f)
    robots = algorithm.build()
    headers = ["robot", "first cone turn"] + [
        f"turn {i + 1}" for i in range(args.turns)
    ]
    body = []
    for index, robot in enumerate(robots):
        row = [f"a_{index}", robot.first_cone_turn]
        row.extend(robot.turning_position(i + 1) for i in range(args.turns))
        body.append(row)
    lines = [
        algorithm.describe(),
        f"beta* = {algorithm.beta:.6g}, kappa = "
        f"{algorithm.expansion_factor:.6g}, r = "
        f"{algorithm.proportionality_ratio:.6g}",
        render_table(headers, body, precision=4),
    ]
    if args.diagram:
        from repro.viz import render_fleet_diagram

        until = algorithm.beta * algorithm.expansion_factor**2
        lines.append(
            render_fleet_diagram(
                robots, until=until, cone=algorithm.schedule.cone
            )
        )
    return "\n".join(lines)


def _parse_pairs(raw_pairs):
    pairs = []
    for raw in raw_pairs:
        try:
            n_text, f_text = raw.split(",")
            pairs.append((int(n_text), int(f_text)))
        except ValueError:
            raise LineSearchError(
                f"--pairs entries must look like N,F — got {raw!r}"
            ) from None
    return pairs


def _emit_report(report, path: Optional[str], passed: bool = True):
    """A report's ``describe()``, its JSON written to ``path`` when
    given, and exit code 1 unless ``passed``."""
    lines = [report.describe()]
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        lines.append(f"wrote {path}")
    return "\n".join(lines), 0 if passed else 1


def _cmd_batch(args: argparse.Namespace):
    from repro.batch import BatchEvaluator

    if args.batch_command == "ratio":
        from repro.schedule import algorithm_for

        algorithm = algorithm_for(args.n, args.f)
        estimate = BatchEvaluator(algorithm).estimate(x_max=args.x_max)
        theory = algorithm.theoretical_competitive_ratio()
        lines = [algorithm.describe(), estimate.describe()]
        if theory is not None:
            lines.append(
                f"agreement with closed form: {estimate.matches(theory)}"
            )
        return "\n".join(lines)

    if args.batch_command == "sweep":
        from repro.robots import Fleet
        from repro.schedule import algorithm_for
        from repro.simulation.sweep import geometric_grid

        if args.points < 2:
            raise LineSearchError("--points must be >= 2")
        algorithm = algorithm_for(args.n, args.f)
        fleet = Fleet.from_algorithm(algorithm)
        grid = geometric_grid(1.0, args.x_max, args.points)
        targets = grid + [-x for x in grid]
        profile = BatchEvaluator(fleet, fault_budget=args.f).ratio_profile(
            targets
        )
        worst = profile.supremum
        return "\n".join(
            [
                algorithm.describe(),
                f"{len(targets)} targets in [1, {args.x_max:g}] "
                "(both signs, geometric)",
                f"sup K(x) = {worst.ratio:.9g} at x = {worst.x:.9g}",
            ]
        )

    if args.batch_command == "parity":
        from repro.parity import BATCH_PAIRS, run_parity_harness

        pairs = _parse_pairs(args.pairs) if args.pairs else list(BATCH_PAIRS)
        report = run_parity_harness(
            pairs=pairs,
            targets_per_pair=args.targets,
            fault_sets_per_target=args.fault_sets,
            seed=args.seed,
            x_max=args.x_max,
        )
        return _emit_report(report, args.report_json, report.passed)

    raise LineSearchError(f"unknown batch subcommand {args.batch_command!r}")


def _cmd_async(args: argparse.Namespace):
    if args.async_command == "sweep":
        from repro.async_sched import run_degradation_sweep

        report = run_degradation_sweep(
            args.n,
            args.f,
            delays=tuple(args.delays),
            scheduler=args.scheduler,
            quantum=args.quantum,
            seed=args.seed,
            x_max=args.x_max,
            points=args.points,
            speeds=args.speeds,
        )
        return _emit_report(report, args.report_json)

    if args.async_command == "parity":
        from repro.parity import ASYNC_PAIRS, run_async_parity

        pairs = _parse_pairs(args.pairs) if args.pairs else list(ASYNC_PAIRS)
        report = run_async_parity(
            pairs=pairs,
            targets_per_pair=args.targets,
            seed=args.seed,
            x_max=args.x_max,
            quantum=args.quantum,
        )
        return _emit_report(report, args.report_json, report.passed)

    raise LineSearchError(f"unknown async subcommand {args.async_command!r}")


def _cmd_variants(args: argparse.Namespace):
    if args.variants_command == "sweep":
        from repro.variants.halfline import DEFAULT_P_GRID, run_halfline_sweep

        report = run_halfline_sweep(
            ps=tuple(args.ps) if args.ps else DEFAULT_P_GRID,
            target=args.target,
            rtol=args.rtol,
        )
        return _emit_report(report, args.report_json, report.passed)

    if args.variants_command == "bound":
        from repro.core.evacuation import (
            evacuation_feasible,
            evacuation_ratio_bound,
        )
        from repro.core.halfline import (
            halfline_expected_time,
            optimal_halfline_gamma,
            optimal_halfline_ratio,
        )

        p = args.p
        gamma = optimal_halfline_gamma(p)
        ratio = optimal_halfline_ratio(p)
        lines = [
            f"half-line search at p={p:g}:",
            f"  optimal expansion ratio gamma* = {gamma:.12g}",
            f"  worst-case expected ratio R*   = {ratio:.12g}",
        ]
        if args.target is not None:
            expected = halfline_expected_time(args.target, gamma, p)
            lines.append(
                f"  E[T({args.target:g})] at gamma*    = {expected:.12g}"
            )
        if args.pair is not None:
            (n, f), = _parse_pairs([args.pair])
            feasible = evacuation_feasible(n, f)
            lines.append(f"evacuation with A({n},{f}):")
            lines.append(
                f"  feasible (n >= 2f+1): {'yes' if feasible else 'no'}"
            )
            lines.append(
                f"  evacuation ratio bound: "
                f"{evacuation_ratio_bound(n, f):.6g}"
            )
        return "\n".join(lines)

    if args.variants_command == "evacuate":
        from repro.robustness.campaign import ScenarioSpec, build_scenario
        from repro.variants import variant_for

        spec = ScenarioSpec(
            n=args.n,
            f=args.f,
            target=args.target,
            fault=args.fault,
            seed=args.seed,
            mode=args.mode,
            variant="evacuation",
        )
        outcome = variant_for("evacuation").run(
            build_scenario(spec),
            check_invariants=not args.no_invariants,
        )
        return outcome.describe()

    if args.variants_command == "parity":
        from repro.parity import VARIANT_PAIRS, run_variant_parity

        pairs = (
            _parse_pairs(args.pairs) if args.pairs else list(VARIANT_PAIRS)
        )
        report = run_variant_parity(
            pairs=pairs,
            targets_per_pair=args.targets,
            seed=args.seed,
            x_max=args.x_max,
        )
        return _emit_report(report, args.report_json, report.passed)

    raise LineSearchError(
        f"unknown variants subcommand {args.variants_command!r}"
    )


def _cmd_chaos(args: argparse.Namespace):
    from repro.robustness import (
        FAULT_KINDS,
        CampaignExecutor,
        RetryPolicy,
        chaos_scenarios,
    )
    from repro.robustness.plan import plan_for

    if args.resume and not args.journal:
        raise LineSearchError("--resume requires --journal PATH")
    if args.retries < 0:
        raise LineSearchError("--retries must be >= 0")
    pairs = _parse_pairs(args.pairs)
    scenarios = chaos_scenarios(
        pairs,
        args.targets,
        faults=tuple(args.faults) if args.faults else FAULT_KINDS,
        seed=args.seed,
        method=args.method,
        protocol=args.protocol,
        mode=args.mode,
        variant=args.variant,
    )
    # Every spec of the grid shares the protocol, mode and variant.
    _, refusal = plan_for(scenarios[0].spec, args.method)
    if refusal is not None:
        raise LineSearchError(refusal)
    executor = CampaignExecutor(
        jobs=args.jobs,
        timeout=args.timeout,
        retry_policy=RetryPolicy(max_attempts=1 + args.retries),
        journal_path=args.journal,
        resume=args.resume,
    )
    telemetry = previous = None
    if args.telemetry_dir:
        from repro.observability import Telemetry, configure

        _prepare_telemetry_dir(args.telemetry_dir)
        telemetry = Telemetry(
            metadata={"command": "chaos", "seed": args.seed}
        )
        previous = configure(telemetry)
    from repro.errors import CampaignInterrupted

    interrupted = None
    try:
        report = executor.execute(
            scenarios, check_invariants=not args.no_invariants
        )
    except CampaignInterrupted as exc:
        # SIGTERM (an orchestrator draining us): the journal is already
        # checkpointed; report what completed and exit cleanly so the
        # next invocation can --resume.
        interrupted = exc
        report = exc.report
    finally:
        if telemetry is not None:
            from repro.observability import configure

            configure(previous)
    protocol_note = (
        f", protocol {args.protocol}" if args.protocol != "none" else ""
    )
    mode_note = f", mode {args.mode}" if args.mode != "sync" else ""
    variant_note = (
        f", variant {args.variant}" if args.variant != "line" else ""
    )
    lines = [
        f"{len(scenarios)} scenarios "
        f"(seed {args.seed}{protocol_note}{mode_note}{variant_note})"
    ]
    if args.journal:
        verb = "resumed from" if args.resume else "journaled to"
        lines.append(f"{verb} {args.journal}")
    if interrupted is not None:
        lines.append(f"interrupted: {interrupted}")
    lines.append(report.describe(max_failures=args.max_failures))
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        lines.append(f"wrote {args.report_json}")
    if telemetry is not None:
        lines.append(_write_telemetry(args.telemetry_dir, telemetry))
    if interrupted is not None:
        # A journaled interrupt is a clean checkpoint (resume continues
        # it); an unjournaled one lost work and must not look like
        # success to automation.
        code = 0 if args.journal else 1
    else:
        code = 0 if (report.failed == 0 or args.allow_failures) else 1
    return "\n".join(lines), code


def _prepare_telemetry_dir(directory: str) -> None:
    """Create ``directory`` (nested paths included) before the campaign
    runs, turning unwritable/obstructed paths into a clean usage error
    instead of a traceback after minutes of completed work."""
    import os

    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise LineSearchError(
            f"cannot create --telemetry-dir {directory!r}: {exc}"
        ) from None
    if not os.access(directory, os.W_OK):
        raise LineSearchError(
            f"--telemetry-dir {directory!r} is not writable"
        )


def _write_telemetry(directory: str, telemetry) -> str:
    """Write the campaign's trace, Prometheus file, and summary to
    ``directory``; returns a one-line confirmation."""
    import os

    from repro.observability import (
        summary,
        write_prometheus,
        write_trace_jsonl,
    )

    _prepare_telemetry_dir(directory)
    trace_path = os.path.join(directory, "trace.jsonl")
    prom_path = os.path.join(directory, "metrics.prom")
    summary_path = os.path.join(directory, "summary.txt")
    try:
        span_count = write_trace_jsonl(trace_path, telemetry)
        write_prometheus(prom_path, telemetry)
        with open(summary_path, "w", encoding="utf-8") as handle:
            handle.write(
                summary(
                    telemetry.tracer.records(),
                    metadata=telemetry.metadata,
                    metrics=telemetry.metrics,
                )
                + "\n"
            )
    except OSError as exc:
        raise LineSearchError(
            f"cannot write telemetry into {directory!r}: {exc}"
        ) from None
    return (
        f"telemetry: {span_count} spans -> {trace_path}, "
        f"metrics -> {prom_path}, summary -> {summary_path}"
    )


def _cmd_serve(args: argparse.Namespace):
    import os

    from repro.service.server import LineSearchService, ServiceConfig

    config = ServiceConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        rate_capacity=args.rate_capacity,
        rate_per_second=args.rate_per_second,
        cache_size=args.cache_size,
        default_deadline=args.default_deadline,
        max_deadline=args.max_deadline,
        scenario_timeout=args.timeout,
        executor_jobs=args.jobs,
        default_method=args.method,
        parity_check=not args.no_parity_check,
    )
    telemetry = previous = None
    if args.telemetry_dir:
        from repro.observability import Telemetry, configure

        _prepare_telemetry_dir(args.telemetry_dir)
        telemetry = Telemetry(
            metadata={"command": "serve", "state_dir": args.state_dir}
        )
        previous = configure(telemetry)
    try:
        service = LineSearchService(config)
        service.start()
        if args.port_file:
            tmp = args.port_file + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(f"{service.port}\n")
            os.replace(tmp, args.port_file)
        print(
            f"linesearch service listening on {service.address} "
            f"(state: {config.state_dir})",
            flush=True,
        )
        code = service.serve_forever()
    finally:
        if telemetry is not None:
            from repro.observability import configure

            configure(previous)
    lines = [f"drained; state preserved in {config.state_dir}"]
    if telemetry is not None:
        lines.append(_write_telemetry(args.telemetry_dir, telemetry))
    return "\n".join(lines), code


def _cmd_dashboard(args: argparse.Namespace) -> str:
    import json as json_module

    from repro.dashboard import render_dashboard_html, replay_state

    lines: List[str] = []
    if args.attach is not None:
        from repro.service.client import ServiceClient

        client = ServiceClient(args.attach, timeout=args.timeout)
        if args.follow:
            frames = 0
            for event in client.dashboard_stream(
                until_idle=True, timeout=args.timeout
            ):
                frames += 1
                if event["event"] == "done":
                    dropped = event["data"].get("dropped", 0)
                    lines.append(
                        f"stream closed after {frames} frame(s)"
                        + (f", {dropped} dropped" if dropped else "")
                    )
        state_dict = client.dashboard_state()
        # The client-side canonical dump: byte-identical to
        # DashboardState.to_json() on the server.
        state_json = (
            json_module.dumps(state_dict, sort_keys=True, indent=2) + "\n"
        )
        from repro.dashboard.state import DashboardState

        state = DashboardState(
            metrics=state_dict["metrics"],
            progress=state_dict["progress"],
            ratio_profiles=state_dict["ratio_profiles"],
            span_table=state_dict["span_table"],
            collapsed=state_dict["collapsed"],
        )
        lines.insert(0, f"attached to {client.base_url}")
    else:
        state = replay_state(args.telemetry_dir)
        state_dict = state.to_dict()
        state_json = state.to_json()
        lines.append(f"replayed {args.telemetry_dir}")
    lines.append(state.describe(top=args.top))
    if args.state_json:
        with open(args.state_json, "w", encoding="utf-8") as handle:
            handle.write(state_json)
        lines.append(f"wrote {args.state_json}")
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_dashboard_html(state=state_dict))
        lines.append(f"wrote {args.html}")
    if args.svg:
        from repro.dashboard import demo_trajectory_svg

        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(demo_trajectory_svg() + "\n")
        lines.append(f"wrote {args.svg}")
    return "\n".join(lines)


def _cmd_telemetry(args: argparse.Namespace) -> str:
    import os

    from repro.errors import InvalidParameterError
    from repro.observability import (
        prometheus_summary,
        read_trace_jsonl,
        summary,
    )

    if not os.path.exists(args.trace):
        raise InvalidParameterError(f"no trace file at {args.trace!r}")
    with open(args.trace, "r", encoding="utf-8") as handle:
        head = handle.read(1 << 20)
    # Sniff the artifact kind: traces open with a JSON header object,
    # Prometheus text opens with a # comment (or a bare sample line).
    if not head.lstrip().startswith("{"):
        with open(args.trace, "r", encoding="utf-8") as handle:
            return prometheus_summary(handle.read(), top=args.top)
    metadata, spans = read_trace_jsonl(args.trace)
    if not spans:
        return f"trace {args.trace} holds no spans"
    return summary(spans, top=args.top, metadata=metadata)


def _cmd_perf(args: argparse.Namespace):
    from repro.perf import (
        compare_reports,
        load_suite_report,
        profile_spans,
        run_suite,
        suite_names,
        workload_names,
        write_suite_report,
    )

    if args.perf_command == "run":
        from repro.perf.suite import (
            DEFAULT_REPEATS,
            DEFAULT_WARMUP,
            SUITES,
        )

        if args.list:
            lines = ["suites:"]
            for name in suite_names():
                size, members = SUITES[name]
                lines.append(f"  {name} ({size}): {', '.join(members)}")
            lines.append("workloads: " + ", ".join(workload_names()))
            return "\n".join(lines)
        report = run_suite(
            args.suite,
            repeats=(
                DEFAULT_REPEATS if args.repeats is None else args.repeats
            ),
            warmup=DEFAULT_WARMUP if args.warmup is None else args.warmup,
            only=args.workload,
            quick=args.quick,
        )
        path = write_suite_report(report, args.out)
        lines = []
        for name in sorted(report["workloads"]):
            seconds = report["workloads"][name]["seconds"]
            lines.append(
                f"{name:>20}: median {seconds['median']:.6f}s "
                f"(min {seconds['min']:.6f}s, "
                f"stdev {seconds['stdev']:.2g}s)"
            )
        for name, reason in sorted(report.get("skipped", {}).items()):
            lines.append(f"{name:>20}: skipped ({reason})")
        lines.append(
            f"wrote {path} ({len(report['workloads'])} workload(s), "
            f"suite {report['suite']!r}, size {report['size']!r})"
        )
        return "\n".join(lines)

    if args.perf_command == "compare":
        baseline = load_suite_report(args.baseline)
        candidate = load_suite_report(args.candidate)
        report = compare_reports(
            baseline,
            candidate,
            max_regression=args.max_regression,
            noise_stdevs=args.noise_stdevs,
        )
        return report.describe(), 0 if report.passed else 1

    if args.perf_command == "report":
        record = load_suite_report(args.record)
        fingerprint = record.get("fingerprint", {})
        lines = [
            f"suite {record['suite']!r} (size {record.get('size')!r}, "
            f"{record.get('repeats')} repeats, "
            f"{record.get('warmup')} warmup)",
            "fingerprint: " + ", ".join(
                f"{k}={fingerprint[k]}" for k in sorted(fingerprint)
            ),
        ]
        from repro.experiments.report import render_table

        rows = []
        for name in sorted(record.get("workloads", {})):
            entry = record["workloads"][name]
            seconds = entry["seconds"]
            rows.append([
                name, seconds["min"], seconds["median"], seconds["mean"],
                seconds["stdev"],
            ])
        lines.append(render_table(
            ["workload", "min s", "median s", "mean s", "stdev s"],
            rows,
            precision=6,
        ))
        for name, reason in sorted(record.get("skipped", {}).items()):
            lines.append(f"skipped {name}: {reason}")
        return "\n".join(lines)

    if args.perf_command == "flamegraph":
        from repro.observability import read_trace_jsonl
        from repro.perf import collapsed_stacks, write_collapsed

        metadata, spans = read_trace_jsonl(args.trace)
        if not spans:
            return f"trace {args.trace} holds no spans"
        if args.out:
            count = write_collapsed(args.out, spans)
            hottest = profile_spans(spans).stats[0]
            return (
                f"wrote {count} collapsed stack(s) to {args.out} "
                f"(hottest span: {hottest.name}, "
                f"{hottest.self_time:.6f}s self)"
            )
        return "\n".join(collapsed_stacks(spans))

    raise LineSearchError(f"unknown perf subcommand {args.perf_command!r}")


_DISPATCH = {
    "info": _cmd_info,
    "simulate": _cmd_simulate,
    "ratio": _cmd_ratio,
    "table1": _cmd_table1,
    "figure5": _cmd_figure5,
    "diagram": _cmd_diagram,
    "lowerbound": _cmd_lowerbound,
    "experiment": _cmd_experiment,
    "export": _cmd_export,
    "validate": _cmd_validate,
    "schedule": _cmd_schedule,
    "batch": _cmd_batch,
    "async": _cmd_async,
    "variants": _cmd_variants,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "dashboard": _cmd_dashboard,
    "telemetry": _cmd_telemetry,
    "perf": _cmd_perf,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Subcommands return either a string (exit code 0) or a
    ``(string, code)`` pair — ``chaos`` uses the latter so CI can gate
    on campaign failures.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = _DISPATCH[args.command](args)
    except LineSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = 0
    if isinstance(output, tuple):
        output, code = output
    try:
        print(output)
    except BrokenPipeError:
        # downstream pipe (e.g. `head`) closed early — not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return code
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
