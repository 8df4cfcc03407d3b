"""Command-line interface: regenerate any paper table or figure.

Examples::

    pomtlb list
    pomtlb table2
    pomtlb fig8 --benchmarks mcf,gups --cores 2 --scale 0.2
    pomtlb fig8 --benchmarks gups --trace-out trace.json --trace-sample 10
    pomtlb details --benchmarks mcf --metrics-out windows.json
    pomtlb profile --benchmarks mcf --scheme pom
    pomtlb campaign --output results.txt
    pomtlb campaign --workers 4 --checkpoint runs.jsonl
    pomtlb trace pack core0.trace core0.pwl.gz
    pomtlb trace unpack core0.pwl.gz roundtrip.trace
    pomtlb audit --benchmarks gcc,mcf --refs 2000 --scale 0.05
    pomtlb campaign --verify --output results.txt
    pomtlb campaign --workers 4 --status-out status.ndjson
    pomtlb top status.ndjson --follow
    pomtlb lifecycle churn --benchmarks gups,mcf --generations 10 --verify
    pomtlb lifecycle shootdown --rates 0,1,5,20 --refs 2000
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import List, Optional

from .common.errors import ConfigError, VerificationError
from .common.fileio import atomic_write_text
from .experiments import (ablations, campaign, consolidation, contention,
                          details, figures, profiling, tables, tradeoff)
from .experiments.runner import ExperimentParams, SuiteRunner
from .faults import NO_FAULTS, FaultPlan
from .obs import (NO_TELEMETRY, ChromeTraceSink, EventTracer, JsonlSink,
                  Observability)
from .workloads.suite import BENCHMARKS

#: Exit codes: 0 ok, 1 campaign degraded (failed runs in the report),
#: 2 usage/configuration error, 130 interrupted (128 + SIGINT).
EXIT_DEGRADED = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130

#: Experiments addressable from the command line.  Static entries take
#: no simulation; dynamic ones run the suite through a SuiteRunner.
_STATIC = {
    "table1": lambda: tables.table1(),
    "table2": lambda: tables.table2(),
    "fig1": lambda: figures.fig1_walk_steps(),
    "fig4": lambda: figures.fig4_sram_latency(),
    "contention": lambda: contention.channel_contention(),
}

_DYNAMIC = {
    "fig2": figures.fig2_translation_cycles,
    "fig3": figures.fig3_virt_native_ratio,
    "fig8": figures.fig8_performance,
    "fig9": figures.fig9_hit_ratio,
    "fig10": figures.fig10_predictors,
    "fig11": figures.fig11_row_buffer,
    "fig12": figures.fig12_caching_ablation,
    "capacity": figures.sensitivity_capacity,
    "cores": figures.sensitivity_cores,
    "ablation-priority": ablations.ablation_tlb_priority,
    "ablation-predictor": ablations.ablation_predictor,
    "ablation-bypass": ablations.ablation_bypass,
    "tradeoff": tradeoff.tradeoff_l4_vs_tlb,
    "ablation-skewed": ablations.ablation_skewed,
    "ablation-prefetch": ablations.ablation_prefetch,
}

_SCHEMES = ("baseline", "pom", "pom_skewed", "shared_l2", "tsb")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pomtlb",
        description="POM-TLB (ISCA 2017) reproduction: regenerate paper "
                    "tables and figures from simulation.")
    parser.add_argument("experiment",
                        choices=sorted(_STATIC) + sorted(_DYNAMIC)
                        + ["campaign", "consolidation", "details", "profile",
                           "list"],
                        help="which table/figure to regenerate")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated subset (default: all 15)")
    parser.add_argument("--cores", type=int, default=None,
                        help="core count (default: 8 or $POMTLB_CORES)")
    parser.add_argument("--refs", type=int, default=None,
                        help="measured references per core")
    parser.add_argument("--scale", type=float, default=None,
                        help="footprint scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed")
    parser.add_argument("--scheme", default="pom", choices=_SCHEMES,
                        help="translation scheme for 'profile' (default pom)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report(s) as JSON")
    parser.add_argument("--bars", metavar="COLUMN", default="",
                        help="render an ASCII bar chart of COLUMN instead "
                             "of the table")
    parser.add_argument("--output", default="",
                        help="write the report here instead of stdout "
                             "(written atomically)")
    parser.add_argument("--trace-out", default="",
                        help="write a structured event trace of every "
                             "simulated run; a .json suffix selects Chrome "
                             "trace-event format (Perfetto-loadable), "
                             "anything else JSONL")
    parser.add_argument("--trace-sample", type=int, default=1, metavar="N",
                        help="trace every N-th translation (default 1 = all)")
    parser.add_argument("--metrics-out", default="",
                        help="write time-windowed metrics (JSON) for every "
                             "simulated run")
    parser.add_argument("--window", type=int, default=1000, metavar="K",
                        help="references per metrics window (default 1000)")
    resilience = parser.add_argument_group(
        "resilience (campaign)",
        "isolated workers, retry with backoff, checkpoint-resume")
    resilience.add_argument("--workers", type=int, default=None, metavar="N",
                            help="run campaign simulations in N worker "
                                 "processes (default: serial or "
                                 "$POMTLB_WORKERS); a crashed or hung "
                                 "worker kills only its own run")
    resilience.add_argument("--timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="per-run wall-clock budget; enforced with "
                                 "--workers >= 2 (default: unlimited)")
    resilience.add_argument("--max-retries", type=int, default=None,
                            metavar="N",
                            help="retries per run after transient failures "
                                 "(timeout/crash; default 2)")
    resilience.add_argument("--retry-backoff", type=float, default=None,
                            metavar="SECONDS",
                            help="base exponential-backoff delay between "
                                 "attempts (default 0.25)")
    resilience.add_argument("--checkpoint", default="", metavar="PATH",
                            help="persist finished campaign runs to this "
                                 "JSONL store as they complete")
    resilience.add_argument("--resume", action="store_true",
                            help="skip runs already present in --checkpoint")
    resilience.add_argument("--inject-faults", default="",
                            metavar="SPEC", help=argparse.SUPPRESS)
    telemetry = parser.add_argument_group(
        "telemetry (campaign)",
        "live status stream, Prometheus metrics, HTML dashboard; "
        "all off (and costless) unless one of these is given")
    telemetry.add_argument("--status-out", default="", metavar="PATH",
                           help="stream campaign status as NDJSON to PATH "
                                "(one event per line, flushed; tail it "
                                "live with 'pomtlb top PATH --follow')")
    telemetry.add_argument("--telemetry-dir", default="", metavar="DIR",
                           help="write campaign_metrics.prom and "
                                "campaign_dashboard.html into DIR at "
                                "campaign end (default: next to --output, "
                                "else the working directory)")
    parser.add_argument("--verify", action="store_true",
                        help="arm the consistency audit (repro.verify) in "
                             "every simulated run; an invariant violation "
                             "aborts with a VerificationError naming the "
                             "invariant")
    parser.add_argument("--no-batch", action="store_true",
                        help="force the scalar replay loop instead of the "
                             "vectorized batch engine (pomtlb[fast]); "
                             "results are bit-identical either way "
                             "(also: POMTLB_BATCH=0)")
    return parser


def _params_from_args(args: argparse.Namespace) -> ExperimentParams:
    overrides = {}
    if args.cores is not None:
        overrides["num_cores"] = args.cores
    if args.refs is not None:
        overrides["refs_per_core"] = args.refs
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.timeout is not None:
        overrides["run_timeout_s"] = args.timeout
    if args.max_retries is not None:
        overrides["max_retries"] = args.max_retries
    if args.retry_backoff is not None:
        overrides["retry_backoff_s"] = args.retry_backoff
    if args.verify:
        overrides["verify"] = True
    if args.no_batch:
        overrides["batch"] = False
    return ExperimentParams.from_env(**overrides)


class _ObsSession:
    """CLI-side observability plumbing shared by every run of one command.

    Owns the trace sink (one file for all runs; ``run_meta`` events keep
    them separable) and collects each run's windowed metrics so they can
    be written as one JSON document at the end.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.sample = args.trace_sample
        self.metrics_out = args.metrics_out
        self.window = args.window if args.metrics_out else 0
        if args.trace_out:
            sink_cls = (ChromeTraceSink if args.trace_out.endswith(".json")
                        else JsonlSink)
            self.sink = sink_cls(args.trace_out)
        else:
            self.sink = None
        self._runs: List[tuple] = []

    @property
    def enabled(self) -> bool:
        return self.sink is not None or self.window > 0

    def factory(self, benchmark: str, scheme: str) -> Observability:
        """The :data:`~repro.experiments.runner.ObsFactory` for this CLI run."""
        tracer = None
        if self.sink is not None:
            tracer = EventTracer([self.sink], sample=self.sample,
                                 meta={"benchmark": benchmark,
                                       "scheme": scheme})
        obs = Observability(tracer=tracer, window=self.window)
        self._runs.append((benchmark, scheme, obs))
        return obs

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
        if self.metrics_out:
            runs = [{"benchmark": benchmark, "scheme": scheme,
                     **obs.windows.as_dict()}
                    for benchmark, scheme, obs in self._runs
                    if obs.windows is not None]
            atomic_write_text(self.metrics_out,
                              json.dumps({"window": self.window,
                                          "runs": runs}, indent=2) + "\n")


def _render(args: argparse.Namespace, report) -> str:
    if args.json:
        return report.to_json() + "\n"
    if args.bars:
        return report.render_bars(args.bars) + "\n"
    return report.render() + "\n"


def _trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pomtlb trace",
        description="Convert between the text #pomtlb-trace format and "
                    "the packed binary columnar format (a .gz suffix on "
                    "either side selects gzip).")
    actions = parser.add_subparsers(dest="action", required=True)
    pack = actions.add_parser(
        "pack", help="text trace -> packed binary (records stream "
                     "straight into columns; the trace is never held as "
                     "Python objects)")
    pack.add_argument("input", help="text #pomtlb-trace file (.gz ok)")
    pack.add_argument("output", help="packed trace to write (.gz ok)")
    unpack = actions.add_parser(
        "unpack", help="packed binary -> text trace")
    unpack.add_argument("input", help="packed trace file (.gz ok)")
    unpack.add_argument("output", help="text #pomtlb-trace to write (.gz ok)")
    return parser


def _trace_main(argv: List[str]) -> int:
    from .common.errors import PackedTraceError, TraceFormatError
    from .workloads.packed import load_packed, save_packed
    from .workloads.trace import load_stream, save_stream, validate_stream

    args = _trace_parser().parse_args(argv)
    try:
        if args.action == "pack":
            stream = load_stream(args.input)
            # The loader already enforced per-record invariants;
            # validate_stream adds cross-record monotonicity so the
            # validated flag in the output is trustworthy.
            validate_stream(stream)
            save_packed(args.output, [stream], validated=True)
            print(f"packed {len(stream)} record(s) "
                  f"(core={stream.core} vm={stream.vm_id} "
                  f"asid={stream.asid}) -> {args.output}")
        else:
            container = load_packed(args.input)
            if len(container.streams) != 1:
                print(f"{args.input}: holds {len(container.streams)} "
                      "streams (a compiled workload, not a single "
                      "core trace); the text format is one stream "
                      "per file", file=sys.stderr)
                return EXIT_USAGE
            stream = container.streams[0]
            save_stream(stream, args.output)
            print(f"unpacked {len(stream)} record(s) "
                  f"(core={stream.core} vm={stream.vm_id} "
                  f"asid={stream.asid}) -> {args.output}")
    except (TraceFormatError, PackedTraceError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot {args.action} trace: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


def _audit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pomtlb audit",
        description="Differential consistency audit: replay one workload "
                    "through every translation scheme with the invariant "
                    "checkers armed, cross-check functional page mappings "
                    "between schemes and counters against the frozen "
                    "reference engine.  On a violation the trace is shrunk "
                    "to a minimal repro and written as a packed .pwl "
                    "artifact.")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--schemes", default="all",
                        help="comma-separated schemes or 'all' "
                             f"(default; all = {','.join(_SCHEMES)})")
    parser.add_argument("--invariants", default="",
                        help="comma-separated invariant names to run "
                             "(default: all registered invariants)")
    parser.add_argument("--cores", type=int, default=None,
                        help="core count (default: 8 or $POMTLB_CORES)")
    parser.add_argument("--refs", type=int, default=None,
                        help="measured references per core")
    parser.add_argument("--scale", type=float, default=None,
                        help="footprint scale factor")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed")
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the frozen-reference counter comparison")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report the violation without shrinking the "
                             "trace to a minimal repro")
    parser.add_argument("--artifacts", default="audit-artifacts",
                        metavar="DIR",
                        help="directory for shrunk violation traces "
                             "(default: audit-artifacts)")
    return parser


def _audit_main(argv: List[str]) -> int:
    from .common.errors import VerificationError
    from .verify import INVARIANT_REGISTRY, audit_benchmark
    from .verify.differential import ALL_SCHEMES

    args = _audit_parser().parse_args(argv)
    benchmarks = [b for b in args.benchmarks.split(",") if b] or \
        list(BENCHMARKS)
    for name in benchmarks:
        if name not in BENCHMARKS:
            print(f"unknown benchmark {name!r}; see 'pomtlb list'",
                  file=sys.stderr)
            return EXIT_USAGE
    if args.schemes == "all":
        schemes = ALL_SCHEMES
    else:
        schemes = tuple(s for s in args.schemes.split(",") if s)
        for name in schemes:
            if name not in _SCHEMES:
                print(f"unknown scheme {name!r} "
                      f"(known: {', '.join(_SCHEMES)})", file=sys.stderr)
                return EXIT_USAGE
    if not schemes:
        print("--schemes selected nothing", file=sys.stderr)
        return EXIT_USAGE
    for name in [i for i in args.invariants.split(",") if i]:
        if name not in INVARIANT_REGISTRY:
            print(f"unknown invariant {name!r} "
                  f"(known: {', '.join(sorted(INVARIANT_REGISTRY))})",
                  file=sys.stderr)
            return EXIT_USAGE

    overrides = {}
    if args.cores is not None:
        overrides["num_cores"] = args.cores
    if args.refs is not None:
        overrides["refs_per_core"] = args.refs
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        params = ExperimentParams.from_env(**overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    invariants = tuple(i for i in args.invariants.split(",") if i) or None
    try:
        for benchmark in benchmarks:
            report = audit_benchmark(
                benchmark, params, schemes=schemes,
                invariants=invariants,
                use_reference=not args.no_reference,
                shrink=not args.no_shrink,
                artifact_dir=args.artifacts)
            checked = "+reference" if report.reference_checked else ""
            print(f"audit {benchmark}: OK "
                  f"({len(report.results)} scheme(s){checked})")
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except VerificationError as exc:
        print(f"audit FAILED: {exc}", file=sys.stderr)
        return EXIT_DEGRADED
    return 0


def _lifecycle_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pomtlb lifecycle",
        description="VM lifecycle scenarios: consolidation churn "
                    "(boot/teardown storms with frame reclamation), "
                    "cold-migration bursts, and shootdown-interference "
                    "sweeps, per scheme.")
    parser.add_argument("scenario", choices=("churn", "migrate",
                                             "shootdown", "all"),
                        help="which scenario to run ('all' runs the "
                             "three in sequence)")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated VM mix for churn/migrate "
                             "(default: the study's mix); single name "
                             "for shootdown")
    parser.add_argument("--generations", type=int, default=5,
                        help="churn: boot/teardown generations per VM "
                             "slot (default 5)")
    parser.add_argument("--bursts", type=int, default=4,
                        help="migrate: cold-migration bursts (default 4)")
    parser.add_argument("--rates", default="",
                        help="shootdown: comma-separated storm rates in "
                             "shootdowns per 1000 refs (default "
                             "0,1,5,20)")
    parser.add_argument("--schemes", default="all",
                        help="comma-separated schemes or 'all' "
                             f"(default; all = {','.join(_SCHEMES)})")
    parser.add_argument("--cores", type=int, default=None,
                        help="core count for shootdown (churn/migrate "
                             "use one core per VM)")
    parser.add_argument("--refs", type=int, default=None,
                        help="measured references per core")
    parser.add_argument("--scale", type=float, default=None,
                        help="footprint scale factor")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed")
    parser.add_argument("--verify", action="store_true",
                        help="arm the consistency-audit invariants "
                             "during every run (results are "
                             "bit-identical; violations exit 1)")
    parser.add_argument("--no-batch", action="store_true",
                        help="force the scalar engine even where no "
                             "events are scheduled")
    parser.add_argument("--json", action="store_true",
                        help="emit reports as JSON")
    parser.add_argument("--output", default="", metavar="PATH",
                        help="also write the reports to PATH (atomic)")
    parser.add_argument("--artifacts", default="lifecycle-artifacts",
                        metavar="DIR",
                        help="directory for violation reports when "
                             "--verify trips (default: "
                             "lifecycle-artifacts)")
    return parser


def _lifecycle_main(argv: List[str]) -> int:
    from .experiments import lifecycle

    args = _lifecycle_parser().parse_args(argv)
    benchmarks = [b for b in args.benchmarks.split(",") if b]
    for name in benchmarks:
        if name not in BENCHMARKS:
            print(f"unknown benchmark {name!r}; see 'pomtlb list'",
                  file=sys.stderr)
            return EXIT_USAGE
    if args.schemes == "all":
        schemes = lifecycle.ALL_SCHEMES
    else:
        schemes = tuple(s for s in args.schemes.split(",") if s)
        for name in schemes:
            if name not in _SCHEMES:
                print(f"unknown scheme {name!r} "
                      f"(known: {', '.join(_SCHEMES)})", file=sys.stderr)
                return EXIT_USAGE
    if not schemes:
        print("--schemes selected nothing", file=sys.stderr)
        return EXIT_USAGE
    if args.generations < 1:
        print("--generations must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.bursts < 0:
        print("--bursts must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        rates = tuple(float(r) for r in args.rates.split(",") if r) or \
            lifecycle.DEFAULT_RATES
    except ValueError:
        print(f"bad --rates value {args.rates!r} (need numbers)",
              file=sys.stderr)
        return EXIT_USAGE
    if any(rate < 0 for rate in rates):
        print("--rates must be >= 0", file=sys.stderr)
        return EXIT_USAGE

    overrides = {"verify": args.verify}
    if args.no_batch:
        overrides["batch"] = False
    if args.cores is not None:
        overrides["num_cores"] = args.cores
    if args.refs is not None:
        overrides["refs_per_core"] = args.refs
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        params = ExperimentParams.from_env(**overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    reports = []
    try:
        if args.scenario in ("churn", "all"):
            reports.append(lifecycle.churn_study(
                params,
                benchmarks=benchmarks or lifecycle.DEFAULT_CHURN_MIX,
                generations=args.generations, schemes=schemes))
        if args.scenario in ("migrate", "all"):
            reports.append(lifecycle.migration_study(
                params,
                benchmarks=benchmarks or lifecycle.DEFAULT_MIGRATION_MIX,
                bursts=args.bursts, schemes=schemes))
        if args.scenario in ("shootdown", "all"):
            if len(benchmarks) > 1:
                print("shootdown sweeps one benchmark; pass a single "
                      "--benchmarks name", file=sys.stderr)
                return EXIT_USAGE
            reports.append(lifecycle.shootdown_sweep(
                params, benchmark=benchmarks[0] if benchmarks else "gups",
                rates=rates, schemes=schemes))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except VerificationError as exc:
        print(f"lifecycle verification FAILED: {exc}", file=sys.stderr)
        if args.artifacts:
            os.makedirs(args.artifacts, exist_ok=True)
            path = os.path.join(args.artifacts, "lifecycle_violation.txt")
            atomic_write_text(path, f"scenario: {args.scenario}\n"
                                    f"params: {params}\n"
                                    f"violation: {exc}\n")
            print(f"violation report written to {path}", file=sys.stderr)
        return EXIT_DEGRADED

    if args.json:
        text = "\n".join(report.to_json() for report in reports) + "\n"
    else:
        text = "\n".join(report.render() for report in reports) + "\n"
    sys.stdout.write(text)
    if args.output:
        atomic_write_text(args.output, text)
    return 0


def _top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pomtlb top",
        description="Render a live fleet view of a running (or finished) "
                    "campaign from its --status-out NDJSON stream.")
    parser.add_argument("status", help="NDJSON status file written by "
                                       "'pomtlb campaign --status-out'")
    parser.add_argument("--follow", action="store_true",
                        help="keep tailing and redrawing until the "
                             "campaign_end event (default: render the "
                             "current state once and exit)")
    parser.add_argument("--interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="redraw period with --follow (default 1.0)")
    return parser


def _top_main(argv: List[str]) -> int:
    import time

    from .obs import StatusSnapshot
    from .obs.telemetry import render_top

    args = _top_parser().parse_args(argv)
    if args.interval <= 0:
        print("--interval must be > 0", file=sys.stderr)
        return EXIT_USAGE
    snapshot = StatusSnapshot()
    try:
        stream = open(args.status, "r", encoding="utf-8")
    except OSError as exc:
        print(f"cannot open status file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        while True:
            # The writer emits whole flushed lines; a partial final line
            # (mid-write) parses as garbage once at worst and is ignored
            # by the tolerant snapshot, then re-read complete next poll.
            position = stream.tell()
            line = stream.readline()
            if line:
                if not line.endswith("\n"):
                    stream.seek(position)
                else:
                    snapshot.apply_line(line)
                    continue
            if not args.follow or snapshot.finished:
                break
            sys.stdout.write("\x1b[2J\x1b[H" + render_top(snapshot) + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        stream.close()
    sys.stdout.write(render_top(snapshot) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "audit":
        return _audit_main(argv[1:])
    if argv and argv[0] == "top":
        return _top_main(argv[1:])
    if argv and argv[0] == "lifecycle":
        return _lifecycle_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.experiment == "list":
        print("static:  ", ", ".join(sorted(_STATIC)))
        print("dynamic: ", ", ".join(sorted(_DYNAMIC)),
              "+ campaign, details, profile")
        print("tools:    trace pack, trace unpack, audit, top, "
              "lifecycle {churn,migrate,shootdown,all}")
        print("benchmarks:", ", ".join(BENCHMARKS))
        return 0

    benchmarks = [b for b in args.benchmarks.split(",") if b]
    for name in benchmarks:
        if name not in BENCHMARKS:
            print(f"unknown benchmark {name!r}; see 'pomtlb list'",
                  file=sys.stderr)
            return 2

    if args.experiment == "campaign" and args.bars:
        print("campaign emits many reports; --bars only applies to "
              "single-report experiments (e.g. 'pomtlb fig8 --bars "
              "improvement_percent')", file=sys.stderr)
        return 2

    if args.trace_sample < 1:
        print("--trace-sample must be >= 1", file=sys.stderr)
        return 2

    if args.experiment != "campaign":
        for flag, name in ((args.checkpoint, "--checkpoint"),
                           (args.resume, "--resume"),
                           (args.inject_faults, "--inject-faults"),
                           (args.status_out, "--status-out"),
                           (args.telemetry_dir, "--telemetry-dir")):
            if flag:
                print(f"{name} only applies to 'pomtlb campaign'",
                      file=sys.stderr)
                return 2
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2

    faults = NO_FAULTS
    if args.inject_faults:
        try:
            faults = FaultPlan.parse(args.inject_faults)
        except ConfigError as exc:
            print(f"bad --inject-faults spec: {exc}", file=sys.stderr)
            return 2

    try:
        params = _params_from_args(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        obs = _ObsSession(args)
    except OSError as exc:
        print(f"cannot open --trace-out file: {exc}", file=sys.stderr)
        return 2
    obs_factory = obs.factory if obs.enabled else None
    if (obs.enabled and args.experiment == "campaign" and params.workers > 1):
        print("note: per-translation tracing/metrics run in-process; "
              "with --workers > 1 only campaign-level run events are "
              "traced", file=sys.stderr)
    telemetry = NO_TELEMETRY
    if args.status_out or args.telemetry_dir:
        from .obs import CampaignTelemetry
        export_dir = args.telemetry_dir or os.path.dirname(args.output) or "."
        # Fail before simulating anything, not when the finished
        # campaign's exporters run.
        try:
            os.makedirs(export_dir, exist_ok=True)
        except OSError as exc:
            obs.close()
            print(f"cannot create --telemetry-dir {export_dir}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            telemetry = CampaignTelemetry(status_path=args.status_out,
                                          export_dir=export_dir)
        except OSError as exc:
            obs.close()
            print(f"cannot open --status-out file: {exc}", file=sys.stderr)
            return 2
    degraded = False
    try:
        if args.experiment == "campaign":
            if args.json:
                result = campaign.run_all(params, benchmarks,
                                          out=io.StringIO(),
                                          obs_factory=obs_factory,
                                          checkpoint_path=args.checkpoint,
                                          resume=args.resume, faults=faults,
                                          telemetry=telemetry)
                text = json.dumps(
                    [json.loads(report.to_json()) for report in result],
                    indent=2) + "\n"
            else:
                buffer = io.StringIO()
                result = campaign.run_all(
                    params, benchmarks,
                    out=buffer if args.output else sys.stdout,
                    obs_factory=obs_factory,
                    checkpoint_path=args.checkpoint,
                    resume=args.resume, faults=faults,
                    telemetry=telemetry)
                text = buffer.getvalue()
            if result.failures:
                degraded = True
                print(f"campaign degraded: {len(result.failures)} run(s) "
                      f"failed; see the 'Campaign failures' table",
                      file=sys.stderr)
        else:
            if args.experiment in _STATIC:
                report = _STATIC[args.experiment]()
            elif args.experiment == "details":
                if len(benchmarks) != 1:
                    print("details needs exactly one --benchmarks entry",
                          file=sys.stderr)
                    return 2
                runner = SuiteRunner(params, obs_factory=obs_factory)
                report = details.benchmark_details(runner, benchmarks[0])
            elif args.experiment == "profile":
                if len(benchmarks) != 1:
                    print("profile needs exactly one --benchmarks entry",
                          file=sys.stderr)
                    return 2
                report = profiling.profile_benchmark(
                    params, benchmarks[0], scheme=args.scheme)
            elif args.experiment == "consolidation":
                report = consolidation.consolidation_study(
                    params, benchmarks or consolidation.DEFAULT_MIX)
            else:
                runner = SuiteRunner(params, obs_factory=obs_factory)
                report = _DYNAMIC[args.experiment](runner, benchmarks)
            text = _render(args, report)
    except KeyboardInterrupt:
        print("interrupted"
              + (f"; finished runs are checkpointed in {args.checkpoint}"
                 if args.experiment == "campaign" and args.checkpoint
                 else ""),
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_DEGRADED
    finally:
        obs.close()

    if args.output:
        try:
            atomic_write_text(args.output, text)
        except OSError as exc:
            print(f"cannot write --output file: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return EXIT_DEGRADED if degraded else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
