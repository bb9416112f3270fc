"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------
``generate``   Generate the synthetic dataset and write NDT/traceroute CSVs
               (optionally dirtied with ``--inject-faults``).
``report``     Run the staged pipeline (generate → inject → ingest → all 18
               experiments) and print the full reproduction report.  One
               failing experiment degrades gracefully: the other seventeen
               still print and the exit code turns nonzero.
``run``        Alias for ``report`` (the canonical spelling in docs).
``experiment`` Run a single experiment (table1, table2, ..., fig9).
``scenarios``  Compare key findings across ablation scenarios.
``lint``       Run the repo's static-analysis rules (see docs/LINT.md).
``obs``        Summarize / diff / validate observability artifacts, render
               lineage, account memory (see docs/OBSERVABILITY.md).
``bench``      Run / compare / record benchmark registry entries against
               ``BENCH_history.jsonl`` (see docs/OBSERVABILITY.md).
``chaos``      Crash-matrix harness: kill a pipeline run at every announced
               mid-commit crash point, resume, verify byte-identical
               outputs (see docs/ROBUSTNESS.md).
``plan``       Inspect lazy query plans: before/after optimizer trees for
               representative chains (see docs/TABLES.md).
``live``       Live observability: replay the NDT stream through the
               sliding-window aggregator + alert engine, write the
               canonical ``alerts.json``, serve the health API
               (see docs/OBSERVABILITY.md, "Live observability").

Exit codes
----------
0  success; 1 unexpected typed error; 2 usage (argparse);
3  generation-side failure (generate / inject-faults / ingest);
4  analysis-side failure (one or more experiments failed);
5  lint findings above the baseline (``repro lint``);
6  performance regression beyond threshold (``repro bench compare``);
7  unrecovered crash in the crash matrix (``repro chaos``).

Fault-tolerance flags (global)
------------------------------
``--inject-faults PROFILE``  dirty the dataset like a real M-Lab extract
                             (profiles: none, default, heavy).
``--strict``                 raise on malformed rows instead of quarantining.
``--resume``                 reuse stage checkpoints from a previous run.
``--checkpoint-dir DIR``     where checkpoints live (results/.checkpoints).

Observability flags (global)
----------------------------
``--trace``             record nested spans; write ``trace.jsonl`` + the
                        Chrome ``chrome://tracing`` view under ``--obs-dir``.
``--trace-out PATH``    JSONL trace path (implies ``--trace``).
``--metrics``           record counters/histograms; write ``metrics.json``.
``--metrics-out PATH``  metrics snapshot path (implies ``--metrics``).
``--profile``           hotspot profiling (implies ``--trace --metrics``):
                        span-attributed self-time in ``profile.json``, a
                        statistical stack sampler (``samples.collapsed`` +
                        ``samples_chrome.json``), and per-span allocation
                        attribution.  ``REPRO_PROFILE=1`` does the same.
``--obs-dir DIR``       artifact directory (default: results/obs); a traced
                        or metered run also writes ``run_report.json`` +
                        ``run_report.txt`` + ``provenance.json`` there.
``--log LEVEL``         log verbosity (debug|info|warn|error); the
                        ``REPRO_LOG`` env var is honored when absent.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro import obs, storage
from repro.faults import PROFILES, FaultInjector, get_profile
from repro.faults import chaos as chaos_cli
from repro.lint import cli as lint_cli
from repro.obs import bench as bench_cli
from repro.obs import cli as obs_cli
from repro.obs.live import cli as live_cli
from repro.obs.export import write_chrome_trace, write_spans_jsonl
from repro.obs.lineage import write_provenance
from repro.obs.metrics import snapshot_to_json
from repro.obs.report import build_run_report, write_run_report
from repro.runtime.checkpoint import config_key
from repro.runtime.experiments import EXPERIMENT_NAMES
from repro.runtime.run import (
    DEFAULT_CHECKPOINT_DIR,
    EXIT_ANALYSIS,
    EXIT_GENERATION,
    EXIT_OK,
    run_pipeline,
)
from repro.synth.generator import DatasetGenerator, GeneratorConfig
from repro.synth.scenario import Scenario, scenario_config
from repro.tables.io import write_csv
from repro.tables.plan import cli as plan_cli
from repro.tables.pretty import format_table
from repro.util.errors import PipelineError, ReproError

__all__ = ["main"]

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'The Ukrainian Internet Under Attack' (IMC '22) "
        "over a synthetic M-Lab/NDT substrate.",
    )
    parser.add_argument("--seed", type=int, default=20220224, help="master seed")
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="test-volume multiplier (1.0 = paper scale, ~110k tests)",
    )
    parser.add_argument(
        "--inject-faults", metavar="PROFILE", choices=sorted(PROFILES),
        default=None,
        help="dirty the generated tables like a real M-Lab extract "
        f"(choices: {', '.join(sorted(PROFILES))})",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on malformed rows instead of quarantining them",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reuse stage checkpoints left by a previous (possibly killed) run",
    )
    parser.add_argument(
        "--checkpoint-dir", default=DEFAULT_CHECKPOINT_DIR,
        help="stage checkpoint directory (default: %(default)s)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record spans; write trace.jsonl + Chrome trace under --obs-dir",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="JSONL trace path (implies --trace; default: <obs-dir>/trace.jsonl)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="record counters/histograms; write metrics.json under --obs-dir",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="metrics snapshot path (implies --metrics; "
        "default: <obs-dir>/metrics.json)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="hotspot profiling: self-time profile.json, stack samples, "
        "allocation attribution (implies --trace --metrics; env: "
        "REPRO_PROFILE=1)",
    )
    parser.add_argument(
        "--obs-dir", default=os.path.join("results", "obs"),
        help="observability artifact directory (default: %(default)s)",
    )
    parser.add_argument(
        "--log", default=None, metavar="LEVEL",
        choices=("debug", "info", "warn", "warning", "error"),
        help="log verbosity (default: REPRO_LOG env var, else info)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate the dataset and write CSVs")
    gen.add_argument("--out", default="results", help="output directory")

    sub.add_parser("report", help="print the full reproduction report")
    sub.add_parser("run", help="alias for 'report'")

    exp = sub.add_parser("experiment", help="run one experiment")
    exp.add_argument("name", choices=EXPERIMENT_NAMES)

    scen = sub.add_parser("scenarios", help="compare ablation scenarios")
    scen.add_argument(
        "--which", nargs="*", default=[s.value for s in Scenario],
        choices=[s.value for s in Scenario],
    )

    sub.add_parser("validate", help="generate a dataset and check invariants")
    sub.add_parser("topology", help="print the simulated topology summary")

    lint_cli.configure_parser(sub)
    obs_cli.configure_parser(sub)
    bench_cli.configure_parser(sub)
    chaos_cli.configure_parser(sub)
    plan_cli.configure_parser(sub)
    live_cli.configure_parser(sub)
    return parser


def _profile_wanted(args) -> bool:
    if getattr(args, "profile", False):
        return True
    from repro.obs.profile import env_profile_enabled

    return env_profile_enabled()


def _obs_wanted(args) -> bool:
    return bool(
        getattr(args, "trace", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "metrics", False)
        or getattr(args, "metrics_out", None)
        or _profile_wanted(args)
    )


def _run_id(args) -> str:
    config = GeneratorConfig(seed=args.seed, scale=args.scale)
    return config_key(
        config, extra={"faults": args.inject_faults or "none"}
    )[:8]


def _obs_setup(args) -> None:
    """Enable the requested pillars before the pipeline starts."""
    obs.set_run_context(run_id=_run_id(args))
    if not _obs_wanted(args):
        return
    profile_on = _profile_wanted(args)
    trace_on = bool(args.trace or args.trace_out) or profile_on
    metrics_on = bool(args.metrics or args.metrics_out) or profile_on
    # Lineage rides along with any observed run: fingerprinting the
    # handful of tables per stage is cheap next to tracing the stages.
    obs.enable(trace=trace_on, metrics=metrics_on, lineage=True)
    if profile_on:
        from repro.obs.profile import start_profiling

        start_profiling()


def _obs_finish(args, report, gates=None, injection=None) -> None:
    """Write the artifacts a traced/metered run promised; print their paths."""
    if not _obs_wanted(args):
        return
    written = []
    session = None
    if _profile_wanted(args):
        from repro.obs.profile import stop_profiling

        # Stop the sampler thread and detach the allocation hook before
        # exporting anything; the session keeps its collected data.
        session = stop_profiling()
    tracer = obs.tracer()
    if tracer is not None:
        trace_path = args.trace_out or os.path.join(args.obs_dir, "trace.jsonl")
        write_spans_jsonl(tracer, trace_path)
        chrome_path = os.path.join(
            os.path.dirname(os.path.abspath(trace_path)), "trace_chrome.json"
        )
        write_chrome_trace(tracer, chrome_path)
        written += [trace_path, chrome_path]
    snapshot = obs.metrics_snapshot() if obs.metrics_enabled() else None
    if snapshot is not None:
        metrics_path = args.metrics_out or os.path.join(
            args.obs_dir, "metrics.json"
        )
        storage.commit_text(
            metrics_path, snapshot_to_json(snapshot), label="obs.metrics"
        )
        written.append(metrics_path)
    if report is not None:
        data = build_run_report(
            report,
            run_id=_run_id(args),
            tracer=tracer,
            metrics_snapshot=snapshot,
            gates=gates,
            injection=injection,
        )
        paths = write_run_report(data, args.obs_dir)
        written += [paths["json"], paths["txt"]]
    if session is not None and tracer is not None:
        from repro.obs.profile import build_profile_doc, write_profile

        doc = build_profile_doc(
            tracer.spans,
            run_id=_run_id(args),
            source="trace",
            spans_leaked=tracer.spans_leaked,
            leaked_names=tracer.leaked_names(),
            sampler=session.sampler_summary(),
            allocs=session.alloc_summary(),
        )
        profile_path = os.path.join(args.obs_dir, "profile.json")
        write_profile(doc, profile_path)
        written.append(profile_path)
        collapsed = session.collapsed_text()
        if collapsed:
            collapsed_path = os.path.join(args.obs_dir, "samples.collapsed")
            storage.commit_text(
                collapsed_path, collapsed, label="profile.samples"
            )
            chrome_samples = os.path.join(args.obs_dir, "samples_chrome.json")
            write_chrome_trace(
                session.sample_spans(), chrome_samples,
                process_name="repro-sampler",
            )
            written += [collapsed_path, chrome_samples]
    recorder = obs.lineage_recorder()
    if recorder is not None and len(recorder):
        recorder.set_run(run_id=_run_id(args))
        prov_path = os.path.join(args.obs_dir, "provenance.json")
        write_provenance(recorder, prov_path)
        written.append(prov_path)
    obs.disable()
    for path in written:
        print(f"obs: wrote {path}", file=sys.stderr)


def _generate(args) -> "object":
    config = GeneratorConfig(seed=args.seed, scale=args.scale)
    return DatasetGenerator(config).generate()


def _run_pipeline(args, experiments: Optional[Sequence[str]] = None):
    config = GeneratorConfig(seed=args.seed, scale=args.scale)
    profile = get_profile(args.inject_faults) if args.inject_faults else None
    return run_pipeline(
        config,
        profile=profile,
        strict=args.strict,
        resume=args.resume,
        checkpoint_dir=args.checkpoint_dir,
        experiments=experiments,
    )


def _cmd_generate(args) -> int:
    try:
        dataset = _generate(args)
        injection = None
        if args.inject_faults:
            profile = get_profile(args.inject_faults)
            if profile.total_rate > 0:
                dataset, injection = FaultInjector(
                    profile, seed=args.seed
                ).inject_dataset(dataset)
        write_csv(dataset.ndt, f"{args.out}/ndt_downloads.csv")
        write_csv(dataset.traces, f"{args.out}/traceroutes.csv")
    except ReproError as exc:
        print(f"error: generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    print(
        f"wrote {dataset.ndt.n_rows} NDT rows and {dataset.traces.n_rows} "
        f"traceroutes under {args.out}/"
    )
    if injection is not None:
        print(injection)
    return EXIT_OK


def _cmd_report(args) -> int:
    _obs_setup(args)
    try:
        run = _run_pipeline(args)
    except PipelineError as exc:
        partial = getattr(exc, "partial_run", None)
        if partial is not None:
            print(partial.render(), file=sys.stderr)
            _obs_finish(
                args, partial.report,
                gates=partial.gates, injection=partial.injection,
            )
        else:
            _obs_finish(args, None)
        print(f"error: generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    _obs_finish(args, run.report, gates=run.gates, injection=run.injection)
    print(run.render())
    if run.exit_code != EXIT_OK:
        failed = ", ".join(r.name for r in run.report.failures())
        print(f"error: experiments failed: {failed}", file=sys.stderr)
    return run.exit_code


def _cmd_experiment(args) -> int:
    _obs_setup(args)
    try:
        run = _run_pipeline(args, experiments=[args.name])
    except PipelineError as exc:
        partial = getattr(exc, "partial_run", None)
        _obs_finish(args, partial.report if partial is not None else None)
        print(f"error: generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    _obs_finish(args, run.report, gates=run.gates, injection=run.injection)
    if args.name in run.sections:
        print(run.sections[args.name])
    for failure in run.report.failures():
        print(
            f"error: experiment {failure.name!r} failed: {failure.error}",
            file=sys.stderr,
        )
        if failure.traceback:
            print(failure.traceback, file=sys.stderr)
    return run.exit_code


def _cmd_scenarios(args) -> int:
    from repro.analysis.city import city_welch_table
    from repro.analysis.paths import path_count_table
    from repro.tables.table import Table

    rows = []
    for name in args.which:
        scenario = Scenario(name)
        config = scenario_config(
            scenario, GeneratorConfig(seed=args.seed, scale=args.scale)
        )
        dataset = DatasetGenerator(config).generate()
        national = city_welch_table(dataset.ndt, cities=[]).to_dicts()[-1]
        paths = {r["period"]: r for r in path_count_table(dataset.traces).iter_rows()}
        rows.append(
            {
                "scenario": name,
                "rtt_pre": national["min_rtt_ms_prewar"],
                "rtt_war": national["min_rtt_ms_wartime"],
                "loss_pre": national["loss_rate_prewar"],
                "loss_war": national["loss_rate_wartime"],
                "paths_pre": paths["prewar"]["paths_per_conn"],
                "paths_war": paths["wartime"]["paths_per_conn"],
            }
        )
    print(
        format_table(
            Table.from_rows(rows),
            title="National RTT/loss and paths-per-connection by scenario",
            float_fmts={"loss_pre": ".4f", "loss_war": ".4f"},
            float_fmt=".2f",
        )
    )
    return 0


def _cmd_validate(args) -> int:
    from repro.synth.validate import validate_dataset

    report = validate_dataset(_generate(args))
    print(report)
    return 0 if report.passed else 1


def _cmd_topology(args) -> int:
    from repro.netbase.asn import ASRole
    from repro.topology.builder import build_default_topology

    topo = build_default_topology()
    print(f"ASes: {len(topo.registry)}  links: {topo.graph.n_links()}")
    for role in ASRole:
        members = topo.registry.with_role(role)
        names = ", ".join(f"AS{a.asn} {a.name}" for a in members[:6])
        more = f" (+{len(members) - 6} more)" if len(members) > 6 else ""
        print(f"  {role.value:8s} ({len(members):2d}): {names}{more}")
    print("M-Lab sites:")
    for asn, spec in sorted(topo.mlab_sites.items()):
        providers = sorted(topo.graph.providers(asn))
        print(f"  {spec.code} ({spec.country}, AS{asn}) <- {providers}")
    print("degradation schedules:")
    for sched in topo.degradation_schedules:
        kind = "performance" if sched.affects_performance else "routing-only"
        print(
            f"  link {sched.link_key}: {sched.start.iso()} -> {sched.end.iso()} "
            f"floor {sched.floor} [{kind}]"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    obs.configure_logging(getattr(args, "log", None))
    handlers = {
        "generate": _cmd_generate,
        "report": _cmd_report,
        "run": _cmd_report,
        "experiment": _cmd_experiment,
        "scenarios": _cmd_scenarios,
        "validate": _cmd_validate,
        "topology": _cmd_topology,
        "lint": lint_cli.cmd_lint,
        "obs": obs_cli.cmd_obs,
        "bench": bench_cli.cmd_bench,
        "chaos": chaos_cli.cmd_chaos,
        "plan": plan_cli.cmd_plan,
        "live": live_cli.cmd_live,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout went away (``repro ... | head``); exit quietly like a
        # well-behaved unix tool.  Redirect to devnull so the interpreter's
        # shutdown flush doesn't traceback on the dead pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as exc:
        # Last-resort net: no typed error may escape as a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
