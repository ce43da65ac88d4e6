"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro fig6 --app vld --duration 600
    python -m repro fig7 --app fpd
    python -m repro fig8
    python -m repro fig9 --app vld
    python -m repro fig10
    python -m repro table2
    python -m repro baselines --app vld
    python -m repro all            # everything, scaled protocols
    python -m repro list-policies        # registered scheduling policies
    python -m repro list-arrival-models  # registered arrival models
    python -m repro list-evaluation-modes  # campaign evaluation paths
    python -m repro list-placements      # platform placement policies
    python -m repro list-failure-models  # platform churn models
    python -m repro run-scenario examples/scenarios/smoke.json --workers 4
    python -m repro run-scenario examples/scenarios/mmpp2_burst.json
    python -m repro run-campaign examples/campaigns/smoke.json --store runs/
    python -m repro run-campaign examples/campaigns/hybrid_smoke.json \
        --store runs/ --evaluation hybrid   # analytic fast path
    python -m repro campaign-report examples/campaigns/smoke.json --store runs/
    python -m repro fidelity --grid small --json   # model-vs-sim audit
    python -m repro fidelity --grid burst          # drift under MMPP traffic
    python -m repro serve --store runs/ --port 8151  # campaigns over HTTP

Every verb is a thin client over :mod:`repro.api` — the same facade
the HTTP service (:mod:`repro.service`) and any notebook or driver
script use — so the CLI, the service and programmatic callers can
never drift apart.  ``run-scenario`` executes any JSON
:class:`ScenarioSpec` (including its ``arrival_model``);
``run-campaign`` expands and executes a JSON :class:`CampaignSpec`
grid, skipping any replication already in the ``--store``; ``serve``
turns the same engine into a long-running job server.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import api
from repro.exceptions import DRSError
from repro.experiments import baselines, fig6, fig7, fig8, fig9, fig10, report, table2
from repro.fidelity import GRIDS, ToleranceManifest, generate_manifest, run_audit
from repro.fidelity.report import render_audit

#: Default tolerance manifest (the committed error envelope); resolved
#: relative to the working directory — present in a repo checkout, and
#: overridable with ``--manifest`` everywhere else.
DEFAULT_FIDELITY_MANIFEST = Path("tests/golden/fidelity_tolerances.json")


def _manifest_argument(args) -> Optional[Path]:
    """The ``--manifest`` value :func:`repro.api` should see.

    The committed default may be silently absent (running outside a
    repo checkout) — the evaluator then falls back to its own search —
    so only an explicitly named manifest is passed through, where the
    API enforces existence.
    """
    if args.manifest == str(DEFAULT_FIDELITY_MANIFEST):
        return None
    return Path(args.manifest)


def _fig6(args) -> str:
    if args.app == "vld":
        result = fig6.run_vld(duration=args.duration, warmup=args.warmup)
    else:
        result = fig6.run_fpd(
            duration=args.duration, warmup=args.warmup, scale=args.scale
        )
    return report.render_fig6(result)


def _fig7(args) -> str:
    if args.app == "vld":
        result = fig7.run_vld(duration=args.duration, warmup=args.warmup)
    else:
        result = fig7.run_fpd(
            duration=args.duration, warmup=args.warmup, scale=args.scale
        )
    return report.render_fig7(result)


def _fig8(args) -> str:
    return report.render_fig8(
        fig8.run(duration=args.duration, warmup=args.warmup)
    )


def _fig9(args) -> str:
    kwargs = dict(
        enable_at=args.enable_at, duration=args.duration, bucket=args.bucket
    )
    if args.app == "vld":
        result = fig9.run_vld(**kwargs)
    else:
        result = fig9.run_fpd(scale=args.scale, **kwargs)
    return report.render_fig9(result)


def _fig10(args) -> str:
    kwargs = dict(
        enable_at=args.enable_at, duration=args.duration, bucket=args.bucket
    )
    runs = [fig10.run_exp_a(**kwargs), fig10.run_exp_b(**kwargs)]
    return report.render_fig10(runs)


def _table2(args) -> str:
    return report.render_table2(table2.run(repetitions=args.repetitions))


def _baselines(args) -> str:
    result = baselines.compare(
        args.app, duration=args.duration, warmup=args.warmup
    )
    return report.render_baselines(result)


def _run_scenario(args) -> str:
    summary = api.run_scenario(
        args.spec, workers=args.workers, replications=args.replications
    )
    if args.json:
        return summary.to_json(indent=2)
    return report.render_scenario(summary)


def _run_campaign(args) -> str:
    if args.shards is not None:
        if not args.store:
            raise SystemExit("--shards requires --store")
        if args.shards < 1:
            raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    campaign = api.load_campaign(args.spec)
    manifest = _manifest_argument(args)
    if args.dry_run:
        plan = api.plan(
            campaign,
            store=args.store,
            evaluation=args.evaluation,
            manifest=manifest,
            safety_margin=args.safety_margin,
        )
        return report.render_campaign_plan(campaign.name, plan)
    result = api.run_campaign(
        campaign,
        store=args.store,
        workers=args.workers,
        shards=args.shards,
        evaluation=args.evaluation,
        manifest=manifest,
        safety_margin=args.safety_margin,
    )
    if args.json:
        return json.dumps(result.to_dict(), indent=2, sort_keys=True)
    return report.render_campaign(result)


def _store_compact(args) -> str:
    from repro.campaigns.segstore import compact_store

    store_dir = Path(args.store)
    if not store_dir.is_dir():
        raise SystemExit(f"result store not found: {store_dir}")
    stats = compact_store(store_dir)
    return (
        f"Compacted store {store_dir}: {stats['migrated']} records migrated"
        f" into segments, {stats['skipped']} unreadable skipped,"
        f" {stats['removed_files']} files removed"
    )


def _campaign_report(args) -> str:
    aggregator = api.aggregate(args.spec, args.store)
    if args.json:
        return json.dumps(aggregator.to_dict(), indent=2, sort_keys=True)
    return report.render_campaign_aggregate(aggregator)


def _fidelity(args):
    """Run the model-vs-simulation fidelity audit.

    Returns ``(text, exit_code)``: exit 0 when every cell is within the
    tolerance manifest (or no manifest is in play), exit 1 on any
    violation — the contract the CI ``fidelity-smoke`` job enforces.
    """
    store = api.open_store(args.store) if args.store else None
    audit = run_audit(args.grid, store=store, max_workers=args.workers)

    manifest = None
    manifest_path = Path(args.manifest) if args.manifest else None
    if manifest_path is not None and manifest_path.exists():
        manifest = ToleranceManifest.load(manifest_path)
    elif args.manifest and args.manifest != str(DEFAULT_FIDELITY_MANIFEST):
        # An explicitly named manifest must exist; only the default may
        # be silently absent (e.g. running outside a repo checkout).
        raise SystemExit(f"tolerance manifest not found: {manifest_path}")

    if args.write_manifest:
        generated = generate_manifest(
            audit.rows,
            description=(
                f"Generated by `repro fidelity --grid {args.grid}"
                " --write-manifest`: observed max relative model/sim"
                " disagreement per regime, with headroom for platform"
                " floating-point drift and replication noise."
            ),
        )
        generated.save(Path(args.write_manifest))

    violations = audit.violations(manifest) if manifest is not None else None
    if args.json:
        payload = audit.to_dict()
        if violations is not None:
            payload["violations"] = [v.to_dict() for v in violations]
            payload["manifest"] = str(manifest_path)
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = render_audit(audit, violations)
        if manifest is None:
            text += "\n\n(no tolerance manifest checked)"
    return text, (1 if violations else 0)


def _serve(args) -> str:
    """Run the HTTP campaign service until interrupted (Ctrl-C)."""
    from repro.service import CampaignService, ServiceConfig

    manifest = _manifest_argument(args)
    if manifest is not None and not manifest.exists():
        raise SystemExit(f"tolerance manifest not found: {manifest}")
    service = CampaignService(
        ServiceConfig(
            store=Path(args.store),
            host=args.host,
            port=args.port,
            job_workers=args.job_workers,
            campaign_workers=args.workers,
            manifest=manifest,
            safety_margin=args.safety_margin,
        )
    )
    print(
        f"repro service listening on {service.url}"
        f" (store: {args.store}, job workers: {args.job_workers})",
        flush=True,
    )
    service.serve_forever()
    return "service stopped"


def _list_policies(args) -> str:
    return report.render_policies(api.available_policies())


def _list_arrival_models(args) -> str:
    return "\n\n".join(
        (
            report.render_arrival_models(api.available_arrival_models()),
            report.render_closed_loop_sources(
                api.available_closed_loop_sources()
            ),
        )
    )


def _list_evaluation_modes(args) -> str:
    return report.render_evaluation_modes(api.available_evaluation_modes())


def _list_placements(args) -> str:
    return report.render_placements(api.available_placements())


def _list_failure_models(args) -> str:
    return report.render_failure_models(api.available_failure_models())


def _all(args) -> str:
    sections = []
    for app in ("vld", "fpd"):
        scale = 1.0 if app == "vld" else 0.5
        sections.append(
            report.render_fig6(
                fig6.run_vld(duration=480, warmup=60)
                if app == "vld"
                else fig6.run_fpd(duration=300, warmup=60, scale=scale)
            )
        )
    sections.append(report.render_fig8(fig8.run(duration=250, warmup=30)))
    sections.append(
        report.render_fig9(fig9.run_vld(enable_at=300, duration=660, bucket=30))
    )
    sections.append(
        report.render_fig10(
            [
                fig10.run_exp_a(enable_at=240, duration=720, bucket=30),
                fig10.run_exp_b(enable_at=240, duration=720, bucket=30),
            ]
        )
    )
    sections.append(report.render_table2(table2.run(repetitions=1000)))
    return "\n\n".join(sections)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the DRS paper's tables and figures, and run"
            " declarative scenario, campaign and fidelity experiments"
            " beyond them."
        ),
        epilog=(
            "Full documentation (architecture guide, how-tos, API"
            " reference): docs/ in the repository, built with"
            " `mkdocs serve`."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_app(p, default_duration):
        p.add_argument("--app", choices=["vld", "fpd"], default="vld")
        p.add_argument("--duration", type=float, default=default_duration)
        p.add_argument("--warmup", type=float, default=60.0)
        p.add_argument(
            "--scale",
            type=float,
            default=0.5,
            help="rate scale for FPD (events shrink, shape preserved)",
        )

    p6 = sub.add_parser(
        "fig6",
        help="sojourn mean/std per allocation",
        epilog="example: repro fig6 --app fpd --duration 300 --scale 0.5",
    )
    add_app(p6, 480.0)
    p6.set_defaults(handler=_fig6)

    p7 = sub.add_parser(
        "fig7",
        help="estimated vs measured sojourn",
        epilog="example: repro fig7 --app vld --duration 600",
    )
    add_app(p7, 480.0)
    p7.set_defaults(handler=_fig7)

    p8 = sub.add_parser(
        "fig8",
        help="underestimation vs bolt CPU time",
        epilog="example: repro fig8 --duration 250 --warmup 30",
    )
    p8.add_argument("--duration", type=float, default=250.0)
    p8.add_argument("--warmup", type=float, default=30.0)
    p8.set_defaults(handler=_fig8)

    p9 = sub.add_parser(
        "fig9",
        help="re-balancing convergence timelines",
        epilog="example: repro fig9 --app vld --enable-at 300 --bucket 30",
    )
    p9.add_argument("--app", choices=["vld", "fpd"], default="vld")
    p9.add_argument("--enable-at", dest="enable_at", type=float, default=300.0)
    p9.add_argument("--duration", type=float, default=660.0)
    p9.add_argument("--bucket", type=float, default=30.0)
    p9.add_argument("--scale", type=float, default=0.4)
    p9.set_defaults(handler=_fig9)

    p10 = sub.add_parser(
        "fig10",
        help="Tmax-driven machine scaling",
        epilog="example: repro fig10 --enable-at 240 --duration 720",
    )
    p10.add_argument("--enable-at", dest="enable_at", type=float, default=240.0)
    p10.add_argument("--duration", type=float, default=720.0)
    p10.add_argument("--bucket", type=float, default=30.0)
    p10.set_defaults(handler=_fig10)

    pt = sub.add_parser(
        "table2",
        help="DRS-layer computation overheads",
        epilog="example: repro table2 --repetitions 2000",
    )
    pt.add_argument("--repetitions", type=int, default=2000)
    pt.set_defaults(handler=_table2)

    pb = sub.add_parser(
        "baselines",
        help="DRS vs baseline allocators",
        epilog="example: repro baselines --app vld --duration 300",
    )
    add_app(pb, 300.0)
    pb.set_defaults(handler=_baselines)

    pa = sub.add_parser(
        "all",
        help="every artefact, scaled protocols",
        epilog=(
            "runs fig6 (both apps), fig8, fig9, fig10 and table2 with"
            " scaled protocols; expect several minutes of simulation"
        ),
    )
    pa.set_defaults(handler=_all)

    ps = sub.add_parser(
        "run-scenario",
        help="execute a JSON scenario spec end-to-end",
        description=(
            "Execute one ScenarioSpec JSON file: workload + policy +"
            " load schedule + replication plan.  The spec may name an"
            " arrival_model ({\"kind\": \"mmpp2\", ...}) to drive the"
            " spouts with bursty, diurnal or trace-replayed traffic;"
            " see `repro list-arrival-models`."
        ),
        epilog=(
            "example: repro run-scenario"
            " examples/scenarios/mmpp2_burst.json --workers 4 --json"
        ),
    )
    ps.add_argument("spec", help="path to a ScenarioSpec JSON file")
    ps.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel replication workers (default: all cores)",
    )
    ps.add_argument(
        "--replications",
        type=int,
        default=None,
        help="override the spec's replication count",
    )
    ps.add_argument(
        "--json", action="store_true", help="print the merged summary as JSON"
    )
    ps.set_defaults(handler=_run_scenario)

    pc = sub.add_parser(
        "run-campaign",
        help="expand and execute a JSON campaign grid (resumable)",
        description=(
            "Expand a CampaignSpec JSON grid (base scenario + axes of"
            " patches, including arrival-model parameters as dotted"
            " paths like arrival_model.burst_ratio) and execute every"
            " cell.  With --store, completed replications are"
            " content-addressed and reused, so an interrupted sweep"
            " resumes losing only in-flight work.  --shards N runs the"
            " grid on N worker processes into a segmented store (see"
            " `repro store-compact` to migrate an older per-file"
            " store)."
            "  With --evaluation hybrid, cells inside the committed"
            " tolerance envelope are answered from the queueing model"
            " and tagged with analytic provenance; see `repro"
            " list-evaluation-modes`."
        ),
        epilog=(
            "examples: repro run-campaign"
            " examples/campaigns/burst_sweep.json --store runs/"
            " --shards 4 | repro run-campaign"
            " examples/campaigns/hybrid_smoke.json --store runs/"
            " --evaluation hybrid --dry-run"
        ),
    )
    pc.add_argument("spec", help="path to a CampaignSpec JSON file")
    pc.add_argument(
        "--store",
        default=None,
        help="result-store directory; completed replications found here"
        " are reused instead of recomputed",
    )
    pc.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel replication workers (default: all cores)",
    )
    pc.add_argument(
        "--dry-run",
        action="store_true",
        help="report how many replications the store already holds",
    )
    pc.add_argument(
        "--shards",
        type=int,
        default=None,
        help="run on this many worker processes into a segmented"
        " store (requires --store; results land in its"
        " segments/coordinator.ndjson)",
    )
    pc.add_argument(
        "--evaluation",
        choices=["simulate", "hybrid", "analytic"],
        default=None,
        help="override the spec's evaluation mode: simulate every cell,"
        " answer manifest-certified cells analytically (hybrid), or"
        " require the analytic path everywhere (see `repro"
        " list-evaluation-modes`)",
    )
    pc.add_argument(
        "--manifest",
        default=str(DEFAULT_FIDELITY_MANIFEST),
        help="tolerance manifest the hybrid/analytic evaluator trusts"
        " (default: the committed fidelity envelope)",
    )
    pc.add_argument(
        "--safety-margin",
        dest="safety_margin",
        type=float,
        default=1.0,
        help="scale the manifest envelope before admission; values > 1"
        " only ever convert analytic cells to simulated ones",
    )
    pc.add_argument(
        "--json", action="store_true", help="print the campaign result as JSON"
    )
    pc.set_defaults(handler=_run_campaign)

    psc = sub.add_parser(
        "store-compact",
        help="convert a per-file result store into compacted segments",
        description=(
            "Migrate every readable per-replication JSON file of a"
            " classic result store into append-only NDJSON segments"
            " (one line per record), then delete the absorbed files."
            "  Reads understand both layouts, so compacting is safe at"
            " any point between campaign runs."
        ),
        epilog="example: repro store-compact runs/",
    )
    psc.add_argument("store", help="result-store directory to compact")
    psc.set_defaults(handler=_store_compact)

    pr = sub.add_parser(
        "campaign-report",
        help="aggregate a campaign's stored results (no simulation)",
        description=(
            "Read-only view over a result store: re-aggregates every"
            " cell of the campaign from stored replications (mean,"
            " ~95% CI, p95) without simulating anything.  Cells whose"
            " replications are not all stored are reported as missing."
            "  Reads classic per-file stores, compacted segment stores"
            " (`repro store-compact`) and sharded-run output alike, and"
            " breaks each cell down by evaluation path (simulated vs"
            " analytic provenance) when a hybrid run produced it."
        ),
        epilog=(
            "example: repro campaign-report"
            " examples/campaigns/smoke.json --store runs/ --json"
            " (works on sharded and compacted stores too)"
        ),
    )
    pr.add_argument("spec", help="path to a CampaignSpec JSON file")
    pr.add_argument(
        "--store", required=True, help="result-store directory to read"
    )
    pr.add_argument(
        "--json", action="store_true", help="print the aggregate as JSON"
    )
    pr.set_defaults(handler=_campaign_report)

    pf = sub.add_parser(
        "fidelity",
        help="model-vs-simulation fidelity audit with tolerance gating",
        description=(
            "Run matched (analytic, simulated) pairs over a named grid"
            " and score the disagreement per metric.  Exit 1 when any"
            " cell exceeds the committed tolerance manifest.  Grids:"
            " smoke/small/full probe the Poisson regime the model"
            " assumes; burst measures how far Eq. (3) drifts under"
            " mean-rate-preserving MMPP traffic."
        ),
        epilog=(
            "example: repro fidelity --grid burst --store fidelity-runs/"
        ),
    )
    pf.add_argument(
        "--grid",
        choices=sorted(GRIDS),
        default="small",
        help="which fidelity grid to run (default: small)",
    )
    pf.add_argument(
        "--store",
        default=None,
        help="result-store directory; completed cells are reused, so"
        " re-checking against a new manifest costs no simulation",
    )
    pf.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel replication workers (default: all cores)",
    )
    pf.add_argument(
        "--manifest",
        default=str(DEFAULT_FIDELITY_MANIFEST),
        help="tolerance manifest to enforce (exit 1 on violation);"
        " the default is only checked when the file exists",
    )
    pf.add_argument(
        "--write-manifest",
        default=None,
        metavar="PATH",
        help="regenerate a tolerance manifest from this run's observed"
        " errors and write it to PATH",
    )
    pf.add_argument(
        "--json", action="store_true", help="print the audit as JSON"
    )
    pf.set_defaults(handler=_fidelity)

    pv = sub.add_parser(
        "serve",
        help="run the HTTP campaign service (submit/poll/stream/cancel)",
        description=(
            "Serve campaigns over HTTP: POST a CampaignSpec (or bare"
            " ScenarioSpec) to /jobs, poll /jobs/<id> for per-cell"
            " progress, stream /jobs/<id>/stream for incremental"
            " aggregates, POST /jobs/<id>/cancel to stop cooperatively."
            "  Jobs execute on a background worker pool against the"
            " shared --store; a killed server resumes interrupted jobs"
            " from the store with zero recomputation.  Stdlib-only: no"
            " extra dependency is needed."
        ),
        epilog=(
            "example: repro serve --store runs/ --port 8151"
            " --job-workers 2 (then: curl -X POST"
            " http://127.0.0.1:8151/jobs -d @campaign.json)"
        ),
    )
    pv.add_argument(
        "--store",
        required=True,
        help="result-store directory shared by every job (job records"
        " persist under <store>/jobs/)",
    )
    pv.add_argument("--host", default="127.0.0.1", help="bind address")
    pv.add_argument(
        "--port",
        type=int,
        default=8151,
        help="TCP port (0 picks an ephemeral port; default: 8151)",
    )
    pv.add_argument(
        "--job-workers",
        dest="job_workers",
        type=int,
        default=2,
        help="concurrent jobs (each still fans replications out over"
        " --workers processes)",
    )
    pv.add_argument(
        "--workers",
        type=int,
        default=None,
        help="per-job parallel replication workers (default: all cores)",
    )
    pv.add_argument(
        "--manifest",
        default=str(DEFAULT_FIDELITY_MANIFEST),
        help="tolerance manifest for hybrid/analytic submissions"
        " (default: the committed fidelity envelope)",
    )
    pv.add_argument(
        "--safety-margin",
        dest="safety_margin",
        type=float,
        default=1.0,
        help="scale the manifest envelope before analytic admission",
    )
    pv.set_defaults(handler=_serve)

    pp = sub.add_parser(
        "list-policies",
        help="registered scheduling policies",
        description=(
            "List every scheduling policy the registry knows — DRS"
            " modes, static baselines, the threshold scaler, the"
            " slo_feedback p95-target loop and any third-party"
            " registrations — with one-line descriptions."
            "  A ScenarioSpec's 'policy' field names one of these."
        ),
        epilog=(
            "example: repro list-policies  (slo_feedback holds a"
            " measured-p95 SLO; compare against drs.* and threshold"
            " with examples/campaigns/sloscaler_bakeoff.json)"
        ),
    )
    pp.set_defaults(handler=_list_policies)

    pm = sub.add_parser(
        "list-arrival-models",
        help="registered arrival models (scenario 'arrival_model' kinds)",
        description=(
            "List every arrival model the workload registry knows,"
            " plus the registered closed-loop source kinds."
            "  A ScenarioSpec's optional 'arrival_model' object names"
            " one via its 'kind' key, e.g."
            " {\"kind\": \"mmpp2\", \"burst_ratio\": 8.0,"
            " \"mean_burst\": 5.0, \"mean_gap\": 20.0}; the optional"
            " 'closed_loop' object instead couples arrivals to"
            " completions ({\"kind\": \"closed_loop\", \"clients\": 40,"
            " \"think_time\": 0.5})."
        ),
        epilog=(
            "example: repro list-arrival-models  (arrival models drive"
            " open-loop spouts; closed-loop sources gate each client on"
            " its outstanding requests)"
        ),
    )
    pm.set_defaults(handler=_list_arrival_models)

    pe = sub.add_parser(
        "list-evaluation-modes",
        help="campaign evaluation modes (simulate / hybrid / analytic)",
        description=(
            "List the campaign evaluation modes.  A CampaignSpec's"
            " optional 'evaluation' field (or run-campaign's"
            " --evaluation flag) selects one; 'hybrid' answers cells"
            " inside the committed tolerance envelope from the queueing"
            " model and simulates the rest."
        ),
        epilog="example: repro list-evaluation-modes",
    )
    pe.set_defaults(handler=_list_evaluation_modes)

    pl = sub.add_parser(
        "list-placements",
        help="platform placement policies (platform 'placement' kinds)",
        description=(
            "List every placement policy the platform registry knows."
            "  A ScenarioSpec's optional 'platform' block names one via"
            " its 'placement' object, e.g."
            " {\"placement\": {\"kind\": \"round_robin\"}}; 'colocated'"
            " is the default and 'heterogeneous' drives the paper's"
            " speed-aware assignment."
        ),
        epilog="example: repro list-placements",
    )
    pl.set_defaults(handler=_list_placements)

    pf = sub.add_parser(
        "list-failure-models",
        help="platform failure models (platform 'failure' kinds)",
        description=(
            "List every node-churn model the platform registry knows."
            "  A ScenarioSpec's optional 'platform' block names one via"
            " its 'failure' object, e.g. {\"failure\": {\"kind\":"
            " \"exponential\", \"mean_up\": 120.0, \"mean_down\": 10.0,"
            " \"machines\": [\"m2\"]}}; 'none' is the default."
        ),
        epilog="example: repro list-failure-models",
    )
    pf.set_defaults(handler=_list_failure_models)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except (
        api.SpecNotFoundError,
        api.StoreNotFoundError,
        api.ManifestNotFoundError,
    ) as exc:
        # Missing artefacts are usage errors, not runtime failures: the
        # message alone is the diagnosis (same contract as argparse).
        raise SystemExit(str(exc))
    except DRSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Handlers either return plain text (exit 0) or (text, exit_code)
    # for verbs with threshold semantics (``fidelity``).
    code = 0
    if isinstance(result, tuple):
        result, code = result
    print(result)
    return code


if __name__ == "__main__":
    sys.exit(main())
