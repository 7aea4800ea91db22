"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list                       enumerate reproducible artifacts
reproduce [--only SUBSTR]  regenerate paper tables/figures
fio --scheme S --case C    run one Table IV case on one scheme
stats --scheme S --case C  run one case and print its observability dump
grid --schemes A,B ...     run a (scheme x case) grid, optionally parallel
bench [--check BASELINE]   kernel events/sec benchmark + regression gate
faults [--only SUBSTR]     availability under injected faults (--list: presets)
fleet --servers N ...      datacenter fleet: placement + rolling hot-upgrade
volumes [--cells N]        snapshot/thin-clone/CoW demo over NVMe-MI
push [--cells N]           pushdown ablation: mediated vs in-engine lookups
tco                        print the §VI-C TCO analysis
check [--static]           static determinism audit + checked reference run
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, NamedTuple, Optional, Sequence

__all__ = ["main"]

#: ``reproduce --quick`` subset: the analytic tables plus the three
#: heavy grid experiments that fan out over REPRO_WORKERS
QUICK_EXPERIMENT_IDS = (
    "table1",
    "table2",
    "tco",
    "fig8+table5",
    "fig9+table7",
    "fault-recovery",
)


def _experiment_registry():
    from .experiments import (
        ablations,
        extensions,
        fault_recovery,
        fig1,
        fleet_scale,
        burst_absorption,
        fig8_table5,
        fig9_table7,
        fig10,
        fig11,
        fig12,
        fig13a,
        fig13b_table8,
        fig14,
        fig15_table9,
        latency_breakdown,
        migration_vs_evacuation,
        pushdown_ablation,
        table1,
        table2,
        table6,
        tco_analysis,
        volumes_demo,
    )

    return [
        ("table1", "Table I feature matrix", table1.run),
        ("table2", "Table II FPGA resources", table2.run),
        ("tco", "§VI-C TCO analysis", tco_analysis.run),
        ("fig1", "Fig. 1 SPDK cores sweep", fig1.run),
        ("fig8+table5", "Fig. 8 / Table V bare metal", fig8_table5.run),
        ("table6", "Table VI kernel transparency", table6.run),
        ("fig9+table7", "Fig. 9 / Table VII single VM", fig9_table7.run),
        ("fig10", "Fig. 10 SSD scalability", fig10.run),
        ("fig11", "Fig. 11 multi-VM bandwidth", fig11.run),
        ("fig12", "Fig. 12 tail latency", fig12.run),
        ("fig13a", "Fig. 13a TPC-C", fig13a.run),
        ("fig13b+table8", "Fig. 13b / Table VIII Sysbench", fig13b_table8.run),
        ("fig14", "Fig. 14 mixed workloads", fig14.run),
        ("fig15+table9", "Fig. 15 / Table IX hot-upgrade", fig15_table9.run),
        ("latency-breakdown", "engine stage latencies (§V-B)", latency_breakdown.run),
        ("ablation-zerocopy", "zero-copy ablation", ablations.run_zero_copy),
        ("ablation-qos", "QoS ablation", ablations.run_qos_isolation),
        ("ablation-arm", "ARM-offload ablation", ablations.run_arm_offload),
        ("ext-sata", "SATA back-end tiers (§VI-A)", extensions.run_sata_tiers),
        ("ext-remote", "remote volumes (§VI-D)", extensions.run_remote_tiers),
        ("fault-recovery", "availability under injected faults",
         fault_recovery.run),
        ("fleet-scale", "fleet rolling hot-upgrade (beyond Fig. 15)",
         fleet_scale.run),
        ("volumes", "snapshots, thin clones, CoW faults (beyond §VI)",
         volumes_demo.run),
        ("migration-vs-evacuation",
         "live migration vs drain on surprise hot-removal",
         migration_vs_evacuation.run),
        ("pushdown", "computational pushdown ablation (beyond §VI)",
         pushdown_ablation.run),
        ("burst-absorption",
         "CXL buffer tier vs fixed DRAM under mixed bursts (beyond §VI)",
         burst_absorption.run),
    ]


def _cmd_list(_args) -> int:
    for exp_id, title, _run in _experiment_registry():
        print(f"{exp_id:20} {title}")
    return 0


def _cmd_reproduce(args) -> int:
    if args.workers is not None:
        # the grid experiments read REPRO_WORKERS as their default, so
        # one env var parallelizes every run_specs call below us
        os.environ["REPRO_WORKERS"] = str(max(1, args.workers))
    results = []
    for exp_id, _title, run in _experiment_registry():
        if args.quick and exp_id not in QUICK_EXPERIMENT_IDS:
            continue
        if args.only and args.only not in exp_id:
            continue
        start = time.time()
        result = run()
        print(result.table())
        print(f"  ({time.time() - start:.1f}s wall)\n")
        results.append(result)
    if not results:
        print(f"no experiment id contains {args.only!r}", file=sys.stderr)
        return 2
    if args.json:
        import json

        payload = [_result_body(r) for r in results]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.output:
        from .analysis.report import render_markdown

        with open(args.output, "w") as fh:
            fh.write(render_markdown(
                results, header=f"Generated by `python -m repro reproduce`."
            ))
        print(f"wrote {args.output}")
    return 0


def _resolve_case(scheme: str, case: str):
    """(spec, error_code): validate --scheme/--case against the registries."""
    from .experiments.common import SCHEMES, quick_cases

    if scheme not in SCHEMES:
        print(f"unknown scheme {scheme!r}; choose from {sorted(SCHEMES)}",
              file=sys.stderr)
        return None, 2
    try:
        (spec,) = quick_cases([case])
    except KeyError:
        from .workloads.fio import TABLE_IV_CASES

        print(f"unknown case {case!r}; choose from {sorted(TABLE_IV_CASES)}",
              file=sys.stderr)
        return None, 2
    return spec, 0


def _resolve_policy(raw):
    """(policy, error_code): validate a --policy spelling up front."""
    if not raw:
        return None, 0
    from .host.policy import parse_policy

    try:
        return parse_policy(raw), 0
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None, 2


def _print_fault_presets() -> int:
    """The ``--faults list`` / ``faults --list`` listing."""
    from .faults import list_presets

    width = max(len(name) for name, _ in list_presets())
    for name, description in list_presets():
        print(f"{name:<{width}}  {description}")
    return 0


def _cmd_fio(args) -> int:
    from .experiments.common import run_case

    if args.faults == "list":
        return _print_fault_presets()
    spec, err = _resolve_case(args.scheme, args.case)
    if spec is None:
        return err
    faults = None
    if args.faults:
        from .faults import get_preset

        try:
            faults = get_preset(args.faults)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    policy, err = _resolve_policy(args.policy)
    if err:
        return err
    try:
        result = run_case(args.scheme, spec, seed=args.seed, faults=faults,
                          policy=policy)
    except ValueError as exc:
        # a plan or policy this scheme's world cannot serve
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        import json

        out = {
            "scheme": args.scheme,
            "case": spec.name,
            "seed": args.seed,
            "faults": args.faults,
            "ios": result.fio.ios,
            "errors": result.errors,
            "iops": round(result.iops, 3),
            "bandwidth_mbps": round(result.bandwidth_mbps, 3),
            "avg_latency_us": round(result.avg_latency_us, 3),
            "p99_us": round(result.latency.p99_us, 3) if result.latency else None,
        }
        fault_counters = {
            label: metric.value
            for kind, label, metric in result.obs.iter_metrics()
            if kind == "counter"
            and label.startswith(("driver_", "faults_injected", "span_faults"))
        }
        if fault_counters:
            out["fault_counters"] = fault_counters
        print(json.dumps(out, sort_keys=True))
        return 0
    line = (f"{args.scheme} / {spec.name}: {result.iops / 1e3:.1f} KIOPS, "
            f"{result.bandwidth_mbps:.0f} MB/s, "
            f"avg {result.avg_latency_us:.1f} us")
    if result.latency:
        line += f", p99 {result.latency.p99_us:.1f} us"
    if result.errors:
        line += f", {result.errors} errors"
    print(line)
    return 0


def _cmd_stats(args) -> int:
    import json

    from .experiments.common import run_case
    from .obs.spans import STAMP_ORDER

    spec, err = _resolve_case(args.scheme, args.case)
    if spec is None:
        return err
    case = run_case(args.scheme, spec, seed=args.seed)
    if args.json:
        print(json.dumps(case.snapshot, indent=2, sort_keys=True))
        return 0

    reg = case.obs
    print(f"{args.scheme} / {spec.name}: {case.iops / 1e3:.1f} KIOPS, "
          f"{case.bandwidth_mbps:.0f} MB/s, avg {case.avg_latency_us:.1f} us")

    stage_hists = reg.histograms("span_stage_ns")
    if stage_hists:
        print("\nper-stage latency from recorded spans (ns):")
        print(f"  {'stage':<14} {'count':>8} {'p50':>10} {'p99':>10}")
        for stage in STAMP_ORDER[1:]:
            h = stage_hists.get((("stage", stage),))
            if h is None or h.count == 0:
                continue
            print(f"  {stage:<14} {h.count:>8} {h.p50:>10.0f} {h.p99:>10.0f}")
        totals = reg.histograms("span_total_ns").get(())
        if totals is not None and totals.count:
            print(f"  {'total':<14} {totals.count:>8} {totals.p50:>10.0f} "
                  f"{totals.p99:>10.0f}")
    else:
        print("\nno spans recorded (scheme not instrumented end to end)")

    ns_ops = reg.counters("ns_ops")
    if ns_ops:
        elapsed_s = (spec.ramp_ns + spec.runtime_ns) / 1e9
        print("\nper-namespace I/O (engine monitor):")
        for labels, counter in sorted(ns_ops.items()):
            tags = dict(labels)
            print(f"  {tags.get('ns', '?'):<12} {tags.get('op', '?'):<6} "
                  f"{counter.value:>9} ops  "
                  f"{counter.value / elapsed_s / 1e3:>8.1f} KIOPS")
    spans = case.snapshot["spans"]
    print(f"\nspans: {spans['recorded']} recorded ({spans['complete']} complete, "
          f"{spans['dropped']} dropped)")
    return 0


def _split_csv(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _cmd_grid(args) -> int:
    import json

    from .experiments.common import SCHEMES
    from .runner import run_grid
    from .workloads.fio import TABLE_IV_CASES

    if args.faults == "list":
        return _print_fault_presets()
    schemes = _split_csv(args.schemes)
    cases = _split_csv(args.cases)
    bad = [s for s in schemes if s not in SCHEMES]
    if bad:
        print(f"unknown scheme(s) {bad}; choose from {sorted(SCHEMES)}",
              file=sys.stderr)
        return 2
    bad = [c for c in cases if c not in TABLE_IV_CASES]
    if bad:
        print(f"unknown case(s) {bad}; choose from {sorted(TABLE_IV_CASES)}",
              file=sys.stderr)
        return 2
    if args.faults:
        from .faults import get_preset

        try:
            get_preset(args.faults)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    _, err = _resolve_policy(args.policy)
    if err:
        return err
    try:
        payloads = run_grid(
            schemes, cases, seed=args.seed, faults=args.faults,
            obs_mode=args.obs_mode, workers=args.workers, policy=args.policy,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not args.snapshots:
        for p in payloads:
            p.pop("snapshot", None)
    text = json.dumps(payloads, indent=2, sort_keys=True)
    if args.json and args.json != "-":
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json} ({len(payloads)} runs)")
    else:
        print(text)
    return 0


def _cmd_bench(args) -> int:
    import json

    from . import bench

    cases = _split_csv(args.cases) if args.cases else None
    if args.quick:
        cases = list(bench.QUICK_BENCH_CASES)
    schemes = _split_csv(args.schemes) if args.schemes else bench.BENCH_SCHEMES
    _, err = _resolve_policy(args.policy)
    if err:
        return err
    snapshot = bench.run_bench(schemes, cases, seed=args.seed,
                               obs_mode=args.obs_mode, policy=args.policy,
                               repeats=args.repeats)
    print(bench.render(snapshot))
    out = args.out or bench.bench_filename()
    with open(out, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    if args.check:
        try:
            baseline = bench.load(args.check)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline: {exc}", file=sys.stderr)
            return 2
        for warning in bench.compare_meta(snapshot, baseline):
            print(f"warning: {warning}", file=sys.stderr)
        failures = bench.compare(snapshot, baseline,
                                 tolerance=args.tolerance)
        if failures:
            print(f"\nREGRESSION vs {args.check}:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"within {args.tolerance:.0%} of {args.check}")
    return 0


def _cmd_fleet(args) -> int:
    import json

    from .fleet import (
        FleetRunConfig,
        PlacementError,
        POLICIES,
        build_fleet,
        make_tenants,
        render_report,
        run_fleet,
    )

    if args.faults == "list":
        return _print_fault_presets()
    if args.policy not in POLICIES:
        print(f"unknown policy {args.policy!r}; choose from {sorted(POLICIES)}",
              file=sys.stderr)
        return 2
    if args.faults:
        from .faults import get_preset

        try:
            get_preset(args.faults)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    try:
        fleet = build_fleet(num_servers=args.servers, num_racks=args.racks,
                            ssds_per_server=args.ssds)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    tenants = make_tenants(args.tenants, seed=args.seed)
    config = FleetRunConfig.quick() if args.quick else FleetRunConfig.full()
    reaction = "migrate" if args.migrate else args.reaction
    if reaction != "none":
        import dataclasses

        config = dataclasses.replace(config, reaction=reaction)
    try:
        report = run_fleet(fleet, tenants, policy=args.policy,
                           faults=args.faults, seed=args.seed,
                           workers=args.workers, config=config)
    except PlacementError as exc:
        print(f"placement failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json} "
                  f"({report['fleet']['servers']} servers, "
                  f"{len(report['waves'])} waves)")
        return 0
    print(render_report(report))
    return 0


def _result_body(result) -> dict:
    """The JSON body of one experiment result (``--json`` outputs)."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "rows": result.rows,
        "notes": result.notes,
    }


def _no_fault_class(args) -> str:
    from .experiments.fault_recovery import FAULT_CLASS_NAMES

    return (f"no fault class contains {args.only!r}; classes: "
            f"{', '.join(FAULT_CLASS_NAMES)}")


class _ExperimentCommand(NamedTuple):
    """One subcommand that runs an experiment module's ``run()``."""

    help: str
    #: submodule of :mod:`repro.experiments`
    module: str
    #: (flag, argparse keywords) pairs, in ``--help`` order
    options: tuple = ()
    #: parsed options passed to ``run()`` as keyword arguments
    run_args: tuple = ()
    #: stderr message (exit 2) when the run produced no rows
    on_empty: Optional[Callable] = None


_SEED = ("--seed", {"type": int, "default": 7})
_WORKERS = ("--workers", {"type": int, "default": None, "metavar": "N",
                          "help": "fan cells over N processes "
                                  "(results are identical)"})
_JSON_ROWS = ("--json", {"action": "store_true",
                         "help": "print the result rows as JSON"})
_CELL_ARGS = ("seed", "cells", "workers")

_EXPERIMENT_COMMANDS = {
    "faults": _ExperimentCommand(
        "availability timeline per injected fault class", "fault_recovery",
        (("--only", {"default": None, "help": "substring filter on fault class"}),
         _SEED,
         ("--list", {"action": "store_true",
                     "help": "list the canned fault presets and exit"}),
         _JSON_ROWS),
        run_args=("seed", "only"), on_empty=_no_fault_class,
    ),
    "volumes": _ExperimentCommand(
        "snapshot/thin-clone/CoW demo over NVMe-MI", "volumes_demo",
        (("--cells", {"type": int, "default": 4, "metavar": "N",
                      "help": "independent seeded worlds (each snapshots a "
                              "golden image and writes through its clones)"}),
         _SEED, _WORKERS, _JSON_ROWS),
        run_args=_CELL_ARGS,
    ),
    "push": _ExperimentCommand(
        "pushdown ablation: mediated vs in-engine lookups", "pushdown_ablation",
        (("--cells", {"type": int, "default": 4, "metavar": "N",
                      "help": "independent seeded worlds (each runs both read "
                              "paths over the same minikv workload)"}),
         _SEED, _WORKERS, _JSON_ROWS),
        run_args=_CELL_ARGS,
    ),
    "cxl": _ExperimentCommand(
        "burst-absorption ablation (fixed on-card DRAM vs the CXL buffer "
        "tier, clean + hot-remove cells)", "burst_absorption",
        (("--cells", {"type": int, "default": 4,
                      "help": "seeded burst cells (odd cells surprise-remove "
                              "the lending slot mid-burst)"}),
         _SEED, _WORKERS, _JSON_ROWS),
        run_args=_CELL_ARGS,
    ),
    "tco": _ExperimentCommand("print the TCO analysis", "tco_analysis"),
}


def _add_experiment_parser(sub, name: str) -> None:
    cmd = _EXPERIMENT_COMMANDS[name]
    p = sub.add_parser(name, help=cmd.help)
    for flag, kwargs in cmd.options:
        p.add_argument(flag, **kwargs)


def _cmd_experiment(args) -> int:
    """Run one table-driven experiment command; print its table or JSON."""
    import importlib
    import json

    cmd = _EXPERIMENT_COMMANDS[args.command]
    if getattr(args, "list", False):
        return _print_fault_presets()
    module = importlib.import_module(f".experiments.{cmd.module}", __package__)
    result = module.run(**{name: getattr(args, name) for name in cmd.run_args})
    if not result.rows and cmd.on_empty is not None:
        print(cmd.on_empty(args), file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(_result_body(result), indent=2, sort_keys=True,
                         default=str))
        return 0
    print(result.table())
    return 0


def _exercise_qos_checker():
    """Drive the qos checker through a rate-limited micro-scenario.

    The Table IV quick cases provision unlimited namespaces, so a
    checked reference run never enters the QoS fast/buffered paths; this
    tiny world pushes commands through a limited namespace so ``repro
    check`` proves the qos invariants executed too.  Uses its own
    CheckContext: the kernel monotonicity shadow must not leak across
    two independent simulators.
    """
    from .checks import CheckContext
    from .core.qos import QoSLimits, QoSModule
    from .sim import Simulator

    sim = Simulator()
    ctx = CheckContext(checkers=["qos"])
    sim.arm(checks=ctx)
    qos = QoSModule(sim)
    qos.configure("ns", QoSLimits(max_iops=100_000.0, burst_ios=2))
    for _ in range(8):
        qos.admit("ns", 4096)
    sim.run()
    return ctx


def _exercise_push_checker():
    """Drive the push checker through one installed-program lookup.

    Reference cases never install a pushdown program, so a checked run
    would report zero ``push`` coverage; this micro-world installs a
    chase program and executes one shadow invocation so ``repro check``
    proves the sandbox-confinement hooks executed.  Own CheckContext for
    the same simulator-isolation reason as the qos micro-world.
    """
    from .baselines import build_bmstore
    from .checks import CheckContext
    from .push import chase_program

    ctx = CheckContext(checkers=["push"])
    rig = build_bmstore(num_ssds=1, checks=ctx)
    fn = rig.provision("pushchk", 8 * 1024 * 1024)
    driver = rig.baremetal_driver(fn)

    def proc():
        yield driver.install_push_program(chase_program([[0, 64]]))
        yield driver.push_exec({
            "carry": False, "key": b"k",
            "candidates": [{"index_lba": 0, "data_base": 1,
                            "shadow_ptr": 2, "hit": True}],
        })

    rig.sim.spawn(proc())
    rig.sim.run()
    return ctx


def _cmd_check(args) -> int:
    """Static determinism audit + a checked reference run."""
    import json

    from .checks import InvariantViolation, audit_tree, render_findings

    findings = audit_tree()
    payload = {"static_findings": [str(f) for f in findings]}
    if not args.json:
        print(render_findings(findings))
    if args.static:
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        return 1 if findings else 0

    spec, err = _resolve_case(args.scheme, args.case)
    if spec is None:
        return err
    from .experiments.common import run_case

    violation = None
    coverage: dict[str, int] = {}
    try:
        case = run_case(args.scheme, spec, seed=args.seed, checks=args.checks)
        if case.checks is not None:
            coverage = case.checks.summary()
    except InvariantViolation as exc:
        violation = exc
    qos_ctx = _exercise_qos_checker()
    for name, count in qos_ctx.summary().items():
        coverage[name] = coverage.get(name, 0) + count
    if "push" in coverage:
        push_ctx = _exercise_push_checker()
        coverage["push"] += push_ctx.summary()["push"]

    payload.update({
        "scheme": args.scheme,
        "case": spec.name,
        "seed": args.seed,
        "checks": args.checks,
        "coverage": coverage,
        "violation": str(violation) if violation else None,
    })
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        if violation is not None:
            print(f"INVARIANT VIOLATION: {violation}")
        else:
            checked = sum(coverage.values())
            detail = ", ".join(f"{k}={v}" for k, v in sorted(coverage.items()))
            print(f"runtime invariants: clean "
                  f"({checked} checks: {detail})")
        zeros = [k for k, v in coverage.items() if v == 0]
        if zeros and violation is None:
            print(f"warning: checker(s) with zero coverage: {', '.join(zeros)}")
    return 1 if (findings or violation is not None) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and dispatch to a subcommand; returns the exit code."""
    from . import __version__

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible artifacts")

    p = sub.add_parser("reproduce", help="regenerate paper tables/figures")
    p.add_argument("--only", default=None, help="substring filter on experiment id")
    p.add_argument("--quick", action="store_true",
                   help="only the fast subset of experiments "
                        f"({', '.join(QUICK_EXPERIMENT_IDS)})")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="fan grid experiments over N processes "
                        "(sets REPRO_WORKERS; results are identical)")
    p.add_argument("--output", default=None, help="write a markdown report here")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the result rows as JSON here")

    p = sub.add_parser("fio", help="run one fio case on one scheme")
    p.add_argument("--scheme", default="bmstore")
    p.add_argument("--case", default="rand-r-128")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--faults", default=None, metavar="PRESET",
                   help="arm a canned fault plan (see repro.faults.PRESETS)")
    p.add_argument("--policy", default=None, metavar="SPEC",
                   help="submission policy: a preset (shadow, batched, "
                        "coalesced, throughput), 'batched:16', or "
                        "'doorbell=shadow,coalesce=4,...'")
    p.add_argument("--json", action="store_true",
                   help="print one sorted-key JSON line (determinism checks)")

    p = sub.add_parser("stats",
                       help="run one case and print per-stage/per-ns stats")
    p.add_argument("--scheme", default="bmstore")
    p.add_argument("--case", default="rand-r-128")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", action="store_true",
                   help="dump the full metrics snapshot as JSON")

    p = sub.add_parser("grid",
                       help="run a (scheme x case) grid, optionally parallel")
    p.add_argument("--schemes", default="native,bmstore",
                   help="comma-separated scheme names")
    p.add_argument("--cases", default="rand-r-1,rand-w-1",
                   help="comma-separated Table IV case names")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--faults", default=None, metavar="PRESET",
                   help="arm a canned fault plan on every run")
    p.add_argument("--policy", default=None, metavar="SPEC",
                   help="submission policy spelling applied to every run")
    p.add_argument("--obs-mode", default="full",
                   choices=("full", "sampled", "counters"))
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker processes (default REPRO_WORKERS or 1)")
    p.add_argument("--snapshots", action="store_true",
                   help="include full metric snapshots in the output")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write JSON here instead of stdout ('-' = stdout)")

    p = sub.add_parser("bench",
                       help="kernel events/sec benchmark + regression gate")
    p.add_argument("--quick", action="store_true",
                   help="the CI subset of cases (rand-r-1, rand-r-128)")
    p.add_argument("--schemes", default=None,
                   help="comma-separated scheme names "
                        "(default native,bmstore,passthrough)")
    p.add_argument("--cases", default=None,
                   help="comma-separated case names (default the quick subset)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--obs-mode", default="counters",
                   choices=("full", "sampled", "counters"))
    p.add_argument("--policy", default=None, metavar="SPEC",
                   help="submission policy spelling applied to every run")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="snapshot path (default BENCH_<stamp>.json)")
    p.add_argument("--check", default=None, metavar="BASELINE",
                   help="fail if events/sec regresses vs this snapshot")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="allowed fractional events/sec drop (default 0.25)")
    p.add_argument("--repeats", type=int, default=1,
                   help="runs per cell, keeping the best wall clock "
                        "(default 1; CI uses 3 to shed scheduler noise)")

    _add_experiment_parser(sub, "faults")

    p = sub.add_parser("fleet",
                       help="fleet simulation: placement + rolling hot-upgrade")
    p.add_argument("--servers", type=int, default=24, metavar="N")
    p.add_argument("--racks", type=int, default=6, metavar="N",
                   help="failure domains (upgrade waves take <=1 server/rack)")
    p.add_argument("--ssds", type=int, default=1, metavar="N",
                   help="backend SSDs per server")
    p.add_argument("--tenants", type=int, default=48, metavar="N")
    p.add_argument("--policy", default="spread",
                   help="placement policy: spread | binpack | qos")
    p.add_argument("--faults", default=None, metavar="PRESET",
                   help="arm a canned fault plan on one server "
                        "('list' to enumerate presets)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="fan per-server sims over N processes "
                        "(results are identical)")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized run (short activation, ~2s simulated)")
    p.add_argument("--migrate", action="store_true",
                   help="react to surprise hot-removal with live migration "
                        "(shorthand for --reaction migrate)")
    p.add_argument("--reaction", default="none",
                   choices=("none", "drain", "migrate"),
                   help="hot-removal reaction: none (ride it out), drain "
                        "(stop + cold copy), migrate (pre-copy + cutover)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the full fleet report as JSON ('-' = stdout)")

    for name in ("volumes", "push", "cxl", "tco"):
        _add_experiment_parser(sub, name)

    p = sub.add_parser("check",
                       help="static determinism audit + checked reference run")
    p.add_argument("--static", action="store_true",
                   help="only the AST audit; skip the runtime reference run")
    p.add_argument("--scheme", default="bmstore")
    p.add_argument("--case", default="rand-r-1")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--checks", default="all", metavar="NAMES",
                   help="checker subset, e.g. 'ring,qos' (default all)")
    p.add_argument("--json", action="store_true",
                   help="print one sorted-key JSON line")

    args = parser.parse_args(argv)
    handler = {
        **dict.fromkeys(_EXPERIMENT_COMMANDS, _cmd_experiment),
        "list": _cmd_list,
        "reproduce": _cmd_reproduce,
        "fio": _cmd_fio,
        "stats": _cmd_stats,
        "grid": _cmd_grid,
        "bench": _cmd_bench,
        "fleet": _cmd_fleet,
        "check": _cmd_check,
    }[args.command]
    return handler(args)
