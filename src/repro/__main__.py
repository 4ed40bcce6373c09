"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the library version and the available algorithms/problems.
``demo``
    Run a 30-second EasyBO demonstration on a synthetic benchmark.
``opamp`` / ``classe``
    Size one of the paper's circuits at a small budget.
``resume``
    Continue a crashed run from its write-ahead journal (see ``--journal``
    on the run commands and ``docs/crash_recovery.md``).
``serve``
    Host many concurrent ask/tell campaigns over the loopback socket RPC
    (see ``docs/campaign_server.md``).
``summary``
    Print the paper-style table (Best/Worst/Mean/Std/Time) and the pool
    telemetry of a saved runs file — or, with ``--server [HOST:]PORT``,
    the live health of a campaign server (campaign states, uptime,
    recoveries, idempotent-RPC retry/replay counters).
``run``
    Generic driver: any algorithm label from ``make_algorithm`` on any
    named benchmark problem (``--pending-policy`` picks the asynchronous
    pending-point policy, see ``docs/pending_policies.md``).
``tournament``
    Head-to-head of the pending-point policies: policies x circuits x
    batch sizes x fault rates over paired seeds, ranked by simple regret.
``trace``
    Render a run trace written with ``--trace``/``--metrics``: the span
    tree (run → iteration → fit / acquisition-maximize / dispatch / wait)
    plus a top-k hotspot table (see ``docs/observability.md``).

The run commands take ``--pool {virtual,thread,process}`` to pick the
evaluation backend (see ``docs/distributed.md``) and ``--workers N`` to
size the pool independently of the proposal batch.  ``--trace PATH``
records a span trace, and ``--metrics`` additionally snapshots the run's
metrics registry into the result (both off by default — observability is
strictly opt-in and costs nothing when disabled).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def cmd_info(_args) -> int:
    import repro
    from repro.core.campaign import FAMILIES

    print(f"repro {repro.__version__} — EasyBO (DAC 2020) reproduction")
    print("\nalgorithm families (use with repro.make_algorithm):")
    for name in sorted(FAMILIES):
        print(f"  {name}")
    print("\nbenchmark problems:")
    print("  repro.circuits.OpAmpProblem        (10 vars, Eq. 10 FOM)")
    print("  repro.circuits.ClassEProblem       (12 vars, Eq. 11 FOM)")
    print("  repro.circuits.ConstrainedOpAmpProblem")
    print("  repro.circuits.branin / hartmann6 / ackley / ...")
    return 0


def _journal_kwargs(args) -> dict:
    journal = getattr(args, "journal", None)
    return {} if journal is None else {"journal": journal, "checkpoint_every": 5}


def _pool_kwargs(args) -> dict:
    """Driver kwargs for the ``--pool`` / ``--workers`` CLI flags."""
    from repro.sched import pool_factory_by_name

    pool = getattr(args, "pool", "virtual")
    if pool == "virtual":
        return {}
    return {"pool_factory": pool_factory_by_name(pool)}


def _batch(args) -> int:
    """Pool size: ``--workers`` wins over ``--batch`` when given.

    EasyBO keeps exactly B points in flight, so the worker count and the
    batch size are the same knob; ``--workers`` is the spelling that makes
    sense next to ``--pool process``.
    """
    workers = getattr(args, "workers", None)
    return int(workers) if workers is not None else int(args.batch)


def _obs_kwargs(args, default_trace: str):
    """Driver kwargs and a finish callback for ``--metrics`` / ``--trace``.

    ``--trace PATH`` arms the span tracer; ``--metrics`` arms the registry
    *and* (when ``--trace`` is absent) derives a default trace path, so a
    bare ``--metrics`` run is immediately inspectable with the ``trace``
    verb.  The finish callback closes the tracer (also on the exception
    path) and prints the metrics table of the finished run; with
    ``refused=True`` (the run never started) it leaves the trace path as it
    found it instead: absent, or holding its earlier bytes.
    """
    metrics_on = bool(getattr(args, "metrics", False))
    trace_path = getattr(args, "trace", None)
    if not metrics_on and trace_path is None:
        return {}, lambda result, refused=False: None
    from repro.obs import MetricsRegistry, Tracer

    if trace_path is None:
        trace_path = default_trace
    kept = os.path.getsize(trace_path) if os.path.exists(trace_path) else None
    tracer = Tracer(trace_path)
    kwargs: dict = {"tracer": tracer}
    if metrics_on:
        kwargs["metrics"] = MetricsRegistry()

    def finish(result, refused: bool = False) -> None:
        from repro.utils.tables import format_table

        tracer.close()
        if refused:
            if kept is None:
                os.unlink(trace_path)
            else:
                os.truncate(trace_path, kept)  # the tracer only appended
            return
        print(f"trace: {tracer.n_spans} spans written to {trace_path} "
              f"(inspect with 'python -m repro trace {trace_path}')")
        if result is not None and result.metrics:
            registry = MetricsRegistry.from_dict(result.metrics)
            print(format_table(["Metric", "Kind", "Value"],
                               registry.summary_rows(), title="run metrics"))

    return kwargs, finish


def _print_telemetry(result, args) -> None:
    """Surface pool telemetry for the real (non-virtual-clock) backends."""
    telemetry = result.pool_telemetry
    if telemetry is not None and getattr(args, "pool", "virtual") != "virtual":
        print(telemetry.summary_line())


def _optimize(args, problem, trace_name: str):
    """EasyBO on ``problem`` under the circuit/demo commands' flags."""
    from repro import EasyBO

    obs_kwargs, finish = _obs_kwargs(args, f"{trace_name}-trace.jsonl")
    result = None
    try:
        result = EasyBO(
            problem, batch_size=_batch(args), n_init=15,
            max_evals=args.budget, rng=args.seed, **_journal_kwargs(args),
            **_pool_kwargs(args), **obs_kwargs,
        ).optimize()
    finally:
        finish(result)
    return result


def cmd_demo(args) -> int:
    from repro.circuits import hartmann6

    problem = hartmann6()
    print(f"EasyBO on Hartmann-6 (optimum {problem.optimum:.3f}), "
          f"batch size {_batch(args)}, {args.budget} evaluations...")
    result = _optimize(args, problem, "demo")
    print(f"best value {result.best_fom:.4f} "
          f"(regret {problem.regret(result.best_fom):.4f})")
    print(f"simulated wall-clock {result.wall_clock:.0f} s at "
          f"{result.trace.utilization():.0%} worker utilization")
    _print_telemetry(result, args)
    return 0


def cmd_opamp(args) -> int:
    from repro.circuits import OpAmpProblem

    result = _optimize(args, OpAmpProblem(), "opamp")
    check = OpAmpProblem().evaluate(result.best_x)
    print(f"best FOM {result.best_fom:.2f}")
    for key, value in check.metrics.items():
        print(f"  {key:<8} {value:.2f}")
    print(f"design: {np.array2string(result.best_x, precision=3)}")
    _print_telemetry(result, args)
    return 0


def cmd_classe(args) -> int:
    from repro.circuits import ClassEProblem

    problem = ClassEProblem()
    result = _optimize(args, problem, "classe")
    check = problem.evaluate(result.best_x)
    print(f"best FOM {result.best_fom:.3f}")
    print(f"  PAE  {check.metrics['pae']:.1%}")
    print(f"  Pout {1e3 * check.metrics['p_out_w']:.1f} mW")
    _print_telemetry(result, args)
    return 0


def cmd_resume(args) -> int:
    from repro import resume

    obs_kwargs, finish = _obs_kwargs(args, "resume-trace.jsonl")
    result = None
    try:
        result = resume(args.journal, **obs_kwargs)
    finally:
        finish(result)
    print(f"resumed {result.algorithm} on {result.problem}: "
          f"best FOM {result.best_fom:.4f} after {result.n_evaluations} "
          f"evaluations ({result.trace.n_orphaned} orphaned at the crash)")
    return 0


def cmd_run(args) -> int:
    from repro.core.campaign import parse_label
    from repro.core.easybo import make_algorithm
    from repro.core.recovery import resolve_problem

    obs_kwargs, finish = _obs_kwargs(args, f"{args.problem}-trace.jsonl")
    policy_kwargs = (
        {} if args.pending_policy is None
        else {"pending_policy": args.pending_policy}
    )
    try:
        # Resume rebuilds the journaled problem by this same name.
        problem = resolve_problem(args.problem)
        label = args.algorithm.strip()
        family, _ = parse_label(label)
        if args.workers is not None:
            label = f"{family.display}-{args.workers}"
        # Only a campaign has an initial design; DE starts from its population.
        design = {} if family.build is None else {"n_init": args.n_init}
        algorithm = make_algorithm(
            label, problem, max_evals=args.budget, rng=args.seed, **design,
            **policy_kwargs, **_journal_kwargs(args), **_pool_kwargs(args),
            **obs_kwargs,
        )
    except ValueError as exc:
        finish(None, refused=True)
        print(f"run: {exc}", file=sys.stderr)
        return 2
    result = None
    try:
        result = algorithm.run()
    finally:
        finish(result)
    policy_note = (
        f" [pending policy: {result.pending_policy}]"
        if result.pending_policy else ""
    )
    print(f"{result.algorithm} on {args.problem}: best FOM "
          f"{result.best_fom:.4f} after {result.n_evaluations} evaluations "
          f"(wall-clock {result.wall_clock:.1f} s){policy_note}")
    _print_telemetry(result, args)
    return 0


def cmd_tournament(args) -> int:
    from repro.core.tournament import (
        SCALES,
        check_tournament,
        render_report,
        run_tournament,
    )

    scale = SCALES["smoke" if args.smoke else args.scale]

    def progress(done: int, total: int, cell) -> None:
        print(f"[{done:>3}/{total}] {cell.policy:<12} {cell.circuit:<9} "
              f"B={cell.batch} fault={cell.fault_rate:g} seed={cell.seed} "
              f"regret={cell.regret:.4g}", flush=True)

    results = run_tournament(scale, progress=progress if args.verbose else None)
    print("\n" + render_report(scale, results))
    if args.check:
        check_tournament(scale, results)
        print("checks passed (full grid, paired seeds, reproducible cell)")
    return 0


def cmd_serve(args) -> int:
    from repro.distributed.server import CampaignServer, ServerError
    from repro.obs import MetricsRegistry, Observability

    try:
        server = CampaignServer(
            host=args.host, port=args.port, journal_dir=args.journal_dir,
            max_workers=args.max_workers,
            obs=Observability(metrics=MetricsRegistry()),
        )
    except ServerError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    # Flush so wrappers piping our stdout see the banner (and the port)
    # before they try to dial in.
    print(f"campaign server listening on {server.host}:{server.port} "
          f"(journal dir: {args.journal_dir or 'disabled'}, "
          f"worker capacity: {args.max_workers or 'unbounded'})",
          flush=True)
    if server.recoveries:
        print(f"recovered {server.recoveries} campaign(s) from "
              f"{args.journal_dir}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
        print("campaign server stopped")
    return 0


def cmd_trace(args) -> int:
    from repro.obs import render_trace

    print(render_trace(args.trace, top=args.top))
    return 0


def _summary_server(address: str) -> int:
    """Print a live server's health: campaigns, uptime, RPC idempotency."""
    from repro.distributed.client import CampaignClient
    from repro.utils.tables import format_table

    host, _, port = address.rpartition(":")
    with CampaignClient(host or "127.0.0.1", int(port), retries=1) as client:
        metrics = client.metrics()
    rows = [
        ["campaigns", str(metrics.get("campaigns", 0))],
        ["  active", str(metrics.get("active", 0))],
        ["  finished", str(metrics.get("finished", 0))],
        ["  suspended", str(metrics.get("suspended", 0))],
        ["  failed", str(metrics.get("failed", 0))],
        ["workers leased", f"{metrics.get('workers_leased', 0)}"
                           f"/{metrics.get('worker_capacity') or 'inf'}"],
        ["uptime", f"{metrics.get('uptime_seconds', 0.0):.1f}s"],
        ["recoveries", str(metrics.get("recoveries", 0))],
        ["rpc retries seen", str(metrics.get("rpc_retries", 0))],
        ["rpc replayed replies", str(metrics.get("rpc_replayed_replies", 0))],
        ["frame corruptions", str(metrics.get("frame_corruptions", 0))],
    ]
    print(format_table(["Metric", "Value"], rows))
    registry = metrics.get("registry")
    if registry and registry.get("counters"):
        print("\nserver counters:")
        for name in sorted(registry["counters"]):
            print(f"  {name}: {registry['counters'][name]}")
    return 0


def cmd_summary(args) -> int:
    from repro import summarize_runs
    from repro.core.persistence import load_runs
    from repro.utils.tables import format_table

    if args.server:
        return _summary_server(args.server)
    if not args.runs:
        print("summary: provide a runs file or --server [HOST:]PORT",
              file=sys.stderr)
        return 2
    grid = load_runs(args.runs)
    rows = [summarize_runs(runs).as_row() for runs in grid.values() if runs]
    print(format_table(["Algorithm", "Best", "Worst", "Mean", "Std", "Time"],
                       rows))
    telemetry_lines = []
    for label, runs in grid.items():
        pools = [r.pool_telemetry for r in runs if r.pool_telemetry is not None]
        if pools:
            telemetry_lines.append(f"  {label}: {pools[-1].summary_line()}")
    if telemetry_lines:
        print("\npool telemetry (last repetition per algorithm):")
        for line in telemetry_lines:
            print(line)
    return 0


def _add_obs_flags(p) -> None:
    p.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace",
        help="record a hierarchical span trace to PATH (render with "
             "'python -m repro trace PATH')",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="snapshot the run's metrics registry into the result and "
             "print it; also writes a trace (to --trace PATH, or a "
             "default next to the working directory)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and algorithm inventory")
    for name, default_budget in (("demo", 50), ("opamp", 60), ("classe", 40)):
        p = sub.add_parser(name)
        p.add_argument("--budget", type=int, default=default_budget)
        p.add_argument("--batch", type=int, default=5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--journal", default=None, metavar="PATH",
            help="write a crash-safe run journal to PATH (resumable with "
                 "'python -m repro resume PATH')",
        )
        p.add_argument(
            "--pool", choices=("virtual", "thread", "process"),
            default="virtual",
            help="evaluation backend: simulated clock (default), threads, "
                 "or one OS process per worker",
        )
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="pool size (overrides --batch; EasyBO keeps one point in "
                 "flight per worker)",
        )
        _add_obs_flags(p)
    p = sub.add_parser(
        "run",
        help="run any algorithm label on any named benchmark problem",
        description="Generic driver: an algorithm label accepted by "
                    "repro.make_algorithm (e.g. EasyBO-5, pBO-10, EI, DE, "
                    "Random) on a named problem (opamp, classe, or a "
                    "synthetic function: branin, hartmann6, ackley, "
                    "rastrigin, levy, sphere, with an optional dimension "
                    "suffix such as sphere2) — the names resume rebuilds.",
    )
    p.add_argument("--problem", default="hartmann6",
                   help="benchmark name (default: hartmann6)")
    p.add_argument("--algorithm", default="EasyBO-5", metavar="LABEL",
                   help="algorithm label; a trailing -<int> is the batch "
                        "size (default: EasyBO-5)")
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-init", type=int, default=10, dest="n_init",
                   help="initial design size for the BO drivers (DE has "
                        "none; random search's is its budget)")
    p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write a crash-safe run journal to PATH",
    )
    p.add_argument(
        "--pool", choices=("virtual", "thread", "process"), default="virtual",
        help="evaluation backend",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="pool size (overrides the label's trailing batch size)",
    )
    p.add_argument(
        "--pending-policy", dest="pending_policy", default=None,
        choices=("hallucinate", "lp", "pessimistic", "none"),
        help="asynchronous pending-point policy for the EasyBO family "
             "(default: the label's policy; plain EasyBO hallucinates)",
    )
    _add_obs_flags(p)
    p = sub.add_parser(
        "tournament",
        help="rank the pending-point policies over a seeded grid",
        description="Run every pending-point policy over circuits x batch "
                    "sizes x fault rates with paired seeds and print a "
                    "ranked regret table (docs/pending_policies.md).  "
                    "--check asserts the harness ran the full grid and is "
                    "seed-reproducible.",
    )
    p.add_argument("--scale", choices=("smoke", "reduced", "paper"),
                   default="reduced")
    p.add_argument("--smoke", action="store_true",
                   help="shorthand for --scale smoke")
    p.add_argument("--check", action="store_true",
                   help="assert grid completeness and reproducibility")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per completed cell")
    p = sub.add_parser(
        "resume",
        help="continue a crashed run from its journal",
        description="Replay a run journal written with --journal and finish "
                    "the run.  Problems with non-default constructor "
                    "arguments must be resumed through the API "
                    "(repro.resume(path, problem=...)) instead.",
    )
    p.add_argument("journal", help="journal file the crashed run was writing")
    _add_obs_flags(p)
    p = sub.add_parser(
        "serve",
        help="host many concurrent ask/tell campaigns over loopback RPC",
        description="Start the multi-tenant campaign server "
                    "(docs/campaign_server.md).  Clients create campaigns "
                    "by algorithm label + problem name and drive them with "
                    "ask/tell round-trips, or let the server lease workers "
                    "and evaluate.  Each campaign journals to "
                    "--journal-dir/<id>.journal and is resumable after a "
                    "crash or disconnect.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listening port (default: an ephemeral port, "
                        "printed at startup)")
    p.add_argument("--journal-dir", default=None, metavar="DIR",
                   dest="journal_dir",
                   help="directory for per-campaign crash-safe journals")
    p.add_argument("--max-workers", type=int, default=None, metavar="N",
                   dest="max_workers",
                   help="cap on workers leased across all server-evaluated "
                        "campaigns")
    p = sub.add_parser(
        "trace",
        help="render a span trace written with --trace/--metrics",
        description="Print the hierarchical span tree and the top-k "
                    "hotspot table of a trace file (CRC-framed JSONL "
                    "written by the run commands' --trace/--metrics "
                    "flags).  Torn tails from crashed runs are tolerated.",
    )
    p.add_argument("trace", help="trace file to render")
    p.add_argument("--top", type=int, default=10, metavar="K",
                   help="hotspot table size (default: 10)")
    p = sub.add_parser(
        "summary",
        help="print the paper-style table and pool telemetry of a runs file",
        description="Summarize a JSON runs file written with "
                    "repro.core.persistence.save_runs: Best/Worst/Mean/Std/"
                    "Time per algorithm, plus evaluation-pool telemetry for "
                    "runs that recorded it (format v5+).  With --server, "
                    "summarize a live campaign server instead: campaign "
                    "states, uptime, recoveries, and the idempotent-RPC "
                    "retry/replay counters.",
    )
    p.add_argument("runs", nargs="?", default=None,
                   help="runs file written by save_runs")
    p.add_argument("--server", default=None, metavar="[HOST:]PORT",
                   help="summarize a live campaign server's metrics verb "
                        "instead of a runs file")

    args = parser.parse_args(argv)
    handler = {
        "info": cmd_info,
        "demo": cmd_demo,
        "opamp": cmd_opamp,
        "classe": cmd_classe,
        "run": cmd_run,
        "tournament": cmd_tournament,
        "resume": cmd_resume,
        "serve": cmd_serve,
        "trace": cmd_trace,
        "summary": cmd_summary,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
