"""Repository benchmark: optimizer, simulator and campaign-server costs.

Run from the repository root::

    python3 perfbench/run.py --workload opamp-easybo5 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs the same inputs once untraced and once traced, and reports the
per-layer metrics, each layer's self time and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, the check verdicts and the machine.
``--self-test`` runs every workload twice with one seed and checks that the
work counts agree.  Workloads, metric definitions and the layer each
per-layer metric should move are in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())

#: BLAS/OpenMP threads, pinned before numpy loads; at most ``nproc`` here
#: and in the campaign server's thread count.
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Samples a tail percentile must leave beyond it.
TAIL_SAMPLES = 10


def pin_threads() -> None:
    """Fix the BLAS/OpenMP thread count; must run before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


# ------------------------------------------------------------------ stats
def tail(samples) -> tuple[int | None, float]:
    """Highest whole percentile with at least ``TAIL_SAMPLES`` samples beyond it.

    Below 2 * ``TAIL_SAMPLES`` samples no percentile above the median
    qualifies, and the maximum is returned with percentile ``None``.
    """
    import numpy as np

    x = np.asarray(samples, dtype=float)
    for p in range(99, 50, -1):
        value = float(np.percentile(x, p))
        if int(np.sum(x > value)) >= TAIL_SAMPLES:
            return p, value
    return None, float(x.max())


def latency_rows(out) -> dict[str, dict]:
    """Median and tail of every latency the workload has, in ms."""
    rows = {}
    for kind, samples in (("ask", out.asks), ("tell", out.tells),
                          ("eval", out.evals), ("step", out.steps)):
        if not samples:
            continue
        p, value = tail(samples)
        rows[f"{kind}_p50_ms"] = {"value": 1e3 * statistics.median(samples),
                                  "unit": "ms", "n": len(samples)}
        rows[f"{kind}_tail_ms"] = {"value": 1e3 * value, "unit": "ms",
                                   "n": len(samples), "percentile": p}
    return rows


def detail_metrics(out) -> dict[str, dict]:
    rows = latency_rows(out)
    rows["evals_per_s"] = {"value": out.n_evals / out.wall, "unit": "1/s",
                           "n": out.n_evals}
    if out.n_rpc_ops:
        rows["ops_per_s"] = {"value": out.n_rpc_ops / out.wall, "unit": "1/s",
                             "n": out.n_rpc_ops}
    rows["failed_frac"] = {"value": out.failed / max(out.attempted, 1),
                           "unit": "1", "n": out.attempted}
    return rows


# ------------------------------------------------------------ environment
def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _filesystem(path: pathlib.Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _, mount, kind, *_ = line.split()
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return f"{fstype} ({best or '?'})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_calibration_ms(reps: int = 15) -> float:
    """Median wall time of a fixed pure-Python loop: the machine's speed now.

    Printed, never reported as a metric: it tells a slow run on a busy or
    throttled machine apart from a slow program.
    """
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    from workloads import ServerTenants

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in _THREAD_VARS[:2]},
        "journal_fs": _filesystem(ServerTenants.JOURNAL_ROOT.parent.resolve()),
        "cpu_calibration_ms": round(cpu_calibration_ms(), 3),
    }


# ----------------------------------------------------------------- setup
def _probe_args(args) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]


def cold_setup_seconds(args) -> list[float]:
    """Wall time from a fresh interpreter to the first ask/eval being issuable."""
    times = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        with subprocess.Popen(_probe_args(args), stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - started)
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
    return times


def setup_probe(workload, plan) -> None:
    state = workload.setup(plan)
    print("ready", flush=True)
    workload.teardown(state)


# ---------------------------------------------------------------- output
def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def print_details(title: str, rows: dict[str, dict]) -> None:
    print(f"== {title}")
    for name, row in rows.items():
        extra = f"n={row['n']}"
        if "percentile" in row:
            extra += f" p{row['percentile']}" if row["percentile"] else " max"
        print(f"  {name:<16} {_fmt(row['value']):>12} {row['unit']:<5} {extra}")


def print_checks(out) -> None:
    for name, ok, detail in out.checks:
        print(f"  check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    for error in out.errors:
        print(f"  error: {error}")


def print_self_times(totals: dict, n_steps: int) -> None:
    """Self time of every span; ``share`` is of the loop's step wall time."""
    step_wall = totals.get("step", {}).get("wall", 0.0)
    print(f"== self time per layer (traced pass, {n_steps} steps, "
          f"{1e3 * step_wall:.0f} ms of steps)")
    print(f"  {'span':<22} {'calls':>7} {'wall ms':>10} {'self ms':>10} "
          f"{'self/step':>10} {'share':>7}")
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self"]):
        share = row["self"] / step_wall if step_wall else 0.0
        print(f"  {name:<22} {row['calls']:>7} {1e3 * row['wall']:>10.1f} "
              f"{1e3 * row['self']:>10.1f} {1e3 * row['self'] / max(n_steps, 1):>10.3f} "
              f"{share:>7.1%}")


def print_per_layer(metrics: dict[str, float]) -> None:
    print("== per-layer metrics (traced pass)")
    for name, value in metrics.items():
        spec = SPEC["per_layer"][name]
        print(f"  {name:<34} {_fmt(value):>10} {spec['unit']:<5} "
              f"moves {', '.join(spec['moves'])}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


# ------------------------------------------------------------------ runs
def measure(args, workload) -> str:
    plan = workload.plan(args.seed, args.seconds)
    print("env " + json.dumps(environment()))
    print(f"workload {workload.name}: {SPEC['workloads'][workload.name]['loop']}; "
          f"seed {args.seed}; plan {json.dumps(plan)[:160]}")
    if not args.trace:
        setups = cold_setup_seconds(args)
        out = workload.run(plan)
        rows = detail_metrics(out)
        print_details(f"{workload.name} end to end (tracing off)", rows)
        print(f"  setup_s          {_fmt(statistics.median(setups)):>12} s     "
              f"n={len(setups)} cold starts {[round(s, 3) for s in setups]}")
        print_checks(out)
        print(f"  cpu_calibration_ms after the run: {cpu_calibration_ms():.3f}")
        metrics = {
            "setup_s": statistics.median(setups),
            "evals_per_s": rows["evals_per_s"]["value"],
            "step_p50_ms": rows["step_p50_ms"]["value"],
        }
        payload = {k: {"value": v, "unit": SPEC["end_to_end"][k]["unit"]}
                   for k, v in metrics.items()}
        return result_line(out.failed == 0, out.attempted, out.failed, payload)

    from layers import Instruments, per_layer_metrics

    untraced = workload.run(plan)
    instruments = Instruments()
    with instruments.installed():
        traced = workload.run(plan, obs=instruments.obs, span=instruments.span,
                              on_loop_start=instruments.start,
                              on_loop_end=instruments.stop)
    metrics, totals = per_layer_metrics(
        instruments, n_evals=traced.n_evals, n_rpc_ops=traced.n_rpc_ops,
        journal_bytes=traced.journal_bytes)
    before, after = detail_metrics(untraced), detail_metrics(traced)
    metrics["trace.overhead_pct"] = 100.0 * (
        after["step_p50_ms"]["value"] / before["step_p50_ms"]["value"] - 1.0)
    print_details(f"{workload.name} untraced pass", before)
    print_details(f"{workload.name} traced pass", after)
    print("== tracing overhead (traced / untraced - 1)")
    for name in before:
        if before[name]["unit"] in ("ms", "1/s") and before[name]["value"]:
            print(f"  {name:<16} {100 * (after[name]['value'] / before[name]['value'] - 1):+.1f}%")
    print_per_layer(metrics)
    print_self_times(totals, traced.n_evals)
    ask_wall = totals.get("campaign.ask", {}).get("wall", 0.0)
    if ask_wall:
        share = totals.get("acquisition-maximize", {}).get("wall", 0.0) / ask_wall
        print(f"  acquisition-maximize share of Campaign.ask wall: {share:.1%}")
    print_checks(untraced)
    print_checks(traced)
    payload = {k: {"value": v, "unit": SPEC["per_layer"][k]["unit"]}
               for k, v in metrics.items()}
    failed = untraced.failed + traced.failed
    return result_line(failed == 0, untraced.attempted + traced.attempted, failed, payload)


def run_all(args) -> str:
    """Every workload, each in its own process; one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in SPEC["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return result_line(correct, attempted, failed, metrics)


def self_test(args) -> int:
    """Two traced runs with one seed must do identical work."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names_ok = (
        [m["name"] for m in benchmark["end_to_end"]] == list(SPEC["end_to_end"])
        and [m["name"] for m in benchmark["per_layer"]] == list(SPEC["per_layer"])
        and [w["name"] for w in benchmark["workloads"]] == list(SPEC["workloads"])
    )
    print(f"BENCHMARK.json and spec.json name the same metrics: {names_ok}")
    exact = [k for k, v in SPEC["per_layer"].items() if v.get("exact")]
    ok = names_ok
    for name in SPEC["workloads"]:
        results = []
        for _ in range(2):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", "4", "--trace", "1"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=600)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        differ = [k for k in exact
                  if results[0]["metrics"][k]["value"] != results[1]["metrics"][k]["value"]]
        same = all(r["correct"] for r in results) and not differ
        ok &= same
        print(f"{name}: {len(exact)} work counts {'identical' if same else 'DIFFER'}"
              + (f" {differ}" if differ else ""))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        print(run_all(args))
        return 0
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, workload.plan(args.seed, args.seconds))
        return 0
    print(measure(args, workload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
