"""strathom benchmark: seeded gallery workloads through the public API.

    python3 perfbench/run.py --workload check-gallery --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the benchmark imports strathom from its
`src/`.  `--workload all` runs every workload in turn in one process.

With `--trace 0` the run times set-up in fresh probe processes, then
repeats the workload's pass in this process until `--seconds` have
passed (at least one pass), and prints the end-to-end metrics in
reference seconds (see gauge.py).  With `--trace 1` it runs an untraced
pass and a traced pass in two child processes side by side, then a
second traced pass whose counts must repeat exactly, and prints the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the metric names and units are the
ones `BENCHMARK.json` lists.  BLAS is pinned to one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import strathom  # noqa: E402

if not Path(strathom.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"strathom was imported from {strathom.__file__}, not from this checkout's src/")

import gauge  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # set-up is timed this many times, in fresh processes
CHILD_TIMEOUT_S = 170
OUT = HERE / "out"


def _exact(name: str) -> bool:
    """Whether a per-layer metric must repeat exactly across traced runs.

    Times vary from run to run; so does the report size, because every
    report carries its own wall-clock "timing" field.
    """
    return not name.endswith(("_s", "_ms")) and name != "report.bytes"


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def child_cmd(workload: str, seed: int, role: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--role", role]


def child(workload: str, seed: int, role: str) -> tuple[dict, float]:
    """Run this script in a fresh process; return its result and start time."""
    started = time.monotonic()
    proc = subprocess.run(child_cmd(workload, seed, role), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def workdir(workload: str):
    """Scratch directory for emitted scenes and reports, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-")


def one_pass(w, state, seed: int, work: Path) -> tuple[workloads.Ledger, float, float]:
    """Run one pass; return its ledger and its start and end times."""
    ledger = workloads.Ledger()
    start = time.perf_counter()
    w.run_pass(state, seed, work, ledger)
    return ledger, start, time.perf_counter()


def pass_summary(ledger, start: float, end: float) -> dict:
    return {"wall_s": end - start, "attempted": ledger.attempted, "failures": ledger.failures}


# ---------------------------------------------------------------------------
# child roles


def role_setup(w, seed: int) -> dict:
    with workdir(w.name) as work:
        w.setup(Path(work), seed)
        done = time.monotonic()
    return {"done": done, "kernel_s": gauge.snapshot()}


def role_pass(w, seed: int) -> dict:
    with workdir(w.name) as work:
        return pass_summary(*one_pass(w, w.setup(Path(work), seed), seed, Path(work)))


def role_traced(w, seed: int) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.install([workloads])
    tracer.patch_method(workloads.Ledger, "run", "bench.operation", new_op=True)
    with workdir(w.name) as work:
        state = tracer.wrap("bench.setup", w.setup)(Path(work), seed)
        result = pass_summary(*one_pass(w, state, seed, Path(work)))
    result["layers"] = tracer.layer_metrics()
    tracer.write(OUT / f"spans-{w.name}.npz", workload=w.name, seed=seed, **machine_facts())
    return result


# ---------------------------------------------------------------------------
# measured runs


def percentile_with_tail(samples: list[float], tail: int = 10) -> tuple[int, float]:
    """Highest whole percentile with at least `tail` samples above it."""
    xs = sorted(samples)
    for p in range(99, 49, -1):
        k = int(np.ceil(p / 100 * len(xs))) - 1
        if len(xs) - 1 - k >= tail:
            return p, xs[k]
    return 50, statistics.median(xs)


def timed_run(w, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics: set-up probes, then passes until `seconds` pass.

    Every timing is converted to reference seconds by the speed gauge.
    """
    setups = []
    for _ in range(SETUP_PROBES):
        out, started = child(w.name, seed, "setup")
        setups.append((out["done"] - started) * gauge.REFERENCE_S / out["kernel_s"])
    passes = []
    with workdir(w.name) as work, gauge.Gauge() as g:
        state = w.setup(Path(work), seed)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(one_pass(w, state, seed, Path(work)))

    def med(f):
        return statistics.median(f(*p) for p in passes)

    def rate(kinds):
        def per_pass(ledger, a, b):
            items, seconds = ledger.stage(kinds, g.reference_s)
            return items / seconds

        return med(per_pass)

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": med(lambda ledger, a, b: g.reference_s(a, b)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stage1_items_per_s": rate(w.first),
        "stage2_items_per_s": rate(w.second),
    }
    ledger0 = passes[0][0]
    extra = {
        "passes": len(passes),
        "attempted": sum(p[0].attempted for p in passes),
        "measured_wall_s": med(lambda ledger, a, b: b - a),
        "kernel_ms": 1e3 * statistics.median(g.durations),
        "stage1_items": ledger0.stage(w.first, g.reference_s)[0],
        "stage1_s": med(lambda ledger, a, b: ledger.stage(w.first, g.reference_s)[1]),
        "stage2_items": ledger0.stage(w.second, g.reference_s)[0],
        "stage2_s": med(lambda ledger, a, b: ledger.stage(w.second, g.reference_s)[1]),
    }
    verdict_ms = [
        [1e3 * g.reference_s(a, b) for k, a, b in ledger.ops if k in ("a", "af", "tf", "afs")]
        for ledger, _, _ in passes
    ]
    if verdict_ms[0]:
        tails = [percentile_with_tail(v) for v in verdict_ms]
        extra.update(
            verdict_samples=len(verdict_ms[0]),
            verdict_p50_ms=statistics.median(statistics.median(v) for v in verdict_ms),
            verdict_tail_pct=tails[0][0],
            verdict_tail_ms=statistics.median(t for _, t in tails),
        )
    failures = [f for ledger, _, _ in passes for f in ledger.failures]
    return metrics, extra, failures


def traced_run(w, seed: int) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics: an untraced pass and a traced pass side by side,
    then a second traced pass whose counts must match the first."""
    procs = {}
    try:
        for role in ("pass", "traced"):
            procs[role] = subprocess.Popen(child_cmd(w.name, seed, role), cwd=ROOT,
                                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                           text=True)
        outs = {}
        for role, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"{role} process for {w.name} exited {proc.returncode}:\n{stderr}")
            outs[role] = json.loads(stdout.strip().splitlines()[-1])
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    untraced, traced = outs["pass"], outs["traced"]
    again, _ = child(w.name, seed, "traced")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    failures = untraced["failures"] + traced["failures"] + again["failures"]
    differ = [
        f"{name} {value} vs {again['layers'][name]}"
        for name, value in traced["layers"].items()
        if _exact(name) and value != again["layers"][name]
    ]
    if differ:
        failures.append("counts differ between the two traced runs: " + ", ".join(differ))
    attempted = untraced["attempted"] + traced["attempted"] + again["attempted"] + 1
    extra = {"passes": 3, "attempted": attempted,
             "traced_wall_s": traced["wall_s"], "untraced_wall_s": untraced["wall_s"]}
    return metrics, extra, failures


# Each workload's figures under their usual names, derived from the
# stage measurements; printed in the table, not gated.
HEADLINE = {
    "check-gallery": lambda m, x: [
        ("verdicts_per_s", x["verdict_samples"] / m["wall_s"], "1/s"),
        ("verdict_p50_ms", x["verdict_p50_ms"], "ms"),
        (f"verdict_p{x['verdict_tail_pct']}_ms", x["verdict_tail_ms"], "ms"),
    ],
    "stability-planes": lambda m, x: [
        ("calibrate_s", x["stage1_s"], "s"),
        ("trials_per_s", m["stage2_items_per_s"], "1/s"),
    ],
    "perturb-demos": lambda m, x: [
        ("destabilizer_maps_per_s", m["stage1_items_per_s"], "1/s"),
        ("nongeneric_trials_per_s", m["stage2_items_per_s"], "1/s"),
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "pass", "traced"), default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role != "main":
        w = workloads.WORKLOADS[args.workload]
        result = {"setup": role_setup, "pass": role_pass, "traced": role_traced}[args.role](w, args.seed)
        print(json.dumps(result))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    facts = machine_facts()
    print(f"strathom benchmark  seed={args.seed}  trace={args.trace}  "
          + "  ".join(f"{k}={v}" for k, v in facts.items()))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        w = workloads.WORKLOADS[name]
        if args.trace:
            measured, extra, failures = traced_run(w, args.seed)
        else:
            measured, extra, failures = timed_run(w, args.seed, args.seconds)
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
        print(f"\n{name}  seed={args.seed}  " + "  ".join(f"{k}={v}" for k, v in extra.items()))
        rows = [(k, m["value"], m["unit"]) for k, m in metrics.items()]
        if not args.trace:
            rows += [("wall_s", measured["wall_s"], "s")] + HEADLINE[name](measured, extra)
        for row in rows:
            print("  {:<36} {:>14.6g} {}".format(*row))
        print(f"  {'error_rate':<36} {len(failures) / extra['attempted']:>14.6g} ratio")
        for f in failures:
            print(f"  FAILED {f}")
        summary["attempted"] += extra["attempted"]
        summary["failed"] += len(failures)
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
