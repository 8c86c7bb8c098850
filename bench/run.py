"""nbtree benchmark runner.

    python3 bench/run.py --workload report|nb-scale|mc|exact|all --seed N \\
        --seconds S --trace 0|1 [--size full|smoke]

Run from the root of a checkout; the program is imported from its ``src``.
Every repetition of a workload runs in a fresh interpreter (``child.py``),
because every CLI user pays for the import and the cold first calls, and the
report caches balls and operators per process.  Repetitions run until
``--seconds`` of repetition time is used up, at least two of them (one with
``--size smoke``).

With ``--trace 0`` the end-to-end metrics are printed, each the median over
the repetitions:

  wall_s        process start to exit of one repetition
  setup_s       process start until ``nbtree.cli`` is imported, over a few
                import-only processes and every repetition
  peak_rss_mib  peak resident memory of a repetition (``wait4`` rusage)

With ``--trace 1`` one untraced and one traced repetition run, and the
per-layer metrics of the traced one are printed (see ``tracer.py``), with
``trace.overhead_s``, the traced minus the untraced time to the last
operation.  End-to-end metrics always come from untraced runs.

Every operation's output is checked (``workloads.py``) and every repetition
must produce the same outputs.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import CRITERIA, TRACED
from workloads import REPORT_SEED0_SHA256, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

#: import-only processes before each repetition, for setup_s
SETUP_PROBES_PER_REP = 3
#: a run stops starting repetitions once it would pass this many seconds
RUN_CAP_S = 150.0
CHILD_TIMEOUT_S = 170.0

_spawned = itertools.count()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = "unknown"

    def getconf(name: str):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=5)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    return {"nproc": nproc(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": openblas,
            "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
            "NBTREE_THREADS": nproc()}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NBTREE_THREADS"] = str(nproc())
    return env


def spawn(spec: dict) -> dict:
    """Run one fresh child; times are measured from just before the spawn."""
    out_path = OUT / f"child-{os.getpid()}-{next(_spawned)}.json"
    spec = dict(spec, out=str(out_path), src=str(ROOT / "src"), threads=nproc())
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                            cwd=ROOT, env=child_env(), stdout=sys.stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = {"rc": proc.returncode, "wall_s": t_exit - t0,
           "peak_rss_mib": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0:
        with open(out_path) as fh:
            child = json.load(fh)
        out_path.unlink()
        res["setup_s"] = child["t_imported"] - t0
        if "t_done" in child:
            res["done_s"] = child["t_done"] - t0
        res.update({k: v for k, v in child.items() if not k.startswith("t_")})
    return res


def rep_spec(workload: str, seed: int, small: bool, trace: bool) -> dict:
    return {"workload": workload, "seed": seed, "small": small, "trace": trace,
            "spans": str(OUT / f"spans-{workload}-seed{seed}.json")}


def tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over repetitions that must agree output by output."""
    attempted = failed = 0
    notes = []
    reference = None
    for i, rep in enumerate(reps):
        if rep["rc"] != 0:
            attempted += 1
            failed += 1
            notes.append(f"repetition {i} exited with code {rep['rc']}")
            continue
        attempted += rep["attempted"]
        failed += rep["failed"]
        notes.extend(rep["failures"])
        if reference is None:
            reference = rep["digests"]
        elif rep["digests"] != reference:
            differ = sum(a != b for a, b in zip(rep["digests"], reference))
            failed += max(differ, 1)
            notes.append(f"repetition {i}: {differ} outputs differ from repetition 0")
    return attempted, failed, notes


def measure(workload: str, seed: int, seconds: float, small: bool) -> dict:
    """End-to-end metrics of untraced repetitions."""
    min_reps = 1 if small else 2
    spawn({"workload": None})  # warm the file cache and write bytecode
    probes, reps = [], []
    while True:
        # import-only probes between repetitions spread setup_s over the run
        probes += [spawn({"workload": None}) for _ in range(SETUP_PROBES_PER_REP)]
        reps.append(spawn(rep_spec(workload, seed, small, False)))
        elapsed = sum(r["wall_s"] for r in probes + reps)
        typical = statistics.median(r["wall_s"] for r in reps)
        if elapsed + typical > RUN_CAP_S:
            break
        if len(reps) >= min_reps and sum(r["wall_s"] for r in reps) + typical > seconds:
            break
    attempted, failed, notes = tally(reps)
    ok = [r for r in reps if r["rc"] == 0]
    metrics = {}
    if ok:
        setups = [r["setup_s"] for r in probes + ok if "setup_s" in r]
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in ok), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in ok), "MiB"),
        }
        notes.insert(0, f"medians of {len(ok)} repetitions (wall_s, peak_rss_mib) "
                        f"and of {len(setups)} processes (setup_s)")
    digests = ok[0]["digests"] if ok else []
    return {"attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics,
            "digest": digests[0] if workload == "report" and digests else None}


def layer_metrics(traced: dict, overhead_s: float) -> dict:
    layers = traced["layers"]
    metrics = {}
    for name, reader in TRACED.items():
        agg = layers.get(name, {})
        metrics[f"{name}.calls"] = (agg.get("calls", 0), "count")
        metrics[f"{name}.self_s"] = (agg.get("self_s", 0.0), "s")
        for counter in getattr(reader, "names", ()):
            if counter == "configs_disjoint":
                continue
            unit = "B" if counter.endswith("bytes_computed") else "count"
            metrics[f"{name}.{counter}"] = (agg.get(counter, 0), unit)
    rates = traced["samples_per_s"]
    metrics["correlation.monte_carlo_corr.samples_per_s.t1"] = (rates["t1"], "1/s")
    metrics["correlation.monte_carlo_corr.samples_per_s.tN"] = (rates["tN"], "1/s")
    exact = [layers.get(n, {}) for n in ("correlation.exact_corr_discrete",
                                         "correlation.exact_edge_corr")]
    configs = sum(a.get("configs", 0) for a in exact)
    disjoint = sum(a.get("configs_disjoint", 0) for a in exact)
    metrics["correlation.exact.configs_disjoint"] = (disjoint, "count")
    metrics["correlation.exact.useful_share"] = (1.0 - disjoint / configs if configs else 1.0,
                                                 "share")
    for cname in CRITERIA:
        metrics[f"acceptance.{cname}.s"] = (layers.get(f"acceptance.{cname}", {})
                                            .get("incl_s", 0.0), "s")
    metrics["trace.wall_s"] = (traced["done_s"], "s")
    metrics["trace.self_s_sum"] = (sum(a["self_s"] for a in layers.values()), "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def trace(workload: str, seed: int, small: bool) -> dict:
    """Per-layer metrics of one traced repetition, next to one untraced one."""
    spawn({"workload": None})
    plain = spawn(rep_spec(workload, seed, small, False))
    spec = rep_spec(workload, seed, small, True)
    traced = spawn(spec)
    attempted, failed, notes = tally([plain, traced])
    metrics = {}
    if plain["rc"] == 0 and traced["rc"] == 0:
        metrics = layer_metrics(traced, traced["done_s"] - plain["done_s"])
        self_sum = metrics["trace.self_s_sum"][0]
        notes.append(f"one untraced and one traced repetition; untraced wall_s "
                     f"{plain['wall_s']:.4f} s exceeds the traced self-time sum "
                     f"{self_sum:.4f} s by {plain['wall_s'] - self_sum:.4f} s; "
                     f"trace.overhead_s + setup_s = "
                     f"{metrics['trace.overhead_s'][0] + plain['setup_s']:.4f} s")
        notes.append(f"spans in {Path(spec['spans']).relative_to(ROOT)}")
    return {"attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics,
            "digest": None}


def run_one(workload: str, args) -> dict:
    small = args.size == "smoke"
    if args.trace:
        res = trace(workload, args.seed, small)
    else:
        res = measure(workload, args.seed, args.seconds, small)
    res["correct"] = res["failed"] == 0 and bool(res["metrics"])
    shown = " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in res["metrics"].items() if v)
    share = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"# {workload}: fail_share={share:.6g} ({res['failed']}/{res['attempted']}) {shown}")
    if res["digest"]:
        same = "matches" if res["digest"] == REPORT_SEED0_SHA256 else "differs from"
        print(f"# {workload}: report sha256 {res['digest']} ({same} the recorded seed-0 report)")
    for note in res["notes"][:10]:
        print(f"# {workload}: {note}")
    return res


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs, for the benchmark's own smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "nbtree" / "cli.py").is_file():
        print(f"error: no nbtree sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print("# machine " + json.dumps(machine_facts()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_one(w, args) for w in names}
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
