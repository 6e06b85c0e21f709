"""The roughgg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload, a table

Run from the root of a source checkout: the package is used from ``src``,
not installed.  Each pass of a workload runs in a fresh interpreter
(``worker.py``) with one closed-loop client: the fixed job list runs back
to back, each job waiting for the one before.  Passes repeat while another
one fits in ``--seconds``; there is always at least one.

``--trace 0`` prints the end-to-end metrics (untraced passes).  ``--trace 1``
runs one traced pass of the same jobs and prints the per-layer metrics;
``trace.overhead_s`` is the time spent inside the tracing wrappers, which is
what a traced pass adds to an untraced one.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full records, including the
spans of a traced pass, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("analysis2d", "solve2d", "cube3d", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "ROUGHGG_THREADS")
SETUP_PROBES = 1  # extra set-up-only processes; the median takes the passes too
PASS_TIMEOUT = 150

PER_LAYER = [
    "dmfield.normal_trace_pairing_s", "dmfield.normal_trace_pairing_calls",
    "dmfield.integrate_s", "dmfield.trace_measure_s",
    "dmfield.trace_weak_convergence_self_s",
    "dmfield.mollify_field_s", "dmfield.mollify_field_calls",
    "onesided.smooth_facet_values_s", "onesided.smooth_facet_values_calls",
    "divsolve.solve_direct_s", "divsolve.solve_direct_calls",
    "divsolve.solve_decomposed_self_s", "divsolve.nodes",
    "divsolve.verify_solution_s", "divsolve.trace_data_s", "divsolve.verify_failed",
    "dmfield.interior_normal_trace_s", "dmfield.sample_field_s",
    "dmfield.ladder_divergent",
    "measure.classify_s", "measure.boundary_decomposition_s", "measure.perimeter_s",
    "approx.approximation_sweep_s", "approx.interior_approximation_s",
    "domain.rasterize_s", "domain.cells", "dmfield.facets", "dmfield.crack_facets",
    "cli.import_s", "cli.help_s", "cli.classify_s", "cli.perimeter_s",
    "cli.approx_s", "cli.trace_s", "cli.gg_check_s", "cli.solve_div_s",
    "cli.gallery_s", "cli.bad_exit", "cli.artifact_mismatch",
    "trace.overhead_s",
]


def pinned_env() -> dict:
    """Thread pools capped at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            given = int(env.get(var, ""))
        except ValueError:
            given = nproc
        env[var] = str(max(1, min(given, nproc)))
    return env


def run_pass(workload, seed, env, work, *, trace=False, setup_only=False,
             spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", work]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} pass exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(passes) -> tuple[bool, int, int]:
    """(correct, attempted, failed): a run is correct when every failed
    job is one of the known failures and none raised."""
    records = [r for p in passes for r in p["jobs"]]
    failed = [r for r in records if not r["ok"]]
    correct = all(r["known"] and r["error"] is None for r in failed)
    return correct, len(records), len(failed)


def end_to_end(passes, setups, attempted, failed) -> dict:
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
    }


def per_layer(traced) -> dict:
    """Busy seconds (``_s`` inclusive, ``_self_s`` minus child spans) and
    call counts per span name, plus the counters of the traced pass."""
    busy, counts = traced["busy"], {**traced["counts"], **traced["cli_counts"]}
    out = {}
    for name in PER_LAYER:
        unit = "s" if name.endswith("_s") else "count"
        value = counts.get(name, 0)
        for suffix, field in (("_self_s", "self_s"), ("_s", "s"), ("_calls", "calls")):
            if name not in counts and name.endswith(suffix):
                value = busy.get(name[:-len(suffix)], {}).get(field, 0)
                break
        out[name] = (value, unit)
    return out


def run_workload(workload, seed, seconds, trace, env) -> dict:
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        if trace:
            spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
            passes = [run_pass(workload, seed, env, work, trace=True, spans=spans)]
        else:
            setups = [run_pass(workload, seed, env, work, setup_only=True)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            passes = []
            start = time.monotonic()
            while True:
                passes.append(run_pass(workload, seed, env, work))
                setups.append(passes[-1]["setup_s"])
                used = time.monotonic() - start
                if used + used / len(passes) > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct, attempted, failed = judge(passes)
    metrics = (per_layer(passes[0]) if trace
               else end_to_end(passes, setups, attempted, failed))
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: env[v] for v in THREAD_VARS},
        "versions": passes[0]["versions"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "passes": passes,
    }
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def report(record) -> None:
    """Human-readable lines: settings, metrics, failed jobs, layer table."""
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"nproc={record['nproc']} threads={record['threads']} "
          f"versions={record['versions']}")
    metrics = record["metrics"]
    if not record["trace"]:
        frac = record["failed"] / record["attempted"]
        print(f"  failed_frac = {frac!r} 1 ({record['failed']}/{record['attempted']} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for p in record["passes"]:
        for r in p["jobs"]:
            if not r["ok"]:
                tag = f"known: {r['known']}" if r["known"] else "UNEXPECTED"
                error = r["error"].strip().splitlines()[-1] if r["error"] else ""
                print(f"  failed job {r['job']} ({tag}) {error}")
        for row in p.get("per_job", ()):
            if row["job"] is not None:
                print(f"  layer {row['layer']:40s} {row['job']:36s} "
                      f"{row['calls']:4d} calls {row['s']:9.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "roughgg", "__init__.py")):
        print("error: no roughgg sources under src/; run from a checkout",
              file=sys.stderr)
        return 2
    env = pinned_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        report(record)
        summary[name] = {k: record[k] for k in ("correct", "attempted", "failed")}
        summary[name]["metrics"] = {k: {"value": v, "unit": u}
                                    for k, (v, u) in record["metrics"].items()}
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
