"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
        [--trace] [--setup-only] --work DIR [--spans FILE]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process; set-up time runs from there to inputs ready, so it
includes interpreter start and ``import roughgg``.  The last line of
standard output is one JSON object with the pass's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _sizes(ctx, dmfield) -> dict:
    """Cells, live facets and crack facets over the rasterized domains."""
    from roughgg.domain import RoughSet

    seen, cells, facets, cracks = set(), 0, 0, 0
    for value in ctx.values():
        set_ = value[0] if isinstance(value, tuple) else None
        if not isinstance(set_, RoughSet) or id(set_) in seen:
            continue
        seen.add(id(set_))
        topo = dmfield.facet_topology(set_)
        cells += set_.cell_count
        for a in range(set_.grid.n):
            facets += int((topo.interior[a] | topo.boundary[a] | topo.crack[a]).sum())
            cracks += int(topo.crack[a].sum())
    return {"domain.cells": cells, "dmfield.facets": facets,
            "dmfield.crack_facets": cracks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    import jobs  # imports roughgg

    if tracer is not None:
        tracer.install()
        for attr in jobs.TRACE_DATA_BUILDERS:
            tracer.wrap_attr(jobs, attr, "divsolve.trace_data")
    ctx = jobs.setup(args.workload, args.seed, ROOT, args.work)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    ctx["tracer"] = tracer
    records = []
    start = time.perf_counter()
    for job in jobs.JOBS[args.workload]:
        if tracer is not None:
            tracer.job = job.name
        t0 = time.perf_counter()
        error = None
        try:
            ok = bool(job.run(ctx))
        except Exception:  # a job that raises is a failed job; go on
            ok, error = False, traceback.format_exc()
        records.append({"job": job.name, "ok": ok, "s": time.perf_counter() - t0,
                        "known": job.known, "error": error})
    wall_s = time.perf_counter() - start

    # the CLI workload's memory is that of its subcommand processes
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    import numpy
    import scipy

    out.update({
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "jobs": records,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "cli_counts": {"cli.bad_exit": ctx.get("bad_exit", 0),
                       "cli.artifact_mismatch": ctx.get("artifact_mismatch", 0)},
    })
    if tracer is not None:
        tracer.job = None
        sid = tracer.begin("cli.import")
        subprocess.run([sys.executable, "-c", "import roughgg.cli"],
                       env=jobs.package_env(ROOT), check=True, timeout=120)
        tracer.end(sid)
        import roughgg.dmfield as dmfield

        out["busy"] = tracer.busy()
        out["counts"] = {**tracer.counts, **_sizes(ctx, dmfield),
                         "trace.overhead_s": tracer.overhead}
        out["per_job"] = per_job_table(tracer)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


def per_job_table(tracer) -> list:
    """Busy seconds and calls per (job, layer), with the mollifier width in
    cells for mollify spans: the rows of the layer baseline table."""
    rows: dict = {}
    for name, start, end, _parent, job, note in tracer.spans:
        key = (job, name if note is None else f"{name}@{note:g}dx")
        row = rows.setdefault(key, [0.0, 0])
        row[0] += end - start
        row[1] += 1
    return [{"job": j, "layer": layer, "s": s, "calls": c}
            for (j, layer), (s, c) in rows.items()]


if __name__ == "__main__":
    sys.exit(main())
