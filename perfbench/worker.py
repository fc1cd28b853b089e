"""One benchmark process: import ramanecho from this checkout's ``src``,
build a workload's inputs and run its ops in a closed loop.

    python3 perfbench/worker.py MODE --workload W --seed N --seconds S

MODE is one of
    setup      import and build the inputs, nothing else
    first      set up, then run op 0 (the first op a fresh process pays)
    run        set up, op 0, then warm ops until S seconds have passed
               (and, on the WHOLE_PLAN workloads, the plan has been run)
    trace      set up under the tracer, then each op twice -- untraced,
               then traced -- for as long as ``run`` runs ops
    reference  print the anchors' physics and the full-model error bound
               as JSON (how reference.json was made, at the seed commit)

The worker prints ``ready`` as soon as its inputs are built, so the parent
can time set-up from outside, and one JSON object as its last line.
``run.py`` starts these processes; the worker is not meant to be run alone.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

# span op index of the set-up phase and of the checks between ops
SETUP_OP, CHECK_OP = -3, -2


def import_library():
    """Import ramanecho from this checkout only; never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "ramanecho", "__init__.py")):
        sys.exit(f"no ramanecho sources under {SRC}")
    sys.path.insert(0, SRC)
    import ramanecho
    from ramanecho import cli  # noqa: F401  (not imported by the package)
    if not os.path.abspath(ramanecho.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported ramanecho from {ramanecho.__file__}, not {SRC}")
    return {name: sys.modules[f"ramanecho.{name}"]
            for name in ("specfun", "switching", "mbsolver", "efficiency",
                         "strcheck", "cli")}


def execute(inputs, i, tracer=None):
    """Run op i (the plan repeats when a run outlasts it), time it, check
    it.  Verdicts: ok, raised (an exception escaped the library), wrong
    (the output failed its physics check)."""
    j = i % len(inputs.plan)
    op = inputs.plan[j]
    out, why = None, ""
    if tracer is not None:
        tracer.op = i
        span = tracer.begin("op")
    t0 = time.perf_counter()
    try:
        out = workloads.run_op(inputs, j)
    except Exception as exc:  # a failed op is data, the loop goes on
        why = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
            tracer.op = CHECK_OP
    rec = dict(i=i, id=op["id"], kind=op["kind"], anchor=op["anchor"],
               t=elapsed, verdict="raised", why=why[:300], physics=None)
    if out is not None:
        try:
            rec["physics"] = workloads.check(inputs, j, out)
            rec["verdict"] = "ok"
        except workloads.CheckFailed as exc:
            rec.update(verdict="wrong", why=str(exc)[:300])
        except Exception as exc:  # an output the check cannot even read
            rec.update(verdict="wrong", why=f"{type(exc).__name__}: {exc}")
    if rec["physics"] is not None and op["anchor"]:
        rec["drift"] = workloads.anchor_drift(inputs.workload, op,
                                              rec["physics"])
    return rec


def versions():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def min_ops(inputs):
    """Ops a run makes whatever its --seconds: op 0, or the whole plan."""
    if inputs.workload in workloads.WHOLE_PLAN:
        return len(inputs.plan)
    return 1


def trace_loop(inputs, modules, tracer, seconds):
    """Each op untraced, then traced: same ops, same order as a run."""
    pairs = []
    t_loop = time.perf_counter()
    i = 0
    while i < min_ops(inputs) or time.perf_counter() - t_loop < seconds:
        plain = execute(inputs, i)
        tracer.install(modules)
        try:
            traced = execute(inputs, i, tracer)
        finally:
            tracer.uninstall()
        pairs.append((plain, traced))
        i += 1
    return pairs


def trace_result(inputs, tracer, pairs):
    # the first untraced op is the process's cold first op; overhead pairs
    # start after it when there are any
    warm = pairs[1:] or pairs
    plain_p50 = statistics.median(p["t"] for p, _ in warm)
    traced_p50 = statistics.median(t["t"] for _, t in warm)
    ops = [t["i"] for _, t in pairs]
    summary = tracing.summarize(tracer.spans, ops)
    setup = tracing.summarize(tracer.spans, [SETUP_OP])
    metrics = tracing.layer_metrics(summary, len(ops),
                                    [t["t"] for _, t in pairs], setup)
    metrics["trace.op_p50_untraced_s"] = plain_p50
    metrics["trace.op_p50_traced_s"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - plain_p50
    if inputs.workload == "switch_sweep":
        metrics["cli.aborted_requests"] = sum(
            t["verdict"] == "raised" for _, t in pairs) / len(pairs)
    else:
        metrics["cli.aborted_requests"] = 0.0
    drifts = [max(r["drift"].values()) for pair in pairs for r in pair
              if r.get("drift")]
    metrics["physics.anchor_drift_max"] = max(drifts) if drifts else 0.0
    mismatched = [t["id"] for p, t in pairs
                  if (p["verdict"], p["physics"]) != (t["verdict"],
                                                      t["physics"])]
    return metrics, summary, mismatched


def make_reference():
    """Anchor physics and the full-model error bound at this commit."""
    # no bound yet: the anchors are recorded, not judged
    workloads._REFERENCE = {"full_model": {"field_error_bound": math.inf}}
    ref = {}
    scratch = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        for workload in workloads.WORKLOADS:
            inputs = workloads.Inputs(workload, 0, scratch)
            anchors = {}
            for i, op in enumerate(inputs.plan):
                if op["anchor"]:
                    rec = execute(inputs, i)
                    if rec["verdict"] != "ok":
                        sys.exit(f"anchor {op['id']} failed: {rec['why']}")
                    anchors[op["id"]] = rec["physics"]
            ref[workload] = {"anchors": anchors}
        # the largest error of the seeded pulses sits in a corner of the
        # (t_peak, sigma_t) box; re-run op 0 with each corner's envelope
        from ramanecho import mbsolver
        inputs = workloads.Inputs("full_model", 0, scratch)
        t_axis = inputs.prepared[0]["env"].axis
        corners = []
        for t_peak in (22.0, 26.0):
            for sigma in (7.0, 9.0):
                inputs.prepared[0]["env"] = mbsolver.gaussian_input(
                    t_peak, sigma, t_axis)
                corners.append(workloads.run_op(inputs, 0)["field_error"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ref["full_model"]["field_error_seed_max"] = max(corners)
    ref["full_model"]["field_error_bound"] = round(1.05 * max(corners), 4)
    return ref


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=("setup", "first", "run", "trace",
                                     "reference"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    default="echo_pipeline")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    modules = import_library()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.mode == "reference":
        print(json.dumps(make_reference(), indent=1, sort_keys=True))
        return 0

    scratch = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracer.op = SETUP_OP
            tracer.install(modules)
        try:
            inputs = workloads.Inputs(args.workload, args.seed, scratch)
        finally:
            if tracer is not None:
                tracer.uninstall()
        print("ready", flush=True)
        result = dict(mode=args.mode, workload=args.workload, seed=args.seed,
                      plan_digest=workloads.plan_digest(inputs.plan),
                      versions=versions())
        if args.mode == "first":
            result["records"] = [execute(inputs, 0)]
        elif args.mode == "run":
            records = [execute(inputs, 0)]
            t_loop = time.perf_counter()
            i = 1
            while (i < min_ops(inputs)
                   or time.perf_counter() - t_loop < args.seconds):
                records.append(execute(inputs, i))
                i += 1
            result["records"] = records
        elif args.mode == "trace":
            pairs = trace_loop(inputs, modules, tracer, args.seconds)
            metrics, summary, mismatched = trace_result(inputs, tracer,
                                                        pairs)
            result.update(records=[t for _, t in pairs],
                          untraced_records=[p for p, _ in pairs],
                          layers=metrics, spans_by_name=summary,
                          span_count=len(tracer.spans),
                          trace_mismatches=mismatched)
        result["peak_rss_mb"] = peak_rss_mb()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
