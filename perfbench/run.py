"""ramanecho benchmark: closed-loop workloads with physics-checked ops.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/ramanecho``; the library
is imported from that tree only.  With ``--trace 0`` it measures the
end-to-end metrics of BENCHMARK.json with tracing off:

    setup_s      fresh interpreter: import ramanecho and build the inputs
                 (median over SETUP_PROBES + 1 processes, timed from outside)
    first_op_s   op 0 in a fresh process, one-off costs included (median)
    op_p50_s     median warm op; a failed op counts as infinitely slow
    ops_per_s    correct warm ops per second of timed op wall time
    peak_rss_mb  peak resident memory of the measuring process

With ``--trace 1`` it runs the same ops, each once untraced and once
traced, and reports the per-layer metrics.  The last line of standard output
is one JSON object; the lines before it are a readable report with every
metric's unit and sample count, each op's verdict and the machine.  The
full record goes to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.

BLAS and OpenMP pools are pinned to one thread: every workload is one client
in one process, and the arrays (at most 61 x 161 complex) are too small for
threaded BLAS to pay off.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import select
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("echo_pipeline", "switch_sweep", "full_model")

BLAS_THREADS = 1
# fresh processes started besides the measuring one, half before and half
# after it; each times its set-up and then its op 0, except that on
# full_model, whose op takes ~7 s, only the first and the last probe run op 0
SETUP_PROBES = 5
# the whole run, children included, must end inside this many seconds
DEADLINE_S = 170.0
# op_p50_s when more than half the ops failed (infinitely slow)
ALL_FAILED_P50 = 1e9


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)         # the worker finds src/ itself
    return env


def run_worker(mode, args, deadline):
    """Start one fresh worker; return (seconds until its inputs were built,
    its JSON result).  Set-up is timed here, from before the interpreter
    starts to the worker's ``ready`` line."""
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryFile(mode="w+", dir=OUT_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err,
                                text=True)
        try:
            ready = _wait_line(proc, deadline)
            setup_wall = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=max(
                deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {mode} ran out of time") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        message = err.read().strip()[-2000:]
    lines = out.strip().splitlines()
    if proc.returncode != 0 or ready != "ready" or not lines:
        raise BenchError(f"worker {mode} exited {proc.returncode}: "
                         f"{message}")
    return setup_wall, json.loads(lines[-1])


def _wait_line(proc, deadline) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0 or not select.select([proc.stdout], [], [], timeout)[0]:
        raise subprocess.TimeoutExpired(proc.args, timeout)
    return proc.stdout.readline().strip()


# ---------------------------------------------------------------- machine

def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_info() -> dict:
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in range(8):
        d = f"{base}/index{idx}"
        level = _read(f"{d}/level").strip()
        if not level:
            continue
        kind = _read(f"{d}/type").strip().lower()
        tag = f"L{level}" + {"data": "d", "instruction": "i"}.get(kind, "")
        caches[tag] = _read(f"{d}/size").strip()
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {"cpu_model": model or platform.processor(), "caches": caches,
            "nproc": affinity, "cpu_count": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "platform": platform.platform(),
            "python": platform.python_version()}


def revision() -> dict:
    """git revision when the checkout is a repository, and always a digest
    of the library sources, which names the code in a plain checkout too."""
    rev = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ramanecho")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {"git": rev, "src_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------- metrics

def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def p50_with_failures(records) -> float:
    times = sorted(r["t"] if r["verdict"] == "ok" else math.inf
                   for r in records)
    value = statistics.median(times)
    return value if math.isfinite(value) else ALL_FAILED_P50


def tally(ops):
    """(attempted, failed, wrong) over distinct op configs.  Repeats of an
    op -- later passes over the plan, op 0 in the probe processes -- are
    timing samples of the same op; an op failed when any of its runs did.
    Counting configs, not runs, keeps the counts of a seed independent of
    how many ops the machine fits into the run."""
    verdicts = {}
    for r in ops:
        verdicts.setdefault(r["id"], set()).add(r["verdict"])
    failed = sum(v != {"ok"} for v in verdicts.values())
    wrong = sum("wrong" in v for v in verdicts.values())
    return len(verdicts), failed, wrong


def probe_modes(workload):
    if workload == "full_model":
        return ["first"] + ["setup"] * (SETUP_PROBES - 2) + ["first"]
    return ["first"] * SETUP_PROBES


def end_to_end(args, deadline):
    # the machine's speed drifts over tens of seconds, so the probes are
    # split around the measuring run to sample its whole span
    modes = probe_modes(args.workload)
    before = SETUP_PROBES // 2 + 1
    probes = [run_worker(mode, args, deadline) for mode in modes[:before]]
    setup_wall, main = run_worker("run", args, deadline)
    probes += [run_worker(mode, args, deadline) for mode in modes[before:]]
    setup_walls = [w for w, _ in probes] + [setup_wall]
    records = main["records"]
    firsts = [records[0]] + [p["records"][0] for _, p in probes
                             if p.get("records")]
    warm = records[1:]
    correct_warm = [r for r in warm if r["verdict"] == "ok"]
    timed = sum(r["t"] for r in warm)
    values = {
        "setup_s": (statistics.median(setup_walls), len(setup_walls),
                    "fresh interpreters, median"),
        "first_op_s": (statistics.median(r["t"] for r in firsts),
                       len(firsts), "fresh processes, median"),
        "op_p50_s": (p50_with_failures(warm), len(warm),
                     "warm ops, median, failed = infinitely slow"),
        "ops_per_s": (len(correct_warm) / timed if timed else 0.0, len(warm),
                      f"warm ops: {len(correct_warm)} correct in "
                      f"{timed:.2f} s"),
        "peak_rss_mb": (main["peak_rss_mb"], 1, "measuring process"),
    }
    extra = dict(setup_walls=setup_walls, probe_first_ops=firsts[1:])
    return values, records, firsts[1:], main, extra


# ---------------------------------------------------------------- report

def verdict_line(r):
    drift = ""
    if r.get("drift"):
        drift = f" drift={max(r['drift'].values()):.3g}"
    why = f" -- {r['why']}" if r["why"] else ""
    return (f"  op {r['i']:>4} {r['id']:<18} {r['kind']:<10} "
            f"{r['t']:9.4f} s  {r['verdict']}{drift}{why}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ramanecho",
                                       "__init__.py")):
        print(f"benchmark: no ramanecho sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        declared = declared_metrics()
        machine, rev = machine_info(), revision()
        if args.trace:
            _, main_res = run_worker("trace", args, deadline)
            records = main_res["records"]
            layers = main_res["layers"]
            missing = set(declared["per_layer"]) - set(layers)
            if missing:
                raise BenchError(f"trace lacks metrics {sorted(missing)}")
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in declared["per_layer"].items()}
            shown = {name: (layers[name], len(records), "traced ops")
                     for name in declared["per_layer"]}
            probe_records = []
            correct_extra = not main_res["trace_mismatches"]
            extra = {"untraced_records": main_res["untraced_records"],
                     "spans_by_name": main_res["spans_by_name"],
                     "trace_mismatches": main_res["trace_mismatches"]}
        else:
            values, records, probe_records, main_res, extra = end_to_end(
                args, deadline)
            metrics = {name: {"value": values[name][0], "unit": unit}
                       for name, unit in declared["end_to_end"].items()}
            shown = values
            correct_extra = True
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    every_op = records + probe_records
    attempted, failed, wrong = tally(every_op)
    correct = wrong == 0 and correct_extra
    drifts = {r["id"]: r["drift"] for r in records if r.get("drift")}

    print(f"ramanecho benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  cpu={machine['cpu_model']!r} caches={machine['caches']} "
          f"nproc={machine['nproc']} blas_threads={BLAS_THREADS}")
    print(f"  versions={main_res['versions']} git={rev['git']} "
          f"src={rev['src_sha256']} plan={main_res['plan_digest']}")
    for name, (value, n, how) in shown.items():
        unit = (declared["per_layer"] if args.trace
                else declared["end_to_end"])[name]
        print(f"  {name:<44} {value:>14.6g} {unit:<9} n={n} ({how})")
    print(f"  {'fail_frac':<44} {failed / attempted:>14.6g} {'ratio':<9} "
          f"n={attempted} distinct ops in {len(every_op)} runs "
          f"({failed} failed: {failed - wrong} raised, {wrong} wrong)")
    for op_id, d in drifts.items():
        print(f"  anchor {op_id} drift from seed commit: "
              + ", ".join(f"{k}={v:.3g}" for k, v in d.items()))
    for r in every_op:
        print(verdict_line(r))

    os.makedirs(OUT_DIR, exist_ok=True)
    detail = dict(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=machine,
                  revision=rev, versions=main_res["versions"],
                  plan_digest=main_res["plan_digest"], metrics=metrics,
                  samples={k: v[1] for k, v in shown.items()},
                  fail_frac=failed / attempted, attempted=attempted,
                  failed=failed, wrong=wrong, correct=correct,
                  anchor_drift=drifts, records=records, **extra)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(f"  detail: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
