"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

1. A seed always generates the same configs, and other seeds other ones.
2. A deliberately perturbed output of every workload is flagged as failed.
3. A traced and an untraced run of one seed perform the same ops, in the
   same order, with the same physics outputs.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Exits 0 when every check passes.  Takes about a minute.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAILURES = []


def expect(cond, what):
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def check_determinism():
    print("seeded configs")
    for wl in workloads.WORKLOADS:
        a = workloads.plan_digest(workloads.make_plan(wl, 7))
        b = workloads.plan_digest(workloads.make_plan(wl, 7))
        c = workloads.plan_digest(workloads.make_plan(wl, 8))
        expect(a == b, f"{wl}: seed 7 twice gives plan {a} both times")
        expect(a != c, f"{wl}: seed 8 gives another plan ({c})")


def flagged(inputs, i, out):
    try:
        workloads.check(inputs, i, out)
    except workloads.CheckFailed:
        return True
    return False


def _rewrite_csv_value(path, row, column, value):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = repr(value)
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check_perturbed(scratch):
    print("perturbed outputs are flagged")
    echo = workloads.Inputs("echo_pipeline", 0, scratch)
    out = workloads.run_op(echo, 0)
    expect(not flagged(echo, 0, out), "echo_pipeline: true output passes")
    out["res"].eps_sim *= 1.1
    expect(flagged(echo, 0, out), "echo_pipeline: eps_sim x 1.1 fails")
    out["res"].eps_sim /= 1.1
    out["fidelity"] = 0.95
    expect(flagged(echo, 0, out), "echo_pipeline: fidelity 0.95 fails")

    sweep = workloads.Inputs("switch_sweep", 0, scratch)
    for i, column in ((0, "eps_t"), (1, "eps_r"), (2, "overall_eff")):
        op = sweep.plan[i]
        out = workloads.run_op(sweep, i)
        expect(not flagged(sweep, i, out),
               f"switch_sweep {op['kind']}: true output passes")
        row = op.get("spot", workloads.SWEEP_POINTS - 1)
        value = workloads.read_sweep_csv(
            out["out_path"], workloads.sweep_axis(op)[0], column)[1][row]
        _rewrite_csv_value(out["out_path"], row, column, value * 0.99)
        expect(flagged(sweep, i, out),
               f"switch_sweep {op['kind']}: spot value x 0.99 fails")
    out = workloads.run_op(sweep, 0)
    out["code"] = 2
    expect(flagged(sweep, 0, out),
           "switch_sweep: exit code 2 without error rows fails")

    full = workloads.Inputs("full_model", 0, scratch)
    out = workloads.run_op(full, 0)
    expect(not flagged(full, 0, out), "full_model: true output passes")
    out["field_error"] *= 1.5
    expect(flagged(full, 0, out), "full_model: field error x 1.5 fails")


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_trace_same_ops():
    print("traced and untraced runs perform the same ops")
    for wl, seconds in (("switch_sweep", "2"), ("echo_pipeline", "3")):
        runs = {}
        for trace in ("0", "1"):
            proc = _run(["perfbench/run.py", "--workload", wl, "--seed", "5",
                         "--seconds", seconds, "--trace", trace])
            expect(proc.returncode == 0, f"{wl} --trace {trace} exits 0")
            path = os.path.join(HERE, "out", f"{wl}-seed5-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                runs[trace] = json.load(fh)
        plain = runs["0"]["records"]
        traced = runs["1"]["records"]
        n = min(len(plain), len(traced))
        expect(n >= 2, f"{wl}: both runs made at least two ops ({n})")
        expect([r["id"] for r in plain[:n]] == [r["id"] for r in traced[:n]],
               f"{wl}: the first {n} op ids agree")
        expect(all(a["physics"] == b["physics"] and a["verdict"] ==
                   b["verdict"] for a, b in zip(plain[:n], traced[:n])),
               f"{wl}: their verdicts and physics agree")
        expect(not runs["1"]["trace_mismatches"],
               f"{wl}: each traced op matches its untraced twin")
        expect(runs["0"]["plan_digest"] == runs["1"]["plan_digest"],
               f"{wl}: both runs drew the same plan")
        if wl in workloads.WHOLE_PLAN:
            counts = [(runs[t]["attempted"], runs[t]["failed"])
                      for t in ("0", "1")]
            expect(counts[0] == counts[1] and counts[0][0] ==
                   len(workloads.make_plan(wl, 5)),
                   f"{wl}: both runs covered the whole plan and count the "
                   f"same attempted and failed ops {counts}")


def check_bare_directory(scratch):
    print("a directory without the library fails cleanly")
    bare = os.path.join(scratch, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["perfbench/run.py", "--workload", "echo_pipeline",
                 "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0, f"run.py exits {proc.returncode}")
    expect('"correct"' not in proc.stdout, "and prints no result")


def main():
    worker.import_library()
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=worker.OUT_DIR)
    try:
        check_determinism()
        check_perturbed(scratch)
        check_bare_directory(scratch)
        check_trace_same_ops()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selfcheck:", "FAILED " + "; ".join(FAILURES) if FAILURES
          else "all checks pass")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
