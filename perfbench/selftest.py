#!/usr/bin/env python3
"""Self-test of the campaign benchmark at its smallest size.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that:
  * every workload prints every end-to-end metric of BENCHMARK.json with
    its unit, plus the workload's own named metrics, and passes its
    correctness gate;
  * the traced run prints every per-layer metric with its unit, including
    trace.coverage, and writes a span file of well-formed spans;
  * the correctness gate trips (nonzero exit, "correct": false) when one
    record read back from the store is perturbed;
  * the benchmark refuses to run, without printing a result, in a
    directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# The named metrics each workload prints in its report lines.
NAMED = {
    "random_value": ["injections_per_s_1t", "injections_per_s_nt",
                     "load_records_per_s", "failed_fraction"],
    "random_bitflip": ["injections_per_s_1t", "injections_per_s_nt",
                       "load_records_per_s", "failed_fraction"],
    "bayesian": ["selection_candidates_per_s_1t", "selection_candidates_per_s_nt",
                 "injections_per_s_1t", "injections_per_s_nt",
                 "hazards_per_s_nt", "load_records_per_s", "failed_fraction"],
    "store_query": ["append_records_per_s", "load_records_per_s", "analyze_s",
                    "failed_fraction"],
}

failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=(), cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, lines, result


def report_metrics(lines, kind):
    """{name: unit} of the '# <kind> <name> <value> <unit>' report lines."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "#" and parts[1] == kind:
            found[parts[2]] = parts[4]
    return found


def check_metrics(label, result, expected):
    metrics = result.get("metrics", {}) if result else {}
    check(set(metrics) == set(expected),
          "%s prints exactly the %d listed metrics (missing %s, extra %s)"
          % (label, len(expected), sorted(set(expected) - set(metrics)),
             sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name, {})
        ok = m.get("unit") == unit and isinstance(m.get("value"), (int, float))
        if not ok:
            check(False, "%s metric %s has unit %s and a numeric value" % (label, name, unit))


def check_spans(path):
    try:
        with open(path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError):
        spans = []
    ok = bool(spans) and all(
        set(s) == {"id", "name", "parent", "start_us", "end_us"}
        and s["start_us"] <= s["end_us"] and s["parent"] < s["id"]
        for s in spans)
    check(ok, "span file %s holds well-formed spans (%d)" % (path, len(spans)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    check(sorted(workloads) == sorted(NAMED), "BENCHMARK.json lists the four workloads")

    for w in workloads:
        code, lines, result = run(w, 0)
        check(code == 0 and result is not None and result["correct"]
              and result["failed"] == 0 and result["attempted"] > 0,
              "%s untraced run passes its correctness gate" % w)
        check_metrics(w, result, end_to_end)
        named = report_metrics(lines, "named")
        missing = [n for n in NAMED[w] if n not in named]
        check(not missing, "%s report prints its named metrics with units (missing %s)"
              % (w, missing))

        code, lines, result = run(w, 1)
        check(code == 0 and result is not None and result["correct"],
              "%s traced run passes its correctness gate" % w)
        check_metrics(w + " traced", result, per_layer)
        coverage = (result or {}).get("metrics", {}).get("trace.coverage", {}).get("value", 0)
        check(0.5 < coverage <= 1.0 + 1e-9, "%s trace.coverage %.3f" % (w, coverage))
        trace_lines = [l for l in lines if l.startswith("# trace ")]
        check(len(trace_lines) == 1, "%s names its span file" % w)
        if trace_lines:
            check_spans(trace_lines[0].split(" ", 2)[2])

    for w in ("random_value", "store_query"):
        code, _, result = run(w, 0, ["--perturb-record"])
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              "%s gate trips on a perturbed record (exit %d)" % (w, code))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    code, lines, result = run("random_value", 0, cwd=bare,
                              script=os.path.join(bare, "perfbench", "run.py"))
    check(code != 0 and result is None,
          "refuses to run without the repository's sources (exit %d)" % code)
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
