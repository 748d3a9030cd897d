#!/usr/bin/env python3
"""Paired perf gate over the benchmark that BENCHMARK.json declares.

Runs every workload on a base checkout and a head checkout, PAIRS times
each, alternating which side runs first, with tracing off and a fixed
seed. Fails when, on any workload, head's median of an end-to-end metric
is worse than base's median by more than that metric's `bound`, when a
metric is missing on one side, when head fails a larger share of the
operations it attempted, or when a head run fails its output checks.

Then it replays every ensemble workload once per side with `--trace 1`
and prints the per-layer head/base ratios. The dynamics are
deterministic at a fixed seed, so the trajectory counts (TRAJECTORY)
must match exactly; a mismatch, or a traced run on either side failing
its output checks, fails the gate.

    python3 .github/perf_gate.py BASE_DIR HEAD_DIR
    python3 .github/perf_gate.py --self-test
"""
import json
import os
import statistics
import subprocess
import sys

PAIRS = 3
SEED = 7
TRAJECTORY = ("dynamics.steps", "sched.steps", "churn.deltas")
MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def run_once(bench, checkout, workload, trace=0):
    """One benchmark run; its result is the last line of standard output."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def collect(bench, base_dir, head_dir):
    """{side: {workload: [result, ...]}}, runs interleaved pair by pair."""
    results = {"base": {}, "head": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        for pair in range(PAIRS):
            order = [("base", base_dir), ("head", head_dir)]
            for side, checkout in order if pair % 2 == 0 else order[::-1]:
                result = run_once(bench, checkout, workload)
                results[side].setdefault(workload, []).append(result)
                print(f"{workload} pair {pair + 1} {side}: {json.dumps(result)}", flush=True)
    return results


def traced_workloads(bench):
    return [w["name"] for w in bench["workloads"] if w["name"].startswith("ensemble")]


def collect_traces(bench, base_dir, head_dir):
    """{side: {workload: result}}, one traced run per side and workload."""
    traces = {"base": {}, "head": {}}
    for workload in traced_workloads(bench):
        for side, checkout in (("base", base_dir), ("head", head_dir)):
            traces[side][workload] = result = run_once(bench, checkout, workload, trace=1)
            print(f"{workload} traced {side}: {json.dumps(result)}", flush=True)
    return traces


def compare_traces(bench, traces):
    """Per-layer ratio lines, and every reason the traced runs fail the
    gate: a trajectory count that differs, or a run failing its checks."""
    rows, problems = [], []
    for workload in traced_workloads(bench):
        runs = {side: traces[side].get(workload, {}) for side in ("base", "head")}
        for side, result in runs.items():
            if not result.get("correct"):
                problems.append(f"{workload}: traced {side} run failed its output checks")
        for metric in bench["per_layer"]:
            name = metric["name"]
            b, h = (runs[side].get("metrics", {}).get(name, {}).get("value")
                    for side in ("base", "head"))
            if name in TRAJECTORY and (b is None or b != h):
                problems.append(f"{workload}: {name} differs: base {b} head {h}")
            if b is None or h is None or b == h == 0:
                continue
            ratio = h / b if b else float("inf")
            rows.append(f"{workload:22} {name:32} base {b:14.4f} head {h:14.4f} "
                        f"ratio {ratio:6.3f} ({metric['better']} is better)")
    return rows, problems


def median_of(runs, name):
    values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
    return statistics.median(values) if len(values) == len(runs) else None


def failed_share(runs):
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(bench, results):
    """A report line per workload and metric, and every reason the head
    side fails the gate (none when it passes)."""
    rows, problems = [], []
    for workload in (w["name"] for w in bench["workloads"]):
        base = results["base"].get(workload, [])
        head = results["head"].get(workload, [])
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b, h = median_of(base, name), median_of(head, name)
            if b is None or h is None:
                side = "base" if b is None else "head"
                problems.append(f"{workload}: {name} missing on {side}")
                continue
            if metric["better"] == "lower":
                worse = h > b * (1 + bound)
            else:
                worse = h < b * (1 - bound)
            ratio = h / b if b else float("inf")
            rows.append(f"{workload:22} {name:18} base {b:12.4f} head {h:12.4f} "
                        f"ratio {ratio:6.3f} ({metric['better']} is better, bound {bound})")
            if worse:
                problems.append(f"{workload}: {name} head median {h:.4f} is worse than "
                                f"base median {b:.4f} by more than {bound:.0%}")
        if failed_share(head) > failed_share(base):
            problems.append(f"{workload}: failed share {failed_share(head):.4f} on head "
                            f"exceeds base {failed_share(base):.4f}")
        if not all(r["correct"] for r in head):
            problems.append(f"{workload}: a head run failed its output checks")
    return rows, problems


def self_test(bench):
    """The gate's own checks, on synthetic result lines."""
    def line(failed=0, **scale):
        metrics = ", ".join(
            f'"{m["name"]}": {{"value": {10.0 * scale.get(m["name"], 1.0)}, "unit": "{m["unit"]}"}}'
            for m in bench["end_to_end"])
        return f'{{"correct": true, "attempted": 100, "failed": {failed}, "metrics": {{{metrics}}}}}'

    workload = bench["workloads"][0]["name"]

    def gate(base_line, head_line):
        """Head differs from base on the first workload only."""
        base = {w["name"]: [json.loads(base_line)] * PAIRS for w in bench["workloads"]}
        head = dict(base, **{workload: [json.loads(head_line)] * PAIRS})
        return compare(bench, {"base": base, "head": head})[1]

    def traced(correct=True, **values):
        """A synthetic traced result; `values` keys spell dots as `_`."""
        metrics = {m["name"]: {"value": values.get(m["name"].replace(".", "_"), 5.0),
                               "unit": m["unit"]} for m in bench["per_layer"]}
        return {"correct": correct, "attempted": 8, "failed": 0, "metrics": metrics}

    traced_workload = traced_workloads(bench)[0]

    def trace_gate(base_result, head_result):
        """The traced runs differ from the defaults on the first ensemble
        workload only."""
        others = {w: traced() for w in traced_workloads(bench)}
        return compare_traces(bench, {
            "base": dict(others, **{traced_workload: base_result}),
            "head": dict(others, **{traced_workload: head_result}),
        })[1]

    missing = json.loads(line())
    del missing["metrics"]["lat_ms_p50"]
    cases = [
        ("identical results pass", gate(line(), line()), None),
        ("2x throughput drop fails", gate(line(), line(throughput_per_s=0.5)),
         f"{workload}: throughput_per_s"),
        ("2x latency rise fails", gate(line(), line(lat_ms_p50=2.0)), f"{workload}: lat_ms_p50"),
        ("higher failed share fails", gate(line(), line(failed=1)), f"{workload}: failed share"),
        ("metric missing on head fails", gate(line(), json.dumps(missing)),
         f"{workload}: lat_ms_p50 missing on head"),
        ("identical traces pass", trace_gate(traced(), traced()), None),
        ("faster layers with equal counts pass",
         trace_gate(traced(), traced(dynamics_run_ms=2.5, sched_run_ms=1.0)), None),
        ("differing dynamics.steps fails",
         trace_gate(traced(), traced(dynamics_steps=6.0)),
         f"{traced_workload}: dynamics.steps differs"),
        ("differing churn.deltas fails",
         trace_gate(traced(churn_deltas=9.0), traced()),
         f"{traced_workload}: churn.deltas differs"),
        ("traced head run failing its checks fails",
         trace_gate(traced(), traced(correct=False)),
         f"{traced_workload}: traced head run failed"),
        ("traced base run failing its checks fails",
         trace_gate(traced(correct=False), traced()),
         f"{traced_workload}: traced base run failed"),
    ]
    ok = True
    for what, problems, expect in cases:
        passed = not problems if expect is None else (
            len(problems) == 1 and problems[0].startswith(expect))
        print(f"[{'PASS' if passed else 'FAIL'}] {what}: {problems or 'gate passes'}")
        ok &= passed
    return ok


def main(argv):
    with open(MANIFEST) as f:
        bench = json.load(f)
    if argv == ["--self-test"]:
        return 0 if self_test(bench) else 1
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, problems = compare(bench, collect(bench, *argv))
    trace_rows, trace_problems = compare_traces(bench, collect_traces(bench, *argv))
    rows += ["per-layer head/base ratios, one --trace 1 run per side:"] + trace_rows
    problems += trace_problems
    print("\n".join(rows))
    for problem in problems:
        print(f"PERF GATE FAILED: {problem}")
    if not problems:
        print("perf gate passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
