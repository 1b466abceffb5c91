"""surfops benchmark: seeded workloads over apply, verify and classify.

    python3 perfbench/run.py --workload stream_small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in its own single-threaded child process, one at a
time: the parent generates the inputs from ``--seed``, the child parses,
calls and emits them in a closed loop for ``--seconds`` (in whole passes
over the items) and runs the correctness oracles outside the timed part.
Times are scaled to reference speed (see ``harness.REFERENCE_S``), which
cancels the speed changes of a shared machine.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run is split into an untraced
and a traced half and the metrics are the per-layer ones plus the
tracing overhead.  A wrong answer makes the exit code 1.

``--out FILE`` appends the run's record (JSON lines) for
``perfbench/compare.py``; ``--spans FILE`` writes the traced spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 5  # setup_s is the median over this many process starts
RUN_LIMIT_S = 170  # one workload's run ends within 180 s
END_TO_END_UNITS = {"latency_p50_ms": "ms", "edges_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
LOWER_IS_BETTER = {"latency_p50_ms", "peak_rss_mb", "setup_s"}


def _import_package():
    """Import surfops from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "surfops", "__init__.py")):
        sys.exit("error: %s/surfops not found; run from a surfops checkout" % SRC)
    sys.path.insert(0, SRC)
    import surfops

    if os.path.dirname(os.path.dirname(os.path.abspath(surfops.__file__))) != SRC:
        sys.exit("error: surfops imported from %s, not %s" % (surfops.__file__, SRC))


def run_child(payload, mode, traced, seconds, deadline, spans=None):
    """Start one workload process, killed at ``deadline``; returns (result,
    seconds from start to its first timed item, at reference speed like
    every time here)."""
    import harness

    argv = [sys.executable, os.path.abspath(__file__), "--child", mode,
            "--seconds", repr(seconds), "--trace", "1" if traced else "0"]
    if spans:
        argv += ["--spans", spans]
    env = {k: v for k, v in os.environ.items() if k != "SURFOPS_CATALOG"}
    data = json.dumps(payload).encode()
    before = harness.Speedometer.between()
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    try:
        out, _ = proc.communicate(data, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("error: workload process still running at the run's deadline")
    if proc.returncode != 0:
        raise SystemExit("error: workload process exited with %d" % proc.returncode)
    result = json.loads(out)
    samples = before + result["reference"]
    setup = (result["ready"] - started) * harness.REFERENCE_S * len(samples) / sum(samples)
    return result, setup


def summarize(payload, result, setup_s):
    """End-to-end metrics of one workload process, and latency_p90_ms
    when it ran at least 100 items.  Times are at reference speed (see
    ``harness.REFERENCE_S``); a failed item counts at its limit and adds
    no edges."""
    limit = payload["limit_s"]
    records = result["records"]
    latencies = [1000.0 * (scaled if status == "ok" else max(scaled, limit))
                 for _, _, status, _, _, scaled in records]
    edges = sum(rec[4] for rec in records if rec[2] == "ok")
    metrics = {
        "latency_p50_ms": statistics.median(latencies),
        "edges_per_s": 1000.0 * edges / sum(latencies),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": setup_s,
    }
    p90 = statistics.quantiles(latencies, n=10)[8] if len(records) >= 100 else None
    return metrics, p90


def _overhead(name, traced, plain):
    """How much worse the traced value is, as a share of the untraced one."""
    change = (traced - plain) / plain
    return change if name in LOWER_IS_BETTER else -change


def run_workload(name, seed, seconds, trace, spans=None):
    """One run of a workload: (JSON result, report lines, outputs digest).
    A traced run spends half of ``seconds`` untraced and half traced."""
    import inputs

    deadline = time.perf_counter() + RUN_LIMIT_S
    payload = inputs.generate(name, seed)
    if trace:
        runs = [run_child(payload, "run", False, seconds / 2.0, deadline),
                run_child(payload, "run", True, seconds / 2.0, deadline, spans)]
    else:
        setups = [run_child(payload, "setup", False, 0, deadline)[1]
                  for _ in range(SETUP_SAMPLES - 1)]
        result, setup = run_child(payload, "run", False, seconds, deadline)
        runs = [(result, statistics.median(setups + [setup]))]
    summaries = [summarize(payload, result, setup) for result, setup in runs]
    metrics, p90 = summaries[0]  # untraced
    records = [rec for result, _ in runs for rec in result["records"]]
    statuses = Counter(rec[2] for rec in records)
    failed = len(records) - statuses["ok"]
    problems = {k: v for result, _ in runs for k, v in result["problems"].items()}
    digests = [result["digest"] for result, _ in runs]
    if trace:
        traced = runs[1][0]
        reported = dict(traced["layers"])
        for key, value in summaries[1][0].items():
            reported["trace.overhead." + key] = {
                "value": _overhead(key, value, metrics[key]), "unit": "ratio"}
    else:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    items = payload["items"]
    edge_sizes = [inp["edges"] for inp in payload["inputs"]]
    lines = ["workload %s seed %d%s: %d items a pass (%s), input E %d-%d"
             % (name, seed, " traced" if trace else "", len(items),
                ", ".join(sorted({it["kind"] for it in items})), min(edge_sizes),
                max(edge_sizes))]
    if trace:
        lines.append("  untraced half:")
    for key, value in metrics.items():
        lines.append("  %-16s %14.6g %s" % (key, value, END_TO_END_UNITS[key]))
    n_first = len(runs[0][0]["records"])
    if p90 is not None:
        lines.append("  %-16s %14.6g ms (%d items)" % ("latency_p90_ms", p90, n_first))
    else:
        lines.append("  latency_p90_ms   not reported: %d items < 100" % n_first)
    lines.append("  %-16s %14.6g ratio (%d of %d items; %s)" % (
        "failed_share", failed / len(records), failed, len(records),
        " ".join("%s=%d" % kv for kv in sorted(statuses.items()))))
    lines.append("  passes %s, outputs digest %s" % (
        " + ".join(str(result["passes"]) for result, _ in runs), " / ".join(digests)))
    if trace:
        lines.append("  per-layer (mean per call; * = measured on the probe, "
                     "not called by this workload):")
        for key, entry in reported.items():
            mark = "*" if key in traced["from_probe"] else " "
            value = float("nan") if entry["value"] is None else entry["value"]
            lines.append("  %s %-44s %12.6g %s" % (mark, key, value, entry["unit"]))
        if traced["per_op_base_ms"] is not None:
            lines.append("  operations.per_op_share base: %.3f ms of apply"
                         % traced["per_op_base_ms"])
    for item_id, bad in sorted(problems.items()):
        lines.append("  WRONG item %s: %s" % (item_id, "; ".join(bad)))
    result = {"correct": not problems and len(set(digests)) == 1,
              "attempted": len(records), "failed": failed, "metrics": reported}
    return result, lines, digests[0], item_table(payload, runs[0][0]["records"])


def item_table(payload, records):
    """Per item of the untraced run: kind, operation, input E, statuses
    and median latency, for the ``--out`` record."""
    by_item = {}
    for item_id, _, status, _, _, scaled in records:
        by_item.setdefault(item_id, []).append((status, scaled))
    table = []
    for item in payload["items"]:
        runs = by_item.get(item["id"], [])
        edges = None if item["input"] is None else payload["inputs"][item["input"]]["edges"]
        table.append({
            "id": item["id"], "kind": item["kind"], "op": item.get("op"), "edges": edges,
            "statuses": sorted({status for status, _ in runs}),
            "median_ms": 1000 * statistics.median(sec for _, sec in runs) if runs else None,
        })
    return table


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    parser.add_argument("--spans", help="write the traced spans to this JSON-lines file")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    _import_package()
    if args.child:
        import harness

        return harness.child_main(args.child, bool(args.trace), args.seconds, args.spans)
    import inputs

    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in inputs.WORKLOADS:
            sys.exit("error: unknown workload %r (known: %s)"
                     % (name, ", ".join(inputs.WORKLOADS)))
    results = {}
    for name in names:
        result, lines, digest, table = run_workload(name, args.seed, args.seconds,
                                                    args.trace, args.spans)
        print("\n".join(lines), flush=True)
        results[name] = result
        if args.out:
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "digest": digest, "result": result,
                      "items": table,
                      "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                              "machine": platform.machine()}}
            with open(args.out, "a", encoding="ascii") as handle:
                handle.write(json.dumps(record) + "\n")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
