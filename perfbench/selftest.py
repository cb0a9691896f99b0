"""Self-tests of the benchmark itself (not of rigidpack).

    python3 perfbench/selftest.py            # from the checkout root

1. Tracing completeness: after `tracing.install`, no original of a wrapped
   function is reachable under any name; a planted alias is detected.
2. Determinism: for each workload and two seeds, two traced runs give
   identical per-round call counts and output digests, and an untraced
   run gives the same output digest.
3. Every run prints exactly the metrics BENCHMARK.json names, and the
   benchmark refuses to run without the rigidpack sources.

Runs are short (2 seconds each) and run one at a time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(workload: str, seed: int, seconds: float, trace: int, cwd: str):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check_completeness(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    import rigidpack
    import rigidpack.cli  # noqa: F401  (loads every traced module)

    tracer = tracing.Tracer()
    tracing.install(tracer, rigidpack)
    leaks = tracing.unwrapped_references(tracer, rigidpack)
    assert not leaks, f"unwrapped originals reachable: {leaks}"
    original = next(f for f in tracer.originals.values()
                    if f.__name__ == "rank_and_rigid")
    rigidpack.packing.planted_alias = original
    try:
        leaks = tracing.unwrapped_references(tracer, rigidpack)
        assert "rigidpack.packing.planted_alias" in leaks, leaks
    finally:
        del rigidpack.packing.planted_alias
    print(f"completeness: {len(tracer.wrappers)} functions wrapped, "
          f"{tracer.bindings} names rebound, planted alias detected")


def check_determinism(root: str, seeds, seconds: float, workloads) -> None:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    for workload in workloads:
        for seed in seeds:
            runs = [run_bench(workload, seed, seconds, trace, root)
                    for trace in (1, 1, 0)]
            for trace, (meta, res) in zip((1, 1, 0), runs):
                assert set(res["metrics"]) == names[trace], \
                    f"{workload}: metric names differ from BENCHMARK.json"
                assert res["correct"], f"{workload}: {meta['unexpected_failures']}"
            (m1, r1), (m2, r2), (m0, _) = runs
            assert m1["call_counts_per_round"] == m2["call_counts_per_round"], \
                f"{workload} seed {seed}: call counts differ between traced runs"
            counts1 = {k: v for k, v in r1["metrics"].items() if v["unit"] == "count"}
            counts2 = {k: v for k, v in r2["metrics"].items() if v["unit"] == "count"}
            assert counts1 == counts2, f"{workload} seed {seed}: layer counts differ"
            digests = {m1["output_digest"], m2["output_digest"], m0["output_digest"]}
            assert len(digests) == 1, f"{workload} seed {seed}: outputs differ {digests}"
            print(f"determinism: {workload} seed {seed}: "
                  f"{len(m1['call_counts_per_round'])} call counts and output "
                  f"digest {m1['output_digest']} repeat; untraced output identical")


def check_refuses_without_sources(root: str) -> None:
    bare = os.path.join(root, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), \
            "the benchmark ran without rigidpack sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("refuses to run without sources: exit code", proc.returncode)


def main() -> int:
    root = os.getcwd()
    check_refuses_without_sources(root)
    check_completeness(root)
    check_determinism(root, [1, 2], 2.0, sorted(WORKLOADS))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
