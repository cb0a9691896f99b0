"""rigidpack benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Run from the root of a rigidpack checkout; the package is imported from
its `src/` directory. The run sets up the workload seven times (import
plus input generation; the median, scaled for machine speed, is reported
as `setup_s`), runs one warm-up
round whose outputs are all re-checked independently, then replays whole
rounds of the same inputs until `--seconds` of job time have passed. A
timed job's output must match the warm-up round's checked output. Job
times are scaled for machine speed by a fixed probe (see `Run.speed_scale`).

With `--trace 0` the last line reports the end-to-end metrics. With
`--trace 1` the first half of the time runs untraced and the second half
runs with every rigidpack layer wrapped (see tracing.py); the last line
reports per-layer metrics per round of jobs and the tracing overhead.
The line before it holds run metadata, which is not a metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import Counter, deque

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 7
KEEP_ROUNDS = 16  # per-job samples kept: those of the last 16 rounds

# Machine speed on a shared host drifts by tens of percent over minutes, for
# program and benchmark code alike. Every reported job time is therefore
# scaled by REFERENCE_S / (median of the last PROBE_WINDOW timings of a
# fixed probe, one taken at least every PROBE_EVERY_S of job time). A single
# probe catches the machine's sub-second swings, which a long job averages
# out, so it would add noise. The probe is the benchmark's own pebble game,
# which no program change touches; REFERENCE_S is its time on an unloaded
# 2-core Xeon VM under Python 3.11, so reported job times read as
# milliseconds on that machine.
REFERENCE_S = 1.2e-3
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 9
_PROBE_EDGES = [(v, (v + off) % 40) for off in (1, 2, 3, 5, 8) for v in range(40)]

# Set-up (compiling and importing modules, building inputs) slows down more
# than the pebble probe when the machine does, so each set-up time is scaled
# by a probe of the same kind, timed before and after it: compiling the text
# of checks.py four times, SETUP_REFERENCE_S on the machine above. Editing
# checks.py moves it.
SETUP_REFERENCE_S = 8.5e-3
with open(checks.__file__, encoding="utf-8") as _fh:
    _CHECKS_SOURCE = _fh.read()


def probe_s() -> float:
    """The probe's best of three times right now."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        checks.greedy_sparse(40, 2, 3, _PROBE_EDGES)
        best = min(best, time.perf_counter() - start)
    return best


def compile_probe_s() -> float:
    start = time.perf_counter()
    for _ in range(4):
        compile(_CHECKS_SOURCE, "checks.py", "exec")
    return time.perf_counter() - start


def import_rigidpack(src: str):
    """Import rigidpack afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "rigidpack" or m.startswith("rigidpack.")]:
        del sys.modules[name]
    rp = importlib.import_module("rigidpack")
    for sub in ("cli", "generators", "graph", "oracle", "orientation",
                "packing", "setfuncs", "sparsity"):
        importlib.import_module(f"rigidpack.{sub}")
    if not os.path.abspath(rp.__file__).startswith(src + os.sep):
        raise RuntimeError(f"rigidpack was imported from {rp.__file__}, not {src}")
    return rp


def set_up(cls, src: str, seed: int, workdir: str):
    """Returns (set-up seconds, rigidpack, workload)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    start = time.perf_counter()
    rp = import_rigidpack(src)
    workload = cls(rp, seed, workdir)
    return time.perf_counter() - start, rp, workload


class Samples:
    """Each job's scaled times in the last KEEP_ROUNDS rounds and its pass
    count, in storage allocated once: the harness's memory does not grow
    with the number of rounds a run holds."""

    def __init__(self, jobs: int):
        self.jobs, self.rounds, self.busy = jobs, 0, 0.0
        self.times = array("f", bytes(4 * jobs * KEEP_ROUNDS))
        self.passes = array("q", bytes(8 * jobs))

    @property
    def attempted(self) -> int:
        return self.rounds * self.jobs

    def job_medians(self) -> list[float]:
        kept = min(self.rounds, KEEP_ROUNDS)
        return [statistics.median(self.times[i::self.jobs][:kept])
                for i in range(self.jobs)]


class Run:
    """Latencies, failures and output digests of one process's jobs."""

    def __init__(self, workload):
        self.wl = workload
        self.reference: list[str] = []   # warm-up output digest per job
        self.checked: list[bool] = []     # did that output pass its check
        self.failures: Counter = Counter()
        self.unexpected: Counter = Counter()
        self.probes: deque = deque(maxlen=PROBE_WINDOW)

    def speed_scale(self) -> float:
        """REFERENCE_S over the median of the last PROBE_WINDOW probes."""
        self.probes.append(probe_s())
        while len(self.probes) < PROBE_WINDOW:
            self.probes.append(probe_s())
        return REFERENCE_S / statistics.median(self.probes)

    def fail(self, name: str, reason: str, raised: bool) -> None:
        self.failures[f"{name}: {reason}"] += 1
        if not (raised and name in self.wl.known_failures):
            self.unexpected[f"{name}: {reason}"] += 1

    def warm_up(self) -> None:
        """Round 0: run every job, check every output, keep its digest."""
        wl = self.wl
        for i in range(len(wl)):
            call = wl.prepare(i)
            try:
                out = call()
            except Exception as exc:  # a raised job is a failed job
                self.reference.append(f"raised {type(exc).__name__}: {exc}")
                self.checked.append(False)
                self.fail(wl.job_name(i), self.reference[-1], raised=True)
                continue
            reason = wl.check(i, out)
            self.reference.append(wl.digest(i, out))
            self.checked.append(reason is None)
            if reason is not None:
                self.fail(wl.job_name(i), reason, raised=False)

    def round(self, samples: Samples, runner=None) -> None:
        """One timed round: each job's scaled seconds and whether it passed."""
        wl = self.wl
        gc.collect()
        base = (samples.rounds % KEEP_ROUNDS) * samples.jobs
        since_probe = math.inf
        for i in range(len(wl)):
            call = wl.prepare(i)
            if runner is not None:
                call = (lambda c, k: lambda: runner(k, c))(call, wl.kind(i))
            if since_probe >= PROBE_EVERY_S:
                scale, since_probe = self.speed_scale(), 0.0
            start = time.perf_counter()
            try:
                out = call()
            except Exception as exc:
                elapsed = time.perf_counter() - start
                got = f"raised {type(exc).__name__}: {exc}"
                if got == self.reference[i]:
                    self.fail(wl.job_name(i), got, raised=True)
                else:
                    self.fail(wl.job_name(i), "differs from the warm-up round: " + got,
                              raised=False)
            else:
                elapsed = time.perf_counter() - start
                if wl.digest(i, out) != self.reference[i]:
                    self.fail(wl.job_name(i), "output differs from the warm-up round",
                              raised=False)
                elif not self.checked[i]:
                    self.fail(wl.job_name(i), "repeats an output that failed its check",
                              raised=False)
                else:
                    samples.passes[i] += 1
            samples.busy += elapsed
            since_probe += elapsed
            samples.times[base + i] = elapsed * scale
        samples.rounds += 1

    def phase(self, seconds: float, runner=None, after_round=None) -> Samples:
        """Whole rounds until `seconds` of job time have passed."""
        samples = Samples(len(self.wl))
        while not samples.rounds or samples.busy < seconds:
            self.round(samples, runner)
            if after_round is not None:
                after_round()
        return samples


def end_to_end(samples: Samples, names) -> tuple[dict, dict]:
    """End-to-end metrics from each job's median time across rounds.

    A job's latency is its median scaled time over the kept rounds, so one
    slow or fast round moves nothing. Latency statistics count each job
    that passed in every round once. The tail is the latency of the job
    with ten slower jobs beyond it (the highest percentile that has ten
    jobs beyond it), or of the slowest job when a round holds no more than
    ten passing jobs. Throughput is a round's passed jobs over the sum of
    every job's latency.
    """
    medians = samples.job_medians()
    lat = sorted((m, i) for i, m in enumerate(medians)
                 if samples.passes[i] == samples.rounds)
    if not lat:
        raise SystemExit("error: no job passed, so no latency can be reported")
    passed = sum(samples.passes)
    tail_idx = len(lat) - 11 if len(lat) > 10 else len(lat) - 1
    metrics = {
        "jobs_per_s": (passed / samples.rounds / sum(medians), "1/s"),
        "job_p50_ms": (statistics.median(m for m, _ in lat) * 1e3, "ms"),
        "job_tail_ms": (lat[tail_idx][0] * 1e3, "ms"),
        "passed_frac": (passed / samples.attempted, "ratio"),
    }
    info = {"latency_jobs": len(lat), "tail_job": names(lat[tail_idx][1]),
            "jobs_beyond_tail": len(lat) - 1 - tail_idx,
            "tail_percentile": 100.0 * (tail_idx + 1) / len(lat),
            "rounds": samples.rounds,
            "rounds_per_latency": min(samples.rounds, KEEP_ROUNDS),
            "timed_s": samples.busy,
            "unscaled_jobs_per_s": passed / samples.busy}
    return metrics, info


def git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def src_lines(src: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(src, "rigidpack")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rigidpack", "__init__.py")):
        print(f"error: no rigidpack sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work_root = os.path.join(root, ".bench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    try:
        return measure(args, root, src, work_root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root, src, work_root, workdir) -> int:
    cls = WORKLOADS[args.workload]
    setups, probes, scaled = [], [], []
    rp = wl = None
    for _ in range(SETUPS):
        rp = wl = None  # let the previous set-up go before the next
        gc.collect()
        before = compile_probe_s()
        elapsed, rp, wl = set_up(cls, src, args.seed, workdir)
        probe = (before + compile_probe_s()) / 2
        setups.append(elapsed)
        probes.append(probe)
        scaled.append(elapsed * SETUP_REFERENCE_S / probe)
    setup_s = statistics.median(scaled)

    run = Run(wl)
    started = time.perf_counter()
    run.warm_up()
    # the harness's own inputs and references stay out of every collection
    gc.collect()
    gc.freeze()
    round_digest = hashlib.sha256("\n".join(run.reference).encode()).hexdigest()[:16]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_round": len(wl),
        "output_digest": round_digest, "setup_samples_s": setups,
        "setup_probes_s": probes,
        "git_commit": git_commit(root), "src_lines": src_lines(src),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "oracle_sample": getattr(wl, "oracle_sample", 0),
        "warm_up_s": time.perf_counter() - started,
    }

    if args.trace == 0:
        timed = run.phase(args.seconds)
        metrics, info = end_to_end(timed, wl.job_name)
        metrics["setup_s"] = (setup_s, "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        meta.update(info)
        attempted = timed.attempted
        failed = attempted - sum(timed.passes)
    else:
        plain = run.phase(args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer, rp)
        gc.unfreeze()  # the referrer search skips frozen objects
        leaks = tracing.unwrapped_references(tracer, rp)
        gc.freeze()
        if leaks:
            print("error: unwrapped originals still reachable: " + ", ".join(leaks),
                  file=sys.stderr)
            return 1
        per_round: list = []

        def count_round():
            per_round.append(tracer.call_counts())

        traced = run.phase(args.seconds / 2, runner=tracer.job, after_round=count_round)
        deltas = [per_round[0]] + [b - a for a, b in zip(per_round, per_round[1:])]
        if any(d != deltas[0] for d in deltas):
            run.unexpected["call counts differ between identical rounds"] += 1
        metrics = tracer.layer_metrics(traced.rounds)
        plain_jps = end_to_end(plain, wl.job_name)[0]["jobs_per_s"][0]
        traced_jps = end_to_end(traced, wl.job_name)[0]["jobs_per_s"][0]
        metrics["trace.untraced_jobs_per_s"] = (plain_jps, "1/s")
        metrics["trace.traced_jobs_per_s"] = (traced_jps, "1/s")
        metrics["trace.slowdown_ratio"] = (plain_jps / traced_jps, "ratio")
        attempted = plain.attempted + traced.attempted
        failed = attempted - sum(plain.passes) - sum(traced.passes)
        meta.update({"rounds": plain.rounds + traced.rounds,
                     "traced_rounds": traced.rounds,
                     "wrapped_functions": len(tracer.wrappers),
                     "rebound_names": tracer.bindings,
                     "call_counts_per_round": dict(sorted(deltas[0].items()))})
        os.makedirs(work_root, exist_ok=True)
        tracer.dump(os.path.join(work_root, f"trace-{args.workload}-seed{args.seed}.json"),
                    meta)

    meta["measure_s"] = time.perf_counter() - started
    meta["failures"] = dict(run.failures)
    meta["unexpected_failures"] = dict(run.unexpected)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
