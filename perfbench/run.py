"""cellbranch benchmark: one workload per run, in this fresh process.

    python3 perfbench/run.py --workload population --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the last line
of standard output carries the end-to-end metrics; with ``--trace 1`` the
per-layer metrics from spans recorded around each module's entry points.
The line before it holds the run's details: provenance, every check
verdict, per-family times, units and rates, and any problem found.
README.md in this directory defines every metric.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: the oracle's matrix-vector
# products would otherwise depend on the scheduler.  Child processes inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7

END_TO_END_UNITS = {"setup_s": "s", "verify_s": "s", "jobs_s": "s", "peak_rss_mb": "MB"}


@dataclass
class PassResult:
    wall_s: float = 0.0
    suite_s: dict[str, float] = field(default_factory=dict)
    job_s: dict[str, float] = field(default_factory=dict)
    units: dict[str, float] = field(default_factory=dict)
    verdicts: list[tuple[str, bool]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)

    @property
    def verify_s(self) -> float:
        return sum(self.suite_s.values())


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run_pass(workload, tracer, expected_red, suites: bool = True, jobs: bool = True) -> PassResult:
    """Run the suites and/or jobs once, timed; check outputs afterwards, untimed and untraced."""
    from layers import TARGETS
    from spans import Installation

    result = PassResult()
    outputs = {}
    installation = Installation(tracer, TARGETS) if tracer is not None else None
    started = time.perf_counter()
    try:
        for suite in workload.suites if suites else []:
            t0 = time.perf_counter()
            with _span(tracer, f"verify.{suite.name}"):
                try:
                    verdicts, problems = suite.run()
                except Exception:  # noqa: BLE001 - one failed operation, the run goes on
                    verdicts, problems = [], [traceback.format_exc()]
            result.suite_s[suite.name] = time.perf_counter() - t0
            regressions = [f"{c}: FAIL, expected PASS" for c, ok in verdicts
                           if not ok and c not in expected_red]
            result.verdicts += verdicts
            result.problems += [f"{suite.name}: {p}" for p in problems + regressions]
            result.attempted += 1
            result.failed += bool(problems or regressions)
        for job in workload.jobs if jobs else []:
            t0 = time.perf_counter()
            with _span(tracer, f"job.{job.family}"):
                try:
                    outputs[job.family] = job.run()
                except Exception:  # noqa: BLE001 - one failed operation, the run goes on
                    result.problems.append(f"{job.family}: {traceback.format_exc()}")
            result.job_s[job.family] = time.perf_counter() - t0
            result.attempted += job.calls
    finally:
        result.wall_s = time.perf_counter() - started
        if installation is not None:
            installation.remove()
    if tracer is not None:
        result.spans = tracer.spans
    for job in workload.jobs if jobs else []:
        if job.family not in outputs:
            result.failed += job.calls
            continue
        problems = job.check(outputs[job.family])
        result.problems += [f"{job.family}: {p}" for p in problems]
        result.failed += min(job.calls, len(problems))
        result.units[job.family] = job.units(outputs[job.family])
    return result


def measure_setup(name: str, seed: int, workdir: Path, small: bool) -> list[float]:
    samples = []
    for i in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup-{i}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(probe_dir),
             "1" if small else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _median_pass(passes: list[PassResult]) -> PassResult:
    walls = [p.wall_s for p in passes]
    return passes[walls.index(statistics.median_low(walls))]


def _repeat(run_once, until: float) -> list:
    """Run at least once, then again while one more run of the same length still fits."""
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(run_once())
        now = time.perf_counter()
        if now + (now - t0) > until:
            return results


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One benchmark run; returns (result line, details).

    Untraced, the suites repeat for the first half of ``seconds`` and the jobs
    for the rest, so the short units get several samples and each metric is a
    median.  Traced, after one untimed warm-up pass, untraced and traced
    passes of both alternate, and the difference of their wall times is the
    tracing overhead.
    """
    import layers
    import workloads
    from spans import Installation, Tracer

    red = workloads.EXPECTED_RED
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        setup_samples = measure_setup(name, seed, workdir, small)
        setup_tracer = Tracer()
        installation = Installation(setup_tracer, layers.TARGETS) if trace else None
        try:
            workload = workloads.build(name, seed, workdir, small)
        finally:
            if installation is not None:
                installation.remove()

        started = time.perf_counter()
        rss_mb: list[float] = []
        if trace:
            # The first pass in a process pays first-touch costs; it would
            # bias whichever side ran first, so it is checked but not timed.
            warm = run_pass(workload, None, red)
            pairs = _repeat(
                lambda: (run_pass(workload, None, red), run_pass(workload, Tracer(), red)),
                started + seconds,
            )
            suite_runs = job_runs = [untraced for untraced, _ in pairs]
            traced = [p for _, p in pairs]
            untimed = [warm]
        else:
            def jobs_once():
                result = run_pass(workload, None, red, suites=False)
                if not rss_mb:
                    rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
                return result

            suite_runs = _repeat(lambda: run_pass(workload, None, red, jobs=False),
                                 started + seconds / 2)
            job_runs = _repeat(jobs_once, started + seconds)
            traced = untimed = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    everything = list({id(p): p for p in suite_runs + job_runs + traced + untimed}.values())
    problems = sorted({q for p in everything for q in p.problems})
    verdicts = dict(suite_runs[0].verdicts)
    ran = [s.name for s in workload.suites]
    flips = [f"{c}: PASS, expected FAIL" for c in sorted(red) if verdicts.get(c)]
    flips += [f"{c}: missing" for c in sorted(red)
              if c.split("/")[0] in ran and c not in verdicts]
    problems += [f"expected-red check {f}" for f in flips if f.endswith("missing")]
    checks_failed = sum(not ok for ok in verdicts.values())
    one_pass = [suite_runs[0]] if suite_runs[0] is job_runs[0] else [suite_runs[0], job_runs[0]]
    ops_failed = sum(p.failed for p in one_pass)
    ops_attempted = sum(p.attempted for p in one_pass)

    families = {}
    rates: dict[str, list[float]] = {}
    for job in workload.jobs:
        s = statistics.median(p.job_s[job.family] for p in job_runs)
        units = job_runs[0].units.get(job.family, 0.0)
        families[job.family] = {"s": s, "units": units, "per_s": units / s if s > 0 else 0.0}
        acc = rates.setdefault(job.rate, [0.0, 0.0])
        acc[0] += units
        acc[1] += s
    verify_s = statistics.median(p.verify_s for p in suite_runs)
    jobs_s = statistics.median(sum(p.job_s.values()) for p in job_runs)

    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed),
        "suite_runs": len(suite_runs),
        "job_runs": len(job_runs),
        "traced_passes": len(traced),
        "setup_samples_s": setup_samples,
        "wall_s": verify_s + jobs_s,
        "suites_s": {s: statistics.median(p.suite_s[s] for p in suite_runs) for s in ran},
        "families": families,
        "rates": {r: u / s if s > 0 else 0.0 for r, (u, s) in rates.items()},
        "verdicts": verdicts,
        "expected_red": sorted(red),
        "flips": flips,
        "failed_frac": {
            "value": (checks_failed + ops_failed) / (len(verdicts) + ops_attempted),
            "failed": checks_failed + ops_failed,
            "attempted": len(verdicts) + ops_attempted,
        },
    }

    if trace:
        chosen = _median_pass(traced)
        untraced_wall = statistics.median(p.wall_s for p in suite_runs)
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics = layers.layer_metrics(
            [setup_tracer.spans, chosen.spans],
            {
                "verify.checks_failed": sum(not ok for _, ok in chosen.verdicts),
                "trace.wall_s": traced_wall,
                "trace.untraced_wall_s": untraced_wall,
                "trace.overhead_s": traced_wall - untraced_wall,
                "trace.spans": len(chosen.spans),
            },
        )
        called = {s.name for s in setup_tracer.spans + chosen.spans}
        missing = [s for s in workload.expected_spans if s not in called]
        problems += [f"traced entry point never called: {s}" for s in missing]
        units = dict(layers.PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "verify_s": verify_s,
            "jobs_s": jobs_s,
            "peak_rss_mb": rss_mb[0],
        }
        units = END_TO_END_UNITS
    details["problems"] = problems

    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(p.failed for p in everything),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cellbranch" / "__init__.py").is_file():
        print(f"error: no cellbranch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; available: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, details = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in details["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
