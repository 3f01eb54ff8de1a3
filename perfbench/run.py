"""Benchmark of the ecd CLI, one workload per run.

    python3 perfbench/run.py --workload fit-desk --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from
``src/ecd`` of that checkout. With ``--trace 0`` the run reports end-to-end
metrics of untraced calls; with ``--trace 1`` it reports per-layer metrics
from spans (see spans.py). Human-readable lines come first; the last line of
stdout is one JSON object. Run artifacts, the full result and the span dump go
to ``.perfbench_out/<workload>-seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import time

HARNESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# name -> unit; the end_to_end list of BENCHMARK.json.
E2E_METRICS = {
    "setup_s": "s",
    "call_ms_mean": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# The import part of setup_s is timed in this many fresh interpreters and its
# median taken, since one import's time varies by a quarter from run to run.
IMPORT_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser, parser.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_seconds() -> list[float]:
    """Wall time of `import ecd.cli` in a fresh interpreter, IMPORT_REPEATS times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seconds = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ecd.cli"], env=env, check=True)
        seconds.append(time.perf_counter() - start)
    return seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    if not (SRC / "ecd" / "__init__.py").is_file():
        print(f"perfbench: no ecd sources under {SRC}", file=sys.stderr)
        return 2
    # One process, no extra threads, on every commit alike.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy

    import ecd
    import harness
    import spans
    import workloads

    import_s = time.perf_counter() - HARNESS_START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    # Silence ecd's log lines: the root logger gets a handler so cli.main's
    # basicConfig adds none, and the ecd logger drops everything below fatal.
    logging.getLogger().addHandler(logging.NullHandler())
    logging.getLogger("ecd").setLevel(logging.CRITICAL + 1)

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    imports = import_seconds()
    tally = harness.Tally()
    workload, setup_repeats = harness.set_up(
        workloads.WORKLOADS[args.workload], args.seed, run_dir / "work", tally
    )

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ecd": ecd.__version__,
        "git_commit": git_commit(),
        "import_s": import_s,
        "fresh_import_s": imports,
        "setup_repeats_s": setup_repeats,
    }
    report: dict[str, tuple[float, str, int]] = {}
    if args.trace:
        tracer = spans.Tracer()
        passes, overhead = harness.trace(workload, args.seconds, tally, tracer)
        values = spans.layer_metrics(tracer.spans, passes, overhead)
        metrics = {name: (values[name], unit) for name, unit in spans.LAYER_METRICS.items()}
        facts.update(trace_passes=passes, spans=len(tracer.spans))
        tracer.write(run_dir / "spans.csv.gz")
        records = []
    else:
        ops = harness.measure(workload, args.seconds, tally)
        e2e, report = workload.summarize(ops)
        e2e["setup_s"] = median(imports) + median(setup_repeats)
        e2e["peak_rss_mb"] = peak_rss_mb()
        metrics = {name: (e2e[name], unit) for name, unit in E2E_METRICS.items()}
        records = [call for op in ops for call in op]
        facts.update(operations=len(ops), calls=len(records))
        fits = [r["facts"] for r in records if r["command"] == "fit"]
        for key in ("seed", "generations_run", "terminated_by") if fits else ():
            facts[f"fit_{key}"] = [f.get(key) for f in fits]
    report["error_rate"] = (tally.error_rate, "ratio", tally.attempted)
    facts["peak_rss_mb"] = peak_rss_mb()

    (run_dir / "result.json").write_text(
        json.dumps(
            {
                "facts": facts,
                "metrics": metrics,
                "report": report,
                "failures": tally.failures,
                "records": records,
            },
            indent=1,
        ),
        encoding="utf-8",
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    for name, (value, unit, n) in report.items():
        print(f"  {name:<42} {value:>16.6g} {unit}  (n={n})")
    for failure in tally.failures[:5]:
        print(f"  FAILED {failure}")
    print("facts " + json.dumps({k: v for k, v in facts.items() if not isinstance(v, list)}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
