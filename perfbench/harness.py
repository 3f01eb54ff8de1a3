"""Calls ecd's CLI in-process, times each call and checks what it wrote."""

from __future__ import annotations

import contextlib
import gc
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from ecd import cli

import oracle
from spans import Tracer
from workloads import Call, Workload

# Set-up is repeated and its median reported, so one slow repetition does not
# decide setup_s.
SETUP_REPEATS = 3

# What a check raises on an artifact that is wrong or malformed.
CHECK_ERRORS = (oracle.CheckFailed, KeyError, TypeError, ValueError)


@dataclass
class Tally:
    """Operations attempted and failed. A nonzero exit, an exception or a
    failed output check each count as one failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, call: Call, tracer: Tracer | None = None) -> dict:
        """Time one CLI call, then check its outputs outside the timed region.

        stderr is captured because `ecd counterfactual` always writes its
        report there.
        """
        if call.out is not None:
            shutil.rmtree(call.out, ignore_errors=True)
        # A CLI process starts without the previous call's garbage.
        gc.collect()
        err = io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stderr(err))
            if tracer is not None:
                stack.enter_context(tracer.installed())
            start = perf_counter()
            try:
                if tracer is None:
                    code = cli.main(call.argv)
                else:
                    code = tracer.call(f"cli.{call.command}", cli.main, call.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded as a failed operation; the loop goes on
                code = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start

        self.attempted += 1
        record = {"command": call.command, "seconds": seconds, "ok": False, "facts": {}}
        try:
            if code != 0:
                raise oracle.CheckFailed(f"exit {code}: {err.getvalue()[-500:]}")
            record["facts"] = call.check() or {}
            record["ok"] = True
        except CHECK_ERRORS as exc:
            self.failed += 1
            self.failures.append(f"{' '.join(call.argv)}: {exc}")
        return record


def set_up(workload_cls: type[Workload], seed: int, work: Path, tally: Tally):
    """Generate and write the inputs, then make one untimed warm-up call;
    SETUP_REPEATS times into a fresh directory. Returns the last workload and
    the seconds each repetition took."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = perf_counter()
        workload = workload_cls(seed, work)
        workload.prepare()
        prepared = perf_counter() - start
        seconds.append(prepared + tally.run(workload.warm_up())["seconds"])
    # The harness's own objects (inputs, corpus, oracle data) stay out of the
    # program's garbage collections.
    gc.collect()
    gc.freeze()
    return workload, seconds


def measure(workload: Workload, seconds: float, tally: Tally) -> list[list[dict]]:
    """Closed loop, one client: issue operations until `seconds` have passed."""
    ops = []
    deadline = perf_counter() + seconds
    while not ops or perf_counter() < deadline:
        ops.append([tally.run(call) for call in workload.operation(len(ops))])
    return ops


def trace(workload: Workload, seconds: float, tally: Tally, tracer: Tracer) -> tuple[int, float]:
    """Repeat the workload's trace pass until `seconds` have passed. Each call
    runs both untraced and traced with identical inputs, the untraced one
    first on even passes and second on odd ones, so neither side always finds
    the caches warmed by the other. Returns the number of passes and the
    traced / untraced wall-time ratio."""
    seconds_by_side = [0.0, 0.0]  # untraced, traced
    passes = 0
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        for op in workload.trace_pass():
            for call in op:
                for traced in (False, True) if passes % 2 == 0 else (True, False):
                    record = tally.run(call, tracer if traced else None)
                    seconds_by_side[traced] += record["seconds"]
        passes += 1
    return passes, seconds_by_side[True] / seconds_by_side[False]
