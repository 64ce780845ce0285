"""End-to-end benchmark of the repodoc CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see WORKLOADS in lifecycle.py and BENCHMARK.json):
  synth-cyclic    seeded synthetic package, dense cyclic calls (mock provider)
  stdlib-idlelib  the interpreter's idlelib, 125 files (mock provider)
  provider-stub   the interpreter's email package through the HTTP provider
                  against a localhost stub, --jobs 2, default concurrency

With ``--trace 0`` every repodoc command runs as its own child process,
timed from outside, and the end-to-end metrics are printed; their times are
rescaled to a reference machine speed (see ``timed_run``). With
``--trace 1`` the same lifecycle runs in-process twice, first untraced and
then with spans around each layer, and the per-layer metrics are printed;
the spans go to ``.bench_out/trace-<workload>-seed<n>.jsonl``. The last line
of output is one JSON object: correct, attempted, failed, metrics.

The program is run from ``src/`` of the checkout holding this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from corpora import check_pin  # noqa: E402
from lifecycle import (  # noqa: E402
    HWM_ENV,
    ROOT,
    RUN_REPODOC,
    SRC,
    WORKLOADS,
    Result,
    Run,
    Workload,
    child_env,
    run_child,
    run_lifecycle,
    set_up,
)
from tracer import LAYERS, Tracer  # noqa: E402

MIN_ROUNDS = 3  # rounds per timed run at least
EDITS_PER_ROUND = 2  # updates per round of a timed run
TRACE_EDITS = 5  # updates in the one round of each traced lifecycle
STARTUPS = 5  # fresh interpreter imports behind cli.startup_s
HARD_STOP_S = 150  # children still running this long into a timed run are killed
REFERENCE_JOB = Path(__file__).resolve().parent / "reference_job.py"
REFERENCE_S = 0.25  # the reference job's wall time at the reference speed

Metrics = dict[str, float]


def median_wall(runs: list[Run]) -> float:
    return statistics.median(r.wall_s for r in runs)


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def rescaled(run: Run, speed: float) -> float:
    """Wall time with the CPU part rescaled to the reference speed. At most
    the wall time counts as CPU: a command that ran on more than one core is
    failed by the lifecycle, and here its waits are taken to be none."""
    cpu = min(run.cpu_s, run.wall_s)
    return run.wall_s - cpu + cpu * speed


def timed_run(
    workload: Workload, seed: int, seconds: float, work: Path
) -> tuple[Metrics, list[Result], list[str]]:
    """Time every command as a child process.

    Set-up is timed once for the repository the lifecycle uses and once more
    after every round, on a spare copy that is then removed, so that its
    samples are spread over the run like the others.

    On a shared 2-vCPU virtual machine the CPU speed changed by up to a third
    over seconds to minutes, so the medians of two runs minutes apart
    differed by more than any useful bound. After every repodoc command the
    fixed reference job runs too; speed = REFERENCE_S / the run's median
    reference time. (Scaling each command by the job run right after it
    instead spread more: over ten seeds of the same runs, 0.11 against 0.06
    for generate_s on synth-cyclic, and 0.06 against 0.03 for update_s on
    stdlib-idlelib.)
    Each sample is reported as wall - cpu + cpu * speed, its wall time with
    the CPU part rescaled to the reference speed, and the metric is the
    median of these. Time spent waiting (on the stub provider, on disk) is
    not rescaled. This assumes a command runs on one core, so that its CPU
    time lies within its wall time; a command that uses more fails (see
    ``run_lifecycle``). Raw wall times are printed on the ``#`` lines.
    """
    env = child_env()
    python = sys.executable
    hard_stop = time.perf_counter() + HARD_STOP_S
    # compile the program's bytecode once, as an installed package would have it
    run_child([python, "-c", "import repodoc.cli"], ROOT, env)
    setup_runs: list[Run] = []  # wall and CPU time of each set-up
    reference_times: list[float] = []

    hwm = work / "peak-rss-kb"

    def execute(argv: list[str], cwd: Path) -> Run:
        timeout = max(1.0, hard_stop - time.perf_counter())
        hwm.unlink(missing_ok=True)
        run_env = {**env, HWM_ENV: str(hwm)}
        run = run_child([python, "-c", RUN_REPODOC, *argv], cwd, run_env, timeout=timeout)
        run.maxrss_kb = int(hwm.read_text()) if hwm.exists() else 0
        reference_times.append(run_child([python, str(REFERENCE_JOB)], ROOT, env).wall_s)
        return run

    def cpu_now() -> float:
        usages = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        return sum(u.ru_utime + u.ru_stime for u in usages)

    def timed_set_up(name: str):
        started, cpu = time.perf_counter(), cpu_now()
        ws = set_up(workload, seed, work / name, env)
        setup_runs.append(Run(time.perf_counter() - started, cpu_now() - cpu, 0, "", ""))
        return ws

    def spare_set_up() -> None:
        spare = timed_set_up(f"spare{len(setup_runs)}")
        spare.close()
        shutil.rmtree(spare.repo)

    ws = timed_set_up("repo")
    try:
        ws.survey(workload.corpus)
        res = run_lifecycle(
            ws,
            workload,
            execute,
            env,
            seed=seed,
            min_rounds=MIN_ROUNDS,
            edits_per_round=EDITS_PER_ROUND,
            seconds=seconds,
            after_round=spare_set_up,
        )
    finally:
        ws.close()
    samples = {
        "generate_s": res.generate,
        "rerun_s": res.rerun,
        "update_s": res.update,
        "setup_s": setup_runs,
    }
    speed = REFERENCE_S / statistics.median(reference_times)
    notes = [
        f"{name} wall samples ({len(runs)}): " + " ".join(f"{r.wall_s:.4f}" for r in runs)
        for name, runs in samples.items()
    ]
    notes += [
        "reference job wall samples: " + " ".join(f"{t:.4f}" for t in reference_times),
        f"CPU time is rescaled by {speed:.4f} = {REFERENCE_S} s / median reference job time",
        f"fail_ratio {res.failed / max(res.attempted, 1):.4f} ({res.failed}/{res.attempted})",
        ws.truth_note,
    ]
    if res.stub_stats is not None:
        notes.append(f"stub provider counted {res.stub_stats}")
    metrics = {
        name: statistics.median(rescaled(r, speed) for r in runs)
        for name, runs in samples.items()
    }
    metrics.update(
        peak_rss_mb=res.peak_rss_kb * 1024 / 1e6,
        requests=res.requests,
        prompt_tokens=res.prompt_tokens,
        completion_tokens=res.completion_tokens,
        store_mb=res.store_bytes / 1e6,
        ok_ratio=(res.attempted - res.failed) / max(res.attempted, 1),
    )
    if res.recall is not None:
        metrics["ref_recall"] = res.recall
    return metrics, [res], notes


def traced_run(
    workload: Workload, seed: int, work: Path
) -> tuple[Metrics, list[Result], list[str]]:
    """One round in-process untraced, then the same round traced."""
    env = child_env()
    startups = [
        run_child([sys.executable, "-c", "import repodoc.cli"], ROOT, env).wall_s
        for _ in range(STARTUPS + 1)
    ][1:]  # the first run may compile bytecode
    # in-process runs see the same environment the children get
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    import repodoc.cli as cli

    if workload.http:
        import requests  # noqa: F401  (imported up front, for both lifecycles alike)

    def in_process(argv: list[str], cwd: Path) -> Run:
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return Run(time.perf_counter() - started, 0.0, rc, out.getvalue(), "")

    tracer = Tracer()
    kind = ["generate"]

    def traced(argv: list[str], cwd: Path) -> Run:
        return tracer.op(kind[0], lambda: in_process(argv, cwd))

    results = []
    for execute in (in_process, traced):
        ws = set_up(workload, seed, work / execute.__name__, env)
        try:
            ws.survey(workload.corpus)
            if execute is traced:
                tracer.install()
            results.append(
                run_lifecycle(
                    ws,
                    workload,
                    execute,
                    env,
                    seed=seed,
                    min_rounds=1,
                    edits_per_round=TRACE_EDITS,
                    seconds=0,
                    on_op=lambda k: kind.__setitem__(0, k),
                )
            )
        finally:
            tracer.uninstall()
            ws.close()
    plain, spanned = results
    spanned.record("tracer", [f"{name} not found, so not traced" for name in tracer.missing])
    metrics = tracer.metrics()
    metrics["cli.startup_s"] = statistics.median(startups)
    metrics["trace.overhead_generate_s"] = spanned.generate[0].wall_s - plain.generate[0].wall_s
    metrics["trace.overhead_update_s"] = median_wall(spanned.update) - median_wall(plain.update)
    out = ROOT / ".bench_out" / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(out)
    notes = [
        f"{label} in-process: generate {r.generate[0].wall_s:.4f} s, update median "
        f"{median_wall(r.update):.4f} s over {len(r.update)}"
        for label, r in (("untraced", plain), ("traced", spanned))
    ]
    notes.append(f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    for phase in ("generate", "rerun", "update"):
        split = sorted(((metrics[f"{phase}.{name}.self_s"], name) for name in LAYERS), reverse=True)
        notes.append(f"{phase} self time by layer: " + ", ".join(f"{n} {v:.3f}" for v, n in split))
    return metrics, results, notes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="repodoc end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repodoc" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'repodoc'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if workload.corpus != "synth":
        check_pin(workload.corpus)
    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, results, notes = traced_run(workload, args.seed, work)
        else:
            metrics, results, notes = timed_run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    units = declared_units()
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        print(f"error: metrics not declared in BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"# {note}")
    for problem in problems[:20]:
        print(f"! {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
