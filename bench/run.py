"""Benchmark harness for qlens: real CLI commands, timed end to end and traced per layer.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --make-reference

Run it from anywhere inside a source checkout; it imports qlens only from
the checkout's ``src/``. With ``--trace 0`` each command of the workload
runs as its own ``python -m qlens`` process with the CLI's default
``--jobs``, one at a time, in whole rounds until ``--seconds`` have passed,
and the end-to-end metrics are printed. With ``--trace 1`` the commands run
once as processes (for CPU time), then twice in this process with
``--jobs 1``, untraced and traced, and the per-layer metrics are printed.
Every output is checked by ``checks.py``; a failed check is a failed
operation. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A report with each
command's figures, the git SHA, CPU count and Python version is written to
``bench/runs/``.

``--make-reference`` recomputes ``reference.json``, the class counts of the
4 | r cells, with the solver alone (no signature buckets); it takes minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

SETUP_LAUNCHES = 9
# A run ends within this many seconds however slow the program is: a command
# still running then is stopped, later ones are not started, and all of them
# count as failed. No new round starts that could end past it.
RUN_LIMIT_S = 160.0


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


class RunLimitReached(BaseException):
    """Raised into an in-process command when the run's time is up; a
    BaseException so that no handler in the program swallows it."""


@dataclass
class Outcome:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float | None
    peak_rss_mb: float | None
    stdout_bytes: int
    problem: str | None


def _child_env() -> dict[str, str]:
    # The CLI's own defaults: jobs = CPU count, bytecode cached as for any user.
    unset = ("QLENS_JOBS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(SRC)
    return env


def _not_started(op: workloads.Op) -> Outcome:
    return Outcome(list(op.argv), -1, 0.0, None, None, 0, "not started: run time limit reached")


def launch(argv: list[str], timeout: float) -> tuple[Outcome, str]:
    """Run ``python -m qlens argv`` to completion; stdout and rusage of it and its workers."""
    out_path = RUNS / f".stdout-{os.getpid()}"
    err_path = RUNS / f".stderr-{os.getpid()}"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "qlens", *argv],
            stdout=out, stderr=err, cwd=ROOT, env=_child_env(), start_new_session=True,
        )
        killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the command and its workers down too
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    # Reaped by wait4 above; tell Popen so that it does not wait again.
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text()
    stderr = err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    problem = None
    if code < 0:
        problem = f"killed by signal {-code}"
    elif code == 1 and "Traceback" in stderr:
        problem = "uncaught exception: " + stderr.strip().splitlines()[-1]
    # ru_maxrss is in KiB on Linux; wait4 folds in the reaped pool workers.
    return Outcome(argv, code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   len(stdout.encode()), problem), stdout


def run_process(op: workloads.Op, deadline: float) -> Outcome:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        return _not_started(op)
    return check(op, *launch(list(op.argv), remaining))


def check(op: workloads.Op, outcome: Outcome, stdout: str) -> Outcome:
    """Record the first problem with the command's output, if any."""
    if outcome.problem is None:
        try:
            outcome.problem = op.check(stdout, outcome.code)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            outcome.problem = f"malformed output: {exc!r}"
    return outcome


def preflight() -> None:
    """Refuse to run unless ``python -m qlens`` resolves to this checkout's src/."""
    if not (SRC / "qlens" / "cli.py").is_file():
        raise HarnessError(f"no qlens sources under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", "import qlens; print(qlens.__file__)"],
        capture_output=True, text=True, cwd=ROOT, env=_child_env(), timeout=60,
    )
    if probe.returncode != 0 or not Path(probe.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"qlens does not import from {SRC}: {probe.stderr.strip() or probe.stdout.strip()}")


def run_untraced(ops: list[workloads.Op], seconds: float) -> tuple[dict, list[Outcome], dict]:
    deadline = time.perf_counter() + RUN_LIMIT_S
    # The first launch also writes the bytecode caches; users start warm.
    setup = []
    setup_ok = True
    for k in range(SETUP_LAUNCHES + 1):
        outcome, stdout = launch(["--help"], deadline - time.perf_counter())
        setup_ok = setup_ok and outcome.code == 0 and stdout.startswith("usage: qlens")
        if k:
            setup.append(outcome.wall_s)
    outcomes: list[Outcome] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        round_wall = 0.0
        for op in ops:
            outcome = run_process(op, deadline)
            outcomes.append(outcome)
            round_wall += outcome.wall_s
        rounds.append(round_wall)
        now = time.perf_counter()
        if now - start >= seconds or now + round_wall > deadline:
            break
    metrics = {
        "wall_s": statistics.median(rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(o.peak_rss_mb or 0.0 for o in outcomes),
    }
    return metrics, outcomes, {"correct": setup_ok, "rounds_s": rounds, "setup_launches_s": setup}


def _import_qlens_cli():
    sys.path.insert(0, str(SRC))
    import qlens.cli  # noqa: PLC0415 - the path to import from is known only now

    if not Path(qlens.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"qlens imported from {qlens.cli.__file__}, not {SRC}")
    return qlens.cli


def _stop_command(signum, frame):
    raise RunLimitReached


def in_process_pass(cli, ops: list[workloads.Op], deadline: float) -> tuple[float, list[Outcome]]:
    """Each command through ``cli.main(argv + --jobs 1)``; stdout captured, checks untimed."""
    outcomes = []
    wall = 0.0
    gc.collect()  # the previous pass's garbage is not this pass's time
    signal.signal(signal.SIGALRM, _stop_command)
    for op in ops:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            outcomes.append(_not_started(op))
            continue
        argv = [*op.argv, "--jobs", "1"]
        out = io.StringIO()
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except RunLimitReached:
                code = -1
                problem = f"stopped: run time limit {RUN_LIMIT_S} s"
            except Exception:  # the CLI process would exit 1 with this traceback
                code = 1
                problem = "uncaught exception: " + traceback.format_exc().strip().splitlines()[-1]
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
        wall += elapsed
        stdout = out.getvalue()
        outcome = Outcome(argv, code, elapsed, None, None, len(stdout.encode()), problem)
        outcomes.append(check(op, outcome, stdout))
    return wall, outcomes


def run_traced(ops: list[workloads.Op]) -> tuple[dict, list[Outcome], dict]:
    deadline = time.perf_counter() + RUN_LIMIT_S
    processes = [run_process(op, deadline) for op in ops]
    cli = _import_qlens_cli()
    plain_wall, plain = in_process_pass(cli, ops, deadline)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, traced = in_process_pass(cli, ops, deadline)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.stdout_bytes"] = sum(o.stdout_bytes for o in traced)
    metrics["cli.cpu_s"] = sum(o.cpu_s or 0.0 for o in processes)
    metrics["trace.overhead"] = traced_wall / plain_wall if plain_wall else 0.0
    process_wall = sum(o.wall_s for o in processes)
    shares = {
        name: metrics[name] / traced_wall if traced_wall else 0.0
        for name in (
            "pathmatrix.count_matrix.s", "invariants.signature.s", "classify.self_s",
            "equivalence.decide_equiv.self_s", "equivalence.solve_diophantine.s",
            "equivalence.verify_witness.s", "cli.self_s",
        )
    }
    extra = {
        "correct": True,
        "missing_names": tracer.missing,
        "spans": len(tracer.spans),
        "process_wall_s": process_wall,
        "cpu_over_wall": metrics["cli.cpu_s"] / process_wall if process_wall else 0.0,
        "in_process_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "shares_of_traced_wall": shares,
    }
    return metrics, processes + plain + traced, extra


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def make_reference() -> None:
    sys.path.insert(0, str(SRC))
    from qlens.classify import partition_classes  # noqa: PLC0415

    phi = {}
    for r, n in workloads.reference_cells():
        phi[f"{r},{n}"] = partition_classes(r, n, jobs=os.cpu_count(), use_signature_buckets=False).phi
        print(f"phi({r}, {n}) = {phi[f'{r},{n}']}", flush=True)
    payload = {
        "about": "phi(r, n) for the 4 | r cells the workloads classify, from"
        " partition_classes(r, n, use_signature_buckets=False); remake with"
        " python3 bench/run.py --make-reference",
        "phi": phi,
    }
    workloads.REFERENCE.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        preflight()
        RUNS.mkdir(exist_ok=True)
        if args.make_reference:
            make_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        ops = workloads.operations(args.workload, args.seed)
        if args.trace:
            metrics, outcomes, extra = run_traced(ops)
        else:
            metrics, outcomes, extra = run_untraced(ops, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"error: metrics not measured: {absent}", file=sys.stderr)
        return 2
    failed = [o for o in outcomes if o.problem is not None]
    for o in failed:
        print(f"FAILED {' '.join(o.argv)[:120]}: {o.problem}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "metrics": metrics,
        **extra,
        "operations": [asdict(o) for o in outcomes],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    (RUNS / name).write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {(RUNS / name).relative_to(ROOT)}")
    result = {
        "correct": extra["correct"],
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
