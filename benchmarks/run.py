"""cusa benchmark: time the CLI end to end, or trace its layers.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from src/.
With --trace 0 every timed command is a `python -m cusa.cli` child
process (fork to exit), the way users run it, and the result holds the
end-to-end metrics. With --trace 1 the command runs in this process
through cusa.cli.main, once untraced and once with every layer hooked
(see spans.py), alternating for the given seconds; the result holds the
per-layer metrics, the tracing overhead, and whether the traced outputs
are byte-identical to an untraced child's.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it is {"context": ...}: machine, versions,
source size and output digests, which are not gated.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child:
# on two cores, two BLAS threads made training slower and noisier with
# byte-identical outputs. CUSA_THREADS stays unset for the same reason.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("CUSA_THREADS", None)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, SetupFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"
DEADLINE_S = 165.0  # stop starting commands after this; the run must end within 180 s
SETUP_REPEATS = 3


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str

    def inner_s(self):
        """The CLI's own wall_time_s line from stderr, if it printed one."""
        for line in reversed(self.stderr.splitlines()):
            if line.startswith("wall_time_s="):
                return float(line.partition("=")[2])
        return None


class Run:
    """One benchmark run: its seed, its clock and its tally of operations."""

    def __init__(self, seed: int, seconds: int, launcher: subprocess.Popen):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launcher = launcher

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def cli(self, argv: list) -> Child:
        """Run `python -m cusa.cli argv` to exit through the launcher."""
        self.attempted += 1
        request = {"argv": [sys.executable, "-m", "cusa.cli", *argv], "cwd": os.getcwd(),
                   "env": self.env, "stdout": os.path.abspath("_stdout"),
                   "stderr": os.path.abspath("_stderr"),
                   "timeout_s": max(1.0, self.deadline + 10.0 - time.perf_counter())}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        done = json.loads(self.launcher.stdout.readline())
        child = Child(done["code"], done["wall_s"], done["maxrss_kb"] / 1024.0,
                      Path("_stdout").read_text(encoding="utf-8"),
                      Path("_stderr").read_text(encoding="utf-8"))
        if child.code != 0:
            self.fail(f"{argv[0]} exited {child.code}: {child.stderr[-300:]!r}")
        return child

    def time_left(self, needed: float) -> bool:
        return time.perf_counter() + needed < self.deadline


def remove(path) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def files_under(paths) -> list:
    out = []
    for p in paths:
        if os.path.isdir(p):
            out += sorted(os.path.join(d, f) for d, _, fs in os.walk(p) for f in fs)
        else:
            out.append(p)
    return out


def _hash_file(h, path) -> None:
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)


def digest(paths, stdout: str = "") -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for f in files_under(paths):
        h.update(f.encode("utf-8") + b"\0")
        _hash_file(h, f)
    return h.hexdigest()


def sha256(path) -> str:
    h = hashlib.sha256()
    _hash_file(h, path)
    return h.hexdigest()


def check(run: Run, workload, inputs: dict, stdout: str):
    """Oracle check of one command's outputs; (ok, map_at_r)."""
    try:
        problems, quality = workload.check(run, inputs, stdout)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        problems, quality = [f"outputs could not be parsed: {exc!r}"], 0.0
    if problems:
        run.fail("oracle: " + "; ".join(problems[:3]))
    return not problems, quality


def setup(run: Run, workload, repeats: int):
    """Build the inputs `repeats` times; they must come out byte-identical."""
    times, digests = [], []
    for _ in range(repeats):
        remove("inputs")
        start = time.perf_counter()
        inputs = workload.setup(run)
        times.append(time.perf_counter() - start)
        digests.append(digest(["inputs"]))
    if len(set(digests)) != 1:
        run.fail("set-up outputs differ between repetitions")
    return inputs, times


def measure(run: Run, workload, context: dict) -> dict:
    """End-to-end metrics: closed loop of child processes for run.seconds."""
    inputs, setup_times = setup(run, workload, SETUP_REPEATS)
    children, first, first_ok, quality, io_mb = [], None, False, 0.0, 0.0
    start = time.perf_counter()
    while True:
        for out in workload.outputs:
            remove(out)
        child = run.cli(workload.command(run, inputs))
        children.append(child)
        if child.code == 0:
            d = digest(workload.outputs, child.stdout)
            if first is None:
                first = d
                first_ok, quality = check(run, workload, inputs, child.stdout)
                context["io_files"] = files_under(workload.io_paths(inputs))
                io_mb = sum(os.path.getsize(f) for f in context["io_files"]) / 1e6
                context["output_sha256"] = {f: sha256(f) for f in files_under(workload.outputs)}
            elif d != first:
                run.fail("outputs differ from the first command's")
            elif not first_ok:
                run.fail("outputs repeat ones that failed the oracle")
        elapsed = time.perf_counter() - start
        if elapsed >= run.seconds or not run.time_left(child.wall_s):
            break
    walls = [c.wall_s for c in children]
    startup = [c.wall_s - c.inner_s() for c in children if c.inner_s() is not None]
    context.update({
        "samples": {"wall_s": len(walls), "setup_s": len(setup_times)},
        "wall_s_all": walls,
        "setup_s_all": setup_times,
        "startup_s_median": statistics.median(startup) if startup else None,
    })
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB"),
        "io_mb": (io_mb, "MB"),
        "map_at_r": (quality, "fraction"),
    }


def call_main(argv: list):
    """cusa.cli.main in this process, looked up at call time so hooks apply."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["cusa.cli"].main(argv)
    return code, out.getvalue()


def trace(run: Run, workload, context: dict) -> dict:
    """Per-layer metrics from in-process runs, traced and untraced in turn."""
    inputs, _ = setup(run, workload, 1)
    for out in workload.outputs:
        remove(out)
    child = run.cli(workload.command(run, inputs))
    if child.code != 0:
        raise SetupFailed("untraced reference command failed")
    reference = digest(workload.outputs, child.stdout)
    check(run, workload, inputs, child.stdout)

    sys.path.insert(0, str(SRC))
    import cusa.cli  # imports every layer before timing starts

    modules = spans.package_modules("cusa")
    context["cusa_file"] = str(Path(modules[""].__file__).relative_to(ROOT))
    walls = {False: [], True: []}
    per_op, span_log, absent = [], [], []
    start = time.perf_counter()
    while True:
        # alternate which side goes first, so warm-up favours neither
        for traced in (False, True) if len(per_op) % 2 == 0 else (True, False):
            for out in workload.outputs:
                remove(out)
            tracer = spans.Tracer(op_id=len(per_op))
            with contextlib.ExitStack() as stack:
                if traced:
                    absent = stack.enter_context(spans.installed(tracer, modules))
                t0 = time.perf_counter()
                code, stdout = call_main(workload.command(run, inputs))
                walls[traced].append(time.perf_counter() - t0)
            run.attempted += 1
            if code != 0:
                run.fail(f"in-process command exited {code}")
            elif digest(workload.outputs, stdout) != reference:
                run.fail(f"{'traced' if traced else 'untraced'} in-process outputs differ "
                         "from the child process's")
            if traced:
                per_op.append(spans.layer_metrics(tracer))
                span_log.extend(tracer.spans)
                if tracer.observer_errors:
                    context.setdefault("observer_errors", []).extend(sorted(tracer.observer_errors))
        elapsed = time.perf_counter() - start
        if elapsed >= run.seconds or not run.time_left(walls[False][-1] + walls[True][-1]):
            break

    SCRATCH.mkdir(exist_ok=True)
    span_file = SCRATCH / f"spans-{workload.name}-seed{run.seed}.jsonl"
    with open(span_file, "w", encoding="utf-8") as fh:
        for s in span_log:
            fh.write(json.dumps(vars(s)) + "\n")
    context.update({"absent_hooks": absent, "span_file": str(span_file.relative_to(ROOT)),
                    "traced_ops": len(per_op),
                    "untraced_s_all": walls[False], "traced_s_all": walls[True]})

    metrics = {name: (statistics.median(op[name] for op in per_op), unit_of(name))
               for name in per_op[0]}
    metrics["cli.startup_s"] = (child.wall_s - (child.inner_s() or 0.0), "s")
    traced_s, untraced_s = statistics.median(walls[True]), statistics.median(walls[False])
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (len(span_log) / len(per_op), "count")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def src_stats() -> dict:
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_files": len(files), "src_sha256": h.hexdigest()}


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # benchmark checkouts are plain source trees
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def machine_context() -> dict:
    return {
        "git_sha": git_sha(),
        **src_stats(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": int(BLAS_THREADS),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "cusa" / "cli.py").is_file():
        sys.stderr.write(f"no cusa sources under {SRC}; run from a source checkout\n")
        return 2

    workload = WORKLOADS[args.workload]
    launcher = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    run = Run(args.seed, args.seconds, launcher)
    context = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, **machine_context()}
    work = SCRATCH / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    metrics = {}
    try:
        metrics = (trace if args.trace else measure)(run, workload, context)
    except SetupFailed as exc:
        run.fail(str(exc))
    finally:
        launcher.stdin.close()
        launcher.wait()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    context["problems"] = run.problems
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
