"""Benchmark of the oagame CLI.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and driven as a closed loop with one client: one ``python3 -m
oagame.cli`` subprocess at a time, each started when the previous one has
exited.  ``--trace 1`` instead replays the same commands inside this
process with spans around each layer's public functions.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment, the
generated inputs and every metric by name with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Nominal seconds of one pass over a workload's commands on the reference
# machine (2 cores, Python 3.11).  A run makes ceil(seconds / nominal)
# passes, so the sample count, and with it the percentile cmd_tail_ms
# reports, is the same on every commit.
NOMINAL_PASS_SECONDS = {
    "oa-pipeline": 4.5,
    "row-dump": 4.0,
    "synthetic-count": 5.0,
    "bimatrix-equilibria": 6.5,
}
# The host alternates every few seconds between speed states some 40%
# apart, each CPU on its own.  Each timed child runs on the CPU where a fixed
# loop runs fastest just before it, and its time is scaled by
# REFERENCE_SECONDS over the loop's time on that CPU just before and just
# after it: times read as if the host ran at the speed where the loop takes
# REFERENCE_SECONDS (its fast state on the reference machine).  The raw
# times are printed beside the results.
REFERENCE_LOOPS = 60_000
REFERENCE_SECONDS = 0.0040
MAX_RUN_SECONDS = 120  # no new pass starts after this, whatever the count
COMMAND_TIMEOUT = 60
SETUP_SPAWNS = 15
IMPORT_SPAWNS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

# What every CLI call pays before its own work: import the package, then
# parse and validate the input, in a fresh interpreter.
SETUP_SCRIPT = """\
import os, sys
import oagame
path = sys.argv[1]
if os.path.exists(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
else:
    from oagame import fixtures
    text = fixtures.fixture_text(path)
if path.endswith(".bmx"):
    oagame.parse_bimatrix(text)
else:
    result = oagame.parse_game_spec(text)
    if result.game is None or not oagame.validate_game(result.game).ok:
        sys.exit(1)
"""

IMPORT_SCRIPT = """\
import time
t = time.perf_counter()
import oagame.cli
print(time.perf_counter() - t)
"""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms",
             "cmd_tail_ms": "ms", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or broken inputs)."""


# ---------------------------------------------------------------------------
# Environment


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("OAGAME_FORMAT", None)  # the default output format is measured
    return env


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """Digest of the package sources, naming the code measured even where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "oagame").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(name: str, seed: int, seconds: int, trace: bool,
                commands: int, passes: int) -> dict:
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "src_digest": src_digest(), "commands_per_pass": commands,
        "passes": passes, "client": "closed loop, 1 client",
    }


# ---------------------------------------------------------------------------
# Measurement


def spawn(argv: list[str], cwd: Path) -> tuple[float, int | None, float,
                                               bytes]:
    """Run one child to exit: (seconds, exit status or None on timeout,
    peak RSS in MiB, stdout)."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(COMMAND_TIMEOUT, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    code = None if killed.is_set() else proc.returncode
    return elapsed, code, usage.ru_maxrss / 1024, out_path.read_bytes()


def reference_seconds() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Places each timed child on the fastest CPU and scales its time to the
    reference speed (see REFERENCE_SECONDS).  ``close()`` restores the
    process's CPU set."""

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        self.samples: list[float] = []
        self.before = self._settle()

    def _settle(self) -> float:
        """Move to the CPU where the reference loop is fastest now, for the
        next child to inherit; the loop's time there."""
        times = []
        for cpu in sorted(self.allowed):
            os.sched_setaffinity(0, {cpu})
            times.append((reference_seconds(), cpu))
        best, cpu = min(times)
        os.sched_setaffinity(0, {cpu})
        return best

    def correct(self, elapsed: float) -> float:
        """Scale the time of the child that just ran, then pick the CPU for
        the next one."""
        after = reference_seconds()
        self.samples.append(after)
        factor = REFERENCE_SECONDS / ((self.before + after) / 2)
        self.before = self._settle()
        return elapsed * factor

    def close(self) -> None:
        os.sched_setaffinity(0, self.allowed)


class Outcomes:
    """Checks each command's output and its repeat against the first run."""

    def __init__(self, commands):
        self.commands = commands
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, index: int, status: int | None, stdout: bytes) -> None:
        self.attempted += 1
        cmd = self.commands[index]
        digest = hashlib.sha256(stdout).hexdigest()
        if status is None:
            error = "timed out"
        elif status != 0:
            error = f"exit status {status}"
        elif self.digests.setdefault(index, digest) != digest:
            error = "stdout differs from the first run of this command"
        else:
            error = cmd.check(stdout.decode("utf-8"))
        if error:
            self.failures.append(f"{' '.join(cmd.argv)}: {error}")


def pass_count(name: str, seconds: int) -> int:
    return max(1, math.ceil(seconds / NOMINAL_PASS_SECONDS[name]))


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest of TAIL_PERCENTILES (nearest rank) with at least TAIL_BEYOND
    samples beyond it; the maximum (as percentile 100) for small samples."""
    xs = sorted(samples)
    for p in TAIL_PERCENTILES:
        idx = math.ceil(p / 100 * len(xs)) - 1
        if len(xs) - 1 - idx >= TAIL_BEYOND:
            return xs[idx], p
    return xs[-1], 100


def measure_setup(inputs: list[str], workdir: Path, first: int, count: int,
                  speed: HostSpeed) -> list[tuple[float, float]]:
    """(corrected, raw) seconds, spawn to exit, of ``count`` fresh
    interpreters that each import the package and parse and validate one
    input, taking the inputs in turn from position ``first``."""
    argv = [sys.executable, "-c", SETUP_SCRIPT]
    times = []
    for i in range(first, first + count):
        path = inputs[i % len(inputs)]
        elapsed, status, _, _ = spawn(argv + [path], workdir)
        if status != 0:
            raise BenchError(f"set-up of {path} failed")
        times.append((speed.correct(elapsed), elapsed))
    return times


def measure_import_ms(workdir: Path) -> float:
    """Median milliseconds to import oagame.cli in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_SPAWNS):
        _, status, _, out = spawn([sys.executable, "-c", IMPORT_SCRIPT],
                                  workdir)
        if status != 0:
            raise BenchError("importing oagame.cli failed")
        times.append(float(out) * 1000)
    return statistics.median(times)


def run_untraced(wl, passes: int, workdir: Path) -> tuple[dict, Outcomes,
                                                         dict]:
    """The closed loop: ``passes`` passes over the command list, with the
    set-up spawns spread between them."""
    outcomes = Outcomes(wl.commands)
    times: list[list[tuple[float, float]]] = [[] for _ in wl.commands]
    setup: list[tuple[float, float]] = []
    peak = 0.0
    per_gap = math.ceil(SETUP_SPAWNS / passes)
    # Fill the bytecode cache before anything is timed.
    spawn([sys.executable, "-c", SETUP_SCRIPT, wl.inputs[0]], workdir)
    speed = HostSpeed()
    start = time.perf_counter()
    try:
        for _ in range(passes):
            setup += measure_setup(wl.inputs, workdir, len(setup), per_gap,
                                   speed)
            for i, cmd in enumerate(wl.commands):
                elapsed, status, rss, stdout = spawn(
                    [sys.executable, "-m", "oagame.cli", *cmd.argv], workdir)
                times[i].append((speed.correct(elapsed), elapsed))
                outcomes.record(i, status, stdout)
                peak = max(peak, rss)
            if time.perf_counter() - start > MAX_RUN_SECONDS:
                break
    finally:
        speed.close()

    def summary(k: int) -> tuple[dict[str, float], int]:
        # Each command's time is the best of its runs, taken a pass apart.
        best = [min(t[k] for t in per_cmd) for per_cmd in times]
        tail_s, pct = tail([t[k] for per_cmd in times for t in per_cmd])
        return {"setup_s": statistics.median(t[k] for t in setup),
                "wall_s": sum(best),
                "cmd_p50_ms": statistics.median(best) * 1000,
                "cmd_tail_ms": tail_s * 1000, "peak_rss_mb": peak}, pct

    metrics, pct = summary(0)
    extra = {"passes_run": len(times[0]),
             "commands": sum(len(t) for t in times),
             "cmd_tail_percentile": pct, "cmd_tail_beyond": TAIL_BEYOND,
             "setup_spawns": len(setup),
             "reference_loop_ms_median":
                 statistics.median(speed.samples) * 1000,
             "raw": summary(1)[0]}
    return metrics, outcomes, extra


def call_in_process(run, argv: list[str]) -> tuple[float, int, bytes]:
    """Call ``run(argv)`` with stdout and stderr captured; (seconds, exit
    status, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = run(argv)
        except Exception as exc:  # a crash fails this command only
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            status = -1
    return time.perf_counter() - start, status, out.getvalue().encode()


def replay(wl, outcomes: Outcomes, tracer) -> tuple[float, float, int]:
    """Run every command in this process twice in a row, once without and
    once with spans, in alternating order; (untraced seconds, traced
    seconds, stdout bytes of one run)."""
    from oagame import cli

    def traced(argv):
        tracer.install()
        try:
            return tracer.command(cli.run_cli, argv)
        finally:
            tracer.uninstall()

    walls = {cli.run_cli: 0.0, traced: 0.0}
    out_bytes = 0
    for i, cmd in enumerate(wl.commands):
        runs = (cli.run_cli, traced) if i % 2 else (traced, cli.run_cli)
        for run in runs:
            elapsed, status, stdout = call_in_process(run, list(cmd.argv))
            walls[run] += elapsed
            outcomes.record(i, status, stdout)
        out_bytes += len(stdout)
    return walls[cli.run_cli], walls[traced], out_bytes


PER_LAYER_COUNTS = ("dsl.input_bytes", "engine.profiles", "engine.row_space",
                    "engine.rows_emitted", "equilibrium.support_pairs",
                    "equilibrium.equilibria")


def traced_pass_metrics(tracer, traced_wall: float, untraced_wall: float,
                        out_bytes: int, commands: int) -> dict[str, float]:
    import spans

    selfs = {k: v * 1000 for k, v in tracer.self_times().items()}
    m = {f"{name}.self_ms": selfs.get(name, 0.0)
         for name in spans.span_names()}
    for layer in spans.LIBRARY_LAYERS:
        m[f"{layer}.self_ms"] = sum(v for k, v in selfs.items()
                                    if k.startswith(layer + "."))
    m["cli.self_ms"] = selfs.get(spans.COMMAND, 0.0)
    m["cli.commands"] = commands
    for name in PER_LAYER_COUNTS:
        m[name] = tracer.counters[name]
    c = tracer.counters
    m["engine.admissible_ratio"] = (c["engine.rows_emitted"]
                                    / c["engine.row_space"]
                                    if c["engine.row_space"] else 0.0)
    m["equilibrium.equilibria_per_pair"] = (
        c["equilibrium.equilibria"] / c["equilibrium.support_pairs"]
        if c["equilibrium.support_pairs"] else 0.0)
    m["report.bytes_out"] = out_bytes
    m["trace.command_ms"] = traced_wall * 1000
    m["trace.residual_ms"] = traced_wall * 1000 - sum(selfs.values())
    m["trace.overhead_ms"] = (traced_wall - untraced_wall) * 1000
    m["trace.untraced_wall_s"] = untraced_wall
    return m


def run_traced(wl, passes: int, workdir: Path,
               spans_path: Path | None) -> tuple[dict, Outcomes, dict]:
    import spans

    import_ms = measure_import_ms(workdir)
    outcomes = Outcomes(wl.commands)
    per_pass, recorded = [], []
    start = time.perf_counter()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for _ in range(passes):
            tracer = spans.Tracer()
            untraced_wall, traced_wall, out_bytes = replay(wl, outcomes,
                                                           tracer)
            per_pass.append(traced_pass_metrics(
                tracer, traced_wall, untraced_wall, out_bytes,
                len(wl.commands)))
            recorded.append(tracer.to_json())
            if time.perf_counter() - start > MAX_RUN_SECONDS:
                break
    finally:
        os.chdir(cwd)
    metrics = {k: statistics.median(p[k] for p in per_pass)
               for k in per_pass[0]}
    metrics["cli.import_ms"] = import_ms
    if spans_path is not None:
        spans_path.write_text(json.dumps({
            "commands": [list(c.argv) for c in wl.commands],
            "passes": recorded}))
    return metrics, outcomes, {"passes_run": len(per_pass)}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_out"):
        return "bytes"
    if name.endswith("ratio") or name.endswith("per_pair"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 tiny: bool = False, keep_spans: bool = True) -> dict:
    """Build, measure and check one workload; the result object."""
    import workloads

    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(name, seed, str(workdir), str(SRC), tiny)
        passes = pass_count(name, seconds)
        env = environment(name, seed, seconds, trace, len(wl.commands),
                          passes)
        print("env " + json.dumps(env), flush=True)
        for p in wl.params:
            print("input " + json.dumps(p), flush=True)
        if trace:
            spans_path = (OUT / f"spans-{name}-{seed}.json"
                          if keep_spans else None)
            metrics, outcomes, extra = run_traced(wl, passes, workdir,
                                                  spans_path)
            units = {k: per_layer_unit(k) for k in metrics}
        else:
            metrics, outcomes, extra = run_untraced(wl, passes, workdir)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(outcomes.failures)
    for failure in outcomes.failures:
        print("FAILED " + failure, flush=True)
    print("run " + json.dumps(extra), flush=True)
    for k, v in metrics.items():
        print(f"metric {name} {k} {v!r} {units[k]}", flush=True)
    print(f"metric {name} failed_ratio {failed / outcomes.attempted!r} "
          f"ratio", flush=True)
    return {"correct": failed == 0, "attempted": outcomes.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def prepare() -> str | None:
    """Make the checkout's package and the benchmark's modules importable;
    an error message when the checkout has no package."""
    if not (SRC / "oagame" / "__init__.py").is_file():
        return f"no package at {SRC / 'oagame'}; run from a full checkout"
    for path in (HERE, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import oagame
    if Path(oagame.__file__).resolve().parent != SRC / "oagame":
        return f"imported oagame from {oagame.__file__}, not from {SRC}"
    os.environ.pop("OAGAME_FORMAT", None)
    return None


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = prepare()
    if error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2

    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    try:
        results = {n: run_workload(n, args.seed, args.seconds,
                                   bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
