"""coilfringe benchmark: end-to-end CLI metrics, or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fieldmap-dense --seed 1 --seconds 20 --trace 0

With --trace 0 every command of the workload's script runs as a fresh
`coilfringe` process, one at a time, and the end-to-end metrics are
reported.  With --trace 1 the script runs in this process through
`coilfringe.cli.main(argv)`, alternating untraced and traced passes, and
the per-layer metrics are reported.  Every output is checked.  The last
line of standard output is the JSON result; the full record (seed,
inputs, environment, samples, spans) goes to perfbench/results/.
"""

import argparse
import contextlib
import importlib
from importlib import metadata
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(1, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ENTRY = "import sys; from coilfringe.cli import main; sys.exit(main())"
SETUP_REPEATS = 3
MIN_PASSES = 2  # a traced run needs two passes to check that counts repeat
IMPORT_PROFILE_REPEATS = 3
COMMAND_TIMEOUT_S = 120.0
MEASURE_LIMIT_S = 100.0  # stop starting passes after this, whatever --seconds says
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("winding.segments", "winding.pairs", "winding.kernel_bytes_computed",
                "sweep.domain_error_rows", "trace.rows_written", "trace.spans",
                "export.write_field_map_bytes", "sweep.write_sweep_csv_bytes")


def child_env():
    """The inherited environment, with src/ importable and bytecode caching on.

    Caching is forced on so that commands run with the bytecode caches an
    install leaves behind, whatever the calling shell sets.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_child(args, workdir, env):
    """Run the interpreter with `args`; (wall s, exit code, stdout, ru_maxrss KiB)."""
    out_path = os.path.join(workdir, "stdout.txt")
    with open(out_path, "w+", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=subprocess.DEVNULL, env=env, cwd=workdir)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return wall, proc.returncode, out.read(), usage.ru_maxrss


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond), nearest-rank.  With ten
    samples or fewer no percentile has ten beyond it; the percentile
    with the most samples beyond it, the lowest sample, is reported.
    """
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


class Run:
    """One benchmark run: a workload, its references and its outcomes."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.env = child_env()
        self.references = {c.label: checks.FieldReference(c.expect)
                           for c in workload.commands if c.kind == "field-map"}
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.quality = {}

    def check(self, cmd, code, stdout, counted=True):
        outcome = checks.check(cmd, code, stdout, self.references.get(cmd.label))
        if counted:
            self.attempted += 1
            self.failed += bool(outcome.problems)
        self.problems.extend(outcome.problems)
        for key, value in outcome.quality.items():
            self.quality.setdefault(key, []).append(value)
        return outcome

    def passes(self, seconds, run_pass):
        """Repeat whole passes of the script within `seconds`.

        After MIN_PASSES passes, a new pass starts only if it would end
        within `seconds`, judged by the longest pass so far.
        """
        start = time.perf_counter()
        longest = 0.0
        for done in itertools.count(1):
            t0 = time.perf_counter()
            run_pass()
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if done >= MIN_PASSES and (now - start + longest > seconds
                                    or now - start >= MEASURE_LIMIT_S):
                return done

    # -- untraced: one fresh process per command ---------------------------

    def untraced(self, seconds):
        for cmd in self.workload.commands:  # warm-up: bytecode caches, page cache
            _, code, stdout, _ = run_child(["-c", ENTRY, *cmd.argv], self.workdir, self.env)
            self.check(cmd, code, stdout, counted=False)
        setup = [run_child(["-c", "import coilfringe.cli"], self.workdir, self.env)
                 for _ in range(SETUP_REPEATS)]
        for _, code, _, _ in setup:
            self.expect_ok(code, "import")
        samples, rates = [], []

        def one_pass():
            first = len(samples)
            for cmd in self.workload.commands:
                wall, code, stdout, rss = run_child(["-c", ENTRY, *cmd.argv],
                                                    self.workdir, self.env)
                outcome = self.check(cmd, code, stdout)
                samples.append({"command": cmd.label, "wall_s": wall, "exit": code,
                                "rows": outcome.rows, "max_rss_kib": rss,
                                "ok": not outcome.problems})
            done = samples[first:]
            rates.append(sum(s["rows"] for s in done) / sum(s["wall_s"] for s in done))

        self.passes(seconds, one_pass)
        walls = [s["wall_s"] for s in samples]
        tail_value, tail_pct, beyond = tail(walls)
        metrics = {
            "setup_s": statistics.median(w for w, _, _, _ in setup),
            "command_s.p50": statistics.median(walls),
            "command_s.tail": tail_value,
            "samples_per_s": statistics.median(rates),
            "peak_rss_mb": max(s["max_rss_kib"] for s in samples) / 1024,
        }
        extra = {
            "command_s.samples": len(walls),
            "command_s.tail_percentile": tail_pct,
            "command_s.tail_samples_beyond": beyond,
            "failed_ratio": self.failed / self.attempted,
            "setup_s.samples": [w for w, _, _, _ in setup],
        }
        for key, values in self.quality.items():
            extra[key] = statistics.median(values)
        return metrics, extra, {"samples": samples}

    # -- traced: in this process, through coilfringe.cli.main --------------

    def call_main(self, cli, cmd, tracer=None):
        buf = io.StringIO()
        span = tracer.open(f"command:{cmd.label}") if tracer else None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed command, not a failed run
                code = f"raised {exc!r}"
        wall = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        return wall, code, buf.getvalue()

    def traced(self, seconds):
        _, code, _, _ = run_child(["-c", "import coilfringe.cli"], self.workdir, self.env)
        self.expect_ok(code, "import")  # this first import writes the bytecode caches
        profiles = []
        for _ in range(IMPORT_PROFILE_REPEATS):
            err = os.path.join(self.workdir, "importtime.txt")
            with open(err, "w+", encoding="utf-8") as fh:
                proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                       "import coilfringe.cli"], stderr=fh, env=self.env,
                                      cwd=self.workdir, timeout=COMMAND_TIMEOUT_S)
                fh.seek(0)
                profiles.append(tracing.import_profile(fh.read()))
            self.expect_ok(proc.returncode, "import")
        sys.path.insert(0, SRC)
        cli = importlib.import_module("coilfringe.cli")
        tracer = tracing.Tracer()
        for cmd in self.workload.commands:  # warm-up pass, untraced
            _, code, stdout = self.call_main(cli, cmd)
            self.check(cmd, code, stdout, counted=False)
        untraced_walls, traced_passes = [], []

        def pair():
            untraced_walls.append(0.0)
            for cmd in self.workload.commands:
                wall, code, stdout = self.call_main(cli, cmd)
                untraced_walls[-1] += wall
                self.check(cmd, code, stdout)
            wall_sum, rows, errors = 0.0, 0, 0
            with tracer.installed():
                for cmd in self.workload.commands:
                    wall, code, stdout = self.call_main(cli, cmd, tracer)
                    outcome = self.check(cmd, code, stdout)
                    wall_sum += wall
                    rows += outcome.rows
                    errors += outcome.domain_errors
            spans = tracer.take()
            metrics = tracing.pass_metrics(spans)
            metrics["sweep.domain_error_rows"] = errors
            metrics["trace.rows_written"] = rows
            traced_passes.append({"wall_s": wall_sum, "metrics": metrics, "spans": spans})

        self.passes(seconds, pair)
        per_pass = [p["metrics"] for p in traced_passes]
        for name in EXACT_COUNTS:
            values = {m[name] for m in per_pass}
            if len(values) != 1:
                self.problems.append(f"count {name} differs between passes: {sorted(values)}")
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        for name in profiles[0]:
            metrics[name] = statistics.median(p[name] for p in profiles)
        traced_walls = [p["wall_s"] for p in traced_passes]
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(untraced_walls))
        metrics["trace.absent_names"] = len(tracer.absent)
        extra = {
            "trace.absent": tracer.absent,
            "trace.passes": len(traced_passes),
            "trace.hook_errors": sum("hook_error" in s.attrs
                                     for p in traced_passes for s in p["spans"]),
            "trace.traced_wall_s": traced_walls,
            "trace.untraced_wall_s": untraced_walls,
            "trace.unaccounted_by_command": [tracing.unaccounted_by_command(p["spans"])
                                             for p in traced_passes],
        }
        record = {
            "import_profiles": profiles,
            "passes": [
                {"wall_s": p["wall_s"], "metrics": p["metrics"],
                 "spans": [[s.name, s.start, s.end, s.parent, s.attrs] for s in p["spans"]]}
                for p in traced_passes
            ],
        }
        return metrics, extra, record

    def expect_ok(self, code, what):
        if code != 0:
            self.problems.append(f"{what} exited {code}")


def environment():
    """Read-only description of the machine and software of this run."""
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "inherited_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }
    try:
        env["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        env["scipy"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        env["cpu_model"] = models[0] if models else env["cpu_model"]
    except OSError:
        pass
    for level in (2, 3):
        try:
            env[f"l{level}_cache_bytes"] = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
        except (ValueError, OSError):
            env[f"l{level}_cache_bytes"] = None
    env["git_commit"] = git_commit()
    return env


def git_commit():
    """The checked-out commit, read from .git without running git; None if absent."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coilfringe", "cli.py")):
        print(f"error: no coilfringe sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        workloads.write_scenario(workload, workdir)
        run = Run(workload, workdir)
        if args.trace:
            metrics, extra, record = run.traced(args.seconds)
        else:
            metrics, extra, record = run.untraced(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    correct = not run.problems and run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "inputs": workload.inputs,
                   "commands": [[c.label, *c.argv] for c in workload.commands],
                   "environment": environment(), "result": result, "extra": extra,
                   "problems": run.problems, **record}, fh, default=str)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  -> {out}")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:38s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"  {name:38s} {value:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
