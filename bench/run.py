"""masseytc benchmark: cold CLI runs on golden, stress and query workloads.

    python3 bench/run.py                      # every workload, one process each
    python3 bench/run.py --workload golden --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next op starts when
the previous one returns, in one process with no threads.  Every op starts
cold from model text through ``masseytc.cli.main``, as a CLI invocation
does; nothing computed by one op is reused by the next.  Importing the
package and generating the inputs is set-up, timed separately and
repeated; output checks run between ops, outside the timed interval.
The end-to-end times are scaled to a reference host speed sampled during
the run (``hostspeed.py``); the unscaled times are printed next to them.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds per-layer metrics from a traced run, which also
measures the untraced op median in the same process to give the tracing
overhead.  The engine is always imported from ``src/`` next to this
directory; the run is refused when ``masseytc`` resolves anywhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layertrace import LAYER_METRICS, Tracer  # noqa: E402

WORKLOADS = ("golden", "stress-nil", "massey-cli")
GOLDEN = ("spheres8", "borromean", "even7", "odd11")
SETUP_REPEATS = 9
ENGINE_MODULES = ("dsl", "dga", "linalg", "cohomology", "massey", "bounds",
                  "report", "cli")


class Refused(Exception):
    pass


# ------------------------------------------------------------------ set-up


def import_engine() -> SimpleNamespace:
    """Import masseytc afresh from src/, refusing any other copy."""
    for name in [n for n in sys.modules if n == "masseytc" or n.startswith("masseytc.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    try:
        import masseytc
    except ImportError as e:
        raise Refused(f"cannot import masseytc from {SRC}: {e}")
    where = Path(masseytc.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise Refused(f"masseytc resolves to {where}, outside {SRC}")
    mods = {m: __import__(f"masseytc.{m}", fromlist=[m]) for m in ENGINE_MODULES}
    return SimpleNamespace(file=str(where), **mods)


def write_model(name: str, text: str) -> str:
    path = OUT / "models" / f"{name}.mtc"
    path.write_text(text)
    return str(path)


def validate(engine, text: str) -> None:
    dga = engine.dga.compile_cdga(engine.dsl.parse_model(text), check=False)
    problems = dga.validate()
    if problems:
        raise ValueError(f"generated model violates {problems[0].axiom}: "
                         f"{problems[0].message}")


def make_items(engine, workload: str, seed: int) -> list:
    """The op list of one pass.  An op is a list of (key, argv) CLI calls,
    made one after the other; on every workload one op is one pass over the
    workload's inputs."""
    if workload == "golden":
        order = random.Random(f"golden:{seed}").sample(GOLDEN, len(GOLDEN))
        return [[(m, ["bounds", m, "--json"]) for m in order]]
    if workload == "stress-nil":
        text = inputs.stress_nil_model(seed)
        validate(engine, text)
        path = write_model(inputs.STRESS_NAME, text)
        return [[(inputs.STRESS_NAME, ["bounds", path, "--json"])]]
    models, queries = inputs.massey_inputs(seed)
    paths = {}
    for name, text in models.items():
        validate(engine, text)
        paths[name] = write_model(name, text)
    return [[(q, ["massey", paths.get(q[0], q[0]), *q[1:], "--json"])
             for q in queries]]


def setup(workload: str, seed: int, clock) -> tuple:
    """Import and generate SETUP_REPEATS times; (engine, items, times)."""
    (OUT / "models").mkdir(parents=True, exist_ok=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        engine = import_engine()
        items = make_items(engine, workload, seed)
        times.append(clock() - t0)
    return engine, items, times


# --------------------------------------------------------------------- ops


class Runner:
    """Runs ops through the CLI and checks each one after its clock stops."""

    def __init__(self, engine, workload: str, clock):
        self.engine = engine
        self.workload = workload
        self.clock = clock
        self.checker = checks.Checker(engine)
        self.captured = []
        self.durations = []
        self.call_times = {}     # CLI call key -> [seconds]
        self.attempted = 0
        self.failed = 0
        bounds = engine.bounds

        # The ledger a `bounds` call builds, kept for replay.  The binding
        # is looked up per call so a traced build_ledger is the one run.
        def build_ledger(ring, kmap, *args, **kwargs):
            ledger = bounds.build_ledger(ring, kmap, *args, **kwargs)
            self.captured.append((ledger, ring, kmap))
            return ledger
        engine.cli.build_ledger = build_ledger

    def warm_up(self) -> None:
        """One untimed, unchecked call of each kind on the smallest golden
        model, so one-off costs of first use stay out of the first op."""
        for argv in (["bounds", "spheres8", "--json"],
                     ["massey", "spheres8", "a", "a", "b", "--json"]):
            self.call(argv)
        self.captured.clear()

    def call(self, argv) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.engine.cli.main(argv)
        return code, buf.getvalue()

    def op(self, item, tracer=None) -> None:
        self.attempted += 1
        self.captured.clear()
        results = []
        problems = []
        start = self.clock()
        try:
            for key, argv in item:
                t0 = self.clock()
                if tracer is None:
                    code, out = self.call(argv)
                else:
                    code, out = tracer.call("cli.main", self.call, (argv,), {})
                self.call_times.setdefault(key, []).append(self.clock() - t0)
                results.append((key, argv, code, out, self.captured[:]))
                self.captured.clear()
        except Exception:
            problems.append(traceback.format_exc())
        self.durations.append(self.clock() - start)
        if tracer is not None:
            tracer.enabled = False
        try:
            for key, argv, code, out, captured in results:
                problems += self.check(key, argv, code, out, captured)
        except Exception:
            problems.append(traceback.format_exc())
        finally:
            if tracer is not None:
                tracer.enabled = True
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)

    def check(self, key, argv, code, out, captured) -> list:
        if self.workload == "massey-cli":
            return self.checker.massey(key, argv[1], code, out)
        if self.workload == "golden":
            cat, tc = checks.GOLDEN_BOUNDS[key]
            expected = {"cat": cat, "tc": tc}
        else:
            expected = checks.STRESS_EXPECTED
        return self.checker.bounds(key, code, out, captured, expected)


def loop(runner, items, seconds) -> None:
    """Closed loop over the op list until the time is up."""
    end = time.perf_counter() + seconds
    i = 0
    while True:
        runner.op(items[i % len(items)])
        i += 1
        if time.perf_counter() >= end:
            return


def traced_loop(runner, items, seconds, tracer) -> tuple:
    """Alternate untraced and traced passes over the op list until the time
    is up, so drift in machine speed hits both alike.  The tracer is
    installed only for traced passes.  Returns (untraced op durations,
    op indices of each traced pass)."""
    end = time.perf_counter() + seconds
    untraced, passes = [], []
    replay = runner.checker.replay
    while not passes or time.perf_counter() < end:
        first = len(runner.durations)
        for item in items:
            runner.op(item)
        untraced += runner.durations[first:]
        first = len(runner.durations)
        tracer.new_pass()
        runner.checker.replay = lambda *a: tracer.call("bounds.replay", replay, a, {})
        tracer.install()
        try:
            for item in items:
                tracer.op = len(runner.durations)
                runner.op(item, tracer)
        finally:
            tracer.uninstall()
            runner.checker.replay = replay
        passes.append(range(first, len(runner.durations)))
    return untraced, passes


# ----------------------------------------------------------------- metrics


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def provenance(engine, args) -> dict:
    return {
        "masseytc_file": engine.file,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(runner, setup_times, host) -> dict:
    """Declared metrics, times scaled to the reference host speed."""
    scale = host.scale()
    d = [t * scale for t in runner.durations]
    return {
        "op_p50_s": (statistics.median(d), "s"),
        "op_p90_s": (p90(d), "s"),
        "ops_per_s": (len(d) / sum(d), "1/s"),
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def unscaled_figures(runner, setup_times, host) -> dict:
    """The times behind the declared ones as measured, and the host speed."""
    d = runner.durations
    return {
        "wall.op_p50_s": (statistics.median(d), "s"),
        "wall.op_p90_s": (p90(d), "s"),
        "wall.setup_s": (statistics.median(setup_times), "s"),
        "host.kernel_s": (host.kernel_s(), "s"),
        "host.samples": (len(host.samples), "count"),
    }


def call_figures(runner, workload) -> dict:
    """Figures per CLI call, printed but not declared: each golden model's
    median `bounds` time, and the median and 90th percentile of a single
    massey-cli query."""
    times = runner.call_times
    if workload == "golden":
        return {f"bounds_s.{m}": (statistics.median(times[m]), "s") for m in GOLDEN}
    if workload == "massey-cli":
        pooled = [t for ts in times.values() for t in ts]
        return {"query_p50_s": (statistics.median(pooled), "s"),
                "query_p90_s": (p90(pooled), "s")}
    return {}


def per_layer(tracer, runner, untraced, passes) -> dict:
    per_pass = [tracer.layer_times(ops) for ops in passes]
    counts = tracer.pass_counts[0]
    if any(c != counts for c in tracer.pass_counts[1:]):
        print("warning: per-layer counts differ between traced passes",
              file=sys.stderr)
    traced = [runner.durations[i] for ops in passes for i in ops]
    traced_p50 = statistics.median(traced)
    values = {}
    for name, unit, _, _ in LAYER_METRICS:
        if name == "trace.op_p50_s":
            v = traced_p50
        elif name == "trace.overhead_s":
            v = traced_p50 - statistics.median(untraced)
        elif name.endswith("_self_s"):
            v = statistics.median(own[name[:-7]] for _, own in per_pass)
        elif name.endswith("_s"):
            v = statistics.median(total[name[:-2]] for total, _ in per_pass)
        elif name.endswith("_frac"):
            calls = counts["massey.triple_calls"]
            v = counts[name[:-5]] / calls if calls else 0.0
        else:
            v = counts[name]
        values[name] = (v, unit)
    return values


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_workload(args) -> int:
    host = HostSpeed()
    # The kernel is sampled only in untraced runs, whose times are scaled.
    with host.sampling() if not args.trace else contextlib.nullcontext():
        return measure(args, host)


def measure(args, host) -> int:
    try:
        engine, items, setup_times = setup(args.workload, args.seed, host.clock)
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    runner = Runner(engine, args.workload, host.clock)
    prov = provenance(engine, args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = {}
    printed = {}
    runner.warm_up()
    if args.trace:
        tracer = Tracer()
        untraced, passes = traced_loop(runner, items, args.seconds, tracer)
        metrics = per_layer(tracer, runner, untraced, passes)
        extra["transfer_refused_by_reason"] = dict(tracer.refusals)
        write_json(OUT / f"spans-{tag}.json", {
            "provenance": prov,
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": tracer.spans,
        })
    else:
        loop(runner, items, args.seconds)
        metrics = end_to_end(runner, setup_times, host)
        printed = {**unscaled_figures(runner, setup_times, host),
                   **call_figures(runner, args.workload)}
    extra["failed_frac"] = runner.failed / runner.attempted
    extra["ops"] = len(runner.durations)
    extra["op_s"] = runner.durations
    moves = {name: m for name, _, _, m in LAYER_METRICS}
    for name, (value, unit) in metrics.items():
        note = f"  -> {moves[name]}" if args.trace else ""
        print(f"{name} {value:.6g} {unit}{note}")
    for name, (value, unit) in printed.items():
        print(f"{name} {value:.6g} {unit}")
    for name in ("failed_frac", "ops"):
        print(f"{name} {extra[name]}")
    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": reported}
    write_json(OUT / f"result-{tag}.json",
               {"provenance": prov, "extra": extra, "result": result,
                "all_metrics": {k: v for k, (v, _) in {**metrics, **printed}.items()}})
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(f"== {workload}")
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        summary[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
