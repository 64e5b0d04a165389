#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the deltasvp CLI.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload solve-large --seed 1 --seconds 25 --trace 0

Workloads: solve-large, solve-walk, enumerate, verify-hull (the reason for
each is in BENCHMARK.json).  One closed-loop client in one thread: every
operation is ``deltasvp.cli.main([...])`` on the input file of one catalog
instance, called in process, and the next one starts only when the
previous one has finished and its output has been verified.  A pass runs
each instance once, in a seeded order; passes repeat until ``--seconds``
have elapsed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures half
of the time untraced and half with every public function of the layer
modules wrapped in a span (``spans.py``), over whole passes, and prints the
per-layer metrics per pass plus the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``); the line before it is a JSON
report with the environment, the instance census and the work counters.
Spans are written to ``.bench_out/``.  The program is imported from
``src/`` of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("cli", "errors", "generators", "linalg", "oracle", "polyhedra", "textio", "threshold")
SETUP_REPEATS = 5

#: Tail percentile per workload, taken over the instances of a pass (each
#: at its median latency): the highest of 75/90/95/99 that leaves at least
#: 10 latency samples on the instances above it in a 25 s run at the time
#: the benchmark was defined.  Fixed, so that a faster program does not
#: move the metric to another percentile.
TAIL_PERCENTILE = {"solve-large": 75, "solve-walk": 95, "enumerate": 95, "verify-hull": 90}


class ProgramMissing(RuntimeError):
    pass


def require_program() -> None:
    if not (SRC / "deltasvp" / "__init__.py").is_file():
        raise ProgramMissing(f"no deltasvp package under {SRC}")


def load_program() -> SimpleNamespace:
    """Imports deltasvp afresh from ``src/``, dropping any earlier import."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "deltasvp" or n.startswith("deltasvp.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{m: importlib.import_module(f"deltasvp.{m}") for m in MODULES})
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"deltasvp was imported from {lib.cli.__file__}, not {SRC}")
    return lib


def setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import the program, read the workload's catalog and write its files."""
    start = perf_counter()
    lib = load_program()
    instances = workloads.build(workload, seed, tiny)
    argvs = []
    for k, inst in enumerate(instances):
        path = workdir / f"{k:03d}.txt"
        path.write_text(inst.text())
        argvs.append(inst.argv(str(path)))
    return perf_counter() - start, lib, instances, argvs


def run_op(cli_main, inst, argv, tracer: Tracer | None = None):
    """One operation: its wall time and the reason it failed, if it did.
    With a tracer, the operation and its verification are spans."""
    if tracer is not None:
        tracer.op_id += 1
        root = tracer.enter("bench.op")
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
        crash = None
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        code, crash = None, f"raised {exc!r}"
    latency = perf_counter() - start
    if tracer is not None:
        check = tracer.enter("bench.verify")
    reason = crash or workloads.verify(inst, code, out.getvalue())
    if tracer is not None:
        tracer.exit(check)
        tracer.exit(root)
    return latency, reason


#: Machine speed reference.  ``reference_work`` is a fixed mix of the
#: interpreter work the program does (small-int generator sums, big-int
#: products, a small Fraction elimination).  It is timed between
#: operations, and each operation's wall time is scaled by REFERENCE_S over
#: the mean of the reference times just before and after it.  On the
#: shared two-vCPU VM where this benchmark was defined, the reference's
#: time moved by a factor of up to two within a minute.  Over ten seeds,
#: scaled throughput then spread by 2-6% (quartile distance over median)
#: per workload; raw wall times of four identical runs spread by 11%.
#: REFERENCE_S is about the reference's time there at full speed (Xeon
#: 2.0 GHz, Python 3.11), so scaled times read as wall times at that speed.
REFERENCE_S = 0.65e-3
CALIBRATE_EVERY_S = 0.01
REFERENCE_REPEATS = 3  # a calibration is the fastest of these, to shed jitter
_REF_ROWS = [tuple((i * 7 + j * 3) % 11 - 5 for j in range(10)) for i in range(10)]
_REF_TABLEAU = [[(i * 5 + j * j) % 7 - 3 for j in range(14)] for i in range(4)]


def reference_work() -> float:
    """Runs the fixed reference work once and returns its wall time."""
    start = perf_counter()
    acc, big = 0, 3**70
    for r in _REF_ROWS:
        for c in _REF_ROWS:
            acc += sum(a * b for a, b in zip(r, c)) * big // 7
    workloads.fraction_rank(_REF_TABLEAU)
    return perf_counter() - start


class Phase:
    """Latencies and failures of one measured phase.  Latencies are scaled
    to reference speed (see REFERENCE_S); raw wall times are kept too."""

    def __init__(self, size: int) -> None:
        self.per_instance: list[list[float]] = [[] for _ in range(size)]
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.references: list[float] = []
        self.failures: list[str] = []
        self.ops = 0
        self.wall = 0.0
        self.reference_time = 0.0
        self._pending: list[tuple[int, float]] = []

    def calibrate(self) -> None:
        """Times the reference work and scales the operations since the last one."""
        start = perf_counter()
        took = min(reference_work() for _ in range(REFERENCE_REPEATS))
        self.reference_time += perf_counter() - start
        if self._pending:
            # the speed changes within a second; take it from both sides
            speed = (self.references[-1] + took) / 2
            for index, latency in self._pending:
                scaled = latency * REFERENCE_S / speed
                self.latencies.append(scaled)
                self.per_instance[index].append(scaled)
            self._pending.clear()
        self.references.append(took)

    def add(self, index: int, latency: float, reason: str | None, label: str) -> None:
        self.ops += 1
        self.raw.append(latency)
        self._pending.append((index, latency))
        if reason is not None:
            self.failures.append(f"{label}: {reason}")

    def pass_seconds(self) -> float:
        """Busy time of one pass, from each instance's median latency."""
        return sum(statistics.median(v) for v in self.per_instance if v)

    def instance_latencies(self) -> list[tuple[float, int]]:
        """(median latency, samples) per instance, fastest first: one pass
        in which each instance counts once, at its typical latency."""
        return sorted((statistics.median(v), len(v)) for v in self.per_instance if v)

    def speed(self) -> float:
        """Median reference time over REFERENCE_S: above 1 the machine ran slow."""
        return statistics.median(self.references) / REFERENCE_S


def measure(phase: Phase, ops, seconds: float, step, whole_passes: bool) -> None:
    """Closed loop over the instances in order, calibrating between operations."""
    start = perf_counter()
    deadline = start + seconds
    phase.calibrate()
    last = perf_counter()
    k = 0
    while True:
        index = k % len(ops)
        phase.add(index, *step(index), ops[index][0].label)
        k += 1
        done = (k >= len(ops) and perf_counter() >= deadline
                and (not whole_passes or k % len(ops) == 0))
        if done or perf_counter() - last >= CALIBRATE_EVERY_S:
            phase.calibrate()
            last = perf_counter()
        if done:
            break
    phase.wall = perf_counter() - start - phase.reference_time


def percentile(pass_: list[tuple[float, int]], p: float) -> tuple[float, int]:
    """Nearest-rank percentile over the instances of a pass, and the number
    of latency samples taken on the instances above it."""
    rank = max(1, math.ceil(p / 100 * len(pass_)))
    return pass_[rank - 1][0], sum(n for _, n in pass_[rank:])


def install_hooks(tracer: Tracer, lib) -> None:
    """Exact work counters, read off arguments and results at layer boundaries."""
    find_rows = getattr(lib.linalg.find_invertible_rows, "__wrapped_original__",
                        lib.linalg.find_invertible_rows)
    preimage_cache: dict = {}

    def step(tr, args, kwargs, result, seconds):
        tr.counters["threshold.steps"] += 1
        path = getattr(result, "path", None)
        if path is not None:
            tr.counters[f"threshold.replacements.{path}"] += 1
            tr.counters["_replacements"] += 1
            tr.counters["_replacement_s"] += seconds

    def inverse(tr, args, kwargs, result, seconds):
        bits = max(abs(x).bit_length() for row in result.numerator.entries for x in row)
        tr.maxima["linalg.inverse_bits_max"] = max(tr.maxima["linalg.inverse_bits_max"], bits)

    def box(tr, args, kwargs, result, seconds):
        a, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
        side, n = 2 * k + 1, a.cols
        if result.norm == 1:  # early exit: points up to the witness in lexicographic order
            rank = 0
            for z in result.z:
                rank = rank * side + (z + k)
            tr.counters["oracle.box_points"] += rank + 1
        else:
            tr.counters["oracle.box_points"] += side**n

    def preimage(tr, args, kwargs, result, seconds):
        a = args[0]
        decided, witness = result
        if decided:
            tr.counters["oracle.preimage_points"] += 3**a.cols
            return
        key = (a.entries, witness)
        if key not in preimage_cache:
            rows = find_rows(a)
            v = [sum(x * y for x, y in zip(a.entries[r], witness)) for r in rows]
            rank = 0
            for x in v:
                rank = rank * 3 + (x + 1)
            preimage_cache[key] = rank + 1
        tr.counters["oracle.preimage_points"] += preimage_cache[key]

    def vertices(tr, args, kwargs, result, seconds):
        m, n = args[0].a.rows, args[0].a.cols
        # row subsets of the boundedness check (A plus the unit box) and of A
        tr.counters["polyhedra.basis_candidates"] += math.comb(m + 2 * n, n) + math.comb(m, n)

    def points(tr, args, kwargs, result, seconds):
        if tr.parent_name() == "polyhedra.integer_hull_vertices":
            tr.counters["polyhedra.hull_lps"] += len(result)

    def ilp(tr, args, kwargs, result, seconds):
        box = args[1] if len(args) > 1 else kwargs["box"]
        tr.counters["polyhedra.ilp_box_points"] += math.prod(b + 1 for b in box)

    tracer.hook("threshold.threshold_step", step)
    tracer.hook("linalg.scaled_inverse", inverse)
    tracer.hook("oracle.brute_force_svp", box)
    tracer.hook("oracle.shortest_is_at_least_2", preimage)
    tracer.hook("polyhedra.vertices_of_polyhedron", vertices)
    tracer.hook("polyhedra.integer_points", points)
    tracer.hook("polyhedra.solve_standard_form_ilp", ilp)


def layer_metrics(tr: Tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-layer metrics per pass of the instance set, times scaled to
    reference speed with the traced phase's median reference time."""
    metrics: dict = {}
    ops_per_pass = len(traced.per_instance)
    passes = traced.ops // ops_per_pass
    scale = 1.0 / traced.speed()
    wall_ms = traced.wall * 1e3 * scale / passes

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def ms(name):
        return tr.total_ms(name) * scale / passes

    def self_ms(name):
        return tr.self_ms(name) * scale / passes

    def calls(name):
        return tr.calls(name) / passes

    def count(name):
        return tr.counters[name] / passes

    def ratio(a, b):
        return a / b if b else 0.0

    layers = tr.layer_self_ms()
    for fn in ("adjugate", "matmul", "det", "rank", "hnf"):
        put(f"linalg.{fn}.ms", ms(f"linalg.{fn}"), "ms")
        put(f"linalg.{fn}.calls", calls(f"linalg.{fn}"), "count")
    put("linalg.scaled_inverse.self_ms", self_ms("linalg.scaled_inverse"), "ms")
    put("linalg.scaled_inverse.calls", calls("linalg.scaled_inverse"), "count")
    put("linalg.inverse_bits_max", tr.maxima["linalg.inverse_bits_max"], "bits")

    put("threshold.steps", count("threshold.steps"), "count")
    for path in ("entry_swap", "pair_swap", "block_swap"):
        put(f"threshold.replacements.{path}", count(f"threshold.replacements.{path}"), "count")
    put("threshold.step.self_ms", self_ms("threshold.threshold_step"), "ms")
    put("threshold.select_same_class.ms", ms("threshold.select_same_class"), "ms")
    put("threshold.build_test_vectors.ms", ms("threshold.build_test_vectors"), "ms")
    put("threshold.ms_per_replacement",
        ratio(tr.counters["_replacement_s"] * 1e3 * scale, tr.counters["_replacements"]), "ms")

    put("oracle.enum_bound.ms", ms("oracle.enum_bound"), "ms")
    put("oracle.brute_force_svp.ms", ms("oracle.brute_force_svp"), "ms")
    put("oracle.box_points", count("oracle.box_points"), "count")
    put("oracle.us_per_box_point",
        ratio(ms("oracle.brute_force_svp") * 1e3, count("oracle.box_points")),
        "us")
    put("oracle.preimage_points", count("oracle.preimage_points"), "count")

    put("polyhedra.vertices_of_polyhedron.ms", ms("polyhedra.vertices_of_polyhedron"), "ms")
    put("polyhedra.basis_candidates", count("polyhedra.basis_candidates"), "count")
    put("polyhedra.integer_hull_vertices.self_ms",
        self_ms("polyhedra.integer_hull_vertices"), "ms")
    put("polyhedra.hull_lps", count("polyhedra.hull_lps"), "count")
    put("polyhedra.ms_per_hull_lp",
        ratio(self_ms("polyhedra.integer_hull_vertices"), count("polyhedra.hull_lps")),
        "ms")
    put("polyhedra.ilp_box_points", count("polyhedra.ilp_box_points"), "count")
    put("polyhedra.solve_standard_form_ilp.ms", ms("polyhedra.solve_standard_form_ilp"), "ms")

    put("textio.parse.ms", sum(ms(n) for n in tr.stats if n.startswith("textio.parse")), "ms")
    for layer in ("cli", "textio", "linalg", "threshold", "oracle", "polyhedra", "bench"):
        put(f"{layer}.self_ms", layers.get(layer, 0.0) * scale / passes, "ms")
    put("trace.wall_ms_per_pass", wall_ms, "ms")
    put("trace.accounted_frac", ratio(sum(layers.values()) * scale / passes, wall_ms), "frac")
    put("trace.overhead_pct", 100.0 * (traced.pass_seconds() / untraced.pass_seconds() - 1.0), "%")
    return metrics


def environment(workload: str, seed: int, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": list(os.getloadavg()),
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "seed": seed,
        "trace": trace,
        "client": "closed loop, 1 client, 1 thread, in process",
    }


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False,
        wrap_cli=None) -> tuple[dict, dict]:
    """Runs one benchmark; returns (report, result).  ``wrap_cli`` lets the
    self-check substitute a CLI whose output it corrupts."""
    require_program()
    env = environment(workload, seed, trace)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups, setups_raw = [], []
        for _ in range(SETUP_REPEATS):
            before = reference_work()
            took, lib, instances, argvs = setup(workload, seed, workdir, tiny)
            setups_raw.append(took)
            setups.append(took * REFERENCE_S * 2 / (before + reference_work()))
        ops = list(zip(instances, argvs))

        def cli(argv):
            # looked up per call: the traced phase swaps in a wrapped cli.main
            main = wrap_cli(lib.cli.main) if wrap_cli else lib.cli.main
            return main(argv)

        def step(index):
            inst, argv = ops[index]
            return run_op(cli, inst, argv)

        plain = Phase(len(ops))
        measure(plain, ops, seconds / 2 if trace else seconds, step, whole_passes=False)
        traced = None
        details = {}
        if trace:
            tracer = Tracer()
            install_hooks(tracer, lib)
            tracer.install()
            histogram: Counter = Counter()

            def traced_step(index):
                before = tracer.counters["_replacements"]
                inst, argv = ops[index]
                latency, reason = run_op(cli, inst, argv, tracer)
                if inst.command == workloads.SOLVE and tracer.op_id < len(ops):
                    histogram[tracer.counters["_replacements"] - before] += 1
                return latency, reason

            traced = Phase(len(ops))
            try:
                measure(traced, ops, seconds / 2, traced_step, whole_passes=True)
            finally:
                tracer.uninstall()
            passes = traced.ops // len(ops)
            metrics = layer_metrics(tracer, traced, plain)
            spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
            tracer.write(spans_path)
            details = {
                "counters_per_pass": {k: v / passes for k, v in sorted(tracer.counters.items())
                                      if not k.startswith("_")},
                "passes_traced": passes,
                "replacement_histogram": {str(k): v for k, v in sorted(histogram.items())},
                "spans_file": str(spans_path.relative_to(ROOT)),
                "spans_written": len(tracer.spans),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = [plain] + ([traced] if traced else [])
    attempted = sum(p.ops for p in phases)
    failures = [f for p in phases for f in p.failures]
    if not trace:
        p = TAIL_PERCENTILE[workload]
        pass_ = plain.instance_latencies()
        tail, beyond = percentile(pass_, p)
        ok_frac = 1.0 - len(plain.failures) / plain.ops
        metrics = {
            "throughput_ops_per_s": {"value": ok_frac * len(ops) / plain.pass_seconds(),
                                     "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(t for t, _ in pass_) * 1e3,
                               "unit": "ms"},
            "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
        details = {"latency_samples": len(plain.latencies), "tail_percentile": p,
                        "samples_beyond_tail": beyond,
                        "raw_latency_p50_ms": statistics.median(plain.raw) * 1e3}
    env["loadavg_end"] = list(os.getloadavg())
    census = Counter(
        f"{' '.join(i.command)} delta={i.delta} m={i.m} n={i.n}" for i in instances
    )
    report = {
        "env": env,
        "instances": len(instances),
        "census": dict(sorted(census.items())),
        "setup_s_each": setups,
        "setup_raw_s_each": setups_raw,
        "machine_speed": [round(p.speed(), 4) for p in phases],
        "passes_untraced": plain.ops / len(ops),
        "failed_ops_frac": len(failures) / attempted,
        "first_failures": failures[:5],
        **details,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds, args.trace)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
