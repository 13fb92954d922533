"""Benchmark of the crystal_rigidity library: certify, diagnose and grow.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One process, one client, a closed loop and no threads.  The workload's
instances are generated from the seed by ``instances.py`` (which does not
use the library), written as graph files, then driven through
``crystal_rigidity.cli.main(argv)`` in-process with stdout captured, or for
``grow`` through ``ColoredGraph.with_edge`` and
``sparsity.is_laman_sparse``.  A round is one instance for each k = 2, 3,
4, 6, and a cycle runs every round once.  Cycles repeat while another one
is expected to fit in ``--seconds`` of operation time (at least one runs),
so a seed always measures the same work.  Every output is checked outside
the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each round
untraced and then traced, prints the per-layer metrics of the traced passes
and the tracing overhead, and writes spans and per-operation latencies to
``bench/out/trace-<workload>-<seed>.json``.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PKG = "crystal_rigidity"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from instances import laman_target, make_instances, graph_text, ncols  # noqa: E402

# Each round covers both exact fields: Q for k = 2, 4 and Q(sqrt 3) for
# k = 3, 6.  One instance's cost varies by 20% or more with its seed, so a
# cycle holds many small instances (20-28 s at typical speeds) rather than a
# few large ones.
KS = (2, 3, 4, 6)
SIZES = {"certify": 10, "diagnose": 10, "grow": 12}
ROUNDS = {"certify": 9, "diagnose": 12, "grow": 20}
SETUP_REPEATS = 7
RADIUS = 2
# Sampling range of the random integers behind realize, rank and render.  At
# the default of 100, realize's directions were non-generic (a Laman basis
# reported "not faithful", the allowed one-sided error) for 2 of ~600 bases
# at n = 10-12; at 10**9 the chance is below 1e-7 per call.
BOUND = str(10**9)
# Machine speed on the shared host drifts by up to 1.5x within seconds, for
# library and calibration code alike.  Times are reported at a reference
# speed: raw time * CAL_REF_S / (mean calibration time), with one
# calibration sample taken after every CAL_EVERY_S of operation time.
CAL_REF_S = 0.014
CAL_EVERY_S = 0.2


def calibrate():
    """Time one fixed piece of pure-Python work: Fraction and integer
    arithmetic and dict updates, the library's kinds of work."""
    t0 = perf_counter()
    acc, x, d = Fraction(0), 0, {}
    for i in range(1, 1500):
        acc += Fraction(i, i + 7)
        x = (x * 31 + i) % 1000003
    for i in range(20000):
        d[i % 977] = d.get(i % 977, 0) + i
    elapsed = perf_counter() - t0
    if acc <= 0 or len(d) != 977:
        raise AssertionError("calibration work was not done")
    return elapsed


def _purge_package():
    for name in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
        del sys.modules[name]


def setup(paths):
    """Import the package and parse the instance files; returns (seconds at
    the reference speed, graphs)."""
    _purge_package()
    before = calibrate()
    t0 = perf_counter()
    importlib.import_module(f"{PKG}.cli")
    parse = sys.modules[f"{PKG}.colored_graph"].parse_graph
    graphs = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            graphs[path] = parse(fh.read())
    elapsed = perf_counter() - t0
    return elapsed * 2 * CAL_REF_S / (before + calibrate()), graphs


class Runner:
    """Runs operations, times them, checks their outputs and tallies."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.traced = False
        self.cli = sys.modules[f"{PKG}.cli"]
        self.sparsity = sys.modules[f"{PKG}.sparsity"]
        self.stats = {False: defaultdict(list), True: defaultdict(list)}
        self.cal = {False: [], True: []}
        self._since_cal = CAL_EVERY_S
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._verified = {}
        self._directions = {}

    def directions(self, graph, seed):
        """The directions ``realize --seed`` uses, for checking its output."""
        key = (id(graph), seed)
        if key not in self._directions:
            rz = sys.modules[f"{PKG}.realization"]
            self._directions[key] = rz.random_directions(graph, seed, int(BOUND))
        return self._directions[key]

    def _timed(self, cmd, fn):
        if self.traced:
            self.tracer.begin_op(cmd)
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as ex:  # a crash is a failed operation, not a crashed run
            result = ex
        t1 = perf_counter()
        if self.traced:
            self.tracer.end_op(t0, t1)
        self.stats[self.traced][cmd].append(t1 - t0)
        self.attempted += 1
        self._since_cal += t1 - t0
        if self._since_cal >= CAL_EVERY_S:
            self._since_cal = 0.0
            self.cal[self.traced].append(calibrate())
        return result

    def speed(self, traced):
        """Factor from raw seconds to seconds at the reference speed."""
        return CAL_REF_S / statistics.fmean(self.cal[traced])

    def _tally(self, key, ok, detail):
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{key}: {detail}"[:300])

    def cli_op(self, key, cmd, argv, check, out_file=None):
        """One CLI command; ``check(code, payload_or_text)`` runs on new outputs."""
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    return self.cli.main(argv)
                except SystemExit as ex:
                    return ex.code

        code = self._timed(cmd, call)
        text = buf.getvalue()
        if isinstance(code, Exception):
            return self._tally(key, False, repr(code))
        fingerprint = (code, text)
        if out_file is not None:
            try:
                with open(out_file, "rb") as fh:
                    svg = fh.read()
            except OSError:
                svg = b""
            fingerprint += (hashlib.sha256(svg).hexdigest(),)
        if self._verified.get(key) == fingerprint:
            return self._tally(key, True, "")
        try:
            ok = check(code, text) if out_file is None else check(code, text, svg)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as ex:
            ok = False
            text = f"{ex!r} in {text[:200]!r}"
        if ok:
            self._verified[key] = fingerprint
        self._tally(key, ok, f"exit {code}: {text[:200]!r}")

    def query(self, key, graph, edge, expected):
        """One grow step: is basis + edge Laman-sparse?"""
        holder = []

        def call():
            g2 = graph.with_edge(edge[0], edge[1], edge[2:])
            holder.append(g2)
            return self.sparsity.is_laman_sparse(g2)

        result = self._timed("query", call)
        self._tally(key, result is expected, f"got {result!r}, expected {expected}")
        return holder[0] if holder else graph


# ---------------------------------------------------------------------------
# Workloads: each builds one task per instance.
# ---------------------------------------------------------------------------


def _json_check(expect_code, pred):
    def check(code, text):
        return code == expect_code and pred(json.loads(text))
    return check


def certify_tasks(inst, tmp, files):
    tasks = []
    for i, b in enumerate(inst.bases):
        path = os.path.join(tmp, f"base{i}.graph")
        files[path] = graph_text(b.k, b.n, b.edges)
        svg = os.path.join(tmp, f"base{i}.svg")
        seed = str(b.cli_seed)
        target = laman_target(b.k, b.n)
        points = (2 * RADIUS + 1) ** 2 * b.k * b.n
        segments = (2 * RADIUS + 1) ** 2 * b.k * len(b.edges)

        def render_check(code, text, data, svg=svg, points=points, segments=segments):
            return (code == 0
                    and text.strip() == f"wrote {svg}: {points} points, {segments} segments"
                    and data.count(b"<circle") == points and data.count(b"<line") == segments)

        def task(run, graphs, b=b, i=i, path=path, svg=svg, seed=seed, target=target,
                 render_check=render_check):
            directions = run.directions(graphs[path], b.cli_seed)
            run.cli_op((i, "check"), "check", ["check", path, "--json"],
                       _json_check(0, lambda p: p["decision"] is True and p["target_edges"] == target))
            run.cli_op((i, "realize"), "realize", ["realize", path, "--seed", seed, "--bound", BOUND, "--json"],
                       _json_check(0, lambda p: p["faithful"] is True and checks.realization_ok(
                           b.k, b.n, b.edges, directions, p)))
            run.cli_op((i, "rank"), "rank", ["rank", path, "--seed", seed, "--bound", BOUND, "--json"],
                       _json_check(0, lambda p: p["verdict"] == "MINIMALLY-RIGID"
                                   and p["rank"] == p["target"] == p["m"] == target))
            run.cli_op((i, "render"), "render",
                       ["render", path, "--out", svg, "--seed", seed, "--bound", BOUND, "--radius", str(RADIUS)],
                       render_check, out_file=svg)

        tasks.append(task)
    return tasks


def diagnose_tasks(inst, tmp, files):
    tasks = []
    for i, b in enumerate(inst.bases):
        over = os.path.join(tmp, f"over{i}.graph")
        under = os.path.join(tmp, f"under{i}.graph")
        files[over] = graph_text(b.k, b.n, b.over)
        files[under] = graph_text(b.k, b.n, b.under)
        seed = str(b.cli_seed)
        circuit = sorted(b.circuit)
        under_dim = ncols(b.k, b.n) - len(b.under)

        def task(run, graphs, b=b, i=i, over=over, under=under, seed=seed, circuit=circuit,
                 under_dim=under_dim):
            run.cli_op((i, "over-check"), "check", ["check", over, "--json"],
                       _json_check(1, lambda p: p["decision"] is False
                                   and checks.circuit_of(p) == circuit))
            run.cli_op((i, "over-22"), "check", ["check", over, "--family", "22", "--json"],
                       _json_check(0, lambda p: p["decision"] is True and checks.partition_ok(
                           b.k, b.n, b.over, p["partition"])))
            run.cli_op((i, "over-realize"), "realize", ["realize", over, "--seed", seed, "--bound", BOUND, "--json"],
                       _json_check(1, lambda p: p["faithful"] is False and p["kernel_dim"] == 0
                                   and checks.circuit_of(p) == circuit))
            run.cli_op((i, "under-check"), "check", ["check", under, "--json"],
                       _json_check(1, lambda p: p["decision"] is False and p["circuit"] is None))
            run.cli_op((i, "under-realize"), "realize", ["realize", under, "--seed", seed, "--bound", BOUND, "--json"],
                       _json_check(1, lambda p: p["faithful"] is False
                                   and p["kernel_dim"] == under_dim and p["circuit"] is None))

        tasks.append(task)
    return tasks


def grow_tasks(inst, tmp, files):
    tasks = []
    for i, s in enumerate(inst.streams):
        path = os.path.join(tmp, f"empty{i}.graph")
        files[path] = graph_text(s.k, s.n, [])

        def task(run, graphs, s=s, i=i, path=path):
            # The basis follows the reference decisions, so every query has
            # the same input on every commit, right or wrong.
            basis = graphs[path]
            for j, (edge, accept) in enumerate(zip(s.candidates, s.accept)):
                grown = run.query((i, j), basis, edge, accept)
                if accept:
                    basis = grown

        tasks.append(task)
    return tasks


WORKLOADS = {"certify": certify_tasks, "diagnose": diagnose_tasks, "grow": grow_tasks}


def measure(run, tasks, graphs, seconds, trace):
    """Whole cycles until the next one is not expected to fit.  With
    ``trace`` each round runs untraced, then traced."""
    cycles = 0
    busy = 0.0
    while True:
        for start in range(0, len(tasks), len(KS)):
            for traced in (False, True) if trace else (False,):
                run.traced = traced
                if traced:
                    run.tracer.install()
                before = sum(sum(v) for v in run.stats[traced].values())
                try:
                    for task in tasks[start:start + len(KS)]:
                        task(run, graphs)
                finally:
                    if traced:
                        run.tracer.uninstall()
                busy += sum(sum(v) for v in run.stats[traced].values()) - before
        cycles += 1
        if busy + busy / cycles > seconds:
            return cycles


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def _dist(samples):
    xs = sorted(samples)
    if not xs:
        return {"count": 0}
    q = lambda f: xs[min(len(xs) - 1, int(f * len(xs)))]  # noqa: E731
    return {"count": len(xs), "mean_s": statistics.fmean(xs), "p50_s": q(0.5), "p90_s": q(0.9),
            "max_s": xs[-1]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / PKG / "__init__.py").is_file():
        print(f"error: no {PKG} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    schedule = [(k, SIZES[args.workload]) for k in KS] * ROUNDS[args.workload]
    inst = make_instances(args.workload, args.seed, schedule)
    digest = inst.digest()
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        files = {}
        tasks = WORKLOADS[args.workload](inst, tmp, files)
        for path, text in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, graphs = setup(list(files))
            setups.append(seconds)
        pkg = sys.modules[PKG]
        if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported {pkg.__file__}, not the checkout's sources", file=sys.stderr)
            return 2
        run = Runner(tracing.Tracer(PKG))
        cycles = measure(run, tasks, graphs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = run.stats[False]
    u_ops = sum(len(v) for v in untraced.values())
    u_busy = sum(sum(v) for v in untraced.values()) * run.speed(False)
    meta = {
        "workload": args.workload, "seed": args.seed, "instance_digest": digest,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "src_lines": _src_lines(),
        "seconds": args.seconds, "trace": args.trace, "cycles": cycles,
        "rounds": ROUNDS[args.workload],
        "n": SIZES[args.workload], "k": KS,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    summary = {f"{c}_mean_s": statistics.fmean(v) * run.speed(False)
               for c, v in sorted(untraced.items())}
    summary["fail_ratio"] = run.failed / max(run.attempted, 1)
    summary["speed_factor"] = run.speed(False)
    summary["raw_ops_per_s"] = u_ops / sum(sum(v) for v in untraced.values())
    print("summary " + json.dumps(summary, sort_keys=True))
    for name, value in sorted(summary.items()):
        unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "ratio"
        print(f"  {name:38s} {value:.6g} {unit}  (not gated)")
    for err in run.errors:
        print("failed " + err, file=sys.stderr)

    if args.trace:
        traced = run.stats[True]
        t_ops = sum(len(v) for v in traced.values())
        t_busy = sum(sum(v) for v in traced.values()) * run.speed(True)
        speed = run.speed(True)
        metrics = {k: (v * speed if k.endswith("_s") else v, _unit(k))
                   for k, v in tracing.layer_metrics(run.tracer, t_ops).items()}
        overhead = 1.0 - (t_ops / t_busy) / (u_ops / u_busy)
        metrics["trace.overhead"] = (overhead, "ratio")
        for name in run.tracer.missing:
            print(f"missing wrapped name {name}: its metrics are not reported", file=sys.stderr)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "latency": {c: _dist([x * run.speed(False) for x in v])
                                   for c, v in untraced.items()},
                       "counters": dict(run.tracer.counters),
                       "span_fields": ["op", "parent", "name", "start", "end", "extra"],
                       "spans": run.tracer.spans,
                       "layer_metrics": {k: list(v) + list(tracing.LAYER_METRICS.get(k, ()))
                                         for k, v in metrics.items()}}, fh)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (u_ops / u_busy, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s/op"
    return "1/op"


if __name__ == "__main__":
    sys.exit(main())
