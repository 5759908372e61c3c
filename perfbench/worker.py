"""Run one benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --src DIR --out-dir DIR

Prints one JSON line: the workload's outputs (for the caller to check
against scipy), the operations that failed, the timings or, with
``--trace 1``, the per-layer metrics, and ``ru_maxrss``.  It imports the
library and the standard library only, so the memory it reports is the
library's plus a little bookkeeping.

Each workload is a closed loop from one caller on one thread.  A pass
runs the workload's fixed operation set once.  One untimed warm-up pass
collects the outputs; then passes repeat until ``--seconds`` have passed
and the tail percentile has enough samples.

With ``--trace 1`` the untraced passes give the baseline wall time, then
exactly one pass runs with every public library function wrapped in a
span, so span counts repeat exactly for a seed.  The traced pass of
point_sweep covers only the first TRACE_POINTS points of the pool, which
keeps the span arrays small.  Peak allocation is then measured with
tracemalloc on a few oracle calls; tracemalloc slows the series method
about thirty-fold, so it is never on while anything is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from array import array
from typing import NamedTuple

import inputs
import stats
import tracer as tr

POINT_POOL = 2000
TRACE_POINTS = 300
BOUND_BATCH = 2000
MIN_PASSES = 3
# latency percentile reported as op_tail_us; p99 needs 1000 samples, so
# the workloads with few, long operations per pass report p90
TAIL_Q = {"paper_repro": 90, "point_sweep": 99, "large_arg": 90, "bound_sweep": 99}
# tracemalloc probes: oracle calls with a at most this, at most this many
PROBE_MAX_A = 1000.0
PROBES = 16

clock = time.perf_counter_ns


class Recorder:
    """Times operations, keeps the first failure of each, and samples the
    host's speed between operations.

    Latencies go to one of two series: "op", the operations whose
    latency distribution is reported, and "scan", bound_sweep's scans.
    """

    def __init__(self) -> None:
        self.lat = {"op": array("q"), "scan": array("q")}
        # index of the last calibration sample taken before each operation
        self.cal_at = {"op": array("l"), "scan": array("l")}
        self.failed: dict[str, str] = {}
        self.cal = stats.Calibrator(clock)
        self.cal.sample()

    def call(self, key: str, fn, *args, series: str = "op"):
        # _run is separate so that a traced pass can wrap it in the root
        # span, which then leaves out the calibration loop
        try:
            return self._run(key, fn, args, series)
        finally:
            self.cal.tick()

    def _run(self, key: str, fn, args: tuple, series: str):
        self.cal_at[series].append(len(self.cal.samples) - 1)
        t0 = clock()
        try:
            return fn(*args)
        except Exception as exc:  # an operation failure is a result, not a crash
            self.failed.setdefault(key, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.lat[series].append(clock() - t0)

    def reset(self) -> None:
        for series in self.lat:
            self.lat[series] = array("q")
            self.cal_at[series] = array("l")

    def rescaled(self, series: str) -> array:
        """Latencies of ``series``, each rescaled by the calibration samples
        taken just before and just after it."""
        s, at = self.cal.samples, self.cal_at[series]
        ref = 2.0 * stats.CAL_REF_NS
        return array("d", (ns * ref / (s[at[j]] + s[at[j] + 1]) for j, ns in enumerate(self.lat[series])))


def _cli(argv: list[str]) -> tuple[int, str]:
    from marcumq import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, buf.getvalue()


def _read_csv_exact(path: str) -> list[tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [(float(row["b"]), float(row["exact"])) for row in csv.DictReader(fh)]


class PaperRepro:
    """The 21 CLI commands of the wrapper scripts and the README."""

    pass_series = "op"

    def __init__(self, seed: int, out_dir: str, traced: bool) -> None:
        self.out_dir = os.path.join(out_dir, f"repro-{os.getpid()}")
        os.makedirs(self.out_dir, exist_ok=True)
        self.cmds = inputs.repro_commands(seed, self.out_dir)
        self.ops = len(self.cmds)
        self.results: dict[str, tuple[int, str]] = {}

    def run_pass(self, rec: Recorder, keep: bool) -> None:
        for label, argv, _ in self.cmds:
            r = rec.call(label, _cli, argv)
            if keep and r is not None:
                self.results[label] = r

    def outputs(self) -> dict:
        rc, sha, exact, bytes_out = {}, {}, {}, 0
        for label, argv, a in self.cmds:
            if label not in self.results:
                continue
            rc[label], text = self.results[label]
            data = text.encode()
            if "--out" in argv:
                path = argv[argv.index("--out") + 1]
                with open(path, "rb") as fh:
                    data += fh.read()
                if a is not None:
                    exact[label] = [(a, b, q) for b, q in _read_csv_exact(path)]
            sha[label] = hashlib.sha256(data).hexdigest()
            bytes_out += len(data)
        return {"rc": rc, "sha256": sha, "exact": exact, "bytes_out": bytes_out}

    def close(self) -> None:
        for name in os.listdir(self.out_dir):
            os.remove(os.path.join(self.out_dir, name))
        os.rmdir(self.out_dir)


def _point_op(a: float, b: float):
    from marcumq import bounds, oracle

    args = oracle.QArgs(a, b)
    res = oracle.q1_reference(args)
    evals, _ = bounds.eval_all(args)
    return res.value, [[ev.side, ev.clamped] for ev in evals]


class PointSweep:
    """q1_reference + eval_all at seeded points: `marcumq eval` minus formatting."""

    pass_series = "op"

    def __init__(self, seed: int, out_dir: str, traced: bool) -> None:
        self.points = inputs.draw_points("point_sweep", seed, POINT_POOL)
        if traced:
            self.points = self.points[:TRACE_POINTS]
        self.ops = len(self.points)
        self.results: dict[int, tuple] = {}

    def run_pass(self, rec: Recorder, keep: bool) -> None:
        for i, (a, b) in enumerate(self.points):
            r = rec.call(f"point{i}", _point_op, a, b)
            if keep and r is not None:
                self.results[i] = r

    def outputs(self) -> dict:
        return {
            "points": self.points,
            "q": [self.results[i][0] if i in self.results else None for i in range(self.ops)],
            "bounds": [self.results[i][1] if i in self.results else [] for i in range(self.ops)],
        }

    def close(self) -> None:
        pass


def _oracle_value(a: float, b: float) -> float:
    from marcumq import oracle

    return oracle.q1_reference(oracle.QArgs(a, b)).value


class LargeArg(PointSweep):
    """q1_reference alone at the twelve large-argument points."""

    def __init__(self, seed: int, out_dir: str, traced: bool) -> None:
        self.points = inputs.large_points(seed)
        self.ops = len(self.points)
        self.results = {}

    def run_pass(self, rec: Recorder, keep: bool) -> None:
        for i, (a, b) in enumerate(self.points):
            r = rec.call(f"point{i}", _oracle_value, a, b)
            if keep and r is not None:
                self.results[i] = (r, [])


def _scan(name: str):
    """One oracle-free certification scan with the CLI's default grid."""
    from marcumq import analysis as an

    if name == "g_negative":
        return an.scan_g_negative(1e-3, 700.0, 10000)
    if name in ("f_dec_eq2", "f_inc_sinh"):
        return an.scan_f_ratio_monotone(name, 1e-3, 700.0, 10000)
    if name == "chain_eq6":
        return an.scan_shifted_exp_chain(1.0, 3.0, an.log_grid(1.5, 51.0, 100))
    if name == "envelope":
        return an.scan_envelope_ordering(10.0, 8.0, 500)
    return an.scan_jp_dominance(b_per_a=50)


def _bounds_op(a: float, b: float):
    from marcumq import bounds, oracle

    evals, _ = bounds.eval_all(oracle.QArgs(a, b))
    return [[ev.side, ev.clamped] for ev in evals]


class BoundSweep:
    """eval_all alone at seeded points, then the six oracle-free scans.

    Operations (and their latencies) are the eval_all calls; the pass
    time is the time of the six scans.
    """

    pass_series = "scan"

    def __init__(self, seed: int, out_dir: str, traced: bool) -> None:
        self.points = inputs.draw_points("bound_sweep", seed, BOUND_BATCH)
        self.ops = len(self.points) + len(inputs.ORACLE_FREE_SCANS)
        self.results: dict[int, list] = {}
        self.scans: dict[str, bool] = {}

    def run_pass(self, rec: Recorder, keep: bool) -> None:
        for i, (a, b) in enumerate(self.points):
            r = rec.call(f"point{i}", _bounds_op, a, b)
            if keep and r is not None:
                self.results[i] = r
        for name in inputs.ORACLE_FREE_SCANS:
            rep = rec.call(f"scan_{name}", _scan, name, series="scan")
            if keep and rep is not None:
                self.scans[name] = bool(rep.passed)

    def outputs(self) -> dict:
        return {
            "points": self.points,
            "bounds": [self.results.get(i, []) for i in range(len(self.points))],
            "scan_passed": self.scans,
        }

    def close(self) -> None:
        pass


WORKLOAD_CLASSES = {
    "paper_repro": PaperRepro,
    "point_sweep": PointSweep,
    "large_arg": LargeArg,
    "bound_sweep": BoundSweep,
}


class Pass(NamedTuple):
    """One timed pass; times rescaled to the reference host speed."""

    op_ns: array  # latency of each operation
    pass_ns: float  # the workload's pass series, summed
    work_ns: float  # every operation, summed
    scale: float  # the pass's mean rescaling factor
    raw_pass_ns: int  # pass_ns before rescaling


def _one_pass(wl, rec: Recorder) -> Pass:
    rec.reset()
    c0 = len(rec.cal.samples)
    rec.cal.sample()
    wl.run_pass(rec, keep=False)
    rec.cal.sample()
    lat = {k: rec.rescaled(k) for k in rec.lat}
    return Pass(
        lat["op"], sum(lat[wl.pass_series]), sum(lat["op"]) + sum(lat["scan"]),
        rec.cal.scale(c0), sum(rec.lat[wl.pass_series]),
    )


def _timed_passes(wl, rec: Recorder, seconds: float, min_samples: int) -> list[Pass]:
    """Repeat passes until the time is up and there are enough samples."""
    passes = []
    t_end = clock() + int(seconds * 1e9)
    while True:
        passes.append(_one_pass(wl, rec))
        samples = sum(len(p.op_ns) for p in passes)
        if clock() >= t_end and samples >= min_samples and len(passes) >= MIN_PASSES:
            return passes


def _timing(workload: str, passes: list[Pass]) -> dict:
    """Medians over passes; the tail percentile over every latency of the run.

    The median latency is the median over operations of each operation's
    median over passes.  paper_repro's commands and large_arg's points
    fall in clusters of similar cost, and a median pooled over every
    latency sits on the edge of a cluster, where it jumps from run to run.
    """
    q = TAIL_Q[workload]
    lat_us = [ns / 1e3 for p in passes for ns in p.op_ns]
    per_op = [statistics.median(op) for op in zip(*(p.op_ns for p in passes))]
    return {
        "pass_s": statistics.median([p.pass_ns for p in passes]) / 1e9,
        "ops_per_s": statistics.median([len(p.op_ns) * 1e9 / sum(p.op_ns) for p in passes]),
        "op_p50_us": statistics.median_low(per_op) / 1e3,
        "op_tail_us": stats.percentile(lat_us, q),
        "tail_q": q,
        "samples": len(lat_us),
        "passes": len(passes),
        "scale": statistics.median([p.scale for p in passes]),
        "raw_pass_s": statistics.median([p.raw_pass_ns for p in passes]) / 1e9,
    }


class _ArgLog:
    """Collects the arguments of q1_reference calls."""

    def __init__(self) -> None:
        self.args: list = []

    def wrap(self, _span: str, fn):
        def logged(args, *rest, **kw):
            self.args.append(args)
            return fn(args, *rest, **kw)

        return logged


def _peak_kib(oracle_args: list) -> float:
    """Largest tracemalloc peak of one q1_reference call over the probes."""
    from marcumq import oracle

    eligible = [x for x in oracle_args if x.a <= PROBE_MAX_A]
    if not eligible:
        return 0.0
    step = max(1, len(eligible) // PROBES)
    probes = eligible[::step][:PROBES]
    peak = 0
    tracemalloc.start()
    try:
        for args in probes:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            oracle.q1_reference(args)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def _layer_metrics(
    spans: tr.Tracer, scale: float, traced_ns: float, untraced_ns: float, peak_kib: float, bytes_out: int
) -> dict:
    """Per-layer metrics of the traced pass; span times are rescaled by ``scale``."""
    t = spans.totals()

    def calls(name: str) -> int:
        return t.get(name, (0, 0, 0))[0]

    def self_s(prefix: str) -> float:
        return scale * sum(v[2] for k, v in t.items() if k == prefix or k.startswith(prefix + ".")) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in ("i0e", "i1e", "bessel_plain", "erfcx", "erfc_diff", "erfc_diff_centered", "erf"):
        m[f"specfun.{name}.calls"] = calls(f"specfun.{name}")
    specfun_calls = sum(v[0] for k, v in t.items() if k.startswith("specfun."))
    m["specfun.calls"] = specfun_calls
    m["specfun.self_s"] = self_s("specfun")
    m["specfun.ns_per_call"] = ratio(self_s("specfun") * 1e9, specfun_calls)
    for name in ("q1_reference", "quadrature", "series", "rice_pdf"):
        m[f"oracle.{name}.calls"] = calls(f"oracle.{name}")
    m["oracle.rice_pdf_per_ref"] = ratio(calls("oracle.rice_pdf"), calls("oracle.q1_reference"))
    for name in ("quadrature", "series", "rice_pdf"):
        m[f"oracle.{name}.self_s"] = self_s(f"oracle.{name}")
    m["oracle.peak_kib"] = peak_kib
    for name in ("eval_all", "evaluate", "compute_zeta"):
        m[f"bounds.{name}.calls"] = calls(f"bounds.{name}")
    m["bounds.self_s"] = self_s("bounds")
    eval_all_ns = t.get("bounds.eval_all", (0, 0, 0))[1]
    m["bounds.us_per_eval_all"] = ratio(scale * eval_all_ns / 1e3, calls("bounds.eval_all"))
    for name in ("error_table", "figure_data", "scan"):
        m[f"analysis.{name}.calls"] = calls(f"analysis.{name}")
    for name in ("error_table", "figure_data", "scan"):
        m[f"analysis.{name}.self_s"] = self_s(f"analysis.{name}")
    m["cli.main.calls"] = calls("cli.main")
    m["cli.self_s"] = self_s("cli")
    m["cli.bytes_out"] = bytes_out
    m["trace.spans"] = len(spans)
    m["trace.traced_s"] = traced_ns / 1e9
    m["trace.untraced_s"] = untraced_ns / 1e9
    m["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    wl = WORKLOAD_CLASSES[workload](seed, out_dir, trace)
    try:
        rec = Recorder()
        log = _ArgLog()  # oracle arguments for the tracemalloc probes
        logged = {"oracle.q1_reference": tr.TARGETS["oracle.q1_reference"]} if trace else {}
        with tr.installed(log.wrap, logged):
            wl.run_pass(rec, keep=True)  # warm-up; its outputs are checked
        rec.reset()
        result = {"workload": workload, "seed": seed, "trace": int(trace), "ops": wl.ops}
        if not trace:
            passes = _timed_passes(wl, rec, seconds, stats.min_samples(TAIL_Q[workload]))
            # before the statistics, so that sorting the latencies is not counted
            result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["timing"] = _timing(workload, passes)
        else:
            passes = _timed_passes(wl, rec, seconds, 0)
            untraced_ns = statistics.median([p.work_ns for p in passes])
            spans = tr.Tracer()
            rec._run = spans.wrap("bench.op", rec._run)
            with tr.installed(spans.wrap):
                traced = _one_pass(wl, rec)
            del rec._run
            path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.csv.gz")
            spans.write(path)
            result["spans_file"] = os.path.relpath(path)
        result["outputs"] = wl.outputs()
        result["failed"] = rec.failed
        if trace:
            result["layers"] = _layer_metrics(
                spans, traced.scale, traced.work_ns, untraced_ns, _peak_kib(log.args),
                result["outputs"].get("bytes_out", 0),
            )
        return result
    finally:
        wl.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(WORKLOAD_CLASSES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="directory holding the marcumq package")
    ap.add_argument("--out-dir", required=True)
    ns = ap.parse_args()
    src = os.path.abspath(ns.src)
    sys.path.insert(0, src)
    import marcumq
    import marcumq.cli  # noqa: F401  (loads every module, as `marcumq` the command does)

    if not os.path.abspath(marcumq.__file__).startswith(src + os.sep):
        print(f"error: imported marcumq from {marcumq.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace), ns.out_dir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
