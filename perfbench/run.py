"""marcumq benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
The workload runs in a fresh child interpreter (perfbench/worker.py) so
its ``ru_maxrss`` is its own.  Set-up time is measured separately: the
median import time of ``marcumq`` and ``marcumq.cli`` over several fresh
interpreters.  Correctness is checked here, after the child has
ended, against scipy -- which the library itself never imports.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines above it are a table of every metric under the names the
documentation uses, and one ``{"info": ...}`` line with the seed, the
machine and the sha256 of every paper_repro output.  Traced spans are
written to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import stats  # noqa: E402

# the run must end within this many seconds of starting
DEADLINE_S = 175.0
SETUP_RUNS = 9
OUT_DIR = ".perfbench_out"

# oracle values must match the reference to this absolute error (the
# oracle's stated cross-validation gate) or the check fails
ORACLE_ABS_TOL = 1e-10
# a clamped bound must bracket the reference to within this
BRACKET_TOL = 1e-9
# "accurate" means within this relative error of the reference
REL_TOL = 1e-9

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "accurate_frac": "frac",
    "pass_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
}

# what each generic metric is called on each workload in the documentation
ALIASES = {
    "paper_repro": {"pass_s": "repro_s", "ops_per_s": "commands_per_s", "op_p50_us": "command_p50_us",
                    "op_tail_us": "command_p90_us"},
    "point_sweep": {"pass_s": "point_pass_s", "ops_per_s": "points_per_s", "op_p50_us": "point_p50_us",
                    "op_tail_us": "point_p99_us"},
    "large_arg": {"pass_s": "large_s", "ops_per_s": "large_points_per_s", "op_p50_us": "large_p50_us",
                  "op_tail_us": "large_p90_us"},
    "bound_sweep": {"pass_s": "scan_s", "ops_per_s": "bound_evals_per_s", "op_p50_us": "eval_all_p50_us",
                    "op_tail_us": "eval_all_p99_us"},
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (
        (".calls", "count"),
        ("trace.spans", "count"),
        ("_per_ref", "calls/ref"),
        ("ns_per_call", "ns"),
        ("us_per_eval_all", "us"),
        ("peak_kib", "KiB"),
        ("bytes_out", "B"),
        ("_frac", "frac"),
        ("_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


# run in a fresh interpreter: time the import, then calibrate warm
SETUP_CODE = """
import time
t0 = time.perf_counter_ns()
import marcumq, marcumq.cli
t1 = time.perf_counter_ns()
import statistics, sys
sys.path.insert(0, {here!r})
import stats
cal = stats.Calibrator(time.perf_counter_ns)
for _ in range(5):
    cal.sample()
print(t1 - t0, statistics.median(cal.samples[2:]))
"""


def measure_setup(root: str, src: str, deadline: float) -> tuple[list[float], list[float]]:
    """Import time of marcumq and marcumq.cli in fresh interpreters.

    Each interpreter times its own import, then runs the calibration loop
    five times; the import time is rescaled by the median of the last
    three (the first ones run cold).  Returns the rescaled import times
    and the raw wall times of the whole interpreter run.  Rescaled import
    times spread about 5% from run to run on the host this was built on,
    wall times about 25%: interpreter start-up is not the library's and
    drifts with the host.  One untimed run first, so compiling the
    bytecode cache is not counted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE.format(here=HERE)]
    scaled, wall = [], []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(
            cmd, cwd=root, env=env, check=True, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        t1 = time.perf_counter_ns()
        if i:
            import_ns, cal_ns = map(float, proc.stdout.split())
            scaled.append(import_ns * stats.CAL_REF_NS / cal_ns / 1e9)
            wall.append((t1 - t0) / 1e9)
    return scaled, wall


def tail_series(a, b):
    """Q1(a, b) for b > a > 0 as e^(-(b-a)^2/2) sum_k (a/b)^k ive(k, ab).

    Every term is positive, so no digits cancel, and nothing underflows
    while Q1 itself is a normal double.  numpy arrays in and out.
    """
    import numpy as np
    from scipy.special import ive

    total = np.zeros_like(a)
    for k in range(2000):
        term = (a / b) ** k * ive(k, a * b)
        total += term
        if np.all(term <= 1e-17 * total):
            break
    return np.exp(-0.5 * (b - a) ** 2) * total


def reference_q(points):
    """Q1 at each (a, b) from scipy, independent of the library.

    ``ncx2.sf(b^2, 2, a^2)`` in general and ``exp(-b^2/2)`` at a = 0.
    ncx2.sf underflows to 0 in the deep tail once (a^2 + b^2)/2 passes
    ~745, although Q1 is still a normal double there; those points take
    ``tail_series`` instead.
    """
    import numpy as np
    from scipy.stats import ncx2

    a = np.array([p[0] for p in points], dtype=float)
    b = np.array([p[1] for p in points], dtype=float)
    q = np.exp(-0.5 * b * b)
    pos = a > 0
    q[pos] = ncx2.sf(b[pos] ** 2, 2, a[pos] ** 2)
    tail = pos & (q == 0.0) & (b > a)
    if tail.any():
        q[tail] = tail_series(a[tail], b[tail])
    return q


class Checks:
    """Tally of correctness checks and of accuracy."""

    def __init__(self) -> None:
        self.made = 0
        self.missed: list[str] = []
        self.accurate = 0
        self.rated = 0

    def check(self, ok: bool, what: str) -> None:
        self.made += 1
        if not ok:
            self.missed.append(what)

    def rate(self, ok: bool) -> None:
        self.rated += 1
        self.accurate += bool(ok)

    def oracle(self, value, ref: float, what: str) -> None:
        if value is None:
            return
        self.check(abs(value - ref) <= ORACLE_ABS_TOL, f"{what}: oracle {value!r} vs scipy {ref!r}")
        self.rate(abs(value - ref) <= REL_TOL * ref)

    def brackets(self, bounds, ref: float, what: str, rate: bool) -> None:
        for side, clamped in bounds:
            if side == "upper":
                ok, rel_ok = clamped >= ref - BRACKET_TOL, clamped >= ref * (1.0 - REL_TOL)
            else:
                ok, rel_ok = clamped <= ref + BRACKET_TOL, clamped <= ref * (1.0 + REL_TOL)
            self.check(ok, f"{what}: {side} bound {clamped!r} vs scipy {ref!r}")
            if rate:
                self.rate(rel_ok)


def check_outputs(workload: str, out: dict) -> Checks:
    c = Checks()
    if workload == "paper_repro":
        for label, rc in out["rc"].items():
            c.check(rc == 0, f"{label}: exit code {rc}")
        for label, rows in out["exact"].items():
            refs = reference_q([(a, b) for a, b, _ in rows])
            for (_, b, exact), ref in zip(rows, refs):
                c.oracle(exact, float(ref), f"{label} b={b!r}")
    elif workload in ("point_sweep", "large_arg"):
        refs = reference_q(out["points"])
        for (a, b), q, bounds, ref in zip(out["points"], out["q"], out["bounds"], refs):
            c.oracle(q, float(ref), f"(a={a!r}, b={b!r})")
            c.brackets(bounds, float(ref), f"(a={a!r}, b={b!r})", rate=False)
    else:
        refs = reference_q(out["points"])
        for (a, b), bounds, ref in zip(out["points"], out["bounds"], refs):
            c.brackets(bounds, float(ref), f"(a={a!r}, b={b!r})", rate=True)
        for name in inputs.ORACLE_FREE_SCANS:
            c.check(out["scan_passed"].get(name) is True, f"scan {name} did not pass")
    return c


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one marcumq benchmark workload.")
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "marcumq", "__init__.py")):
        return _fail(f"no src/marcumq package under {root}; run from the root of a checkout")
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)

    try:
        setup, setup_wall = measure_setup(root, src, deadline)
    except subprocess.SubprocessError as exc:
        return _fail(f"importing marcumq failed: {exc}")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", ns.workload, "--seed", str(ns.seed), "--seconds", str(ns.seconds),
        "--trace", str(ns.trace), "--src", src, "--out-dir", out_dir,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return _fail("the workload did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return _fail(f"worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    checks = check_outputs(ns.workload, res["outputs"])
    attempted = res["ops"] + checks.made
    failed = len(res["failed"]) + len(checks.missed)
    error_frac = failed / attempted
    accurate_frac = checks.accurate / checks.rated if checks.rated else 0.0

    if ns.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
        shown = [(k, k) for k in metrics]
    else:
        t = res["timing"]
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["rss_kib"] / 1024.0,
            "ok_frac": 1.0 - error_frac,
            "accurate_frac": accurate_frac,
            "pass_s": t["pass_s"],
            "ops_per_s": t["ops_per_s"],
            "op_p50_us": t["op_p50_us"],
            "op_tail_us": t["op_tail_us"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        alias = ALIASES[ns.workload]
        shown = [(k, alias.get(k, k)) for k in metrics]
    for key, label in shown:
        name = label if label == key else f"{label} ({key})"
        print(f"{name:<40} {metrics[key]['value']:>16.6g} {metrics[key]['unit']}")
    print(f"{'error_frac':<40} {error_frac:>16.6g} frac")

    info = {
        "workload": ns.workload,
        "seed": ns.seed,
        "trace": ns.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "setup_samples_s": setup,
        "setup_wall_s": setup_wall,
        "error_frac": error_frac,
        "accurate": f"{checks.accurate}/{checks.rated}",
        "checks": checks.made,
        "failures": (sorted(res["failed"].items()) + [(m, "") for m in checks.missed])[:10],
    }
    if not ns.trace:
        info["timing"] = {k: res["timing"][k] for k in ("samples", "passes", "tail_q", "scale", "raw_pass_s")}
    if "sha256" in res["outputs"]:
        info["sha256"] = res["outputs"]["sha256"]
    if "spans_file" in res:
        info["spans_file"] = res["spans_file"]
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
