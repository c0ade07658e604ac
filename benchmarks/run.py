"""noisebudget benchmark: times the CLI end to end, checks every output, and
in a separate traced run splits the time across the package's modules.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  The load is a closed loop with one client: each CLI child runs to
completion before the next starts.  With --trace 0 the run repeats the
workload for S seconds and prints the end-to-end metrics (see reported);
with --trace 1 it runs the workload once untraced, then replays all four
pipelines in one traced process (replay.py) and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Records and spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
IMPORTTIME_SAMPLES = 3
# The host is shared: other tenants slow it by tens of percent, in phases of
# seconds to minutes, and a run's own median cannot remove a phase that lasts
# the whole run.  So each step of a run also times reference.py, a fixed load
# that uses nothing from noisebudget, just before the workload, and each time
# is taken relative to the reference of its step.  The timings are reported in
# seconds on a host on which reference.py takes REFERENCE_S, about its time on
# the quiet 2-core machine the baseline in README.md was measured on.
REFERENCE_S = 0.55


def scaled(times, reference) -> float:
    """Median over a run's steps of time / reference time, in seconds at
    REFERENCE_S."""
    return REFERENCE_S * statistics.median(t / r for t, r in zip(times, reference))


def reported(samples: dict, rows: int) -> dict:
    """The end-to-end metrics of a --trace 0 run, from its samples."""
    ref = samples["reference_s"]
    wall = scaled(samples["wall_s"], ref)
    return {
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "cpu_s": scaled(samples["cpu_s"], ref),
        "setup_s": scaled(samples["setup_s"], ref),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }


THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class Child:
    """One finished child: wall and CPU seconds, peak RSS, exit code, stderr."""

    def __init__(self, result: dict, stderr_path):
        self.wall, self.cpu, self.code = result["wall"], result["cpu"], result["code"]
        self.rss_mb = result["rss_kb"] / 1024.0  # ru_maxrss is in KiB on Linux
        self.stderr = Path(stderr_path).read_text(errors="replace")[-2000:]


class Spawner:
    """The spawn.py process, which runs and measures every child."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, stderr_path) -> Child:
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawn.py exited with code {self.proc.wait()}")
        return Child(json.loads(line), stderr_path)

    def close(self):
        """Stop the spawner, and with it any child still running."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def cli(*args) -> list:
    return [sys.executable, "-m", "noisebudget.cli", *args]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # children reuse cached bytecode, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def quartiles(values) -> dict:
    values = sorted(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit():
    """HEAD of the checkout, read without running git; None outside a clone."""
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


def run_record() -> dict:
    import numpy as np
    import scipy

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    src_lines = {
        path.stem: len(path.read_text().splitlines())
        for path in sorted((SRC / "noisebudget").glob("*.py"))
    }
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
        "src_lines": src_lines,
        "src_lines_total": sum(src_lines.values()),
        "load": "closed loop, one client, one CLI child at a time",
    }


def clear_outputs(plan):
    directory = Path(plan["dir"])
    for path in directory.iterdir():
        if path.suffix in (".csv", ".jsonl", ".json") and path.stem not in ("red", "blue"):
            path.unlink()


def run_workload(plan, spawner, check) -> dict:
    """One repetition: every CLI child of the workload in turn, then the
    checks (outside the timed span)."""
    clear_outputs(plan)
    children = [
        (op, spawner.run(cli(*argv), Path(plan["dir"]) / "stderr.txt"))
        for op, argv in plan["commands"]
    ]
    failures, failed = [], 0
    for op, child in children:
        if child.code != 0:
            op_failures = [f"{op}: exit code {child.code}: {child.stderr.strip()}"]
        else:
            op_failures = check.check_operation(plan, op)
        failures += op_failures
        failed += bool(op_failures)
    return {
        "wall": sum(c.wall for _, c in children),
        "cpu": sum(c.cpu for _, c in children),
        "rss_mb": max(c.rss_mb for _, c in children),
        "attempted": len(children),
        "failed": failed,
        "failures": failures,
    }


def importtime(env) -> dict:
    """Cumulative import seconds of noisebudget and scipy.optimize in a
    fresh interpreter, from python -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import noisebudget"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    found = {}
    for line in proc.stderr.splitlines():
        parts = [part.strip() for part in line.split("|")]
        if len(parts) == 3 and parts[2] in ("noisebudget", "scipy.optimize"):
            found[parts[2]] = int(parts[1]) / 1e6
    return found


def self_times(spans) -> dict:
    """(workload, layer) -> self seconds over the import span and the replay
    trees.  A span's layer is its name's first dotted part ("bench" for the
    replay root itself); its self time excludes its children."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        root = s
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        if root["name"] == "probes":
            continue
        layer = "bench" if s["name"] == "replay" else s["name"].split(".")[0]
        key = (s["workload"] or "(shared)", layer)
        out[key] = out.get(key, 0.0) + s["end"] - s["start"] - children.get(s["id"], 0.0)
    return out


def span_sum(spans, workload, name, under=None) -> tuple:
    """(seconds, calls) over spans of one name and workload, optionally only
    those whose parent is named under."""
    by_id = {s["id"]: s for s in spans}
    picked = [
        s for s in spans
        if s["name"] == name and s["workload"] == workload
        and (under is None or (s["parent"] is not None and by_id[s["parent"]]["name"] == under))
    ]
    return sum(s["end"] - s["start"] for s in picked), sum(s["calls"] for s in picked)


def traced_metrics(workload, plans, env, spawner, wall, check, work) -> tuple:
    """Per-layer metrics, the report lines and the failures of the replay."""
    plans_path, spans_path = work / "plans.json", work / "spans.json"
    plans_path.write_text(json.dumps(plans))
    child = spawner.run(
        [sys.executable, str(BENCH_DIR / "replay.py"), "--plans", str(plans_path),
         "--workload", workload, "--spans", str(spans_path)],
        work / "replay.stderr.txt",
    )
    if child.code != 0:
        return None, [], [f"replay: exit code {child.code}: {child.stderr.strip()}"]
    traced = json.loads(spans_path.read_text())
    spans = traced["spans"]
    failures = check.check_sweep(plans["sweep-stitched"]) + check.check_limits(plans["limits-jsonl"])
    if traced["limits_exit"] != 0:
        failures.append(f"replay limits: cli.main returned {traced['limits_exit']}")
    for fig_id, _ in plans["figures-cli"]["commands"]:
        failures += check.check_figure(plans["figures-cli"], fig_id)
    cal = traced["calibrate"]
    failures += check.calibrate_failures(cal["n_th"], cal["gamma_fit_hz"])

    def probe(name, wl) -> tuple:
        """(seconds, microseconds per call) of a probe."""
        seconds, calls = span_sum(spans, wl, name, "probes")
        return seconds, 1e6 * seconds / calls

    st, lim, fig, calw = "sweep-stitched", "limits-jsonl", "figures-cli", "calibrate-sidebands"
    imports = [importtime(env) for _ in range(IMPORTTIME_SAMPLES)]
    import_s, _ = span_sum(spans, None, "import.noisebudget")
    total = import_s + span_sum(spans, workload, "replay")[0]
    run_sweep_s, _ = span_sum(spans, st, "sweep.run_sweep", "replay")
    read_s, _ = span_sum(spans, calw, "calibration.read_spectrum_csv", "replay")
    fit_s, _ = span_sum(spans, calw, "calibration.fit_sidebands", "replay")
    figure_s, _ = span_sum(spans, fig, "figures.reproduce_figure", "replay")
    figure_emit_s, _ = span_sum(spans, fig, "sweep.emit_table", "replay")
    limits_main_s, _ = span_sum(spans, lim, "cli.main", "replay")
    fixed_s, fixed_us = probe("limits.fixed_angle_spectrum", st)
    stitch_s, stitch_us = probe("limits.stitch_quadratures", st)
    psd_s, psd_us = probe("spectra.displacement_psd", st)
    _, parse_us = probe("sweep.parse_config", st)
    _, sql_ql_us = probe("limits.sql_ql", lim)
    limits_emit_s, jsonl_us = probe("sweep.emit_table_jsonl", lim)
    jsonl_bytes = next(s["bytes"] for s in spans if s["name"] == "sweep.emit_table_jsonl")
    # the evaluation cli.main wraps on limits-jsonl, from the probe at its size
    limits_sql_ql_s = 1e-6 * sql_ql_us * plans[lim]["rows"] / 2

    # share of the untraced wall time spent in the layer each workload was
    # chosen to stress
    dominant = {
        st: ("evaluation (sweep.run_sweep)", run_sweep_s),
        lim: ("table building and output (cli.main minus its sql/ql evaluation)",
              limits_main_s - limits_sql_ql_s),
        fig: ("start-up (wall minus in-process reproduce_figure and emit_table)",
              wall - figure_s - figure_emit_s),
        calw: ("read_spectrum_csv + fit_sidebands + import", read_s + fit_s + import_s),
    }[workload]
    metrics = {
        "import.noisebudget_s": (statistics.median(i["noisebudget"] for i in imports), "s"),
        "import.scipy_optimize_s": (statistics.median(i["scipy.optimize"] for i in imports), "s"),
        "cli.main_s": (span_sum(spans, workload, "cli.main")[0], "s"),
        "sweep.parse_config_us": (parse_us, "us"),
        "sweep.run_sweep_us_per_row": (1e6 * run_sweep_s / plans[st]["rows"], "us/row"),
        "limits.fixed_angle_spectrum_us_per_point": (fixed_us, "us/point"),
        "limits.stitch_quadratures_us_per_point": (stitch_us, "us/point"),
        "spectra.displacement_psd_us_per_call": (psd_us, "us/call"),
        "limits.sql_ql_us_per_point": (sql_ql_us, "us/point"),
        "sweep.emit_table_csv_us_per_row": (
            1e6 * span_sum(spans, st, "sweep.emit_table", "replay")[0] / plans[st]["rows"], "us/row"),
        "sweep.emit_table_jsonl_us_per_row": (jsonl_us, "us/row"),
        "sweep.bytes_per_row": (jsonl_bytes / plans[lim]["rows"], "bytes/row"),
        "figures.reproduce_figure_ms": (1e3 * figure_s, "ms"),
        "figures.rows": (check.count_figure_rows(plans[fig]), "count"),
        "calibration.read_spectrum_csv_us_per_sample": (1e6 * read_s / plans[calw]["rows"], "us/sample"),
        "calibration.fit_sidebands_ms": (1e3 * fit_s, "ms"),
        "calibration.n_th_rel_err": (abs(cal["n_th"] / check.SIDEBANDS["n_th"] - 1.0), "fraction"),
        "trace.replay_s": (total, "s"),
        "trace.gap_s": (wall - total, "s"),
        "trace.dominant_share": (dominant[1] / wall, "fraction"),
    }
    report = [
        f"traced total for {workload} (import + replay): {total:.4f} s; untraced wall "
        f"{wall:.4f} s; gap (start-up and tracing overhead) {wall - total:.4f} s",
        f"dominant share of untraced wall, {dominant[0]}: {dominant[1] / wall:.3f}",
        "self time per layer in the traced replays (s):",
    ]
    report += [f"  {wl:20s} {layer:12s} {sec:9.4f}"
               for (wl, layer), sec in sorted(self_times(spans).items())]
    report += [
        f"split of sweep.run_sweep on {st} from the probes (s): "
        f"limits.fixed_angle_spectrum {fixed_s:.4f}, limits.stitch_quadratures {stitch_s:.4f}, "
        f"spectra.displacement_psd {psd_s:.4f}, "
        f"sweep rows and sort (rest) {run_sweep_s - fixed_s - stitch_s - psd_s:.4f}",
        f"split of cli.main on {lim} from the probes (s): limits.sql_ql {limits_sql_ql_s:.4f}, "
        f"sweep.emit_table jsonl {limits_emit_s:.4f}, "
        f"cli row building and the rest {limits_main_s - limits_sql_ql_s - limits_emit_s:.4f}",
    ]
    OUT_DIR.joinpath(f"spans-{workload}-seed{plans[workload]['seed']}.json").write_text(
        json.dumps(traced))
    return metrics, report, failures


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "noisebudget" / "__init__.py").is_file():
        print(f"error: no noisebudget package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    spawner = Spawner(env)
    try:
        # an untimed start, which warms the file cache and shows that the
        # program starts at all
        first = spawner.run(cli("--version"), work / "stderr.txt")
        if first.code != 0:
            print(f"error: noisebudget does not start: {first.stderr.strip()}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        import check

        names = workloads.WORKLOADS if args.trace else (args.workload,)
        plans = {}
        for name in names:
            plan = workloads.generate(name, args.seed, work / name)
            plan["commands"] = workloads.commands(plan)
            plans[name] = plan
        plan = plans[args.workload]
        record = run_record()

        # each step is one set-up sample (a fresh interpreter, package import
        # and argparse, the fixed cost of every command) and one repetition of
        # the workload, so both are sampled over the whole run; steps repeat
        # while the measured time, plus one more median step, stays within
        # --seconds.  The traced run measures one step.
        setup, refs, reps, steps = [], [], [], []
        while not reps or (
            not args.trace and sum(steps) + statistics.median(steps) <= args.seconds
        ):
            setup.append(spawner.run(cli("--version"), work / "stderr.txt"))
            refs.append(spawner.run([sys.executable, str(BENCH_DIR / "reference.py")],
                                    work / "stderr.txt"))
            reps.append(run_workload(plan, spawner, check))
            steps.append(setup[-1].wall + refs[-1].wall + reps[-1]["wall"])
        walls = [r["wall"] for r in reps]
        samples = {
            "wall_s": walls,
            "rows_per_s": [plan["rows"] / w for w in walls],
            "cpu_s": [r["cpu"] for r in reps],
            "setup_s": [c.wall for c in setup],
            "peak_rss_mb": [r["rss_mb"] for r in reps],
            "reference_s": [c.wall for c in refs],
        }
        units = {"wall_s": "s", "rows_per_s": "rows/s", "cpu_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB", "reference_s": "s"}
        attempted = sum(r["attempted"] for r in reps) + len(setup)
        failures = [f for r in reps for f in r["failures"]]
        failures += [f"setup: exit code {c.code}: {c.stderr.strip()}" for c in setup if c.code]
        failed = sum(r["failed"] for r in reps) + sum(c.code != 0 for c in setup)
        if any(c.code != 0 for c in refs):
            failures.append(f"reference.py failed: {refs[0].stderr.strip()}")
        report = []
        if args.trace:
            layer_metrics, report, replay_failures = traced_metrics(
                args.workload, plans, env, spawner, statistics.median(walls), check, work)
            attempted += 1
            failed += bool(replay_failures)
            failures += replay_failures
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in (layer_metrics or {}).items()}
        else:
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in reported(samples, plan["rows"]).items()}

        print(f"noisebudget benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("record: " + json.dumps(record, sort_keys=True))
        for name, values in samples.items():
            q = quartiles(values)
            print(f"{name}: median {q['median']:.6g} q1 {q['q1']:.6g} q3 {q['q3']:.6g} "
                  f"min {min(values):.6g} max {max(values):.6g} n={q['n']} {units[name]}")
        print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4g}")
        for line in report + [f"FAILED {f}" for f in failures]:
            print(line)
        OUT_DIR.joinpath(f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"record": record, "samples": samples, "metrics": metrics,
                        "failures": failures}, indent=1))
        print(json.dumps({
            "correct": not failures and len(metrics) > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
