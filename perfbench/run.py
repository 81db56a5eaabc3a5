#!/usr/bin/env python3
"""fluxcomb benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload line-isolation --seed 0 \\
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, so nothing is installed. The operations are drawn from
--seed (see workloads.py). Each pass runs the whole operation list in a
fresh worker process, so every pass starts with cold imports and cold
caches, as a new user session does. Passes repeat until --seconds have
gone by, and every figure is the median over the passes.

With --trace 0 the passes are untimed by any tracer and the end-to-end
metrics are reported: set-up (cold `import fluxcomb, fluxcomb.cli`), wall
time of the operation list, peak RSS, and the failed-operation ratio.
With --trace 1 an untraced pass and a traced pass alternate; the traced
passes give the per-layer metrics, `python -X importtime` in its own
process gives the set-up breakdown, and the tracing overhead is the
traced wall time minus the untraced one.

Every output is checked (checks.py). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload W --seed N --record

runs one pass and records its outputs as the reference for that seed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out"
# a run must end within 180 s; no pass is started that could overrun this
DEADLINE_S = 150.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]

# per-layer metric -> module whose cumulative import time it reports;
# fluxcomb.cli's includes the package, so it is the whole import
SETUP_MODULES = {
    "setup.fluxcomb.line_ms": "fluxcomb.line",
    "setup.fluxcomb.transmon_ms": "fluxcomb.transmon",
    "setup.fluxcomb.budget_ms": "fluxcomb.budget",
    "setup.fluxcomb.nonmarkov_ms": "fluxcomb.nonmarkov",
    "setup.fluxcomb.io_ms": "fluxcomb.io",
    "setup.fluxcomb.cli_ms": "fluxcomb.cli",
    "setup.scipy.signal_ms": "scipy.signal",
    "setup.scipy.optimize_ms": "scipy.optimize",
}

# spans recorded by tracing.instrument; each gives <span>.calls and
# <span>.self_s
SPANS = [
    "line.isolation_report", "line.run_until", "line.record_probe",
    "transmon.flux_curve", "transmon.default_comb_qubits",
    "transmon.diagonalize", "transmon.addressing_map",
    "budget.full_budget", "budget.scalability_sweep",
    "nonmarkov.ramsey", "nonmarkov.hahn_echo", "nonmarkov.synthesize_noise",
    "nonmarkov.evolve_kernel", "nonmarkov.gamma_eff",
    "io.write_csv", "io.write_manifest", "cli.main",
]

COUNTS = [
    ("line.cell_steps", "count"),
    ("transmon.map_points", "count"),
    ("tridiag.eigvals_tridiag.calls", "count"),
    ("nonmarkov.phase_terms", "count"),
    ("nonmarkov.noise_terms", "count"),
    ("io.csv_bytes", "B"),
]

# rate -> (unit, count, spans whose self time the work is done in, scale)
RATES = {
    "line.ns_per_cell_step": ("ns", "line.cell_steps",
                              ("line.isolation_report", "line.run_until",
                               "line.record_probe"), None),
    "transmon.map_points_per_s": ("1/s", "transmon.map_points",
                                  ("transmon.addressing_map",), 1.0),
    "nonmarkov.phase_terms_per_s": ("1/s", "nonmarkov.phase_terms",
                                    ("nonmarkov.ramsey",
                                     "nonmarkov.hahn_echo"), 1.0),
    "nonmarkov.noise_terms_per_s": ("1/s", "nonmarkov.noise_terms",
                                    ("nonmarkov.synthesize_noise",), 1.0),
    "io.csv_mb_per_s": ("MB/s", "io.csv_bytes", ("io.write_csv",), 1e-6),
}


def per_layer_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    table = [(name, "ms", "lower") for name in SETUP_MODULES]
    for span in SPANS:
        table += [(f"{span}.calls", "count", "lower"),
                  (f"{span}.self_s", "s", "lower")]
    table += [(name, unit, "lower") for name, unit in COUNTS]
    table += [(name, spec[0], "lower" if spec[3] is None else "higher")
              for name, spec in RATES.items()]
    table.append(("trace.overhead_s", "s", "lower"))
    return table


def layer_metrics(result: dict) -> dict:
    """Per-layer figures of one traced pass (set-up and overhead aside)."""
    times, counts = result["self_times"], result["counts"]
    out = {}
    for span in SPANS:
        entry = times.get(span, {"calls": 0, "self_s": 0.0})
        out[f"{span}.calls"] = entry["calls"]
        out[f"{span}.self_s"] = entry["self_s"]
    for name, _ in COUNTS:
        out[name] = counts.get(name, 0)
    for name, (_, count, spans, scale) in RATES.items():
        work = counts.get(count, 0)
        busy = sum(out[f"{s}.self_s"] for s in spans)
        if scale is None:          # time per unit of work, in ns
            out[name] = 1e9 * busy / work if work else 0.0
        else:                      # work per second
            out[name] = scale * work / busy if busy > 0 else 0.0
    return out


def import_breakdown(env: dict) -> dict:
    """Cumulative import time [ms] per module, from `python -X importtime`
    in its own fresh process."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fluxcomb.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed:\n{proc.stderr[-2000:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
    return cumulative


class Run:
    """The passes of one benchmark run, their checks and their figures."""

    def __init__(self, workload: str, seed: int, trace: bool, record: bool):
        self.workload, self.seed, self.record = workload, seed, record
        self.ops = workloads.operations(workload, seed)
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.work = WORK / f"{self.tag}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.reference = None
        ref_path = checks.reference_path(workload, seed)
        if not record and ref_path.is_file():
            self.reference = json.loads(ref_path.read_text())
            if self.reference["ops"] != self.ops:
                raise RuntimeError(f"{ref_path.name} was recorded for other "
                                   "inputs; record it again")
        self.attempted = self.failed = 0
        self.errors = []
        self.recorded = []         # reference summaries, with --record
        self.first_outputs = None  # per operation: file hashes or result
        self.passes = []           # worker results, in order
        self.imports = []          # import_breakdown() results
        self.t_start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def one_pass(self, traced: bool):
        k = len(self.passes)
        pass_dir = self.work / f"pass{k}"
        pass_dir.mkdir(parents=True)
        ops = []
        for j, op in enumerate(self.ops):
            if "argv" in op:
                out = pass_dir / f"{j:02d}-{workloads.op_name(op)}"
                op = dict(op, argv=op["argv"] + ["--out", str(out)])
            ops.append(op)
        spec = {"ops": ops, "trace": traced, "run_id": f"{self.tag}-pass{k}",
                "spans_path": str(WORK / "spans" / f"{self.tag}-pass{k}"
                                  ".jsonl")}
        (pass_dir / "spec.json").write_text(json.dumps(spec))
        result_path = pass_dir / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             str(pass_dir / "spec.json"), str(result_path)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(DEADLINE_S + 20.0 - self.elapsed(), 1.0))
        if proc.returncode != 0 or not result_path.is_file():
            raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                               f"{proc.stderr[-3000:]}")
        result = json.loads(result_path.read_text())
        result["traced"] = traced
        self.check(ops, result)
        shutil.rmtree(pass_dir)
        self.passes.append(result)

    def check(self, ops: list, result: dict):
        """Full checks on the run's first pass; later passes must give the
        first pass's outputs again."""
        src = ROOT / "src"
        if not Path(result["environment"]["fluxcomb_file"]).is_relative_to(
                src):
            raise RuntimeError(f"worker imported fluxcomb from outside {src}")
        first = self.first_outputs
        outputs = []
        for j, (op, outcome) in enumerate(zip(ops, result["outcomes"])):
            self.attempted += 1
            ref = self.reference["outputs"][j] if self.reference else None
            output = None
            if "error" in outcome:
                errors = [outcome["error"].strip().splitlines()[-1]]
            elif outcome["exit_code"] != 0:
                errors = [f"exit code {outcome['exit_code']}"]
            elif "argv" in op:
                out_dir = Path(op["argv"][-1])
                try:
                    errors, output = checks.check_manifest(out_dir)
                    if first is None:
                        summaries = {} if self.record else None
                        errors += checks.check_csvs(out_dir, ref, summaries)
                        if self.record:
                            self.recorded.append(summaries)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    errors = [f"unreadable output: {exc!r}"]
            else:
                output = outcome["result"]
                errors = []
                if first is None:
                    errors = checks.check_isolation(op, output, ref)
                    if self.record:
                        self.recorded.append(output)
            if first is not None and output != first[j]:
                errors.append("outputs differ from the run's first pass")
            outputs.append(output)
            if errors:
                self.failed += 1
                self.errors += [f"op {j} ({workloads.op_name(op)}): {e}"
                                for e in errors]
        if first is None:
            self.first_outputs = outputs

    def run(self, seconds: float, trace: bool):
        """Timed passes until `seconds` have gone by. A traced run repeats
        (set-up breakdown, untraced pass, traced pass) as often as that
        fits in `seconds`, at least once. No pass is started that could
        run past the deadline."""
        longest = 0.0
        while True:
            t0 = self.elapsed()
            if trace:
                self.imports.append(import_breakdown(self.env))
                self.one_pass(traced=False)
            self.one_pass(traced=trace)
            longest = max(longest, self.elapsed() - t0)
            budget = seconds - longest if trace else seconds
            if (self.record or self.elapsed() >= budget
                    or self.elapsed() + longest > DEADLINE_S):
                break

    def write_reference(self):
        if self.failed:
            raise RuntimeError("not recording a reference from a run with "
                               "failures")
        path = checks.reference_path(self.workload, self.seed)
        path.parent.mkdir(exist_ok=True)
        # one line per operation, so a re-recording diffs by operation
        lines = [json.dumps(x) for x in self.recorded]
        path.write_text(f'{{"ops": {json.dumps(self.ops)},\n"outputs": [\n'
                        + ",\n".join(lines) + "\n]}\n")
        print(f"recorded {path.relative_to(ROOT)}")


def _quartiles(values: list) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else \
        "unknown (not a git checkout)"


def environment(run: Run) -> dict:
    env = dict(run.passes[0]["environment"])
    env.update(nproc=len(os.sched_getaffinity(0)), cpu=_cpu_model(),
               git_commit=_git_commit(),
               FLUXCOMB_BACKEND=os.environ.get("FLUXCOMB_BACKEND"))
    if env["backend"] == "python":
        env["note"] = ("compiled stepper unmeasured: it is not built "
                       "(Cython absent), so the NumPy stepper runs")
    return env


def report(run: Run, trace: bool) -> tuple[dict, dict]:
    """Print the figures by name; return the result line and the full
    record of the run."""
    timed = [p for p in run.passes if not p["traced"]]
    print(f"fluxcomb benchmark: {run.tag}, {len(run.passes)} passes "
          f"in {run.elapsed():.1f} s")
    print(f"why: {workloads.RATIONALE[run.workload]}")
    env = environment(run)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    record = {"workload": run.workload, "seed": run.seed, "trace": trace,
              "environment": env, "passes": run.passes,
              "errors": run.errors}

    rows = {}          # name -> (unit, per-pass values)
    if not trace:
        for name, unit in END_TO_END:
            rows[name] = (unit, [p[name] for p in timed])
    else:
        traced = [p for p in run.passes if p["traced"]]
        per_pass = [layer_metrics(p) for p in traced]
        units = {name: unit for name, unit, _ in per_layer_table()}
        for name, module in SETUP_MODULES.items():
            rows[name] = ("ms", [i.get(module, 0.0) for i in run.imports])
        for name in per_pass[0]:
            rows[name] = (units[name], [m[name] for m in per_pass])
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in timed))
        rows["trace.overhead_s"] = ("s", [overhead])
        absent = sorted({a for p in traced for a in p["absent"]}
                        | {m for m in SETUP_MODULES.values()
                           if not any(m in i for i in run.imports)})
        print(f"absent (reported as 0): {', '.join(absent) or 'none'}")

    print(f"{'metric':40s} {'unit':6s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'n':>3s}")
    metrics = {}
    for name, (unit, values) in rows.items():
        med, q1, q3 = _quartiles(values)
        print(f"{name:40s} {unit:6s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{len(values):3d}")
        metrics[name] = {"value": med, "unit": unit}
    ratio = run.failed / run.attempted
    print(f"{'failed_ratio':40s} {'1':6s} {ratio:14.6g}   "
          f"({run.failed} of {run.attempted} operations failed)")
    for err in run.errors[:20]:
        print(f"check failed: {err}")
    record["metrics"] = metrics
    record["failed_ratio"] = ratio
    return {"correct": not run.failed, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record this seed's reference outputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fluxcomb" / "__init__.py").is_file():
        print(f"error: no fluxcomb sources under {ROOT / 'src'}; run from "
              "a source checkout", file=sys.stderr)
        return 2

    run = None
    try:
        run = Run(args.workload, args.seed, bool(args.trace), args.record)
        run.run(args.seconds, bool(args.trace))
        if args.record:
            run.write_reference()
            return 0
        result, record = report(run, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if run is not None:
            shutil.rmtree(run.work, ignore_errors=True)
    (WORK / f"{run.tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
