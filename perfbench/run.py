#!/usr/bin/env python3
"""chainrad benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it imports the program from ``src/``.
Workloads (see BENCHMARK.json and workloads.py): ``cli_cold`` runs every
figure target and subcommand, plus three subcommands on a 100-atom chain,
as fresh ``python -m chainrad.cli`` processes; ``rates_scaling`` and ``emission_scaling`` call the library in
this process. Each is a closed loop with one client: whole passes over
the seeded op list, one op at a time, until the next pass would end
after ``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs half the time untraced and half with spans around every call into
chainrad's public functions, and reports the per-layer metrics, including
the tracing overhead (traced minus untraced ``pass_s``).

Timings are pace-normalized: the host is shared, and its speed drifts by
up to ~1.8x over minutes while other tenants load it, which no amount of
repetition within a run averages out. A fixed calibration mix
(calibrate.py, no chainrad code) is timed between ops, at least every
CALIBRATION_INTERVAL_S, so short ops still run back to back. Each
op's wall time is divided by the host's pace around it: calibration time
over a fixed reference, as the median of the PACE_WINDOW calibrations on
each side (the drift is slow; single calibrations are noisy). So a
reported second is a second at the reference pace. In-process ops are
calibrated in-process; CLI ops and set-up probes, which are mostly process
start-up and imports, by timing a fresh ``python perfbench/calibrate.py``
process. Raw wall-clock medians are kept in the full record.

Every output is checked outside the timed regions: rates and intensities
against mpmath references computed from the inputs, CLI CSVs against the
recorded outputs in ``expected/``. The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the full record (sample
counts, tail percentile, environment, failures) goes to
``.perfbench_work/result-<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import calibrate
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
OP_TIMEOUT_S = 150
#: Reference calibration times, typical of an Intel Xeon at 2.1 GHz
#: (2 vCPUs) under moderate load: calibrate.work() in-process, and a fresh
#: calibrate.py process. They only set the unit of normalized seconds.
INPROCESS_CALIBRATION_REF_S = 1.0e-3
PROCESS_CALIBRATION_REF_S = 0.17
PACE_WINDOW = 3
CALIBRATION_INTERVAL_S = 0.1

#: Which layer's accuracy a CLI CSV speaks for (``<layer>.rel_err_max``).
CLI_OUTPUT_LAYER = {
    **{f"figure_{k}": "coupling" for k in (2, 3, 4)},
    **{f"figure_{k}": "damping" for k in range(5, 15)},
    **{f"figure_{k}": "emission" for k in range(16, 21)},
    "scales": "scales", "coupling": "coupling", "damping": "damping",
    "nscaling": "damping", "angles": "damping", "verify": "damping",
    "emission": "emission", "angles_N100": "damping", "damping_N100": "damping",
    "emission_N100": "emission",
}


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # the ops run after a warm-up so bytecode caches exist
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(cmd, stdout_path: Path, env) -> tuple[float, int, float]:
    """Run ``cmd`` with stdout to a file; (wall seconds, exit code, max RSS MB)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                os.waitpid(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def inprocess_pace() -> float:
    """Median of three in-process calibrations, relative to the reference."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        calibrate.work()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / INPROCESS_CALIBRATION_REF_S


def process_pace(env) -> float:
    """Wall time of a fresh calibration process, relative to the reference."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "calibrate.py")], env=env,
                   check=True, timeout=120)
    return (time.perf_counter() - start) / PROCESS_CALIBRATION_REF_S


def pace_around(paces, k) -> float:
    """Host pace for the op between calibrations ``k`` and ``k + 1``."""
    return statistics.median(paces[max(0, k - PACE_WINDOW + 1):k + PACE_WINDOW + 1])


def setup_probes(workload: str, seed: int, env, repeats: int) -> list:
    """Seconds from spawning a fresh interpreter to its first op being
    ready, as [(wall, normalized)]."""
    paces = [process_pace(env)]
    walls = []
    for _ in range(repeats):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append((int(proc.stdout.split()[-1]) - start) / 1e9)
        paces.append(process_pace(env))
    return [(wall, wall / pace_around(paces, k)) for k, wall in enumerate(walls)]


def measure_passes(ops, run_one, seconds: float, pace) -> list:
    """Whole passes over ``ops`` until the next would end after ``seconds``.

    ``pace()`` runs after an op once CALIBRATION_INTERVAL_S has passed since
    the last call, and at the end of each pass. Each sample's ``seconds`` is
    its wall time divided by the pace around it, ``wall_s`` the raw time;
    a pass's ``seconds`` is the sum over its ops.
    """
    passes = []
    paces = [pace()]
    calibrated = begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        samples = []
        for index, op in enumerate(ops):
            sample = run_one(len(passes), index, op)
            sample["pace"] = len(paces) - 1
            samples.append(sample)
            if (time.perf_counter() - calibrated >= CALIBRATION_INTERVAL_S
                    or index == len(ops) - 1):
                paces.append(pace())
                calibrated = time.perf_counter()
        elapsed = time.perf_counter() - start
        passes.append({"samples": samples})
        if time.perf_counter() - begin + elapsed > seconds:
            break
    for p in passes:
        for sample in p["samples"]:
            sample["pace"] = pace_around(paces, sample["pace"])
            sample["wall_s"] = sample["seconds"]
            sample["seconds"] = sample["wall_s"] / sample["pace"]
        p["seconds"] = sum(s["seconds"] for s in p["samples"])
        p["wall_s"] = sum(s["wall_s"] for s in p["samples"])
    return passes


def inproc_runner(workload: str, tracer=None):
    run = workloads.op_runner(workload)

    def run_one(pass_no, index, op):
        if tracer is not None:
            tracer.op_id = f"{pass_no}:{op['id']}"
        start = time.perf_counter()
        try:
            output, rows = run(op)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            output, rows, error = None, 0, f"{type(exc).__name__}: {exc}"
        return {"index": index, "seconds": time.perf_counter() - start,
                "output": output, "rows": rows, "error": error}

    return run_one


def cli_runner(env, outdir: Path, traced: bool):
    def run_one(pass_no, index, op):
        out = outdir / f"{pass_no}-{op['id']}.csv"
        spans = out.with_suffix(".spans.json") if traced else None
        if traced:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans), *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "chainrad.cli", *op["argv"]]
        seconds, code, rss = run_child(cmd, out, env)
        return {"index": index, "seconds": seconds, "output": out, "rows": 0,
                "code": code, "rss_mb": rss, "spans": spans,
                "error": None if code == 0 else f"exit code {code}"}

    return run_one


class Checker:
    """Checks samples against the references; keeps worst errors per layer."""

    def __init__(self, workload: str, ops, tolerances: dict):
        self.workload = workload
        self.ops = ops
        self.tol = tolerances
        self.rel_err = {"damping": 0.0, "emission": 0.0}
        self.identical = 0
        self.checked_csvs = 0
        self.failures = []
        self._refs = {}
        if workload == "rates_scaling":
            self._rates = reference.RateReference(tolerances["mp_dps_rates"])
        if workload == "emission_scaling":
            scales = ops[0]["scales"]
            self._intensity = reference.IntensityReference(
                tolerances["mp_dps_emission"], scales.omega_a, scales.gamma_a
            )

    def _reference(self, index):
        if index not in self._refs:
            op = self.ops[index]
            if self.workload == "rates_scaling":
                ref = self._rates.rate(op["coeffs"], op["x"], op["phi"])
            elif self.workload == "emission_scaling":
                ref = self._intensity.trace(
                    op["coeffs"], op["a_grid"], op["phi"], op["obs_x"], op["t"]
                )
            else:
                ref = reference.load_expected(op["id"])
            self._refs[index] = ref
        return self._refs[index]

    def check(self, sample) -> bool:
        op = self.ops[sample["index"]]
        ok, reason = self._check(sample, op)
        sample["ok"] = ok
        if not ok:
            self.failures.append(f"{op['id']}: {reason}")
        return ok

    def _check(self, sample, op):
        if sample["error"] is not None:
            return False, sample["error"]
        ref = self._reference(sample["index"])
        if self.workload == "rates_scaling":
            ok, err = reference.check_rate(sample["output"], ref, self.tol["rates_rtol"])
            self.rel_err["damping"] = max(self.rel_err["damping"], err)
            return ok, f"rate {sample['output']!r} vs {ref!r} (rel err {err:.3e})"
        if self.workload == "emission_scaling":
            ok, err, reason = reference.check_emission_csv(
                sample["output"], op, ref, self.tol["emission_rtol"]
            )
            self.rel_err["emission"] = max(self.rel_err["emission"], err)
            return ok, reason
        got = sample["output"].read_bytes()
        sample["rows"] = len(reference.split_csv(got.decode(errors="replace"))[2])
        ok, identical, worst, reason = reference.compare_cli_csv(
            got, ref, self.tol["cli_csv_rtol"], self.tol["cli_csv_column_atol"]
        )
        self.checked_csvs += 1
        self.identical += identical
        layer = CLI_OUTPUT_LAYER.get(op["id"])
        if layer in self.rel_err:
            self.rel_err[layer] = max(self.rel_err[layer], worst)
        return ok, reason


def tail_percentile(values) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples above it
    (nearest rank), and its value; the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank <= n - 10:
            return ordered[rank - 1], p
    return statistics.median(ordered), 50


def end_to_end_metrics(ops, passes, setup, peak_rss_mb):
    samples = [s for p in passes for s in p["samples"]]
    durations = [s["seconds"] for s in samples]
    # median and tail per pass, so which op they land on depends on the op
    # list, not on how many passes fitted in the run
    per_pass = [[s["seconds"] for s in p["samples"]] for p in passes]
    tails = [tail_percentile(times) for times in per_pass]
    tail, percentile = statistics.median(t for t, _ in tails), tails[0][1]
    values = {
        "setup_s": (statistics.median(n for _, n in setup), len(setup)),
        "pass_s": (statistics.median(p["seconds"] for p in passes), len(passes)),
        "op_p50_s": (statistics.median(statistics.median(t) for t in per_pass),
                     len(durations)),
        "op_tail_s": (tail, len(durations)),
    }
    for _, name in workloads.N_CLASSES:
        cls = [s["seconds"] for s in samples if workloads.n_class(ops[s["index"]]["n"]) == name]
        values[f"op_s.{name}"] = (statistics.median(cls), len(cls))
    values["rows_per_s"] = (sum(s["rows"] for s in samples) / sum(durations), len(samples))
    values["peak_rss_mb"] = (peak_rss_mb, 1)
    paces = [s["pace"] for s in samples]
    notes = {
        "op_tail_s.percentile": percentile,
        "wall.setup_s": statistics.median(w for w, _ in setup),
        "wall.pass_s": statistics.median(p["wall_s"] for p in passes),
        "wall.op_p50_s": statistics.median(s["wall_s"] for s in samples),
        "pace.median": statistics.median(paces),
        "pace.min_max": [min(paces), max(paces)],
    }
    return values, notes


def per_layer_metrics(agg, cli_exit_errors, imports, kernel, transfer, checker,
                      overhead_s, untraced_pass_s):
    stats = agg.get("stats", {})

    def stat(key, field):
        return stats.get(key, {}).get(field, 0)

    def count(key, name):
        return stats.get(key, {}).get("counts", {}).get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    gen = "damping.damping_general"
    oracle = "damping.damping_quadrature_oracle"
    sweep = "emission.emission_sweep"
    oracle_durations = stats.get(oracle, {}).get("durations", [])
    m = {
        "cli.import_s": imports["cli"],
        "scales.import_s": imports["chainrad.scales"],
        "damping.import_s": imports["chainrad.damping"],
        "emission.import_s": imports["chainrad.emission"],
        "cli.main.self_s": stat("cli.main", "self_s"),
        "scales.derive_scales.calls": stat("scales.derive_scales", "calls"),
        "scales.derive_scales.busy_s": stat("scales.derive_scales", "busy_s"),
        "scales.config_from_dict.busy_s": stat("scales.config_from_dict", "busy_s"),
        "coupling.coupling_sweep.busy_s": stat("coupling.coupling_sweep", "busy_s"),
        "coupling.transfer_exact.evals_per_s": transfer["rate"],
        "damping.f_kernel.evals_per_s.series": kernel["series"],
        "damping.f_kernel.evals_per_s.direct": kernel["direct"],
        f"{gen}.calls": stat(gen, "calls"),
        f"{gen}.busy_s": stat(gen, "busy_s"),
        f"{gen}.bonds": count(gen, "bonds"),
        f"{gen}.s_per_bond": ratio(stat(gen, "busy_s"), count(gen, "bonds")),
        "damping.x_sweep.busy_s": stat("damping.x_sweep", "busy_s"),
        "damping.n_scaling_sweep.busy_s": stat("damping.n_scaling_sweep", "busy_s"),
        "damping.angle_sweep.busy_s": stat("damping.angle_sweep", "busy_s"),
        f"{oracle}.calls": stat(oracle, "calls"),
        f"{oracle}.busy_s": stat(oracle, "busy_s"),
        f"{oracle}.p50_s": statistics.median(oracle_durations) if oracle_durations else 0.0,
        "states.enumerate_sign_states.busy_s": stat("states.enumerate_sign_states", "busy_s"),
        f"{sweep}.calls": stat(sweep, "calls"),
        f"{sweep}.busy_s": stat(sweep, "busy_s"),
        f"{sweep}.points": count(sweep, "points"),
        f"{sweep}.s_per_pair_point": ratio(stat(sweep, "busy_s"), count(sweep, "pair_points")),
        "sweeps.write_csv.calls": stat("sweeps.write_csv", "calls"),
        "sweeps.write_csv.busy_s": stat("sweeps.write_csv", "busy_s"),
        "sweeps.write_csv.rows": count("sweeps.write_csv", "rows"),
        "sweeps.write_csv.bytes": count("sweeps.write_csv", "bytes"),
    }
    errors = dict(agg.get("errors", {}))
    errors["cli"] = cli_exit_errors
    for layer in tracing.LAYERS:
        m[f"{layer}.errors"] = errors.get(layer, 0)
    m["damping.rel_err_max"] = checker.rel_err["damping"]
    m["emission.rel_err_max"] = checker.rel_err["emission"]
    m["cli.csv_identical"] = checker.identical
    m["trace.overhead_s"] = overhead_s
    m["trace.overhead_frac"] = overhead_s / untraced_pass_s
    bases = {
        "damping.f_kernel.evals_per_s": {
            "series_evals": kernel["series_evals"], "direct_evals": kernel["direct_evals"],
        },
        "coupling.transfer_exact.evals": transfer["evals"],
        "emission.emission_sweep.pair_points": count(sweep, "pair_points"),
        "cli.csv_checked": checker.checked_csvs,
        "trace.untraced_pass_s": untraced_pass_s,
    }
    return m, bases


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((SRC / "chainrad").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if shutil.which("git"):
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy has no dict form; the name is optional
        blas = None
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var, "unset") for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def shaped(values: dict, declared: list) -> dict:
    """``{name: {"value", "unit"}}`` in BENCHMARK.json order; every declared
    metric, and only those, must have been measured."""
    if set(values) != {m["name"] for m in declared}:
        missing = sorted({m["name"] for m in declared} - set(values))
        extra = sorted(set(values) - {m["name"] for m in declared})
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(workload: str, seed: int, seconds: float, trace: bool, ops=None) -> dict:
    """One benchmark run; returns the full record. ``ops`` overrides the
    seeded inputs (used by the self-check)."""
    bench = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(HERE / "spec.json")
    env = child_env()
    WORK.mkdir(exist_ok=True)
    outdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()
    # untimed warm-up: bytecode caches and the file cache
    subprocess.run([sys.executable, "-c", "import chainrad.cli"], env=env,
                   check=True, timeout=300)
    setup = [] if trace else setup_probes(workload, seed, env, SETUP_REPEATS)
    if ops is None:
        ops = workloads.make_inputs(workload, seed)
    import chainrad

    if Path(chainrad.__file__).resolve().parent != (SRC / "chainrad").resolve():
        raise RuntimeError(f"chainrad imported from {chainrad.__file__}, not {SRC}")
    cli = workload == "cli_cold"

    def runner(traced, tracer=None):
        return cli_runner(env, outdir, traced) if cli else inproc_runner(workload, tracer)

    pace = (lambda: process_pace(env)) if cli else inprocess_pace

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(seed)}
    if not trace:
        passes = measure_passes(ops, runner(False), seconds, pace)
        if cli:
            peak = max(s["rss_mb"] for p in passes for s in p["samples"])
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = passes
    else:
        untraced = measure_passes(ops, runner(False), seconds / 2, pace)
        agg = {}
        spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
        spans_path.unlink(missing_ok=True)
        if cli:
            traced = measure_passes(ops, runner(True), seconds / 2, pace)
            for p_no, p in enumerate(traced):
                for s in p["samples"]:
                    if s["spans"].exists():
                        dump = load_json(s["spans"])
                        tracing.merge(agg, dump)
                        tracing.write_spans(spans_path, dump["spans"],
                                            f"{p_no}:{ops[s['index']]['id']}")
        else:
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                traced = measure_passes(ops, runner(True, tracer), seconds / 2, pace)
            finally:
                tracing.uninstall(undo)
            tracing.merge(agg, tracer.dump())
            tracing.write_spans(spans_path, tracer.spans)
        cli_exit_errors = sum(1 for p in traced for s in p["samples"]
                              if s.get("code", 0) != 0)
        imports = tracing.import_probe(env, IMPORT_REPEATS)
        kernel = tracing.kernel_probe(workloads.RATE_XS, 1000, workloads.PHIS)
        transfer = tracing.transfer_probe()
        checked = untraced + traced
    checker = Checker(workload, ops, spec["tolerances"])
    samples = [s for p in checked for s in p["samples"]]
    failed = sum(not checker.check(s) for s in samples)
    record.update(attempted=len(samples), failed=failed,
                  fail_frac=failed / len(samples), failures=checker.failures[:20],
                  csv_identical=checker.identical, csv_checked=checker.checked_csvs)
    if not trace:
        values, notes = end_to_end_metrics(ops, passes, setup, peak)
        record["samples"] = {k: n for k, (_, n) in values.items()}
        record["notes"] = notes
        record["metrics"] = shaped({k: v for k, (v, _) in values.items()}, bench["end_to_end"])
    else:
        untraced_pass = statistics.median(p["seconds"] for p in untraced)
        traced_pass = statistics.median(p["seconds"] for p in traced)
        values, bases = per_layer_metrics(
            agg, cli_exit_errors, imports, kernel, transfer, checker,
            traced_pass - untraced_pass, untraced_pass,
        )
        record["bases"] = bases
        record["passes"] = {"untraced": len(untraced), "traced": len(traced)}
        record["metrics"] = shaped(values, bench["per_layer"])
    shutil.rmtree(outdir, ignore_errors=True)
    return record


def report(record: dict) -> None:
    print(f"chainrad benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    samples = record.get("samples", {})
    for name, metric in record["metrics"].items():
        extra = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:45s} {metric['value']:.6g} {metric['unit']}{extra}")
    for key, value in {**record.get("notes", {}), **record.get("bases", {})}.items():
        print(f"  {key:45s} {value}")
    print(f"  {'fail_frac':45s} {record['failed']}/{record['attempted']}"
          f" = {record['fail_frac']:.6g}")
    if record["csv_checked"]:
        print(f"  {'cli.csv_identical':45s} {record['csv_identical']}/{record['csv_checked']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chainrad" / "__init__.py").is_file():
        print(f"perfbench: no chainrad sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
