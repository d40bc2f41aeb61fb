#!/usr/bin/env python3
"""Self-check of the benchmark itself (not of chainrad).

    python3 perfbench/selfcheck.py

Run from the repository root; takes about two minutes. It shows that

1. every metric of BENCHMARK.json, and every layer metric named in
   spec.json's layer table, is printed by name with its unit, in both
   the untraced and the traced mode, for every workload;
2. a corrupted program output counts as failed (fail_frac > 0,
   ``correct`` false) on every workload, while a change in the last
   printed digit of a CLI CSV passes but is no longer byte-identical;
3. in a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Small slices of each workload's seeded inputs keep it quick.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def small_ops(workload):
    """A few ops per op_s class, grids cut to 10 points."""
    ops = workloads.make_inputs(workload, SEED)
    if workload == "cli_cold":
        keep = {"scales", "figure_13", "figure_10", "figure_7"}
        return [op for op in ops if op["id"] in keep]
    if workload == "rates_scaling":
        return [op for op in ops if op["n"] <= 10 or op["id"].startswith(("alt-N100-x5", "sym-N1000"))]
    out = []
    for op in ops:
        if op["n"] <= 10 or op["n"] == workloads.EMISSION_TOP_N or op["id"].startswith("alt-N100"):
            out.append(dict(op, a_grid=op["a_grid"][:10]))
    return out


def run_quiet(workload, trace, ops):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        record = run.run(workload, SEED, 0.01, trace, ops=ops)
        run.report(record)
    return record, buf.getvalue()


def check_names(workload, trace, record, text, bench, spec):
    declared = bench["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in declared], workload
    lines = text.splitlines()
    for m in declared:
        assert record["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2:3] == [m["unit"]]
                   for line in lines), f"{m['name']} not printed with {m['unit']}"
    if trace:
        named = {name for row in spec["layer_table"] for name in row["layer_metrics"]}
        missing = named - set(record["metrics"])
        assert not missing, f"layer table names not reported: {sorted(missing)}"
    assert any(line.split()[:1] == ["fail_frac"] for line in lines), "fail_frac not printed"
    assert record["failed"] == 0, record["failures"]


@contextlib.contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def corrupt_rate(original):
    def damping_general(state, x, phi):
        result = original(state, x, phi)
        return type(result)(result.rate_ratio * (1 + 1e-6), result.method,
                            result.state, result.x, result.phi)
    return damping_general


def corrupt_intensity(original):
    def emission_sweep(*args, **kwargs):
        trace = original(*args, **kwargs)
        a, value = trace.table.rows[3]
        trace.table.rows[3] = (a, value * (1 + 1e-6) + 1e-6)
        return trace
    return emission_sweep


def check_corruption():
    from chainrad import damping, emission

    with patched(damping, "damping_general", corrupt_rate):
        record, _ = run_quiet("rates_scaling", False, small_ops("rates_scaling"))
    assert record["failed"] == record["attempted"], record["failed"]
    with patched(emission, "emission_sweep", corrupt_intensity):
        record, _ = run_quiet("emission_scaling", False, small_ops("emission_scaling"))
    assert record["failed"] == record["attempted"], record["failed"]
    # the CLI op checked as figure 13 writes figure 14: a wrong output
    ops = [dict(op, argv=["figure", "14"]) if op["id"] == "figure_13" else op
           for op in small_ops("cli_cold")]
    record, _ = run_quiet("cli_cold", False, ops)
    assert record["failed"] == 1 and record["fail_frac"] > 0, record["failures"]

    tol = run.load_json(run.HERE / "spec.json")["tolerances"]
    expected = reference.load_expected("figure_2")
    lines = expected.decode().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line[0].isdigit() and i > 5)
    cells = lines[row].split(",")
    value = float(cells[1])
    for factor, passes in ((1 + 1e-11, True), (1 + 1e-6, False)):
        cells_changed = cells[:1] + [format(value * factor, ".12g")] + cells[2:]
        changed = "".join(lines[:row] + [",".join(cells_changed)] + lines[row + 1:]).encode()
        ok, identical, _, reason = reference.compare_cli_csv(
            changed, expected, tol["cli_csv_rtol"], tol["cli_csv_column_atol"])
        assert (ok, identical) == (passes, False), (factor, reason)
    header_changed = expected.replace(b"# command=figure 2", b"# command=figure 9", 1)
    assert not reference.compare_cli_csv(
        header_changed, expected, tol["cli_csv_rtol"], tol["cli_csv_column_atol"])[0]


def check_bare_directory():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rates_scaling",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "bare directory run exited 0"
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    assert not last[0].startswith("{"), "bare directory run printed a result"


def main() -> int:
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    spec = run.load_json(run.HERE / "spec.json")
    for workload in workloads.WORKLOADS:
        ops = small_ops(workload)
        for trace in (False, True):
            record, text = run_quiet(workload, trace, ops)
            check_names(workload, trace, record, text, bench, spec)
            print(f"ok  names and units: {workload} trace={int(trace)}")
    check_corruption()
    print("ok  corrupted outputs count as failed; a last-digit CSV change passes, not identical")
    check_bare_directory()
    print("ok  bare directory: non-zero exit, no result")
    print(json.dumps({"selfcheck": "passed"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
