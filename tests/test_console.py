"""The CLI as a process, and the package as it is installed.

This module imports only pytest, the standard library, ``chainrad`` and
``record_outputs``, so it also runs against an installed wheel from
outside the source tree, in a venv that has neither the test extras nor
scipy (CI's wheel step). Every fresh process runs the ``chainrad`` that
this module imported.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainrad
from chainrad.cli import EXIT_CONFIG, EXIT_OK, EXIT_USAGE
from record_outputs import cli_output


def fresh_env():
    """The environment of a fresh process that imports this chainrad."""
    return dict(os.environ, PYTHONPATH=str(Path(chainrad.__file__).parents[1]))


def run_fresh(*args):
    """Run python with ``args`` in a fresh process on this chainrad tree."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=fresh_env()
    )


def run_cli(
    *argv, buffered=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    shell_redirect="",
):
    """Run ``python -m chainrad.cli argv`` in a fresh process; stdout as
    bytes. ``buffered=False`` sets PYTHONUNBUFFERED, so every write reaches
    the fd at once; ``shell_redirect`` (such as ``>&-``) is applied to the
    command by /bin/sh."""
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "chainrad.cli", *argv]
    if shell_redirect:
        cmd = ["/bin/sh", "-c", f'exec "$@" {shell_redirect}', "sh", *cmd]
    return subprocess.run(cmd, stdout=stdout, stderr=stderr, env=env)


#: Runs argv[2:] with stdout discarded, kills it after argv[1] seconds,
#: and prints its exit code and peak RSS in MB. Linux carries a parent's
#: peak RSS over fork and exec, so the child is spawned from this small
#: fresh interpreter, not from the test process.
BOUNDED_RUN = """
import os, signal, sys
report = os.dup(1)
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
pid = os.spawnv(os.P_NOWAIT, sys.argv[2], sys.argv[2:])
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.alarm(int(sys.argv[1]))
_, status, usage = os.wait4(pid, 0)
os.write(report, f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss / 1024}".encode())
"""


class TestEntry:
    """``entry()`` as a process: the final flush, and a documented exit
    code whatever the output streams are."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("number", ["2", "16"])
    def test_fresh_output_is_the_in_process_output(self, number, buffered, tmp_path):
        # os._exit drops whatever is still buffered, so a missed flush
        # would truncate the CSV
        expected = cli_output(["figure", number])
        done = run_cli("figure", number, buffered=buffered)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        assert done.stdout == expected
        out = tmp_path / "fig.csv"
        done = run_cli("figure", number, "--out", str(out), buffered=buffered)
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, b"", b"")
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [["scales"], ["figure", "2"], ["--version"], ["--help"], ["damping", "--help"]],
        ids=" ".join,
    )
    @pytest.mark.parametrize("target", ["closed_pipe", "dev_full", "closed_stdout"])
    def test_unwritable_stdout_is_usage_error(self, target, argv, buffered):
        # figure 2's CSV outgrows the stdout buffer, scales' fits in it;
        # argparse itself skips a failed --help or --version write in silence
        if target == "closed_pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = run_cli(*argv, buffered=buffered, stdout=write_end)
            finally:
                os.close(write_end)
            reason = "[Errno 32] Broken pipe"
        elif target == "dev_full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            done = run_cli(*argv, buffered=buffered, shell_redirect="> /dev/full")
            reason = "[Errno 28] No space left on device"
        else:
            done = run_cli(*argv, buffered=buffered, shell_redirect=">&-")
            reason = "stdout is closed"
        assert done.returncode == EXIT_USAGE
        assert done.stderr.decode() == f"chainrad: cannot write output: {reason}\n"

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["figure", "99"], EXIT_USAGE),
            (["damping", "--bogus"], EXIT_USAGE),
            (["scales", "--set", "n_atoms=0"], EXIT_CONFIG),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    @pytest.mark.parametrize("target", ["closed_pipe", "dev_full", "closed_stderr"])
    def test_failing_stderr_keeps_exit_code(self, target, argv, code, buffered):
        # the error message cannot be written, and nothing else can be told
        if target == "closed_pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = run_cli(*argv, buffered=buffered, stderr=write_end)
            finally:
                os.close(write_end)
        elif target == "dev_full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            done = run_cli(*argv, buffered=buffered, shell_redirect="2>/dev/full")
        else:
            done = run_cli(*argv, buffered=buffered, shell_redirect="2>&-")
        assert done.returncode == code


@pytest.mark.wheel
class TestLargestRuns:
    """The longest runs the CLI accepts finish, as fresh processes and with
    the real sums (the budget tests in tests/test_cli.py use a stand-in).
    Deselected by default; CI's wheel step selects them."""

    @pytest.mark.parametrize(
        "argv",
        [
            # VERIFY_MAX_N: 2^11 states through the numpy-only oracle
            ["verify", "--nmax", "12"],
            # every chain length up to MAX_ATOMS
            ["nscaling", "--range", "1:10000"],
        ],
        ids=" ".join,
    )
    def test_longest_run_finishes(self, argv):
        done = run_cli(*argv, stdout=subprocess.DEVNULL)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")

    def test_most_angles_at_the_longest_chain_fit_in_time_and_memory(self):
        # closed_form_rates sums two phi-free moments once per state and x,
        # so 10^5 angles at N = 10^4 cost one pass over the bonds
        argv = ["angles", "--set", "n_atoms=10000", "--points", "100000"]
        done = run_fresh(
            "-c", BOUNDED_RUN, "20", sys.executable, "-m", "chainrad.cli", *argv
        )
        assert done.returncode == 0, done.stderr
        code, rss_mb = done.stdout.split()
        assert int(code) == EXIT_OK  # -9 if killed at 20 s
        assert float(rss_mb) <= 64.0


class TestArgparseSpellings:
    """An argv only argparse parses writes the plain argv's bytes."""

    def test_abbreviated_flag(self):
        assert cli_output(["damping", "--poi", "5"]) == cli_output(
            ["damping", "--points", "5"]
        )

    def test_figure_number_after_out(self, tmp_path):
        out = tmp_path / "f7.csv"
        assert cli_output(["figure", "--out", str(out), "7"]) == b""
        assert out.read_bytes() == cli_output(["figure", "7"])


#: The package's public names.
PUBLIC = (
    "AtomicScales", "CausalityError", "ChainConfig", "ConfigError",
    "DampingResult", "IntensityTrace", "QuadratureAccuracyError", "SignState",
    "SweepTable", "alternating_state", "angle_sweep", "config_from_dict",
    "coupling_sweep", "damping_general", "derive_scales", "emission_sweep",
    "f_kernel", "n_scaling_sweep", "quadrature_rates", "symmetric_state",
    "transfer_exact",
)


def module_level_imports(tree):
    """The modules a parsed module imports when it is imported: its
    function bodies are skipped, and relative imports too."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


class TestPackage:
    def test_package_import_loads_no_numpy(self):
        # only the emission sums and the oracle import numpy, inside the
        # functions that call it
        done = run_fresh(
            "-c",
            "import sys, chainrad; "
            "[getattr(chainrad, name) for name in chainrad.__all__]; "
            "print('numpy' in sys.modules)",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_public_names_resolve_to_their_modules(self):
        assert sorted(chainrad.__all__) == list(PUBLIC)
        for name in PUBLIC:
            value = getattr(chainrad, name)
            source = importlib.import_module(value.__module__)
            assert source.__name__.startswith("chainrad."), name
            assert getattr(source, name) is value
        assert set(chainrad.__all__) <= set(dir(chainrad))
        with pytest.raises(AttributeError):
            chainrad.no_such_name

    def test_no_module_imports_numpy_at_module_level(self):
        package = Path(chainrad.__file__).parent
        found = {}
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            found[path.name] = set(module_level_imports(tree))
        assert {"math", "sys"} <= found["damping.py"]  # the walk sees imports
        assert {
            name: sorted(m for m in modules if m.split(".")[0] == "numpy")
            for name, modules in found.items()
        } == {name: [] for name in found}
