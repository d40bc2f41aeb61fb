#!/usr/bin/env python3
"""Record the CLI outputs that the ``cli_cold`` workload checks against.

    python3 perfbench/make_expected.py

Run from the repository root at the commit whose outputs are the
reference. Writes ``perfbench/expected/<op id>.csv.gz`` (gzip with a zero
timestamp, so the files are reproducible byte for byte).
"""

import gzip
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    outdir = HERE / "expected"
    outdir.mkdir(exist_ok=True)
    for op in workloads.make_inputs("cli_cold", 0):
        out = subprocess.run(
            [sys.executable, "-m", "chainrad.cli", *op["argv"]],
            env=env, capture_output=True, check=True, timeout=300,
        ).stdout
        with open(outdir / f"{op['id']}.csv.gz", "wb") as raw:
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
                fh.write(out)
        print(f"{op['id']}: {len(out)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
