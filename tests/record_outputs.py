#!/usr/bin/env python3
"""Record the CLI outputs that ``tests/test_cli.py`` pins byte for byte.

    PYTHONPATH=src python3 tests/record_outputs.py

Writes ``tests/recorded/<name>.csv.gz`` for every argv in
:data:`RECORDED_OPS` (gzip with no file name and a zero timestamp, so the
files are reproducible byte for byte) and prints each file's size. A
change that moves output bytes re-records them with this script in the
same change.
"""

import contextlib
import gzip
import io
import sys
from pathlib import Path

from chainrad import cli

RECORDED_DIR = Path(__file__).resolve().parent / "recorded"

#: The 28 pinned CLI runs: every figure, every command's defaults, and
#: three commands on a 100-atom chain.
RECORDED_OPS = {
    **{f"figure_{k}": ["figure", str(k)] for k in (*range(2, 15), *range(16, 21))},
    **{
        name: [name]
        for name in ("scales", "coupling", "damping", "nscaling", "angles",
                     "emission", "verify")
    },
    "angles_N100": ["angles", "--set", "n_atoms=100"],
    "damping_N100": ["damping", "--state", "alt", "--set", "n_atoms=100", "--points", "100"],
    "emission_N100": ["emission", "--state", "alt", "--set", "n_atoms=100", "--points", "50"],
}


def cli_output(argv) -> bytes:
    """What ``chainrad <argv>`` writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"chainrad {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def recorded_output(name: str) -> bytes:
    """The recorded bytes of ``RECORDED_OPS[name]``."""
    return gzip.decompress((RECORDED_DIR / f"{name}.csv.gz").read_bytes())


def main() -> int:
    RECORDED_DIR.mkdir(exist_ok=True)
    for name, argv in RECORDED_OPS.items():
        data = cli_output(argv)
        with open(RECORDED_DIR / f"{name}.csv.gz", "wb") as raw:
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
                fh.write(data)
        print(f"{name}: {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
