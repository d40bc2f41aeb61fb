"""Independent references and output checks.

Rates and intensities are recomputed here with mpmath from the generated
inputs alone; nothing in this module calls chainrad. CLI CSVs are compared
with the outputs recorded at the commit that defined the benchmark
(``expected/*.csv.gz``, written by ``make_expected.py``).
"""

from __future__ import annotations

import gzip
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
SPEED_OF_LIGHT = 299792458  # m/s, exact in SI


# ---------------------------------------------------------------- rates

def kernel_minus_one(y, cos2phi):
    """F(y, phi) - 1 by its direct form; the caller sets mp.dps high enough
    that the cancellation near y = 0 leaves >= 30 correct digits."""
    s, c = mp.sin(y), mp.cos(y)
    return mpf(3) / 2 * (
        (s / y - 1) * (1 - cos2phi)
        + (c / y**2 - s / y**3 + mpf(1) / 3) * (1 - 3 * cos2phi)
    )


class RateReference:
    """(sum C)^2/N + (2/N) sum_k A_k (F(k x) - 1), A_k counted exactly."""

    def __init__(self, dps: int):
        self.dps = dps
        self._tables = {}

    def _table(self, x: float, phi: float, kmax: int) -> list:
        table = self._tables.get((x, phi))
        if table is None or len(table) < kmax:
            cos2phi = mp.cos(mpf(phi)) ** 2
            table = [mpf(0)] + [
                kernel_minus_one(k * mpf(x), cos2phi) for k in range(1, kmax)
            ]
            self._tables[(x, phi)] = table
        return table

    def rate(self, coeffs, x: float, phi: float) -> float:
        with mp.workdps(self.dps):
            c = np.asarray(coeffs, dtype=np.int64)
            n = len(c)
            # A_k = sum_n C_n C_{n+k}; int64 is exact for |A_k| < N
            autocorr = np.correlate(c, c, mode="full")[n:]
            table = self._table(x, phi, n)
            bonds = mp.fsum(int(a) * table[k] for k, a in enumerate(autocorr, 1))
            return float(mpf(int(c.sum()) ** 2) / n + 2 * bonds / n)


def check_rate(value: float, ref: float, rtol: float) -> tuple[bool, float]:
    err = abs(value - ref) / abs(ref)
    return err <= rtol, err


# ------------------------------------------------------------- emission

class IntensityReference:
    """Rank-one far-field sum I/I_0 = (x^2/2N) |sum_n v_n|^2 with
    v_n = C_n (sin phi_n/d_n) e^{-gamma (t - t_n)/2} e^{i omega t_n} u_n,
    and its all-in-phase bound (x^2/2N)(sum_n |v_n|)^2 as the error scale.

    With sin phi_n = sin(phi + alpha_n) = sin phi cos alpha_n + cos phi sin alpha_n
    and u_n = (sin alpha_n, 0, -cos alpha_n), tan alpha_n = x/z_n, the two
    field components are fixed combinations of three per-atom weights, so
    each (a, n) is evaluated once and every state and angle reuses it.
    """

    def __init__(self, dps: int, omega: float, gamma: float):
        self.dps = dps
        self.omega = mpf(omega)
        self.gamma = mpf(gamma)
        self._atoms = {}

    def _atoms_at(self, a: float, n_atoms: int, x):
        """Per-atom (w sin a cos a, w sin^2 a, w cos^2 a, |w|, sin a, cos a)
        with w = e^{gamma t_n/2} e^{i omega t_n}/d_n."""
        atoms = self._atoms.setdefault(a, [])
        for n in range(len(atoms), n_atoms):
            z = n * mpf(a)
            d = mp.sqrt(x**2 + z**2)
            tn = d / SPEED_OF_LIGHT
            magnitude = mp.exp(self.gamma * tn / 2) / d
            w = magnitude * mp.expj(self.omega * tn)
            sin_a, cos_a = x / d, z / d
            atoms.append((w * sin_a * cos_a, w * sin_a**2, w * cos_a**2,
                          magnitude, sin_a, cos_a))
        return atoms

    def trace(self, coeffs, a_grid, phi: float, obs_x: float, t: float):
        """[(intensity, scale)] over the grid, as floats."""
        out = []
        n_atoms = len(coeffs)
        plus = [n for n, c in enumerate(coeffs) if c > 0]
        minus = [n for n, c in enumerate(coeffs) if c < 0]
        with mp.workdps(self.dps):
            x = mpf(obs_x)
            sphi, cphi = mp.sin(mpf(phi)), mp.cos(mpf(phi))
            pre = x**2 / (2 * n_atoms) * mp.exp(-self.gamma * mpf(t))
            for a in a_grid:
                atoms = self._atoms_at(float(a), n_atoms, x)

                def signed(k):
                    return (mp.fsum(atoms[n][k] for n in plus)
                            - mp.fsum(atoms[n][k] for n in minus))

                sc, ss, cc = signed(0), signed(1), signed(2)
                sx = sphi * sc + cphi * ss
                sz = -(sphi * cc + cphi * sc)
                bound = mp.fsum(
                    atom[3] * abs(sphi * atom[5] + cphi * atom[4])
                    for atom in atoms[:n_atoms]
                )
                out.append((
                    float(pre * (abs(sx) ** 2 + abs(sz) ** 2)),
                    float(pre * bound**2),
                ))
        return out


def check_emission_csv(text: str, op, ref_trace, rtol: float) -> tuple[bool, float, str]:
    """Grid column, state label and every intensity against the reference."""
    header, columns, rows, _ = split_csv(text)
    if columns != "a_angstrom,intensity_ratio":
        return False, 0.0, f"columns {columns!r}"
    state = "".join("+" if c == 1 else "-" for c in op["coeffs"])
    if f"# state={state}" not in header:
        return False, 0.0, "state label missing"
    if len(rows) != len(ref_trace):
        return False, 0.0, f"{len(rows)} rows, expected {len(ref_trace)}"
    worst = 0.0
    for row, a, (ref, scale) in zip(rows, op["a_grid"], ref_trace):
        a_text, value_text = row.split(",")
        a_expected = float(a) / 1e-10
        if abs(float(a_text) - a_expected) > 1e-11 * a_expected:
            return False, worst, f"grid point {a_text} != {a_expected!r}"
        worst = max(worst, abs(float(value_text) - ref) / scale)
    return worst <= rtol, worst, "" if worst <= rtol else f"rel err {worst:.3e}"


# ------------------------------------------------------------- CLI CSVs

def split_csv(text: str):
    """(leading # lines, column line, data rows, trailing # lines)."""
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        i += 1
    j = len(lines)
    while j > i and lines[j - 1].startswith("#"):
        j -= 1
    if i >= j:
        return lines[:i], None, [], lines[j:]
    return lines[:i], lines[i], lines[i + 1:j], lines[j:]


def load_expected(name: str) -> bytes:
    with gzip.open(EXPECTED_DIR / f"{name}.csv.gz", "rb") as fh:
        return fh.read()


def _footer_dict(lines):
    out = {}
    for line in lines:
        key, _, value = line[1:].strip().partition("=")
        out[key] = value
    return out


def compare_cli_csv(got: bytes, expected: bytes, rtol: float, column_atol: dict):
    """(ok, identical, worst scaled error, reason).

    The leading ``#`` header and the column line must match exactly. A
    numeric cell may differ from the recorded one by ``rtol`` times the
    largest magnitude in its column, or by a fixed ``column_atol`` for
    columns (and footer keys) that hold error estimates.
    """
    if got == expected:
        return True, True, 0.0, ""
    g_head, g_cols, g_rows, g_foot = split_csv(got.decode())
    e_head, e_cols, e_rows, e_foot = split_csv(expected.decode())
    if g_head != e_head:
        return False, False, 0.0, "header lines differ"
    if g_cols != e_cols:
        return False, False, 0.0, "column line differs"
    if len(g_rows) != len(e_rows):
        return False, False, 0.0, f"{len(g_rows)} rows, expected {len(e_rows)}"
    names = e_cols.split(",") if e_cols else []
    try:
        g = np.array([[float(v) for v in r.split(",")] for r in g_rows])
        e = np.array([[float(v) for v in r.split(",")] for r in e_rows])
    except ValueError:
        return False, False, 0.0, "non-numeric cell"
    worst = 0.0
    if e.size:
        if g.shape != e.shape:
            return False, False, 0.0, "row widths differ"
        for k, name in enumerate(names):
            diff = np.abs(g[:, k] - e[:, k])
            if name in column_atol:
                if not np.all(diff <= column_atol[name]):
                    return False, False, worst, f"column {name} beyond {column_atol[name]}"
                continue
            scale = float(np.max(np.abs(e[:, k]))) or 1.0
            err = float(np.max(diff)) / scale
            worst = max(worst, err)
            if not err <= rtol:
                return False, False, worst, f"column {name} rel err {err:.3e}"
    g_foot, e_foot = _footer_dict(g_foot), _footer_dict(e_foot)
    if g_foot.keys() != e_foot.keys():
        return False, False, worst, "footer keys differ"
    for key, value in e_foot.items():
        if key in column_atol:
            try:
                if abs(float(g_foot[key]) - float(value)) > column_atol[key]:
                    return False, False, worst, f"footer {key} beyond {column_atol[key]}"
            except ValueError:
                return False, False, worst, f"footer {key} not numeric"
        elif g_foot[key] != value:
            return False, False, worst, f"footer {key} differs"
    return True, False, worst, ""
