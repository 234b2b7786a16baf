"""Snapshot and diagnostics-CSV serialization.

Snapshot format: one ASCII header line

    NLCHNS1 name=<field> n=<n> l=<l> t=<t> count=<n*n> endian=little

followed by count raw little-endian float64 samples in row-major order.
The round trip is bit exact; readers reject wrong magic strings and payload
size mismatches.

The diagnostics CSV has a fixed column order (see diagnostics.COLUMNS), a
single header row, and values printed with 17 significant digits so a
re-parse reproduces every float64 exactly.  The reader rejects a row of the
wrong length or with a value that is not a finite number, naming its line.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .diagnostics import COLUMNS, DiagnosticsRecord
from .spectral import Grid, ScalarField

MAGIC = "NLCHNS1"
CSV_NAME = "diagnostics.csv"


class SnapshotFormatError(ValueError):
    pass


def write_snapshot(field: ScalarField, name: str, t: float, path: str) -> None:
    if any(ch.isspace() for ch in name) or not name:
        raise ValueError("snapshot field name must be non-empty without whitespace")
    g = field.grid
    count = g.n * g.n
    header = (
        f"{MAGIC} name={name} n={g.n} l={g.l:.17g} t={t:.17g} "
        f"count={count} endian=little\n"
    )
    data = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data.tobytes())


def read_snapshot(path: str) -> tuple[ScalarField, str, float]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        payload = fh.read()
    parts = header.split()
    if not parts or parts[0] != MAGIC:
        raise SnapshotFormatError(f"bad magic in {path!r}: {header[:40]!r}")
    kv = {}
    for p in parts[1:]:
        if "=" not in p:
            raise SnapshotFormatError(f"malformed header token {p!r}")
        k, v = p.split("=", 1)
        kv[k] = v
    try:
        name = kv["name"]
        n = int(kv["n"])
        l = float(kv["l"])
        t = float(kv["t"])
        count = int(kv["count"])
        endian = kv["endian"]
    except (KeyError, ValueError) as err:
        raise SnapshotFormatError(f"incomplete snapshot header: {header!r}") from err
    if endian != "little":
        raise SnapshotFormatError(f"unsupported byte order {endian!r}")
    if count != n * n:
        raise SnapshotFormatError(f"count {count} does not match n^2 = {n * n}")
    if len(payload) != 8 * count:
        raise SnapshotFormatError(
            f"payload size mismatch: expected {8 * count} bytes, got {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(float).reshape(n, n)
    return ScalarField(Grid(n, l), values), name, t


def write_state_snapshots(out_dir: str, state, step_index: int) -> None:
    tag = f"{step_index:08d}"
    write_snapshot(state.phi, "phi", state.t, os.path.join(out_dir, f"phi_{tag}.f64"))
    write_snapshot(state.u.x, "ux", state.t, os.path.join(out_dir, f"ux_{tag}.f64"))
    write_snapshot(state.u.y, "uy", state.t, os.path.join(out_dir, f"uy_{tag}.f64"))


# one diagnostics row: every value with 17 significant digits
_ROW = ",".join(["%.17g"] * len(COLUMNS)) + "\n"


class DiagnosticsWriter:
    """Appends records to <out_dir>/diagnostics.csv, header written once."""

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, CSV_NAME)
        self._fh = open(self.path, "w", newline="\n")
        self._fh.write(",".join(COLUMNS) + "\n")

    def append(self, rec: DiagnosticsRecord) -> None:
        self._fh.write(_ROW % rec.as_row())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_diagnostics_csv(path: str) -> list[DiagnosticsRecord]:
    records = []
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header.split(",") != list(COLUMNS):
            raise ValueError(f"unexpected diagnostics header in {path !r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(COLUMNS):
                raise ValueError(f"{len(cells)} values on line {lineno} of {path!r}, want {len(COLUMNS)}")
            row = {}
            for c, v in zip(COLUMNS, cells):
                try:
                    row[c] = float(v)
                except ValueError:
                    raise ValueError(f"non-numeric {c} {v!r} on line {lineno} of {path!r}") from None
                if not math.isfinite(row[c]):
                    raise ValueError(f"non-finite {c} on line {lineno} of {path!r}")
            records.append(DiagnosticsRecord(**row))
    return records
