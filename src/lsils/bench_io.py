"""Instance and result I/O: benchmark parsing, generation, logs, excess.

The benchmark text format is whitespace separated: first the instance
count, then per instance a header `n m` followed by m triples
`i j value` with one-based indices. Each triple sets both Q_ij and Q_ji;
duplicates are rejected. Known optima live in an editable sidecar file of
`name value` lines so benchmark values are never hard-coded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qubo import INT64_MAX, UbqpInstance, seeded_rng

RUNLOG_HEADER = "elapsed,evaluations,best_f,lambda,excess"


class ParseError(ValueError):
    """Malformed instance or sidecar text, with line context."""


class _Tokens:
    """Whitespace token stream that remembers line numbers for errors."""

    def __init__(self, text: str):
        self.items = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            for tok in line.split():
                self.items.append((line_no, tok))
        self.pos = 0
        self.last_line = 0

    def next_int(self, what: str) -> int:
        if self.pos >= len(self.items):
            raise ParseError(
                f"line {self.last_line}: unexpected end of input, expected {what}")
        line_no, tok = self.items[self.pos]
        self.pos += 1
        self.last_line = line_no
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"line {line_no}: expected {what}, got {tok!r}") from None

    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def _source_text(source) -> str:
    """Read a path (os.PathLike) or an open stream; a str is the text itself."""
    if isinstance(source, os.PathLike):
        return Path(source).read_text()
    if hasattr(source, "read"):
        return source.read()
    return source


def parse_orlib(source) -> list[UbqpInstance]:
    """Parse benchmark text (str, path, or open file) into instances."""
    toks = _Tokens(_source_text(source))
    count = toks.next_int("instance count")
    if count < 1:
        raise ParseError("line 1: instance count must be >= 1")
    instances = []
    for index in range(count):
        n = toks.next_int(f"dimension of instance {index + 1}")
        m = toks.next_int(f"nonzero count of instance {index + 1}")
        if n < 1 or m < 0:
            raise ParseError(f"line {toks.last_line}: invalid header n={n} m={m}")
        q = np.zeros((n, n), dtype=np.int64)
        seen: set[tuple[int, int]] = set()
        for _ in range(m):
            i = toks.next_int("row index")
            j = toks.next_int("column index")
            v = toks.next_int("entry value")
            line = toks.last_line
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(
                    f"line {line}: index ({i},{j}) out of range for n={n}")
            if not -INT64_MAX - 1 <= v <= INT64_MAX:
                raise ParseError(f"line {line}: entry {v} is outside the int64 range")
            cell = (min(i, j), max(i, j))
            if cell in seen:
                raise ParseError(f"line {line}: duplicate entry for cell ({i},{j})")
            seen.add(cell)
            q[i - 1, j - 1] = v
            q[j - 1, i - 1] = v
        instances.append(UbqpInstance.from_matrix(q))
    if not toks.exhausted():
        line_no, tok = toks.items[toks.pos]
        raise ParseError(f"line {line_no}: trailing data starting at {tok!r}")
    return instances


def serialize_orlib(instances) -> str:
    """Inverse of parse_orlib; writes the upper triangle, diagonal included."""
    if isinstance(instances, UbqpInstance):
        instances = [instances]
    out = [f"{len(instances)}"]
    for inst in instances:
        rows, cols = np.nonzero(np.triu(inst.q))
        out.append(f"{inst.n} {rows.size}")
        for i, j in zip(rows.tolist(), cols.tolist()):
            out.append(f"{i + 1} {j + 1} {int(inst.q[i, j])}")
    return "\n".join(out) + "\n"


# Label deriving the generator stream from the user seed.
GEN_STREAM = 4


def gen_random_instance(n: int, density: float, value_range, seed: int) -> UbqpInstance:
    """Random symmetric instance, deterministic per seed.

    Every upper-triangle cell (diagonal included) is independently nonzero
    with probability `density`. Nonzero values are uniform integers over
    [lo, hi] minus zero when density < 1 (so the realized density matches),
    plain uniform over [lo, hi] when density = 1.
    """
    lo, hi = (int(value_range[0]), int(value_range[1]))
    if lo > hi:
        raise ValueError(f"invalid value range [{lo}, {hi}]")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if density < 1 and (lo, hi) == (0, 0):
        raise ValueError("value range holds only zero; nothing nonzero to draw")
    rng = seeded_rng(seed, GEN_STREAM)
    rows, cols = np.triu_indices(n)
    m = rows.size
    mask = rng.random(m) < density
    if density < 1:
        if lo <= 0 <= hi:
            values = rng.integers(lo, hi, size=m)
            values[values >= 0] += 1
        else:
            values = rng.integers(lo, hi + 1, size=m)
    else:
        values = rng.integers(lo, hi + 1, size=m)
    q = np.zeros((n, n), dtype=np.int64)
    q[rows, cols] = values * mask
    q[cols, rows] = q[rows, cols]
    return UbqpInstance.from_matrix(q)


def load_optima(source) -> dict[str, int]:
    """Sidecar of `name value` lines (str, path, or open file); `#` starts a comment."""
    table: dict[str, int] = {}
    for line_no, raw in enumerate(_source_text(source).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {line_no}: expected 'name value', got {raw!r}")
        name, value = parts
        if name in table:
            raise ParseError(f"line {line_no}: duplicate optimum for {name!r}")
        try:
            table[name] = int(value)
        except ValueError:
            raise ParseError(
                f"line {line_no}: optimum for {name!r} is not an integer") from None
    return table


def excess(best_f: int, opt_f: int) -> float:
    """Relative deviation (best_f - opt_f) / opt_f; <= 0 when below a positive optimum."""
    if opt_f == 0:
        raise ValueError("excess undefined for optimum value 0")
    return (best_f - opt_f) / opt_f


@dataclass(frozen=True, slots=True)
class RunLogRecord:
    """One logged point of a run's best-so-far trace.

    A run stores its points packed (`search.RunLog`) and builds these
    records when `RunResult.records` is read; `elapsed` is an int under an
    evals budget and a float under a seconds budget. Slotted, so that a
    list of them stays small too.
    """

    elapsed: float
    evaluations: int
    best_f: int
    lam: float
    excess: float | None = None


def attach_excess(records, opt_f: int) -> list[RunLogRecord]:
    """Copy of records with excess columns recomputed against opt_f."""
    return [RunLogRecord(r.elapsed, r.evaluations, r.best_f, r.lam, excess(r.best_f, opt_f))
            for r in records]


def _format_elapsed(elapsed) -> str:
    if isinstance(elapsed, (int, np.integer)):
        return str(int(elapsed))
    return f"{elapsed:.3f}"


def write_runlog_csv(records, destination, reference: str | None = None) -> None:
    """Deterministic CSV: fixed header, lambda to 6 and excess to 8 decimals.

    `reference` adds a leading `# reference=...` comment naming what the
    excess column is measured against when it is not a known optimum.
    """
    lines = []
    if reference is not None:
        lines.append(f"# reference={reference}")
    lines.append(RUNLOG_HEADER)
    for r in records:
        excess_text = "" if r.excess is None else f"{r.excess:.8f}"
        lines.append(
            f"{_format_elapsed(r.elapsed)},{r.evaluations},{r.best_f},"
            f"{r.lam:.6f},{excess_text}")
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        Path(destination).write_text(text, newline="\n")
    except OSError as err:
        raise OSError(f"cannot write run log {destination}: {err}") from err


def read_runlog_csv(source) -> tuple[list[RunLogRecord], str | None]:
    """Inverse of write_runlog_csv; returns (records, reference or None)."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text()
        except OSError as err:
            raise OSError(f"cannot read run log {source}: {err}") from err
    reference = None
    records = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for line in lines:
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("reference="):
                reference = body[len("reference="):]
            continue
        if line == RUNLOG_HEADER:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ParseError(f"malformed run-log row: {line!r}")
        elapsed_text, evals_text, best_text, lam_text, excess_text = parts
        elapsed = int(elapsed_text) if "." not in elapsed_text else float(elapsed_text)
        records.append(RunLogRecord(
            elapsed=elapsed,
            evaluations=int(evals_text),
            best_f=int(best_text),
            lam=float(lam_text),
            excess=float(excess_text) if excess_text else None,
        ))
    return records, reference


def runlog_filename(instance: str, algo: str, seed: int) -> str:
    """Shared naming scheme for batch outputs."""
    return f"{instance}_{algo}_{seed}.csv"


def split_runlog_filename(filename: str) -> tuple[str, str, int]:
    """Inverse of runlog_filename, splitting from the right."""
    stem = filename[:-4] if filename.endswith(".csv") else filename
    try:
        instance, algo, seed = stem.rsplit("_", 2)
        return instance, algo, int(seed)
    except ValueError:
        raise ValueError(f"file name {filename!r} does not match "
                         "<instance>_<algo>_<seed>.csv") from None


def summarize(values) -> dict[str, float]:
    """Mean, standard deviation, and extrema of a sequence of numbers."""
    arr = np.asarray(list(values), dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
