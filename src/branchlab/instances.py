"""MILP data model, instance file I/O, LP relaxation, and synthetic instance families.

Instances are minimization problems over ``c @ x`` subject to ``A x <= b`` and
``l <= x <= u``, where the first ``num_int`` variables are integer-constrained.
Every constraint row is a <= row, in memory and in the instance file format
(its ``ROW`` lines); the generators store a >= row as its negation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

FAMILIES = ("multi-knapsack", "set-cover", "item-placement-like")


class InstanceFormatError(ValueError):
    """Malformed instance text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InstanceValidationError(ValueError):
    """Well-formed text but inconsistent data; carries a field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


# the array fields of MilpInstance and their dtypes; the constructor freezes them
_ARRAYS = {
    "objective": np.float64, "row_idx": np.int64, "col_idx": np.int64, "coef": np.float64,
    "rhs": np.float64, "lower": np.float64, "upper": np.float64,
}


@dataclass(frozen=True, eq=False)
class MilpInstance:
    """Immutable minimization MILP in <=-row form.

    The constraint matrix is stored as row-major triplets
    (``row_idx``, ``col_idx``, ``coef``); the first ``num_int`` variables are
    integer-constrained. Bounds may be +-inf.
    """

    name: str
    num_vars: int
    num_cons: int
    num_int: int
    objective: np.ndarray          # (n,)
    row_idx: np.ndarray            # (nnz,) int64
    col_idx: np.ndarray            # (nnz,) int64
    coef: np.ndarray               # (nnz,) float64
    rhs: np.ndarray                # (m,)
    lower: np.ndarray              # (n,), -inf allowed
    upper: np.ndarray              # (n,), +inf allowed

    def __post_init__(self):
        for name, dtype in _ARRAYS.items():
            a = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __reduce__(self):
        # unpickled arrays come back writeable; the constructor freezes them
        return (MilpInstance, tuple(getattr(self, f.name) for f in fields(self)))

    @property
    def nnz(self) -> int:
        return len(self.coef)

    def dense_matrix(self) -> np.ndarray:
        A = np.zeros((self.num_cons, self.num_vars))
        A[self.row_idx, self.col_idx] = self.coef
        return A

    def __eq__(self, other) -> bool:
        if not isinstance(other, MilpInstance):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if f.name in _ARRAYS else a == b):
                return False
        return True


@dataclass(frozen=True)
class InstanceFamilySpec:
    """Parameters for one synthetic instance. Identical spec => identical instance."""

    family: str
    n: int
    m: int
    density: float = 1.0
    seed: int = 0
    name: str | None = None

    def instance_name(self) -> str:
        if self.name is not None:
            return self.name
        return f"{self.family}_n{self.n}_m{self.m}_s{self.seed}"


def validate_instance(inst: MilpInstance) -> None:
    """Raise InstanceValidationError on any invariant violation."""
    n, m, p = inst.num_vars, inst.num_cons, inst.num_int
    if n < 0 or m < 0:
        raise InstanceValidationError("header", "negative dimensions")
    if not (0 <= p <= n):
        raise InstanceValidationError("header.num_int", f"num_int={p} outside [0, {n}]")
    for fname, arr, length in (
        ("objective", inst.objective, n),
        ("rhs", inst.rhs, m),
        ("lower", inst.lower, n),
        ("upper", inst.upper, n),
    ):
        if len(arr) != length:
            raise InstanceValidationError(fname, f"expected length {length}, got {len(arr)}")
    if not np.all(np.isfinite(inst.objective)):
        raise InstanceValidationError("objective", "non-finite coefficient")
    if not np.all(np.isfinite(inst.rhs)):
        raise InstanceValidationError("rhs", "non-finite right-hand side")
    if not np.all(np.isfinite(inst.coef)):
        raise InstanceValidationError("cons_matrix", "non-finite coefficient")
    for j in range(n):
        if inst.lower[j] > inst.upper[j]:
            raise InstanceValidationError(
                f"bounds[{j}]", f"lower {inst.lower[j]!r} exceeds upper {inst.upper[j]!r}"
            )
    if len(inst.row_idx) != len(inst.col_idx) or len(inst.row_idx) != len(inst.coef):
        raise InstanceValidationError("cons_matrix", "triplet arrays have unequal lengths")
    seen: set[tuple[int, int]] = set()
    for k in range(inst.nnz):
        i, j = int(inst.row_idx[k]), int(inst.col_idx[k])
        if not (0 <= i < m):
            raise InstanceValidationError(f"cons_matrix[{k}].row", f"row {i} out of range")
        if not (0 <= j < n):
            raise InstanceValidationError(f"cons_matrix[{k}].col", f"col {j} out of range")
        if (i, j) in seen:
            raise InstanceValidationError(f"cons_matrix[{k}]", f"duplicate entry ({i}, {j})")
        seen.add((i, j))


def lp_relaxation(inst: MilpInstance) -> MilpInstance:
    """Same instance with integrality dropped (num_int = 0); input unmodified."""
    return replace(inst, num_int=0)


# ---------------------------------------------------------------------------
# Instance file format
#
#   MILP v1 <name> <n> <m> <p>
#   OBJ c0 c1 ... c{n-1}
#   ROW i rhs nnz col val col val ...        (one per constraint, i = 0..m-1)
#   BND j l u                                (one per variable, j = 0..n-1)
#
# Reals are written with 17 significant digits; inf/-inf are literal tokens.
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def serialize_instance(inst: MilpInstance) -> str:
    lines = [f"MILP v1 {inst.name} {inst.num_vars} {inst.num_cons} {inst.num_int}"]
    lines.append("OBJ " + " ".join(_fmt(c) for c in inst.objective))
    rows: list[list[tuple[int, float]]] = [[] for _ in range(inst.num_cons)]
    for k in range(inst.nnz):
        rows[int(inst.row_idx[k])].append((int(inst.col_idx[k]), float(inst.coef[k])))
    for i in range(inst.num_cons):
        parts = [f"ROW {i} {_fmt(inst.rhs[i])} {len(rows[i])}"]
        for j, v in rows[i]:
            parts.append(f"{j} {_fmt(v)}")
        lines.append(" ".join(parts))
    for j in range(inst.num_vars):
        lines.append(f"BND {j} {_fmt(inst.lower[j])} {_fmt(inst.upper[j])}")
    return "\n".join(lines) + "\n"


def _parse_real(tok: str, line_no: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise InstanceFormatError(line_no, f"bad real {tok!r}") from None


def _parse_int(tok: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InstanceFormatError(line_no, f"bad integer {tok!r}") from None


def parse_instance(text: str) -> MilpInstance:
    """Parse and validate an instance file; see module docstring for the format."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise InstanceFormatError(1, "empty file")
    for k, ln in enumerate(lines):
        if not ln.strip():
            raise InstanceFormatError(k + 1, "blank line inside instance body")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "MILP" or head[1] != "v1":
        raise InstanceFormatError(1, "expected header 'MILP v1 <name> <n> <m> <p>'")
    name = head[2]
    n = _parse_int(head[3], 1)
    m = _parse_int(head[4], 1)
    p = _parse_int(head[5], 1)

    expected = 2 + m + n
    if len(lines) != expected:
        raise InstanceFormatError(len(lines), f"expected {expected} lines, got {len(lines)}")

    if not lines[1].startswith("OBJ"):
        raise InstanceFormatError(2, "expected OBJ line")
    obj_toks = lines[1].split()[1:]
    if len(obj_toks) != n:
        raise InstanceFormatError(2, f"OBJ needs {n} values, got {len(obj_toks)}")
    objective = np.array([_parse_real(t, 2) for t in obj_toks])

    rhs = np.zeros(m)
    row_idx: list[int] = []
    col_idx: list[int] = []
    coef: list[float] = []
    for i in range(m):
        line_no = 3 + i
        toks = lines[line_no - 1].split()
        if len(toks) < 4 or toks[0] != "ROW":
            raise InstanceFormatError(line_no, "expected 'ROW i rhs nnz col val ...'")
        ri = _parse_int(toks[1], line_no)
        if ri != i:
            raise InstanceFormatError(line_no, f"expected ROW {i}, got ROW {ri}")
        rhs[i] = _parse_real(toks[2], line_no)
        nnz = _parse_int(toks[3], line_no)
        if len(toks) != 4 + 2 * nnz:
            raise InstanceFormatError(line_no, f"ROW {i} declares {nnz} entries but has {(len(toks) - 4) // 2}")
        for k in range(nnz):
            row_idx.append(i)
            col_idx.append(_parse_int(toks[4 + 2 * k], line_no))
            coef.append(_parse_real(toks[5 + 2 * k], line_no))

    lower = np.zeros(n)
    upper = np.zeros(n)
    for j in range(n):
        line_no = 3 + m + j
        toks = lines[line_no - 1].split()
        if len(toks) != 4 or toks[0] != "BND":
            raise InstanceFormatError(line_no, "expected 'BND j l u'")
        bj = _parse_int(toks[1], line_no)
        if bj != j:
            raise InstanceFormatError(line_no, f"expected BND {j}, got BND {bj}")
        lower[j] = _parse_real(toks[2], line_no)
        upper[j] = _parse_real(toks[3], line_no)

    inst = MilpInstance(
        name=name, num_vars=n, num_cons=m, num_int=p,
        objective=objective,
        row_idx=np.array(row_idx, dtype=np.int64),
        col_idx=np.array(col_idx, dtype=np.int64),
        coef=np.array(coef),
        rhs=rhs, lower=lower, upper=upper,
    )
    validate_instance(inst)
    return inst


# ---------------------------------------------------------------------------
# Synthetic instance families. Every generator plants a feasible integer
# point so feasibility holds by construction, and is deterministic in seed.
# ---------------------------------------------------------------------------

def _build(name, n, m, p, c, dense_rows, rhs, lower, upper) -> MilpInstance:
    row_idx, col_idx, coef = [], [], []
    for i, row in enumerate(dense_rows):
        for j, v in enumerate(row):
            if v != 0.0:
                row_idx.append(i)
                col_idx.append(j)
                coef.append(float(v))
    inst = MilpInstance(
        name=name, num_vars=n, num_cons=m, num_int=p,
        objective=np.asarray(c, dtype=float),
        row_idx=np.array(row_idx, dtype=np.int64),
        col_idx=np.array(col_idx, dtype=np.int64),
        coef=np.array(coef),
        rhs=np.asarray(rhs, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
    )
    validate_instance(inst)
    return inst


def _gen_multi_knapsack(spec: InstanceFamilySpec, rng: np.random.Generator):
    """Binary multi-knapsack: maximize item values under m capacity rows."""
    n, m = spec.n, spec.m
    weights = rng.integers(10, 31, size=(m, n)).astype(float)
    if spec.density < 1.0:
        mask = rng.random((m, n)) < spec.density
        # keep at least one nonzero per row so no constraint is vacuous
        for i in range(m):
            if not mask[i].any():
                mask[i, int(rng.integers(0, n))] = True
        weights = weights * mask
    values = weights.mean(axis=0) + rng.integers(1, 11, size=n)
    planted = (rng.random(n) < 0.3).astype(float)
    theta = rng.uniform(0.35, 0.55, size=m)
    cap = np.maximum(np.round(theta * weights.sum(axis=1)), weights @ planted)
    return _build(
        spec.instance_name(), n, m, n,
        c=-values, dense_rows=weights, rhs=cap,
        lower=np.zeros(n), upper=np.ones(n),
    ), planted


def _gen_set_cover(spec: InstanceFamilySpec, rng: np.random.Generator):
    """Binary set cover: every element row gets >= 2 covering columns."""
    n, m = spec.n, spec.m
    density = min(max(spec.density, 0.05), 1.0)
    A = np.zeros((m, n))
    for i in range(m):
        k = max(2, int(round(density * n * 0.4)))
        cols = rng.choice(n, size=min(k, n), replace=False)
        A[i, cols] = 1.0
    # ensure every column covers something so it is never useless
    for j in range(n):
        if not A[:, j].any():
            A[int(rng.integers(0, m)), j] = 1.0
    cost = rng.integers(1, 21, size=n).astype(float)
    planted = np.ones(n)
    # cover rows: sum_j a_ij x_j >= 1, stored as -sum <= -1
    return _build(
        spec.instance_name(), n, m, n,
        c=cost, dense_rows=-A, rhs=-np.ones(m),
        lower=np.zeros(n), upper=np.ones(n),
    ), planted


def _gen_item_placement(spec: InstanceFamilySpec, rng: np.random.Generator):
    """Assignment-with-capacities family (synthetic, desk-scale).

    Items are placed into bins: each item goes to exactly one bin (equality
    written as a <= pair) and each bin has a size capacity. Variables are
    x[item, bin], column order item-major.
    """
    bins = max(2, min(4, spec.m))
    items = max(2, spec.n // bins)
    n = items * bins
    sizes = rng.integers(5, 16, size=items).astype(float)
    cost = rng.uniform(1.0, 10.0, size=(items, bins))

    planted = np.zeros((items, bins))
    for it in range(items):
        planted[it, it % bins] = 1.0
    loads = sizes @ planted
    cap = np.maximum(np.ceil(loads), np.ceil(sizes.sum() / bins * rng.uniform(0.9, 1.2, size=bins)))

    rows = []
    rhs = []
    for it in range(items):
        row = np.zeros(n)
        row[it * bins:(it + 1) * bins] = 1.0
        rows.append(row)          # sum_b x <= 1
        rhs.append(1.0)
        rows.append(-row)         # sum_b x >= 1
        rhs.append(-1.0)
    for b in range(bins):
        row = np.zeros(n)
        for it in range(items):
            row[it * bins + b] = sizes[it]
        rows.append(row)
        rhs.append(cap[b])
    return _build(
        spec.instance_name(), n, len(rows), n,
        c=cost.ravel(), dense_rows=rows, rhs=rhs,
        lower=np.zeros(n), upper=np.ones(n),
    ), planted.ravel()


_GENERATORS = {
    "multi-knapsack": _gen_multi_knapsack,
    "set-cover": _gen_set_cover,
    "item-placement-like": _gen_item_placement,
}


def generate_with_certificate(spec: InstanceFamilySpec) -> tuple[MilpInstance, np.ndarray]:
    """Generate an instance plus the integer point planted to guarantee feasibility."""
    if spec.family not in _GENERATORS:
        raise ValueError(f"unsupported family {spec.family!r}; known: {FAMILIES}")
    if spec.n <= 0 or spec.m <= 0:
        raise ValueError("size parameters must be positive")
    rng = np.random.default_rng([spec.seed, stable_key(spec.family)])
    return _GENERATORS[spec.family](spec, rng)


def generate_instance(spec: InstanceFamilySpec) -> MilpInstance:
    return generate_with_certificate(spec)[0]


def stable_key(text: str) -> int:
    """Stable 64-bit key of a name, for seeding per-family and per-instance
    rng streams."""
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")
