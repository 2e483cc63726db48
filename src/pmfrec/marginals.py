"""Discrete datasets with missing cells and empirical low-order marginal PMFs.

Category codes are 1-based; code 0 marks a missing cell. A record contributes
to a d-tuple marginal only when all d cells are observed (complete-case per
tuple), which keeps every stored marginal an unbiased PMF estimate of that
tuple. Counting is exact 64-bit integer arithmetic with one final division.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError
from .tensor_ops import DenseTensor

MISSING = 0

_CHUNK_CHARS = 1 << 20  # text per vectorized parse step, which bounds its memory
_MAX_DIGITS = 15  # 10**15 < 2**53: such digit strings are exact in int64 and float64
_MAX_CODE = int(np.iinfo(np.int64).max)  # codes are stored as int64
_POW10 = np.array([float(10**k) for k in range(_MAX_DIGITS + 1)])


@dataclass(frozen=True)
class DiscreteDataset:
    """M records over N categorical variables, 0-coded cells missing."""

    codes: np.ndarray  # (M, N) int64
    alphabet_sizes: tuple[int, ...]

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.ndim != 2:
            raise DataError(f"records must form a 2-D array, got ndim={codes.ndim}")
        if codes.shape[0] < 1:
            raise DataError("dataset needs at least one record")
        sizes = tuple(int(s) for s in self.alphabet_sizes)
        if len(sizes) != codes.shape[1]:
            raise DataError(
                f"{len(sizes)} alphabet sizes for {codes.shape[1]} variables"
            )
        if any(s < 1 for s in sizes):
            raise DataError("alphabet sizes must be positive")
        if codes.min() < 0:
            raise DataError("category codes must be >= 0 (0 marks missing)")
        for n, size in enumerate(sizes):
            col_max = int(codes[:, n].max())
            if col_max > size:
                raise DataError(
                    f"column {n + 1} holds code {col_max} exceeding alphabet size {size}"
                )
        codes = codes.copy()
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "alphabet_sizes", sizes)

    @property
    def n_records(self) -> int:
        return int(self.codes.shape[0])

    @property
    def n_vars(self) -> int:
        return int(self.codes.shape[1])

    @property
    def observed_mask(self) -> np.ndarray:
        return self.codes != MISSING


@dataclass(frozen=True)
class MarginalEntry:
    tensor: DenseTensor
    support: int


@dataclass(frozen=True)
class MarginalSet:
    """Empirical marginal PMFs keyed by sorted 1-based variable tuples.

    Tuples with zero jointly-observed records keep a zero tensor with
    support 0 and are skipped by `active()` (and hence by fitting).
    """

    order: int
    alphabet_sizes: tuple[int, ...]
    entries: Mapping[tuple[int, ...], MarginalEntry] = field(default_factory=dict)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.alphabet_sizes)
        object.__setattr__(self, "alphabet_sizes", sizes)
        ents = {}
        for key, entry in self.entries.items():
            key = tuple(int(v) for v in key)
            if len(key) != self.order:
                raise DataError(f"tuple {key} does not match order {self.order}")
            if list(key) != sorted(set(key)):
                raise DataError(f"tuple {key} must be strictly increasing")
            if key[0] < 1 or key[-1] > len(sizes):
                raise DataError(f"tuple {key} out of range for {len(sizes)} variables")
            expect = tuple(sizes[v - 1] for v in key)
            if entry.tensor.shape != expect:
                raise DataError(
                    f"marginal {key} has shape {entry.tensor.shape}, expected {expect}"
                )
            ents[key] = entry
        object.__setattr__(self, "entries", ents)

    @property
    def n_vars(self) -> int:
        return len(self.alphabet_sizes)

    def active(self) -> Iterator[tuple[tuple[int, ...], MarginalEntry]]:
        """Entries with positive support, in sorted key order."""
        for key in sorted(self.entries):
            entry = self.entries[key]
            if entry.support > 0:
                yield key, entry

    def is_complete(self) -> bool:
        return len(self.entries) == math.comb(self.n_vars, self.order)


def load_csv(
    path,
    missing_token: str = "?",
    alphabet_sizes: Sequence[int] | None = None,
    delimiter: str = ",",
    has_header: bool = False,
    rounding: str | None = None,
) -> DiscreteDataset:
    """Read a delimiter-separated file of 1-based integer codes into a dataset.

    Cells equal to `missing_token` (after stripping) become missing. Alphabet
    sizes default to the per-column maximum observed code. `rounding` maps
    real-valued cells onto integer codes: None rejects them, "half-up" rounds
    x to floor(x + 0.5) and "ceiling" to ceil(x).

    Well-formed files are parsed in vectorized chunks; any file that parse
    cannot vouch for is read again cell by cell, which gives the same codes
    and names the line and column of the first bad cell.
    """
    if rounding not in (None, "half-up", "ceiling"):
        raise DataError(f"unknown rounding convention {rounding!r}")
    codes = _read_fast(path, missing_token, delimiter, has_header, rounding)
    if codes is None:
        codes = _read_cells(path, missing_token, delimiter, has_header, rounding)
    n_vars = codes.shape[1]
    if alphabet_sizes is None:
        sizes = []
        for n in range(n_vars):
            col_max = int(codes[:, n].max())
            if col_max == MISSING:
                raise DataError(
                    f"column {n + 1} is entirely missing; cannot infer its alphabet size"
                )
            sizes.append(col_max)
        alphabet_sizes = tuple(sizes)
    else:
        alphabet_sizes = tuple(int(s) for s in alphabet_sizes)
        if len(alphabet_sizes) != n_vars:
            raise DataError(
                f"{len(alphabet_sizes)} alphabet sizes provided for {n_vars} columns"
            )
    return DiscreteDataset(codes=codes, alphabet_sizes=alphabet_sizes)


def _read_cells(path, missing_token, delimiter, has_header, rounding) -> np.ndarray:
    """Per-cell parse through `csv.reader`; the source of every diagnostic."""
    rows: list[list[int]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        if has_header:
            next(reader, None)
        for lineno, raw in enumerate(reader, start=2 if has_header else 1):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            row = []
            for colno, cell in enumerate(raw, start=1):
                cell = cell.strip()
                if cell == missing_token:
                    row.append(MISSING)
                    continue
                try:
                    value = int(cell)
                except ValueError:
                    if rounding is None:
                        raise DataError(
                            f"non-integer cell {cell!r} at line {lineno}, column {colno}"
                        ) from None
                    try:
                        x = float(cell)
                    except ValueError:
                        raise DataError(
                            f"unparseable cell {cell!r} at line {lineno}, column {colno}"
                        ) from None
                    if not math.isfinite(x):
                        raise DataError(
                            f"non-finite cell {cell!r} at line {lineno}, column {colno}"
                        )
                    value = math.floor(x + 0.5) if rounding == "half-up" else math.ceil(x)
                if value < 1:
                    raise DataError(
                        f"code {value} at line {lineno}, column {colno} is below 1"
                    )
                if value > _MAX_CODE:
                    raise DataError(
                        f"cell {cell!r} at line {lineno}, column {colno} is too large for a code"
                    )
                row.append(value)
            rows.append(row)
    if not rows:
        raise DataError(f"no records found in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"inconsistent column counts in {path}: {sorted(widths)}")
    return np.asarray(rows, dtype=np.int64)


def _read_fast(path, missing_token, delimiter, has_header, rounding) -> np.ndarray | None:
    """Vectorized parse of a provably well-formed file, else None.

    The file qualifies when it is ASCII with no quote, carriage return or NUL,
    every non-blank line has the same number of cells, and every cell, after
    stripping spaces and tabs, is either `missing_token` or 1 to 15 decimal
    digits (with one optional '.' under `rounding`) denoting a code >= 1. On
    that grammar int() and float() agree exactly with the arithmetic in
    `_parse_chunk`, so the codes equal those of `_read_cells`. The token
    must be printable, at most 16 characters and not look like a number; the
    delimiter must not occur in a number.
    """
    if not (
        len(delimiter) == 1
        and delimiter.isascii()
        and (delimiter.isprintable() or delimiter == "\t")
        and delimiter not in '0123456789."'
        and 1 <= len(missing_token) <= _MAX_DIGITS + 1
        and missing_token.isascii()
        and missing_token.isprintable()
        and not any(c.isspace() or c in delimiter + '"' for c in missing_token)
        and any(c not in "0123456789." for c in missing_token)
    ):
        return None
    blocks = []
    try:
        with open(path, newline="") as fh:
            if has_header:
                header = fh.readline()
                if any(c in header for c in '"\r\0') or len(header) > csv.field_size_limit():
                    return None
            while lines := fh.readlines(_CHUNK_CHARS):
                block = _parse_chunk(lines, missing_token, delimiter, rounding)
                if block is None:
                    return None
                if block.size:
                    blocks.append(block)
    except UnicodeDecodeError:
        return None
    if not blocks or len({b.shape[1] for b in blocks}) != 1:
        return None
    return np.concatenate(blocks)


def _parse_chunk(lines, missing_token, delimiter, rounding) -> np.ndarray | None:
    """Codes of the non-blank `lines` (see `_read_fast`), or None."""
    text = "".join(line for line in lines if line.strip(" \t\n" + delimiter))
    if not text:
        return np.zeros((0, 0), dtype=np.int64)
    if not text.isascii() or any(c in text for c in '"\r\0'):
        return None
    if not text.endswith("\n"):
        text += "\n"
    a = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    sep = (a == ord(delimiter)) | (a == ord("\n"))
    content = ~sep
    for blank in {" ", "\t"} - {delimiter}:
        content &= a != ord(blank)
    run_start = content.copy()
    run_start[1:] &= ~content[:-1]
    starts = np.flatnonzero(run_start)
    lengths = np.flatnonzero(content[:-1] & ~content[1:]) + 1 - starts
    # Exactly one run of content per cell: run j must lie inside cell j.
    cell_ends = np.flatnonzero(sep)
    if (
        starts.size != cell_ends.size
        or (starts > cell_ends).any()
        or (starts[1:] < cell_ends[:-1]).any()
    ):
        return None
    line_ends = np.flatnonzero(a[cell_ends] == ord("\n"))
    width = int(line_ends[0]) + 1
    if line_ends.size * width != cell_ends.size or (np.diff(line_ends) != width).any():
        return None

    token = np.frombuffer(missing_token.encode("ascii"), dtype=np.uint8)
    longest = int(lengths.max())
    if longest > max(token.size, _MAX_DIGITS + 1):
        return None
    # Read the k-th byte of every cell at once; a cell's bytes past its end read as 0.
    n = starts.size
    is_token = lengths == token.size
    value = np.zeros(n, dtype=np.int64)
    digits = np.zeros(n, dtype=np.int8)
    dots = np.zeros(n, dtype=np.int8)
    frac = np.zeros(n, dtype=np.int8)  # digits after the '.'
    stray = np.zeros(n, dtype=bool)  # a byte that is neither digit nor '.'
    for k in range(max(longest, token.size)):
        ch = np.where(lengths > k, a[np.minimum(starts + k, a.size - 1)], 0)
        if k < token.size:
            is_token &= ch == token[k]
        d = ch - np.uint8(ord("0"))  # wraps past 9 for every non-digit byte
        is_digit = d < 10
        is_dot = ch == ord(".")
        stray |= ~(is_digit | is_dot | (ch == 0))
        frac += is_digit & (dots > 0)
        dots += is_dot
        digits += is_digit
        value = np.where(is_digit, value * 10 + d, value)

    well_formed = ~stray & (digits >= 1) & (digits <= _MAX_DIGITS)
    well_formed &= dots <= (rounding is not None)
    if not (well_formed | is_token).all():
        return None
    if rounding is None:
        codes = value
    else:
        x = value / _POW10[frac]
        codes = (np.floor(x + 0.5) if rounding == "half-up" else np.ceil(x)).astype(np.int64)
    if not ((codes >= 1) | is_token).all():
        return None
    codes[is_token] = MISSING
    return codes.reshape(-1, width)


def estimate_marginals(data: DiscreteDataset, order: int) -> MarginalSet:
    """Co-occurrence estimates of every order-d marginal PMF.

    For each sorted d-tuple the tensor entry is the joint observation count
    divided by the number of records fully observed on the tuple.

    Each column is recoded 0-based with a missing cell as the extra category
    I_n, so one bincount over the extended alphabets counts a tuple, its
    complete-case counts are the leading I_1 x ... x I_d block, and the
    support is that block's sum. The index of the first d-1 variables is
    computed once per prefix and reused for every last variable.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > data.n_vars:
        raise ValueError(f"order {order} exceeds the {data.n_vars} variables present")
    sizes = data.alphabet_sizes
    cols = []
    for n, size in enumerate(sizes):
        col = data.codes[:, n].astype(np.intp) - 1
        col[col < 0] = size
        cols.append(col)
    entries: dict[tuple[int, ...], MarginalEntry] = {}
    for prefix in itertools.combinations(range(data.n_vars - 1), order - 1):
        partial, stride = 0, 1
        for v in prefix:
            partial = partial + stride * cols[v]
            stride *= sizes[v] + 1
        for last in range(prefix[-1] + 1 if prefix else 0, data.n_vars):
            combo = prefix + (last,)
            dims = tuple(sizes[v] for v in combo)
            extended = np.bincount(
                partial + stride * cols[last], minlength=stride * (sizes[last] + 1)
            )
            block = extended.reshape([s + 1 for s in dims], order="F")[
                tuple(slice(s) for s in dims)
            ]
            support = int(block.sum())
            if support == 0:
                tensor = DenseTensor(shape=dims, data=np.zeros(math.prod(dims)))
            else:
                tensor = DenseTensor(shape=dims, data=block.ravel(order="F") / support)
            entries[tuple(v + 1 for v in combo)] = MarginalEntry(
                tensor=tensor, support=support
            )
    return MarginalSet(order=order, alphabet_sizes=data.alphabet_sizes, entries=entries)


def marginalize_tensor(t: DenseTensor, keep: Sequence[int]) -> DenseTensor:
    """Sum out every mode not in `keep` (1-based); preserves total mass.

    Kept modes stay in increasing mode order.
    """
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 1 or keep[-1] > t.order:
        raise ValueError(f"keep modes {keep} out of range for order-{t.order} tensor")
    drop = tuple(ax for ax in range(t.order) if (ax + 1) not in keep)
    arr = t.array.sum(axis=drop) if drop else t.array
    return DenseTensor.from_array(arr)
