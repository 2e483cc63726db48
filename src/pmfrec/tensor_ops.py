"""Dense multiway arrays and the CP-model kernels everything else builds on.

Conventions used throughout the package:

* a tensor is stored as a flat array in first-index-fastest (column-major)
  order, so entry (i_1, ..., i_K) sits at linear position
  ``sum_k (i_k - 1) * J_k`` with ``J_k = I_1 * ... * I_{k-1}`` (1-based);
* modes and category codes are 1-based in every public signature;
* a factor matrix is I_n x F with each column a PMF over the categories of
  one variable; the loading vector is a PMF over the F latent components.

All operations are pure functions on read-only arrays and are safe to call
concurrently.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError

DEFAULT_ELEMENT_BUDGET = 10**8

_AXIS_LETTERS = string.ascii_lowercase[:25]  # 'z' reserved for the component axis

_PATH_CACHE: dict[tuple, list] = {}


def _cached_einsum(spec: str, *operands: np.ndarray) -> np.ndarray:
    """einsum with the contraction path cached per (spec, shapes)."""
    key = (spec,) + tuple(op.shape for op in operands)
    path = _PATH_CACHE.get(key)
    if path is None:
        path = np.einsum_path(spec, *operands, optimize="greedy")[0]
        _PATH_CACHE[key] = path
    return np.einsum(spec, *operands, optimize=path)


def check_capacity(shape: Sequence[int], element_budget: int = DEFAULT_ELEMENT_BUDGET) -> int:
    """Return prod(shape), raising CapacityError when it exceeds the budget."""
    total = 1
    for dim in shape:
        if dim < 1:
            raise ValueError(f"tensor dimensions must be positive, got {tuple(shape)}")
        total *= int(dim)
    if total > element_budget:
        raise CapacityError(
            f"dense tensor with shape {tuple(shape)} has {total} entries, "
            f"exceeding the element budget of {element_budget}"
        )
    return total


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DenseTensor:
    """Flat nonnegative multiway array in first-index-fastest order.

    `data` has length prod(shape). When `normalized` is set the entries are
    additionally required to sum to 1 within 1e-9.
    """

    shape: tuple[int, ...]
    data: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        shape = tuple(int(d) for d in self.shape)
        object.__setattr__(self, "shape", shape)
        data = np.asarray(self.data, dtype=np.float64).reshape(-1)
        if data.flags.writeable:
            data = data.copy()
            data.setflags(write=False)
        object.__setattr__(self, "data", data)
        expected = math.prod(shape) if shape else 1
        if data.size != expected:
            raise ValueError(
                f"data length {data.size} does not match shape {shape} (expected {expected})"
            )
        if data.size and not np.isfinite(data).all():
            raise ValueError("DenseTensor entries must be finite")
        if data.size and float(data.min()) < 0.0:
            raise ValueError("DenseTensor entries must be nonnegative")
        if self.normalized and abs(float(data.sum()) - 1.0) > 1e-9:
            raise ValueError(f"normalized tensor sums to {float(data.sum())}, not 1")

    @classmethod
    def from_array(cls, arr: np.ndarray, normalized: bool = False) -> "DenseTensor":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(shape=arr.shape, data=arr.ravel(order="F"), normalized=normalized)

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def array(self) -> np.ndarray:
        """The shaped (read-only) view of the flat data."""
        return self.data.reshape(self.shape, order="F")

    def total(self) -> float:
        return float(self.data.sum())

    def entry(self, index: Sequence[int]) -> float:
        """Entry at a 1-based multi-index."""
        idx = tuple(i - 1 for i in index)
        return float(self.array[idx])


@dataclass(frozen=True)
class FactorBundle:
    """Loading vector plus one conditional-probability matrix per variable.

    `factors[n]` is I_n x F; column f is the conditional PMF of variable n+1
    given latent component f. `loadings` is the length-F component PMF.
    """

    loadings: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        lam = _readonly(np.asarray(self.loadings, dtype=np.float64).reshape(-1))
        object.__setattr__(self, "loadings", lam)
        facs = []
        for n, A in enumerate(self.factors):
            A = np.asarray(A, dtype=np.float64)
            if A.ndim != 2:
                raise ValueError(f"factor {n + 1} must be a matrix, got ndim={A.ndim}")
            if A.shape[1] != lam.size:
                raise ValueError(
                    f"factor {n + 1} has {A.shape[1]} columns but rank is {lam.size}"
                )
            facs.append(_readonly(A))
        object.__setattr__(self, "factors", tuple(facs))

    @property
    def rank(self) -> int:
        return int(self.loadings.size)

    @property
    def n_vars(self) -> int:
        return len(self.factors)

    @property
    def alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(A.shape[0] for A in self.factors)

    def validate(self, tol: float = 1e-9) -> None:
        """Raise ValueError unless all simplex invariants hold within tol."""
        lam = self.loadings
        if lam.size < 1:
            raise ValueError("rank must be at least 1")
        if float(lam.min()) < -tol:
            raise ValueError("loadings must be nonnegative")
        if abs(float(lam.sum()) - 1.0) > tol:
            raise ValueError(f"loadings sum to {float(lam.sum())}, not 1")
        for n, A in enumerate(self.factors):
            if float(A.min()) < -tol:
                raise ValueError(f"factor {n + 1} has negative entries")
            colsums = A.sum(axis=0)
            if float(np.abs(colsums - 1.0).max()) > tol:
                raise ValueError(f"factor {n + 1} has columns not summing to 1")

    def subset(self, variables: Sequence[int]) -> "FactorBundle":
        """Sub-bundle keeping only the given 1-based variables (same loadings)."""
        return FactorBundle(self.loadings, tuple(self.factors[v - 1] for v in variables))


def _einsum_letters(order: int) -> list[str]:
    if order > len(_AXIS_LETTERS):
        raise ValueError(f"tensor order {order} exceeds supported maximum")
    return list(_AXIS_LETTERS[:order])


def synthesize_array(
    loadings: np.ndarray,
    factors: Sequence[np.ndarray],
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
) -> np.ndarray:
    """Dense ndarray with entries sum_f loadings[f] * prod_n factors[n][i_n, f]."""
    shape = [A.shape[0] for A in factors]
    check_capacity(shape, element_budget)
    letters = _einsum_letters(len(factors))
    spec = "z," + ",".join(f"{c}z" for c in letters) + "->" + "".join(letters)
    return _cached_einsum(spec, np.asarray(loadings, dtype=np.float64), *[np.asarray(A, dtype=np.float64) for A in factors])


def synthesize(bundle: FactorBundle, element_budget: int = DEFAULT_ELEMENT_BUDGET) -> DenseTensor:
    """Evaluate the full CP model of `bundle` as a dense tensor.

    The result sums to 1 whenever the bundle satisfies its simplex
    invariants. Raises CapacityError when prod(I_n) exceeds the budget.
    """
    arr = synthesize_array(bundle.loadings, bundle.factors, element_budget)
    return DenseTensor.from_array(arr)


def unfold(t: DenseTensor, mode: int) -> np.ndarray:
    """Mode-n unfolding: a prod_{k != n} I_k by I_n matrix (1-based mode).

    Row j enumerates the non-n indices first-index-fastest, matching the
    flat layout convention.
    """
    if not 1 <= mode <= t.order:
        raise ValueError(f"mode {mode} out of range for order-{t.order} tensor")
    arr = t.array
    moved = np.moveaxis(arr, mode - 1, -1)
    return moved.reshape(-1, t.shape[mode - 1], order="F")


def khatri_rao_stack(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Khatri-Rao product of one or more float matrices with the FIRST one's
    row index fastest.

    For matrices listed in increasing mode order this is the descending
    product A_K kr ... kr A_1 that appears in unfoldings and vectorization:
    the flat data of the CP model is ``khatri_rao_stack(factors) @ loadings``,
    and this product of the other factors, transposed, times the mode-n
    unfolding is the MTTKRP. The matrices may carry a leading batch axis:
    (T, I_k, F) stacks give the T products at once as a (T, J, F) array,
    J = prod I_k, and a plain matrix broadcasts against a stack. The fit
    calls it once per block of stacked tuples, so it takes the arrays as
    given and checks only their column counts.
    """
    out = matrices[0]
    F = out.shape[-1]
    for M in matrices[1:]:
        if M.shape[-1] != F:
            raise ValueError("column counts differ in Khatri-Rao chain")
        out = M[..., :, None, :] * out[..., None, :, :]
        out = out.reshape(out.shape[:-3] + (out.shape[-3] * out.shape[-2], F))
    return out
