"""Shared independent oracles used across the test modules.

These deliberately avoid the library's own kernels: brute-force loops,
exhaustive enumeration, and small exact QPs, so each identity is checked
through two unrelated routes.
"""

import itertools
import math

import numpy as np
import pytest


def loop_synthesize(lam, factors):
    """Triple-nested-loop evaluation of the latent-class sum."""
    shape = tuple(A.shape[0] for A in factors)
    out = np.zeros(shape)
    for idx in itertools.product(*[range(s) for s in shape]):
        total = 0.0
        for f in range(lam.size):
            term = lam[f]
            for n, i in enumerate(idx):
                term *= factors[n][i, f]
            total += term
        out[idx] = total
    return out


def loop_mttkrp(arr, factors, mode):
    """F x I_mode matrix: entry (f, i) sums arr[idx] times the product of
    factors[k][idx[k], f] over k != mode - 1, for every idx with
    idx[mode - 1] = i, by loops over the entries."""
    rank = factors[0].shape[1]
    out = np.zeros((rank, arr.shape[mode - 1]))
    for idx in itertools.product(*[range(s) for s in arr.shape]):
        for f in range(rank):
            term = arr[idx]
            for k, i in enumerate(idx):
                if k != mode - 1:
                    term *= factors[k][i, f]
            out[f, idx[mode - 1]] += term
    return out


def simplex_qp_oracle(v):
    """Exhaustive active-set solve of min ||x - v||^2 on the simplex.

    Enumerates every support set, solves the equality-constrained problem in
    closed form, keeps feasible KKT points, returns the best.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    best, best_obj = None, np.inf
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            s = list(support)
            theta = (v[s].sum() - 1.0) / len(s)
            x = np.zeros(n)
            x[s] = v[s] - theta
            if (x[s] < -1e-12).any():
                continue
            # KKT: excluded coordinates must not want back in
            if any(v[i] - theta > 1e-12 for i in range(n) if i not in support):
                continue
            obj = float(((x - v) ** 2).sum())
            if obj < best_obj:
                best, best_obj = x, obj
    return best


def dense_target_masses(model, target, evidence):
    """Unnormalized posterior of the target: the loop-built dense joint summed
    over every cell that agrees with the evidence. All zeros exactly when the
    evidence has probability zero."""
    arr = loop_synthesize(model.bundle.loadings, model.bundle.factors)
    idx = [slice(None)] * model.n_vars
    for var, code in evidence.items():
        idx[var - 1] = code - 1
    sub = arr[tuple(idx)]
    axes = [n for n in range(sub.ndim)]
    # after slicing, the target axis position is its rank among unsliced vars
    unsliced = [v for v in range(1, model.n_vars + 1) if v not in evidence]
    t_ax = unsliced.index(target)
    other = tuple(a for a in axes if a != t_ax)
    return sub.sum(axis=other) if other else sub


def dense_posterior_oracle(model, target, evidence):
    """Posterior over the target by full enumeration of the dense joint."""
    vec = dense_target_masses(model, target, evidence)
    return vec / vec.sum()


def log_space_posterior_oracle(lam, factors, target, row):
    """Posterior of the 1-based target given one row of 1-based codes (0 =
    missing), by scalar math.log/math.exp loops with a max shift."""
    scores = []
    for f in range(len(lam)):
        s = math.log(lam[f])
        for n, code in enumerate(row):
            if n != target - 1 and code != 0:
                s += math.log(factors[n][code - 1][f])
        scores.append(s)
    peak = max(scores)
    weights = [math.exp(s - peak) for s in scores]
    target_factor = factors[target - 1]
    unnorm = [
        sum(w * target_factor[i][f] for f, w in enumerate(weights))
        for i in range(len(target_factor))
    ]
    total = sum(unnorm)
    return [u / total for u in unnorm]


def loop_marginal_counts(codes, alphabet_sizes, combo):
    """Complete-case joint counts of the 1-based variables `combo` and their
    support, by one pass of plain Python over the records."""
    counts = np.zeros([alphabet_sizes[v - 1] for v in combo], dtype=np.int64)
    support = 0
    for record in codes.tolist():
        cells = [record[v - 1] for v in combo]
        if 0 in cells:
            continue
        counts[tuple(c - 1 for c in cells)] += 1
        support += 1
    return counts, support


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
