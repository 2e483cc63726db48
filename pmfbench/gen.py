"""Seeded input generator for the pmfrec benchmark (plain numpy, no pmfrec).

Each `make_<workload>` function draws ground-truth latent-class models,
writes the files the timed process reads into a work directory, and
returns the ground truth the output checks compare against. Nothing here
imports pmfrec, so the checks never depend on the code they check.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

WORKLOAD_TAGS = {"wide_pipeline": 2, "bulk_predict": 3}  # stream ids mixed into the seed

# The noiseless-recovery fits reproduce the acceptance spec (N=5, I=10,
# matched rank, trial seeds spawned from master seed 2024).
RECOVERY = {
    "n_vars": 5,
    "alphabet": 10,
    "rank": 10,
    "orders": (3, 4),
    "trials": 4,
    "master_seed": 2024,
    "config": {
        "max_outer_sweeps": 1200,
        "admm_inner_iters": 10,
        "outer_tol": 1e-15,
        "cost_floor": 1e-22,
        "restarts": 2,
        "restart_floor": 1e-20,
    },
}
WIDE = {
    "n_vars": 20, "alphabet": 5, "rank": 8, "train": 200_000, "heldout": 20_000,
    "hide": 0.2, "order": 3, "max_sweeps": 60,
}
BULK = {"n_vars": 12, "alphabet": 10, "rank": 20, "rows": 200_000, "hide": 0.3}


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    """Per-trial seeds by the acceptance spec's splitting rule."""
    seqs = np.random.SeedSequence(master_seed).spawn(trials)
    return [int(s.generate_state(1)[0]) for s in seqs]


def random_model(sizes, rank: int, rng: np.random.Generator):
    """IID uniform(0, 1) entries, every column and the loadings normalized.

    Draws factors first and the loadings last, the order the acceptance
    spec's ground truth uses, so a trial seed gives the same model here.
    """
    factors = []
    for size in sizes:
        A = rng.uniform(size=(size, rank))
        factors.append(A / A.sum(axis=0, keepdims=True))
    lam = rng.uniform(size=rank)
    return lam / lam.sum(), factors


def dense_joint(lam, factors) -> np.ndarray:
    """Dense CP synthesis sum_f lam[f] prod_n A_n[i_n, f] (C-ordered axes)."""
    letters = "abcdefghijklmnopqrstuvwxy"[: len(factors)]
    spec = "z," + ",".join(f"{c}z" for c in letters) + "->" + letters
    return np.einsum(spec, lam, *factors)


def sample_codes(lam, factors, m: int, rng: np.random.Generator) -> np.ndarray:
    """Ancestral sample of m records as 1-based codes, shape (m, N), int8."""
    h = rng.choice(lam.size, size=m, p=lam)
    codes = np.empty((m, len(factors)), dtype=np.int8)
    for n, A in enumerate(factors):
        cum = np.cumsum(A, axis=0)
        cum[-1] = 1.0
        u = rng.random(m)
        codes[:, n] = (u[:, None] > cum.T[h]).sum(axis=1) + 1
    return codes


def hide_cells(codes: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Set exactly round(fraction * cells) uniformly chosen cells to 0 (missing)."""
    out = codes.copy()
    count = round(fraction * out.size)
    out.reshape(-1)[rng.choice(out.size, size=count, replace=False)] = 0
    return out


def write_digit_csv(path: str, codes: np.ndarray) -> None:
    """Single-digit codes with '?' for missing, written byte by byte."""
    m, n = codes.shape
    buf = np.empty((m, 2 * n), dtype=np.uint8)
    buf[:, 0::2] = np.where(codes == 0, ord("?"), codes + ord("0"))
    buf[:, 1::2] = ord(",")
    buf[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(buf.tobytes())


def write_model(path: str, lam, factors) -> None:
    """Ground-truth model in pmfrec's model-document layout (schema 1)."""
    doc = {
        "version": 1,
        "alphabet_sizes": [int(A.shape[0]) for A in factors],
        "rank": int(lam.size),
        "lambda": lam.tolist(),
        "factors": [A.T.tolist() for A in factors],  # stored column by column
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def make_noiseless_recovery(seed: int, work: str) -> dict:
    """Exact order-3 and order-4 marginals of the first acceptance trials.

    The trial list does not depend on `seed`: one fit takes 0.7 to 18 s
    depending on its trial, so drawing trials per run would make the run
    time a property of the draw rather than of the program.
    """
    cfg = RECOVERY
    jobs, truths, arrays = [], {}, {}
    for trial, ts in enumerate(trial_seeds(cfg["master_seed"], cfg["trials"])):
        lam, factors = random_model([cfg["alphabet"]] * cfg["n_vars"], cfg["rank"],
                                    np.random.default_rng(ts))
        truths[trial] = (lam, factors)
        for order in cfg["orders"]:
            keys = list(itertools.combinations(range(1, cfg["n_vars"] + 1), order))
            for k, key in enumerate(keys):
                sub = dense_joint(lam, [factors[v - 1] for v in key])
                arrays[f"o{order}_t{trial}_{k}"] = sub.ravel(order="F")
            jobs.append({"order": order, "trial": trial, "trial_seed": ts,
                         "fit_seed": ts + 3, "keys": keys})
    np.savez(os.path.join(work, "marginals.npz"), **arrays)
    spec = {"n_vars": cfg["n_vars"], "alphabet": cfg["alphabet"], "rank": cfg["rank"],
            "config": cfg["config"], "jobs": jobs}
    with open(os.path.join(work, "spec.json"), "w") as fh:
        json.dump(spec, fh)
    return {"spec": spec, "truths": truths, "arrays": arrays}


def make_wide_pipeline(seed: int, work: str) -> dict:
    cfg = WIDE
    rng = np.random.default_rng([seed, WORKLOAD_TAGS["wide_pipeline"]])
    sizes = [cfg["alphabet"]] * cfg["n_vars"]
    lam, factors = random_model(sizes, cfg["rank"], rng)
    train = hide_cells(sample_codes(lam, factors, cfg["train"], rng), cfg["hide"], rng)
    heldout = hide_cells(sample_codes(lam, factors, cfg["heldout"], rng), cfg["hide"], rng)
    target = int(rng.integers(1, cfg["n_vars"] + 1))
    write_digit_csv(os.path.join(work, "train.csv"), train)
    write_digit_csv(os.path.join(work, "heldout.csv"), heldout)
    spec = {"target": target, "rank": cfg["rank"], "order": cfg["order"],
            "max_sweeps": cfg["max_sweeps"], "rows": cfg["heldout"], "seed": seed}
    with open(os.path.join(work, "spec.json"), "w") as fh:
        json.dump(spec, fh)
    return {"spec": spec, "lam": lam, "factors": factors, "train": train,
            "heldout": heldout,
            # draws the tuples whose counts the checks redo in plain Python
            "sample_rng": np.random.default_rng([seed, 99])}


def make_bulk_predict(seed: int, work: str) -> dict:
    cfg = BULK
    rng = np.random.default_rng([seed, WORKLOAD_TAGS["bulk_predict"]])
    sizes = [cfg["alphabet"]] * cfg["n_vars"]
    lam, factors = random_model(sizes, cfg["rank"], rng)
    codes = hide_cells(sample_codes(lam, factors, cfg["rows"], rng), cfg["hide"], rng)
    target = int(rng.integers(1, cfg["n_vars"] + 1))
    # About half of the observed cells are written as code - 0.5, which
    # --round half-up maps back onto the code.
    half = (rng.random(codes.shape) < 0.5) & (codes != 0)
    a = cfg["alphabet"]
    tokens = np.array(["?"] + [str(c) for c in range(1, a + 1)]
                      + [f"{c - 0.5:g}" for c in range(1, a + 1)], dtype=object)
    ids = np.where(half, codes.astype(np.int64) + a, codes)
    cells = tokens[ids]
    with open(os.path.join(work, "rows.csv"), "w") as fh:
        fh.write("\n".join(",".join(row) for row in cells.tolist()))
        fh.write("\n")
    write_model(os.path.join(work, "model.json"), lam, factors)
    spec = {"target": target, "rows": cfg["rows"], "seed": seed}
    with open(os.path.join(work, "spec.json"), "w") as fh:
        json.dump(spec, fh)
    return {"spec": spec, "lam": lam, "factors": factors, "codes": codes}


MAKERS = {
    "noiseless_recovery": make_noiseless_recovery,
    "wide_pipeline": make_wide_pipeline,
    "bulk_predict": make_bulk_predict,
}
