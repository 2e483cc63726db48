import itertools

import numpy as np
import pytest

from pmfrec import (
    DiscreteDataset,
    MISSING,
    empirical_joint,
    eval_metrics,
    exact_marginals,
    hide_entries,
    marginalize_tensor,
    mre_fact,
    mre_ten,
    oracle_mle,
    random_model,
    sample_dataset,
    sample_labeled,
    synthesize,
)
from pmfrec.harness import (
    ExperimentSpec,
    map_accuracy,
    match_components,
    split_dataset,
    summarize_rows,
    trial_seeds,
)
from pmfrec.tensor_ops import FactorBundle


class TestRandomModel:
    def test_columns_are_pmfs(self):
        model = random_model(4, 6, 5, seed=0)
        for A in model.bundle.factors:
            np.testing.assert_allclose(A.sum(axis=0), 1.0, atol=1e-12)
            assert A.min() >= 0
        assert model.bundle.loadings.sum() == pytest.approx(1.0, abs=1e-12)

    def test_reproducible(self):
        a = random_model(3, 4, 2, seed=5)
        b = random_model(3, 4, 2, seed=5)
        for Aa, Ab in zip(a.bundle.factors, b.bundle.factors):
            np.testing.assert_array_equal(Aa, Ab)

    def test_rank_one_is_independent(self):
        model = random_model(3, 3, 1, seed=1)
        t = synthesize(model.bundle).array
        m1 = marginalize_tensor(synthesize(model.bundle), {1}).array
        m2 = marginalize_tensor(synthesize(model.bundle), {2}).array
        m3 = marginalize_tensor(synthesize(model.bundle), {3}).array
        np.testing.assert_allclose(t, np.einsum("i,j,k->ijk", m1, m2, m3), atol=1e-12)


class TestSampleDataset:
    def test_univariate_marginals_within_bands(self):
        model = random_model(4, 5, 3, seed=2)
        M = 100_000
        data = sample_dataset(model, M, seed=3)
        for n, A in enumerate(model.bundle.factors):
            p = A @ model.bundle.loadings
            counts = np.bincount(data.codes[:, n], minlength=6)[1:]
            phat = counts / M
            sigma = np.sqrt(p * (1 - p) / M)
            assert np.all(np.abs(phat - p) <= 3 * sigma + 1e-12)

    def test_zero_samples_rejected(self):
        model = random_model(3, 3, 2, seed=4)
        with pytest.raises(ValueError):
            sample_dataset(model, 0, seed=0)

    def test_point_mass_model_constant_rows(self):
        lam = np.array([1.0])
        factors = tuple(np.array([[0.0], [1.0], [0.0]]) for _ in range(3))
        from pmfrec import JointPmfModel

        model = JointPmfModel(FactorBundle(lam, factors))
        data = sample_dataset(model, 50, seed=5)
        assert (data.codes == 2).all()

    def test_labels_match_loadings_frequencies(self):
        model = random_model(3, 3, 4, seed=6)
        _, labels = sample_labeled(model, 200_000, seed=7)
        freq = np.bincount(labels - 1, minlength=4) / 200_000
        np.testing.assert_allclose(freq, model.bundle.loadings, atol=0.01)


class TestHideEntries:
    def test_fraction_zero_is_identity(self):
        model = random_model(3, 3, 2, seed=8)
        data = sample_dataset(model, 30, seed=9)
        out = hide_entries(data, 0.0, seed=10)
        np.testing.assert_array_equal(out.codes, data.codes)

    def test_exact_count(self):
        model = random_model(5, 3, 2, seed=11)
        data = sample_dataset(model, 100, seed=12)
        out = hide_entries(data, 0.2, seed=13)
        assert int((out.codes == MISSING).sum()) == 100  # 0.2 * 100 * 5

    def test_deterministic_under_seed(self):
        model = random_model(4, 3, 2, seed=14)
        data = sample_dataset(model, 60, seed=15)
        a = hide_entries(data, 0.3, seed=16)
        b = hide_entries(data, 0.3, seed=16)
        np.testing.assert_array_equal(a.codes, b.codes)


class TestMreFact:
    def test_zero_at_identity(self):
        model = random_model(4, 4, 3, seed=17)
        assert mre_fact(model, model) == pytest.approx(0.0, abs=1e-15)

    def test_zero_under_column_permutation(self):
        model = random_model(4, 4, 4, seed=18)
        perm = np.array([2, 0, 3, 1])
        permuted = FactorBundle(
            model.bundle.loadings[perm],
            tuple(A[:, perm] for A in model.bundle.factors),
        )
        assert mre_fact(model, permuted) == pytest.approx(0.0, abs=1e-14)

    def test_matches_exhaustive_permutation_minimum(self):
        rng = np.random.default_rng(19)
        for F in (2, 3, 4, 5, 6):
            truth = random_model(3, 4, F, seed=int(rng.integers(10**6)))
            est = random_model(3, 4, F, seed=int(rng.integers(10**6)))
            # exhaustive minimum of the assignment cost, then the same metric
            best_cost, best_perm = np.inf, None
            for perm in itertools.permutations(range(F)):
                perm = np.array(perm)
                cost = sum(
                    float(((At - Ae[:, perm]) ** 2).sum())
                    for At, Ae in zip(truth.bundle.factors, est.bundle.factors)
                )
                if cost < best_cost:
                    best_cost, best_perm = cost, perm
            expect = sum(
                float(np.linalg.norm(At - Ae[:, best_perm]))
                / float(np.linalg.norm(At))
                for At, Ae in zip(truth.bundle.factors, est.bundle.factors)
            ) / 3
            assert mre_fact(truth, est) == pytest.approx(expect, rel=1e-12)

    def test_assignment_is_optimal(self):
        truth = random_model(3, 3, 4, seed=20)
        est = random_model(3, 3, 4, seed=21)
        perm = match_components(truth, est)
        cost_delta = 0.0
        chosen = sum(
            float(((At - Ae[:, perm]) ** 2).sum())
            for At, Ae in zip(truth.bundle.factors, est.bundle.factors)
        )
        for other in itertools.permutations(range(4)):
            other = np.array(other)
            cost = sum(
                float(((At - Ae[:, other]) ** 2).sum())
                for At, Ae in zip(truth.bundle.factors, est.bundle.factors)
            )
            assert chosen <= cost + 1e-12


class TestMreTen:
    def test_identical(self):
        model = random_model(3, 3, 2, seed=22)
        t = synthesize(model.bundle)
        assert mre_ten(t, t) == 0.0

    def test_zero_estimate_gives_one(self):
        from pmfrec import DenseTensor

        model = random_model(3, 3, 2, seed=23)
        t = synthesize(model.bundle)
        zero = DenseTensor(shape=t.shape, data=np.zeros(t.size))
        assert mre_ten(t, zero) == pytest.approx(1.0)

    def test_hand_case(self):
        from pmfrec import DenseTensor

        a = DenseTensor.from_array(np.array([[0.5, 0.0], [0.0, 0.5]]))
        b = DenseTensor.from_array(np.array([[0.25, 0.25], [0.25, 0.25]]))
        expect = np.linalg.norm(a.array - b.array) / np.linalg.norm(a.array)
        assert mre_ten(a, b) == pytest.approx(expect, rel=1e-12)


class TestOracleMle:
    def test_exact_on_deterministic_conditionals(self):
        lam = np.array([0.5, 0.5])
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        from pmfrec import JointPmfModel

        truth = JointPmfModel(FactorBundle(lam, (A.copy(), A.copy(), A.copy())))
        data, labels = sample_labeled(truth, 4000, seed=24)
        est = oracle_mle(data, labels, 2)
        assert mre_fact(truth, est) <= 1e-12  # conditionals are point masses

    def test_hand_count(self):
        codes = np.array([[1, 2], [1, 1], [2, 2], [2, 2]])
        labels = np.array([1, 1, 2, 2])
        data = DiscreteDataset(codes=codes, alphabet_sizes=(2, 2))
        est = oracle_mle(data, labels, 2)
        np.testing.assert_allclose(est.bundle.loadings, [0.5, 0.5])
        np.testing.assert_allclose(est.bundle.factors[0][:, 0], [1.0, 0.0])
        np.testing.assert_allclose(est.bundle.factors[0][:, 1], [0.0, 1.0])
        np.testing.assert_allclose(est.bundle.factors[1][:, 0], [0.5, 0.5])
        np.testing.assert_allclose(est.bundle.factors[1][:, 1], [0.0, 1.0])

    def test_empty_class_gets_zero_loading(self):
        codes = np.array([[1], [2]])
        labels = np.array([1, 1])
        data = DiscreteDataset(codes=codes, alphabet_sizes=(2,))
        est = oracle_mle(data, labels, 3)
        np.testing.assert_allclose(est.bundle.loadings, [1.0, 0.0, 0.0])

    def test_missing_cells_skipped_in_conditionals(self):
        codes = np.array([[1], [MISSING], [2]])
        labels = np.array([1, 1, 1])
        data = DiscreteDataset(codes=codes, alphabet_sizes=(2,))
        est = oracle_mle(data, labels, 1)
        np.testing.assert_allclose(est.bundle.factors[0][:, 0], [0.5, 0.5])

    def test_consistency_at_large_sample(self):
        truth = random_model(5, 10, 10, seed=25)
        data, labels = sample_labeled(truth, 1_000_000, seed=26)
        est = oracle_mle(data, labels, 10)
        assert mre_fact(truth, est) < 0.02


class TestEmpiricalJoint:
    def test_single_row_one_hot(self):
        data = DiscreteDataset(codes=np.array([[2, 1]]), alphabet_sizes=(2, 2))
        t = empirical_joint(data)
        expect = np.zeros((2, 2))
        expect[1, 0] = 1.0
        np.testing.assert_array_equal(t.array, expect)

    def test_hand_count(self):
        codes = np.array([[1, 1], [1, 1], [2, 2]])
        data = DiscreteDataset(codes=codes, alphabet_sizes=(2, 2))
        t = empirical_joint(data)
        np.testing.assert_allclose(t.array, [[2 / 3, 0], [0, 1 / 3]])

    def test_sums_to_one_and_skips_partial_rows(self):
        codes = np.array([[1, 1], [MISSING, 1], [2, 2]])
        data = DiscreteDataset(codes=codes, alphabet_sizes=(2, 2))
        t = empirical_joint(data)
        assert t.total() == pytest.approx(1.0)
        np.testing.assert_allclose(t.array, [[0.5, 0], [0, 0.5]])

    def test_no_full_rows_rejected(self):
        from pmfrec import DataError

        codes = np.array([[1, MISSING], [MISSING, 1]])
        data = DiscreteDataset(codes=codes, alphabet_sizes=(2, 2))
        with pytest.raises(DataError):
            empirical_joint(data)


class TestEvalMetrics:
    def test_perfect(self):
        rep = eval_metrics([1, 2, 3], [1, 2, 3])
        assert rep.rmse == 0 and rep.mae == 0 and rep.misclassification == 0

    def test_constant_off_by_one(self):
        rep = eval_metrics([2, 3, 4], [1, 2, 3])
        assert rep.rmse == pytest.approx(1.0)
        assert rep.mae == pytest.approx(1.0)
        assert rep.misclassification == pytest.approx(1.0)

    def test_hand_case(self):
        rep = eval_metrics([1, 2, 2, 5], [1, 1, 2, 1], task="regression")
        errs = np.array([0, 1, 0, 4.0])
        assert rep.mae == pytest.approx(errs.mean())
        assert rep.rmse == pytest.approx(np.sqrt((errs**2).mean()))
        assert rep.misclassification is None


class TestExperimentPlumbing:
    def test_trial_seeds_deterministic(self):
        assert trial_seeds(42, 5) == trial_seeds(42, 5)
        assert trial_seeds(42, 5) != trial_seeds(43, 5)

    def test_split_dataset_partitions(self):
        model = random_model(4, 3, 2, seed=27)
        data = sample_dataset(model, 100, seed=28)
        train, val, test = split_dataset(data, (0.7, 0.1, 0.2), seed=29)
        assert train.n_records == 70 and val.n_records == 10 and test.n_records == 20

    def test_exact_marginals_match_sub_synthesis(self):
        model = random_model(4, 3, 3, seed=30)
        ms = exact_marginals(model, 3)
        full = synthesize(model.bundle)
        for key, entry in ms.entries.items():
            reduced = marginalize_tensor(full, set(key))
            np.testing.assert_allclose(entry.tensor.array, reduced.array, atol=1e-12)

    def test_summarize_rows_medians(self):
        rows = [
            {"order": 3, "rank_fit": 2, "mre_ten": v, "trial": i}
            for i, v in enumerate([0.1, 0.3, 0.2])
        ]
        out = summarize_rows(rows)
        assert out[0]["mre_ten_median"] == pytest.approx(0.2)

    def test_spec_round_trip_and_unknown_fields(self):
        from pmfrec import DataError

        spec = ExperimentSpec.from_dict({"n_vars": 4, "rank_grid": [3], "orders": [3]})
        assert spec.rank_grid == (3,)
        with pytest.raises(DataError):
            ExperimentSpec.from_dict({"bogus": 1})

    def test_map_accuracy_on_separable_model(self):
        lam = np.array([0.5, 0.5])
        sharp = np.array([[0.95, 0.05], [0.05, 0.95]])
        from pmfrec import JointPmfModel

        truth = JointPmfModel(FactorBundle(lam, (sharp.copy(), sharp.copy(), sharp.copy())))
        test = sample_dataset(truth, 500, seed=31)
        acc = map_accuracy(truth, test, 3)
        assert acc > 0.8

    def test_map_accuracy_counts_per_row_map_hits(self):
        from pmfrec import DiscreteDataset, map_predict

        model = random_model(5, 3, 4, seed=34)
        full = sample_dataset(model, 300, seed=35)
        # hidden evidence cells stay hidden; the target column is restored
        codes = hide_entries(full, 0.3, seed=36).codes.copy()
        codes[:, 1] = full.codes[:, 1]
        test = DiscreteDataset(codes=codes, alphabet_sizes=full.alphabet_sizes)
        hits = 0
        for row in test.codes.tolist():
            evidence = {v: c for v, c in enumerate(row, start=1) if v != 2 and c != 0}
            hits += map_predict(model, 2, evidence) == row[1]
        assert map_accuracy(model, test, 2) == hits / 300

    def test_map_accuracy_missing_target_raises(self):
        from pmfrec import DataError, DiscreteDataset

        model = random_model(3, 2, 2, seed=37)
        test = DiscreteDataset(
            codes=np.array([[1, 2, 1], [2, 0, 1], [1, 1, 0]]), alphabet_sizes=(2, 2, 2)
        )
        assert 0.0 <= map_accuracy(model, test, 1) <= 1.0  # missing evidence is fine
        with pytest.raises(DataError, match="test row 2 has a missing value in target column 2"):
            map_accuracy(model, test, 2)

    def test_map_accuracy_zero_evidence_raises(self):
        from pmfrec import DiscreteDataset, JointPmfModel, ZeroEvidenceError

        A1 = np.array([[1.0], [0.0]])
        A2 = np.array([[0.5], [0.5]])
        model = JointPmfModel(FactorBundle(np.array([1.0]), (A1, A2)))
        test = DiscreteDataset(codes=np.array([[1, 1], [2, 1]]), alphabet_sizes=(2, 2))
        with pytest.raises(ZeroEvidenceError, match="test row 2"):
            map_accuracy(model, test, 2)

    def test_select_rank_prefers_adequate_rank(self):
        from pmfrec.harness import select_rank

        lam = np.array([0.5, 0.5])
        sharp = np.array([[0.9, 0.1], [0.05, 0.85], [0.05, 0.05]])
        from pmfrec import JointPmfModel

        truth = JointPmfModel(
            FactorBundle(lam, tuple(sharp.copy() for _ in range(4)))
        )
        data = sample_dataset(truth, 4000, seed=32)
        train, val, test = split_dataset(data, (0.7, 0.1, 0.2), seed=33)
        best_rank, model, scores = select_rank(
            train, val, target=4, rank_grid=(1, 2), order=3,
            max_outer_sweeps=150, outer_tol=1e-9,
        )
        assert set(scores) == {1, 2}
        # a rank-1 model is feature-independent, so it cannot beat rank 2
        assert scores[2] <= scores[1]
        assert best_rank == 2
        assert map_accuracy(model, test, 4) > 0.5
