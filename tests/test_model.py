import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmfrec import (
    DenseTensor,
    FactorBundle,
    JointPmfModel,
    ZeroEvidenceError,
    conditional_expectation,
    construct_trivial_cpd,
    joint_prob,
    map_predict,
    posterior_batch,
    posterior_over,
    random_model,
    synthesize,
)

from conftest import dense_posterior_oracle, dense_target_masses, log_space_posterior_oracle


class TestJointProb:
    def test_rank_one_is_product_of_marginals(self):
        model = random_model(4, 3, 1, seed=0)
        assignment = (1, 3, 2, 2)
        expect = math.prod(
            model.bundle.factors[n][assignment[n] - 1, 0] for n in range(4)
        )
        assert joint_prob(model, assignment) == pytest.approx(expect, rel=1e-12)

    def test_matches_dense_entry(self):
        model = random_model(3, 4, 3, seed=1)
        dense = synthesize(model.bundle)
        for assignment in ((1, 1, 1), (4, 2, 3), (2, 4, 4)):
            assert joint_prob(model, assignment) == pytest.approx(
                dense.entry(assignment), rel=1e-12
            )

    def test_sums_to_one(self):
        model = random_model(3, 3, 4, seed=2)
        total = sum(
            joint_prob(model, idx)
            for idx in itertools.product(range(1, 4), repeat=3)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_out_of_alphabet_rejected(self):
        model = random_model(3, 3, 2, seed=3)
        with pytest.raises(ValueError):
            joint_prob(model, (1, 4, 1))


class TestPosteriorOver:
    def test_no_evidence_is_prior(self):
        model = random_model(4, 3, 3, seed=4)
        prior = model.bundle.factors[1] @ model.bundle.loadings
        np.testing.assert_allclose(posterior_over(model, 2, {}), prior, atol=1e-12)

    def test_rank_one_posterior_equals_prior(self):
        model = random_model(4, 3, 1, seed=5)
        post = posterior_over(model, 4, {1: 2, 2: 1, 3: 3})
        prior = posterior_over(model, 4, {})
        np.testing.assert_allclose(post, prior, atol=1e-12)

    def test_matches_dense_enumeration(self):
        model = random_model(4, 3, 4, seed=6)
        evidence = {1: 2, 3: 1}
        np.testing.assert_allclose(
            posterior_over(model, 4, evidence),
            dense_posterior_oracle(model, 4, evidence),
            atol=1e-12,
        )

    def test_zero_probability_evidence_raises(self):
        lam = np.array([1.0])
        A1 = np.array([[1.0], [0.0]])
        A2 = np.array([[0.5], [0.5]])
        model = JointPmfModel(FactorBundle(lam, (A1, A2)))
        with pytest.raises(ZeroEvidenceError):
            posterior_over(model, 2, {1: 2})

    def test_target_inside_evidence_rejected(self):
        model = random_model(3, 3, 2, seed=7)
        with pytest.raises(ValueError):
            posterior_over(model, 1, {1: 2})

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_posterior_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 6))
        I = int(rng.integers(2, 5))
        F = int(rng.integers(1, 7))
        model = random_model(N, I, F, seed=seed)
        n_ev = int(rng.integers(0, N))
        ev_vars = rng.choice(np.arange(1, N + 1), size=n_ev, replace=False)
        target = int(rng.choice([v for v in range(1, N + 1) if v not in ev_vars]))
        evidence = {int(v): int(rng.integers(1, I + 1)) for v in ev_vars}
        try:
            post = posterior_over(model, target, evidence)
        except ZeroEvidenceError:
            return
        assert post.sum() == pytest.approx(1.0, abs=1e-9)
        assert post.min() >= 0

    def test_bayes_consistency_grid(self):
        # brute-force agreement over a batch of random models
        rng = np.random.default_rng(8)
        for trial in range(25):
            N = int(rng.integers(3, 6))
            I = int(rng.integers(2, 5))
            F = int(rng.integers(1, 7))
            model = random_model(N, I, F, seed=1000 + trial)
            n_ev = int(rng.integers(0, N))
            ev_vars = rng.choice(np.arange(1, N + 1), size=n_ev, replace=False)
            target = int(rng.choice([v for v in range(1, N + 1) if v not in ev_vars]))
            evidence = {int(v): int(rng.integers(1, I + 1)) for v in ev_vars}
            np.testing.assert_allclose(
                posterior_over(model, target, evidence),
                dense_posterior_oracle(model, target, evidence),
                atol=1e-10,
            )

    def test_log_space_path_matches_direct(self):
        # the log-space path agrees with the linear product where that
        # product does not underflow
        model = random_model(32, 3, 4, seed=9)
        evidence = {v: 1 + (v % 3) for v in range(1, 31)}
        post = posterior_over(model, 32, evidence)
        # direct product path on the same numbers
        lam = model.bundle.loadings.copy()
        for var, code in evidence.items():
            lam = lam * model.bundle.factors[var - 1][code - 1, :]
        expect = model.bundle.factors[31] @ lam
        expect = expect / expect.sum()
        np.testing.assert_allclose(post, expect, atol=1e-10)


def _row_evidence(row, target):
    return {v: int(c) for v, c in enumerate(row, start=1) if v != target and c != 0}


def _model_with_zeros(rng, sizes, F):
    """Random model whose factors and loadings hold exact zeros, so that some
    evidence has probability zero; every column keeps a positive entry."""
    lam = rng.random(F) * (rng.random(F) < 0.8)
    lam[rng.integers(F)] = 0.5 + rng.random()
    factors = []
    for I in sizes:
        A = rng.random((I, F)) * (rng.random((I, F)) < 0.7)
        A[rng.integers(I, size=F), np.arange(F)] += 0.5
        factors.append(A / A.sum(axis=0))
    return JointPmfModel(FactorBundle(lam / lam.sum(), tuple(factors)))


class TestPosteriorBatch:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_dense_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, 4)) for _ in range(N)]
        F = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            model = _model_with_zeros(rng, sizes, F)
        else:
            model = JointPmfModel(FactorBundle(
                rng.dirichlet(np.ones(F)),
                tuple(rng.dirichlet(np.ones(I), size=F).T for I in sizes),
            ))
        target = int(rng.integers(1, N + 1))
        R = int(rng.integers(1, 9))
        codes = np.column_stack(
            [rng.integers(0, I + 1, size=R) for I in sizes]
        ).astype(np.int64)
        codes[0, :] = 0  # one row with no evidence at all
        post, live = posterior_batch(model, codes, target)
        assert post.shape == (R, sizes[target - 1])
        assert live.dtype == bool and live.shape == (R,)
        for r in range(R):
            evidence = _row_evidence(codes[r], target)
            masses = dense_target_masses(model, target, evidence)
            if masses.sum() == 0.0:
                assert not live[r]
                assert np.isnan(post[r]).all()
                with pytest.raises(ZeroEvidenceError):
                    posterior_over(model, target, evidence)
            else:
                assert live[r]
                np.testing.assert_allclose(
                    post[r], dense_posterior_oracle(model, target, evidence),
                    rtol=0, atol=1e-12,
                )

    def test_target_column_is_ignored(self):
        model = random_model(4, 3, 3, seed=20)
        codes = np.array([[1, 2, 3, 0], [1, 2, 3, 2], [1, 2, 3, 9]])
        post, live = posterior_batch(model, codes, 4)
        assert live.all()
        for row in post:
            assert row.tobytes() == posterior_over(model, 4, {1: 1, 2: 2, 3: 3}).tobytes()

    def test_underflowing_products_stay_exact(self):
        # 39 observed cells of probability about 1e-9 each: the linear
        # product of every component underflows to 0.0.
        rng = np.random.default_rng(21)
        N, F, target = 40, 4, 17
        lam = rng.dirichlet(np.ones(F))
        factors = []
        for _ in range(N):
            rare = 1e-9 * rng.uniform(0.5, 2.0, size=F)
            factors.append(np.vstack([1.0 - rare, rare]))
        model = JointPmfModel(FactorBundle(lam, tuple(factors)))
        row = [2] * N
        row[target - 1] = 0
        for f in range(F):
            linear = lam[f]
            for n in range(N):
                if n != target - 1:
                    linear *= factors[n][1, f]
            assert linear == 0.0
        post, live = posterior_batch(model, np.array([row]), target)
        assert live[0]
        expect = log_space_posterior_oracle(
            lam.tolist(), [A.tolist() for A in factors], target, row
        )
        np.testing.assert_allclose(post[0], expect, rtol=0, atol=1e-12)
        assert post[0, 1] > 1e-9  # the rare code is not washed out

    def test_rows_are_bitwise_independent_of_batch_and_block(self, monkeypatch):
        import pmfrec.model as model_module

        rng = np.random.default_rng(22)
        sizes = [3, 5, 2, 4, 6, 3]
        model = JointPmfModel(FactorBundle(
            rng.dirichlet(np.ones(13)),
            tuple(rng.dirichlet(np.ones(I), size=13).T for I in sizes),
        ))
        target = 5
        step = model_module._BLOCK_ELEMENTS // (13 + sizes[target - 1])
        R = 2 * step + 37  # three blocks, the last one partial
        codes = np.column_stack([rng.integers(0, I + 1, size=R) for I in sizes])
        whole, live = posterior_batch(model, codes, target)
        assert live.all()
        for r in range(R):
            single = posterior_over(model, target, _row_evidence(codes[r], target))
            assert single.tobytes() == whole[r].tobytes(), r
        for elements in (1, 7 * 19, 1000):
            monkeypatch.setattr(model_module, "_BLOCK_ELEMENTS", elements)
            again, _ = posterior_batch(model, codes, target)
            assert again.tobytes() == whole.tobytes()

    def test_empty_batch(self):
        model = random_model(3, 2, 2, seed=23)
        post, live = posterior_batch(model, np.zeros((0, 3), dtype=np.int64), 1)
        assert post.shape == (0, 2) and live.shape == (0,)

    @pytest.mark.parametrize(
        "codes, target",
        [
            ([[1, 3, 1]], 1),      # code past the alphabet
            ([[1, -1, 1]], 1),     # negative code
            ([[1, 1]], 1),         # wrong column count
            ([[1, 1, 1]], 4),      # target out of range
            ([[1.0, 1.0, 1.0]], 1),  # not integer codes
        ],
    )
    def test_invalid_input_rejected(self, codes, target):
        model = random_model(3, 2, 2, seed=24)
        with pytest.raises(ValueError):
            posterior_batch(model, np.array(codes), target)


class TestMapPredict:
    def test_argmax(self):
        lam = np.array([1.0])
        A1 = np.array([[0.2], [0.8]])
        model = JointPmfModel(FactorBundle(lam, (A1,)))
        assert map_predict(model, 1, {}) == 2

    def test_tie_breaks_to_smallest_code(self):
        lam = np.array([1.0])
        A1 = np.array([[0.5], [0.5]])
        model = JointPmfModel(FactorBundle(lam, (A1,)))
        assert map_predict(model, 1, {}) == 1

    def test_matches_brute_force_argmax(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            model = random_model(4, 4, 5, seed=2000 + trial)
            evidence = {1: int(rng.integers(1, 5)), 2: int(rng.integers(1, 5))}
            oracle = int(np.argmax(dense_posterior_oracle(model, 4, evidence))) + 1
            assert map_predict(model, 4, evidence) == oracle

    def test_scaling_invariance(self):
        # posterior computed from rescaled loadings points the same way
        model = random_model(4, 3, 3, seed=11)
        evidence = {1: 2, 2: 3}
        base = map_predict(model, 3, evidence)
        scaled = JointPmfModel(model.bundle)  # identical model, sanity
        assert map_predict(scaled, 3, evidence) == base
        post = posterior_over(model, 3, evidence)
        for c in (2.0, 1e-7, 1e7):
            assert int(np.argmax(c * post)) + 1 == base


class TestConditionalExpectation:
    def test_uniform_posterior(self):
        lam = np.array([1.0])
        A1 = np.full((5, 1), 0.2)
        model = JointPmfModel(FactorBundle(lam, (A1,)))
        assert conditional_expectation(model, 1, {}) == pytest.approx(3.0)

    def test_point_mass(self):
        lam = np.array([1.0])
        A1 = np.zeros((5, 1))
        A1[3, 0] = 1.0
        model = JointPmfModel(FactorBundle(lam, (A1,)))
        assert conditional_expectation(model, 1, {}) == pytest.approx(4.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for trial in range(15):
            model = random_model(4, 4, 4, seed=3000 + trial)
            evidence = {2: int(rng.integers(1, 5))}
            post = dense_posterior_oracle(model, 1, evidence)
            expect = float(np.arange(1, 5) @ post)
            assert conditional_expectation(model, 1, evidence) == pytest.approx(
                expect, abs=1e-10
            )


class TestConstructTrivialCpd:
    def test_uniform_cube(self):
        t = DenseTensor(shape=(2, 2, 2), data=np.full(8, 0.125))
        bundle = construct_trivial_cpd(t)
        assert bundle.rank == 4
        np.testing.assert_allclose(synthesize(bundle).array, t.array, atol=1e-15)
        bundle.validate(tol=1e-12)

    def test_rank_one_input_not_minimal_but_exact(self):
        u = np.array([0.2, 0.8])
        v = np.array([0.5, 0.5])
        w = np.array([0.1, 0.9])
        t = DenseTensor.from_array(np.einsum("i,j,k->ijk", u, v, w))
        bundle = construct_trivial_cpd(t)
        assert bundle.rank == 4  # min over k of the excluded-mode product
        np.testing.assert_allclose(synthesize(bundle).array, t.array, atol=1e-14)

    def test_four_way_recursion(self):
        rng = np.random.default_rng(13)
        arr = rng.random((2, 2, 2, 2))
        arr /= arr.sum()
        t = DenseTensor.from_array(arr)
        bundle = construct_trivial_cpd(t)
        assert bundle.rank == 8
        np.testing.assert_allclose(synthesize(bundle).array, arr, atol=1e-13)
        bundle.validate(tol=1e-9)

    def test_column_count_minimized_over_modes(self):
        rng = np.random.default_rng(14)
        arr = rng.random((2, 5, 3))
        arr /= arr.sum()
        bundle = construct_trivial_cpd(DenseTensor.from_array(arr))
        assert bundle.rank == 2 * 3  # largest dimension excluded from the product
        np.testing.assert_allclose(synthesize(bundle).array, arr, atol=1e-13)

    def test_zero_slabs_get_uniform_columns(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0
        bundle = construct_trivial_cpd(DenseTensor.from_array(arr))
        np.testing.assert_allclose(synthesize(bundle).array, arr, atol=1e-15)
        bundle.validate(tol=1e-12)

    def test_order_two_rejected(self):
        t = DenseTensor(shape=(2, 2), data=np.full(4, 0.25))
        with pytest.raises(ValueError):
            construct_trivial_cpd(t)

    def test_non_pmf_rejected(self):
        t = DenseTensor(shape=(2, 2, 2), data=np.full(8, 1.0))
        with pytest.raises(ValueError, match="sums"):
            construct_trivial_cpd(t)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_resynthesis_exact_random(self, seed):
        rng = np.random.default_rng(seed)
        order = int(rng.integers(3, 5))
        shape = tuple(int(rng.integers(2, 5)) for _ in range(order))
        arr = rng.random(shape)
        arr /= arr.sum()
        bundle = construct_trivial_cpd(DenseTensor.from_array(arr))
        expected_rank = min(
            int(np.prod([s for i, s in enumerate(shape) if i != k]))
            for k in range(order)
        )
        assert bundle.rank == expected_rank
        np.testing.assert_allclose(synthesize(bundle).array, arr, atol=1e-12)
