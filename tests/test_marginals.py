import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmfrec import marginals
from pmfrec import (
    DataError,
    DiscreteDataset,
    MISSING,
    estimate_marginals,
    load_csv,
    marginalize_tensor,
    synthesize,
)
from pmfrec.factorization import random_bundle
from pmfrec.serialize import load_marginal_set, save_marginal_set

from conftest import loop_marginal_counts


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_missing_token(self, tmp_path):
        data = load_csv(write(tmp_path, "1,2\n2,?\n"))
        assert data.n_records == 2 and data.n_vars == 2
        assert data.codes[1, 1] == MISSING
        assert data.alphabet_sizes == (2, 2)

    def test_code_exceeding_alphabet(self, tmp_path):
        with pytest.raises(DataError, match="exceed"):
            load_csv(write(tmp_path, "1,2\n3,1\n"), alphabet_sizes=[2, 2])

    def test_all_missing_column_names_column(self, tmp_path):
        with pytest.raises(DataError, match="column 2"):
            load_csv(write(tmp_path, "1,?\n2,?\n"))

    def test_non_integer_cell(self, tmp_path):
        with pytest.raises(DataError, match="non-integer"):
            load_csv(write(tmp_path, "1,2\n1.5,1\n"))

    def test_rounding_conventions(self, tmp_path):
        path = write(tmp_path, "3.5,2.2\n1.5,4.8\n")
        half = load_csv(path, rounding="half-up")
        np.testing.assert_array_equal(half.codes, [[4, 2], [2, 5]])
        ceil = load_csv(path, rounding="ceiling")
        np.testing.assert_array_equal(ceil.codes, [[4, 3], [2, 5]])

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="no records"):
            load_csv(write(tmp_path, ""))

    def test_header_and_delimiter(self, tmp_path):
        path = write(tmp_path, "a;b\n1;2\n2;1\n")
        data = load_csv(path, delimiter=";", has_header=True)
        assert data.n_records == 2

    def test_code_below_one(self, tmp_path):
        with pytest.raises(DataError, match="below 1"):
            load_csv(write(tmp_path, "0,1\n"))


def write_codes(path, rng, *, delimiter=",", missing_token="?", has_header=False,
                pad=False, blank_lines=False, rounding=None, rows=60, cols=4):
    """A well-formed file of random codes; real-valued cells under `rounding`."""
    lines = [delimiter.join(f"v{c}" for c in range(cols))] if has_header else []
    for _ in range(rows):
        if blank_lines and rng.random() < 0.15:
            lines.append(rng.choice(["", " ", f" {delimiter} "]))
        cells = []
        for _ in range(cols):
            if rng.random() < 0.2:
                cell = missing_token
            elif rounding is not None and rng.random() < 0.6:
                # quarter steps from 0.5: half-up and ceiling both give codes >= 1
                cell = str(int(rng.integers(2, 60)) / 4)
                cell = rng.choice([cell, cell.removeprefix("0"), cell.removesuffix("0")])
            else:
                cell = str(int(rng.integers(1, 120)))
            if pad:
                blanks = [b for b in ("", " ", "\t") if b != delimiter]
                cell = " " * int(rng.integers(0, 3)) + cell + rng.choice(blanks)
            cells.append(cell)
        lines.append(delimiter.join(cells))
    path.write_text("\n".join(lines) + rng.choice(["", "\n"]))
    return path


class TestIngestPaths:
    """The vectorized reader and the per-cell reader give the same codes on
    well-formed files, and every other file gets the per-cell diagnostic."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("options", [
        {},
        {"has_header": True},
        {"delimiter": ";"},
        {"delimiter": "\t", "pad": True},
        {"delimiter": "|", "missing_token": "NA"},
        {"missing_token": "n/a", "pad": True},
        {"pad": True, "blank_lines": True},
        {"rounding": "half-up"},
        {"rounding": "ceiling", "pad": True},
        {"rounding": "half-up", "delimiter": "\t", "has_header": True, "blank_lines": True},
    ])
    def test_well_formed_files_agree(self, tmp_path, monkeypatch, options, seed):
        # small chunks put chunk boundaries, and chunks of blank lines, in the file
        monkeypatch.setattr(marginals, "_CHUNK_CHARS", 64)
        path = write_codes(tmp_path / "d.csv", np.random.default_rng(seed), **options)
        args = (path, options.get("missing_token", "?"), options.get("delimiter", ","),
                options.get("has_header", False), options.get("rounding"))
        fast = marginals._read_fast(*args)
        assert fast is not None and fast.dtype == np.int64
        np.testing.assert_array_equal(fast, marginals._read_cells(*args))

    @pytest.mark.parametrize("text, rounding", [
        ('1,"2,1"\n2,1\n', None),
        ("1,2\n2,1,1\n", None),
        ("1,2\n0,1\n", None),
        ("1,2\n-1,1\n", None),
        ("1,2\n2.0,1\n", None),
        ("1,2\ninf,1\n", "half-up"),
        ("1,2\nnan,1\n", "ceiling"),
        ("1,2,\n2,1,\n", None),
        ("1,?5\n2,1\n", None),
        ("1 2,\n2,1\n", None),
        (",1 2\n2,1\n", None),
        ("1,2\n0.4,1\n", "half-up"),
    ])
    @pytest.mark.parametrize("chunk_chars", [1, marginals._CHUNK_CHARS])
    def test_malformed_files_get_per_cell_diagnostic(self, tmp_path, monkeypatch,
                                                     chunk_chars, text, rounding):
        monkeypatch.setattr(marginals, "_CHUNK_CHARS", chunk_chars)
        path = write(tmp_path, text)
        args = (path, "?", ",", False, rounding)
        assert marginals._read_fast(*args) is None
        with pytest.raises(DataError) as per_cell:
            marginals._read_cells(*args)
        with pytest.raises(DataError) as loaded:
            load_csv(path, rounding=rounding)
        assert str(loaded.value) == str(per_cell.value)


@st.composite
def coded_datasets(draw):
    """Small datasets with missing cells and alphabets of size 1 to 3, plus an order."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    n_records = draw(st.integers(1, 25))
    codes = [[draw(st.integers(0, size)) for size in sizes] for _ in range(n_records)]
    order = draw(st.integers(1, min(4, len(sizes))))
    return np.array(codes, dtype=np.int64), sizes, order


class TestCountingOracle:
    # the examples pin an alphabet of size 1 and tuples with zero support
    @given(coded_datasets())
    @example((np.array([[1, 0, 1], [1, 1, 0], [1, 2, 0]]), (1, 2, 1), 3))
    @example((np.array([[1, 0, 2, 1], [2, 0, 0, 1], [1, 0, 1, 0]]), (2, 3, 2, 1), 2))
    @settings(max_examples=60, deadline=None)
    def test_counts_match_record_loop(self, case):
        codes, sizes, order = case
        ms = estimate_marginals(DiscreteDataset(codes=codes, alphabet_sizes=sizes), order)
        combos = list(itertools.combinations(range(1, len(sizes) + 1), order))
        assert list(ms.entries) == combos
        for combo in combos:
            counts, support = loop_marginal_counts(codes, sizes, combo)
            entry = ms.entries[combo]
            assert entry.support == support
            tensor = entry.tensor.array
            if support == 0:
                assert tensor.shape == counts.shape and not tensor.any()
                continue
            np.testing.assert_array_equal(np.rint(tensor * support).astype(np.int64), counts)
            assert tensor.tobytes() == (counts / support).tobytes()


class TestEstimateMarginals:
    def test_hand_count_pairs(self):
        data = DiscreteDataset(
            codes=np.array([[1, 1], [1, 2], [2, 2]]), alphabet_sizes=(2, 2)
        )
        ms = estimate_marginals(data, 2)
        entry = ms.entries[(1, 2)]
        assert entry.support == 3
        np.testing.assert_allclose(
            entry.tensor.array, [[1 / 3, 1 / 3], [0, 1 / 3]], atol=1e-15
        )

    def test_missing_cells_shrink_denominator(self):
        data = DiscreteDataset(
            codes=np.array([[1, 1], [1, MISSING]]), alphabet_sizes=(2, 2)
        )
        ms = estimate_marginals(data, 2)
        entry = ms.entries[(1, 2)]
        assert entry.support == 1
        np.testing.assert_allclose(entry.tensor.array, [[1, 0], [0, 0]], atol=1e-15)

    def test_independent_constant_columns(self):
        # each column one-hot on a single code: the pair marginal is the
        # product of the univariate marginals
        data = DiscreteDataset(
            codes=np.array([[2, 1]] * 5), alphabet_sizes=(2, 2)
        )
        ms = estimate_marginals(data, 2)
        uni1 = estimate_marginals(data, 1).entries[(1,)].tensor.array
        uni2 = estimate_marginals(data, 1).entries[(2,)].tensor.array
        np.testing.assert_allclose(
            ms.entries[(1, 2)].tensor.array, np.outer(uni1, uni2), atol=1e-15
        )

    def test_zero_support_tuple_flagged_and_excluded(self):
        data = DiscreteDataset(
            codes=np.array([[1, MISSING, 1], [1, 1, MISSING]]),
            alphabet_sizes=(2, 2, 2),
        )
        ms = estimate_marginals(data, 3)
        assert ms.entries[(1, 2, 3)].support == 0
        assert list(ms.active()) == []

    def test_order_exceeds_variables(self):
        data = DiscreteDataset(codes=np.array([[1, 1]]), alphabet_sizes=(2, 2))
        with pytest.raises(ValueError):
            estimate_marginals(data, 3)

    def test_complete_tuple_count(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(1, 4, size=(50, 5))
        data = DiscreteDataset(codes=codes, alphabet_sizes=(3,) * 5)
        ms = estimate_marginals(data, 3)
        assert len(ms.entries) == 10 and ms.is_complete()

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_marginals_are_pmfs(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 40))
        codes = rng.integers(1, 4, size=(M, 4))
        mask = rng.random((M, 4)) < 0.25
        codes[mask] = MISSING
        try:
            data = DiscreteDataset(codes=codes, alphabet_sizes=(3,) * 4)
        except DataError:
            return
        ms = estimate_marginals(data, 2)
        for _, entry in ms.active():
            assert entry.tensor.data.min() >= 0
            assert entry.tensor.total() == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(1, 3, size=(20, 3))
        data = DiscreteDataset(codes=codes, alphabet_sizes=(2, 2, 2))
        shuffled = DiscreteDataset(
            codes=codes[rng.permutation(20)], alphabet_sizes=(2, 2, 2)
        )
        a = estimate_marginals(data, 2)
        b = estimate_marginals(shuffled, 2)
        for key in a.entries:
            np.testing.assert_array_equal(
                a.entries[key].tensor.data, b.entries[key].tensor.data
            )

    def test_pair_consistency_with_marginalized_triples(self):
        # fully observed data: the (j,k) pair estimate equals any (j,k,l)
        # triple estimate marginalized onto modes {1,2}
        rng = np.random.default_rng(11)
        codes = rng.integers(1, 4, size=(200, 4))
        data = DiscreteDataset(codes=codes, alphabet_sizes=(3,) * 4)
        pairs = estimate_marginals(data, 2)
        triples = estimate_marginals(data, 3)
        for (j, k, l), entry in triples.entries.items():
            reduced = marginalize_tensor(entry.tensor, keep={1, 2})
            np.testing.assert_allclose(
                reduced.array, pairs.entries[(j, k)].tensor.array, atol=1e-12
            )


class TestMarginalizeTensor:
    def test_row_sums(self):
        from pmfrec import DenseTensor

        t = DenseTensor.from_array(np.array([[0.18, 0.12], [0.42, 0.28]]))
        np.testing.assert_allclose(marginalize_tensor(t, {1}).array, [0.3, 0.7])

    def test_keep_all_modes_is_identity(self):
        from pmfrec import DenseTensor

        t = DenseTensor.from_array(np.arange(8.0).reshape(2, 2, 2))
        np.testing.assert_array_equal(marginalize_tensor(t, {1, 2, 3}).array, t.array)

    def test_empty_keep_rejected(self):
        from pmfrec import DenseTensor

        t = DenseTensor.from_array(np.ones((2, 2)) / 4)
        with pytest.raises(ValueError):
            marginalize_tensor(t, set())

    def test_matches_sub_bundle_synthesis(self):
        rng = np.random.default_rng(12)
        bundle = random_bundle([3, 2, 4, 3, 2], 4, rng)
        full = synthesize(bundle)
        for keep in ({1, 3, 5}, {2, 4}, {1,}, {2, 3, 4}):
            reduced = marginalize_tensor(full, keep)
            sub = synthesize(bundle.subset(sorted(keep)))
            np.testing.assert_allclose(reduced.array, sub.array, atol=1e-12)

    def test_preserves_mass(self):
        rng = np.random.default_rng(13)
        from pmfrec import DenseTensor

        t = DenseTensor.from_array(rng.random((3, 4, 2)))
        out = marginalize_tensor(t, {2})
        assert out.total() == pytest.approx(t.total(), rel=1e-12)


class TestMarginalSetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        codes = rng.integers(1, 4, size=(60, 4))
        codes[rng.random((60, 4)) < 0.1] = MISSING
        data = DiscreteDataset(codes=codes, alphabet_sizes=(3,) * 4)
        ms = estimate_marginals(data, 3)
        path = tmp_path / "m.json"
        save_marginal_set(path, ms)
        back = load_marginal_set(path)
        assert back.order == 3 and back.alphabet_sizes == ms.alphabet_sizes
        for key, entry in ms.entries.items():
            assert back.entries[key].support == entry.support
            np.testing.assert_allclose(
                back.entries[key].tensor.data, entry.tensor.data, atol=1e-10
            )

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"version": 1, "order": 2, "n_vars": 2, "alphabet_sizes": [2, 2],'
            '"marginals": [{"variables": [1, 2], "support": 3,'
            '"data": [0.5, NaN, 0.25, 0.25]}]}'
        )
        with pytest.raises(DataError):
            load_marginal_set(path)
