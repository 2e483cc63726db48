import csv
import json
import pathlib

import numpy as np
import pytest

from pmfrec import (
    FitConfig,
    JointPmfModel,
    conditional_expectation,
    fit,
    map_predict,
    random_model,
    sample_dataset,
)
from pmfrec.cli import main
from pmfrec.harness import exact_marginals
from pmfrec.serialize import load_bundle, load_marginal_set, save_bundle, save_marginal_set


GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(*argv):
    return main([str(a) for a in argv])


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)


class TestMarginalsCommand:
    def test_hand_counted_tuple(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        data.write_text("1,1\n1,2\n2,2\n")
        out = tmp_path / "m.json"
        assert run("marginals", "--input", data, "--output", out, "--order", 2) == 0
        ms = load_marginal_set(out)
        assert len(ms.entries) == 1
        np.testing.assert_allclose(
            ms.entries[(1, 2)].tensor.array, [[1 / 3, 1 / 3], [0, 1 / 3]], atol=1e-10
        )
        assert "support 3" in capsys.readouterr().out

    def test_order_exceeding_columns_is_usage_error(self, tmp_path):
        data = tmp_path / "toy.csv"
        data.write_text("1,1\n2,2\n")
        assert run("marginals", "--input", data, "--output", tmp_path / "m.json",
                   "--order", 3) == 1

    def test_missing_token_flag(self, tmp_path):
        data = tmp_path / "toy.csv"
        data.write_text("1,1,1\n2,NA,2\n1,2,NA\n")
        out = tmp_path / "m.json"
        assert run("marginals", "--input", data, "--output", out, "--order", 2,
                   "--missing-token", "NA") == 0
        ms = load_marginal_set(out)
        assert ms.entries[(2, 3)].support == 1

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, cell):
        data = tmp_path / "real.csv"
        data.write_text(f"1.5,2\n{cell},1\n")
        assert run("marginals", "--input", data, "--output", tmp_path / "m.json",
                   "--order", 2, "--round", "half-up") == 2
        assert f"non-finite cell '{cell}' at line 2, column 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cell, flags",
        [("99999999999999999999", ()), ("1e300", ("--round", "ceiling"))],
    )
    def test_cell_past_int64_is_data_error(self, tmp_path, capsys, cell, flags):
        data = tmp_path / "big.csv"
        data.write_text(f"1,2\n{cell},1\n")
        assert run("marginals", "--input", data, "--output", tmp_path / "m.json",
                   "--order", 2, *flags) == 2
        assert f"cell '{cell}' at line 2, column 1 is too large" in capsys.readouterr().err

    def test_nonexistent_input_is_data_error(self, tmp_path):
        assert run("marginals", "--input", tmp_path / "nope.csv",
                   "--output", tmp_path / "m.json") == 2


class TestFitCommand:
    def test_exact_marginal_fixture_converges(self, tmp_path):
        model = random_model(4, 4, 2, seed=1)
        ms = exact_marginals(model, 3)
        marg = tmp_path / "m.json"
        save_marginal_set(marg, ms)
        out = tmp_path / "model.json"
        code = run("fit", "--input", marg, "--output", out, "--rank", 2,
                   "--max-sweeps", 500, "--tol", "1e-14",
                   "--cost-floor", "1e-22", "--seed", 3)
        assert code == 0
        report = json.load(open(f"{out}.report.json"))
        assert report["final_cost"] <= 1e-10
        load_bundle(out).validate(tol=1e-6)

    def test_rank_zero_is_usage_error(self, tmp_path):
        assert run("fit", "--input", tmp_path / "m.json",
                   "--output", tmp_path / "o.json", "--rank", 0) == 1

    def test_corrupt_marginal_file_nonzero_exit(self, tmp_path, capsys):
        model = random_model(3, 3, 2, seed=2)
        ms = exact_marginals(model, 3)
        marg = tmp_path / "m.json"
        save_marginal_set(marg, ms)
        doc = json.load(open(marg))
        doc["marginals"][0]["data"][0] = float("nan")
        with open(marg, "w") as fh:
            json.dump(doc, fh)  # json allows NaN by default
        code = run("fit", "--input", marg, "--output", tmp_path / "o.json", "--rank", 2)
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        model = random_model(4, 3, 2, seed=4)
        ms = exact_marginals(model, 3)
        marg = tmp_path / "m.json"
        save_marginal_set(marg, ms)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run("fit", "--input", marg, "--output", out, "--rank", 2,
                       "--max-sweeps", 60, "--seed", 9) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestBoundsCommand:
    def test_table_values(self, capsys):
        assert run("bounds", "--n-vars", 6, "--alphabet", 3) == 0
        out = capsys.readouterr().out
        assert "triples: F <= 4" in out
        assert "quadruples: F <= 10" in out

    def test_n6_i6(self, capsys):
        assert run("bounds", "--n-vars", 6, "--alphabet", 6) == 0
        out = capsys.readouterr().out
        assert "triples: F <= 24" in out
        assert "quadruples: F <= 45" in out

    def test_quadruples_need_four_vars(self, capsys):
        assert run("bounds", "--n-vars", 3, "--alphabet", 5) == 0
        assert "requires N >= 4" in capsys.readouterr().out

    def test_json_output(self, tmp_path):
        out = tmp_path / "b.json"
        assert run("bounds", "--n-vars", 6, "--alphabet", 6, "--output", out,
                   "--format", "json") == 0
        doc = json.load(open(out))
        quad = [o for o in doc["orders"] if o["marginal_order"] == 4][0]
        assert quad["combined_bound"] == 45


class TestPredictCommand:
    @pytest.fixture
    def fitted(self, tmp_path):
        model = random_model(4, 3, 3, seed=7)
        path = tmp_path / "model.json"
        save_bundle(path, model.bundle)
        return model, path

    def test_map_matches_in_process(self, fitted, tmp_path):
        model, model_path = fitted
        rows = sample_dataset(model, 25, seed=8).codes
        test_csv = tmp_path / "test.csv"
        write_csv(test_csv, rows.tolist())
        out = tmp_path / "pred.csv"
        assert run("predict", "--model", model_path, "--input", test_csv,
                   "--output", out, "--target", 4, "--mode", "map") == 0
        reloaded = JointPmfModel(load_bundle(model_path))
        with open(out) as fh:
            preds = list(csv.DictReader(fh))
        assert len(preds) == 25
        for row, pred in zip(rows, preds):
            evidence = {v: int(row[v - 1]) for v in (1, 2, 3)}
            assert int(pred["prediction"]) == map_predict(reloaded, 4, evidence)

    def test_expect_mode(self, fitted, tmp_path):
        model, model_path = fitted
        test_csv = tmp_path / "test.csv"
        write_csv(test_csv, [[1, 2, 1, 1]])
        out = tmp_path / "pred.csv"
        assert run("predict", "--model", model_path, "--input", test_csv,
                   "--output", out, "--target", 4, "--mode", "expect") == 0
        with open(out) as fh:
            pred = list(csv.DictReader(fh))[0]
        reloaded = JointPmfModel(load_bundle(model_path))
        expect = conditional_expectation(reloaded, 4, {1: 1, 2: 2, 3: 1})
        assert float(pred["prediction"]) == pytest.approx(expect, abs=1e-9)

    def test_uniform_posterior_expectation_is_three(self, tmp_path):
        from pmfrec.tensor_ops import FactorBundle

        lam = np.array([1.0])
        A1 = np.full((5, 1), 0.2)
        A2 = np.full((2, 1), 0.5)
        path = tmp_path / "model.json"
        save_bundle(path, FactorBundle(lam, (A2, A1)))
        test_csv = tmp_path / "t.csv"
        write_csv(test_csv, [[1, 1]])
        out = tmp_path / "p.csv"
        assert run("predict", "--model", path, "--input", test_csv,
                   "--output", out, "--target", 2, "--mode", "expect") == 0
        with open(out) as fh:
            assert float(list(csv.DictReader(fh))[0]["prediction"]) == pytest.approx(3.0)

    def test_zero_probability_evidence_gets_diagnostic(self, tmp_path):
        from pmfrec.tensor_ops import FactorBundle

        lam = np.array([1.0])
        A1 = np.array([[1.0], [0.0]])
        A2 = np.array([[0.5], [0.5]])
        path = tmp_path / "model.json"
        save_bundle(path, FactorBundle(lam, (A1, A2)))
        test_csv = tmp_path / "t.csv"
        write_csv(test_csv, [[2, 1]])
        out = tmp_path / "p.csv"
        assert run("predict", "--model", path, "--input", test_csv,
                   "--output", out, "--target", 2) == 0
        with open(out) as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["prediction"] == ""
        assert "zero-probability" in row["note"]

    def test_missing_target_flag_is_usage_error(self, fitted, tmp_path):
        _, model_path = fitted
        test_csv = tmp_path / "t.csv"
        write_csv(test_csv, [[1, 1, 1, 1]])
        assert run("predict", "--model", model_path, "--input", test_csv,
                   "--output", tmp_path / "p.csv") == 1

    def test_out_of_alphabet_test_file_is_data_error(self, fitted, tmp_path):
        _, model_path = fitted
        test_csv = tmp_path / "t.csv"
        write_csv(test_csv, [[1, 9, 1, 1]])
        assert run("predict", "--model", model_path, "--input", test_csv,
                   "--output", tmp_path / "p.csv", "--target", 4) == 2


class TestSynthEvalCommands:
    def test_synth_then_eval_truth_equals_estimate(self, tmp_path, capsys):
        outdir = tmp_path / "synth"
        assert run("synth", "--n-vars", 4, "--alphabet", 3, "--rank", 2,
                   "--samples", 200, "--seed", 11, "--output-dir", outdir) == 0
        model_path = outdir / "model.json"
        report = tmp_path / "eval.json"
        assert run("eval", "--truth-model", model_path, "--est-model", model_path,
                   "--output", report) == 0
        doc = json.load(open(report))
        assert doc["mre_ten"] == 0.0
        assert doc["mre_fact"] == 0.0

    def test_synth_writes_loadable_dataset(self, tmp_path):
        outdir = tmp_path / "synth"
        assert run("synth", "--n-vars", 3, "--alphabet", 4, "--rank", 2,
                   "--samples", 100, "--hide-fraction", 0.2, "--seed", 12,
                   "--output-dir", outdir) == 0
        from pmfrec import load_csv

        data = load_csv(outdir / "data.csv")
        assert data.n_records == 100
        assert int((data.codes == 0).sum()) == 60  # 0.2 * 100 * 3

    def test_eval_predictions_roundtrip(self, tmp_path):
        model = random_model(4, 3, 3, seed=13)
        model_path = tmp_path / "model.json"
        save_bundle(model_path, model.bundle)
        test_rows = sample_dataset(model, 40, seed=14).codes
        test_csv = tmp_path / "test.csv"
        write_csv(test_csv, test_rows.tolist())
        pred_csv = tmp_path / "pred.csv"
        assert run("predict", "--model", model_path, "--input", test_csv,
                   "--output", pred_csv, "--target", 4) == 0
        report = tmp_path / "metrics.json"
        assert run("eval", "--predictions", pred_csv, "--truth", test_csv,
                   "--target", 4, "--output", report) == 0
        doc = json.load(open(report))
        assert 0.0 <= doc["misclassification"] <= 1.0
        assert doc["rmse"] >= 0.0

    def test_eval_missing_truth_value_is_data_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("1,2\n2,?\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("row,prediction,note\n1,2,\n2,1,\n")
        assert run("eval", "--predictions", pred, "--truth", truth,
                   "--target", 2) == 2
        assert "truth row 2 has a missing value in target column 2" in capsys.readouterr().err

    def test_eval_mismatched_alphabets_is_data_error(self, tmp_path):
        a = random_model(3, 3, 2, seed=15)
        b = random_model(3, 4, 2, seed=16)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(pa, a.bundle)
        save_bundle(pb, b.bundle)
        assert run("eval", "--truth-model", pa, "--est-model", pb) == 2

    def test_eval_requires_exactly_one_mode(self, tmp_path):
        assert run("eval") == 1

    def test_experiment_pipeline_emits_summary_csv(self, tmp_path):
        spec = {
            "n_vars": 4, "alphabet": 3, "rank_grid": [2, 3], "orders": [2, 3],
            "trials": 2, "seed": 5, "noiseless": True,
            "max_outer_sweeps": 120, "outer_tol": 1e-12, "cost_floor": 1e-20,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_json = tmp_path / "results.json"
        out_csv = tmp_path / "results.csv"
        assert run("eval", "--experiment", spec_path, "--output", out_json,
                   "--csv", out_csv) == 0
        doc = json.load(open(out_json))
        assert len(doc["summary"]) == 4  # orders x ranks
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["order"], r["rank_fit"]) for r in rows} == {
            ("2", "2"), ("2", "3"), ("3", "2"), ("3", "3")
        }

    def test_experiment_output_is_run_experiment(self, tmp_path):
        spec = {
            "n_vars": 4, "alphabet": 3, "rank_grid": [2, 3], "orders": [2, 3],
            "trials": 2, "seed": 5, "sample_size": 300, "hide_fraction": 0.2,
            "include_oracle": True, "max_outer_sweeps": 40,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_json = tmp_path / "results.json"
        assert run("eval", "--experiment", spec_path, "--output", out_json) == 0
        from pmfrec.harness import ExperimentSpec, run_experiment, summarize_rows
        from pmfrec.serialize import dump_json

        parsed = ExperimentSpec.from_dict(spec)
        rows = run_experiment(parsed)
        expect = tmp_path / "expect.json"
        dump_json({"spec": vars(parsed).copy(), "rows": rows,
                   "summary": summarize_rows(rows)}, expect)
        assert out_json.read_bytes() == expect.read_bytes()
        assert [(r["order"], r["rank_fit"], r["trial"]) for r in rows] == [
            (o, k, t) for o in (2, 3) for k in (2, 3) for t in (0, 1)
        ]


class TestRoundTrip:
    def test_cli_fit_predict_matches_in_process_pipeline(self, tmp_path):
        truth = random_model(4, 3, 2, seed=17)
        ms = exact_marginals(truth, 3)
        marg = tmp_path / "m.json"
        save_marginal_set(marg, ms)
        model_path = tmp_path / "model.json"
        assert run("fit", "--input", marg, "--output", model_path, "--rank", 2,
                   "--max-sweeps", 300, "--tol", "1e-13", "--cost-floor", "1e-22",
                   "--seed", 21) == 0

        test_rows = sample_dataset(truth, 30, seed=18).codes
        test_csv = tmp_path / "test.csv"
        write_csv(test_csv, test_rows.tolist())
        pred_csv = tmp_path / "pred.csv"
        assert run("predict", "--model", model_path, "--input", test_csv,
                   "--output", pred_csv, "--target", 4) == 0

        # same fit in process, on the reloaded marginal file
        in_bundle, _ = fit(
            load_marginal_set(marg),
            FitConfig(rank=2, max_outer_sweeps=300, outer_tol=1e-13,
                      cost_floor=1e-22, seed=21),
        )
        in_model = JointPmfModel(in_bundle)
        with open(pred_csv) as fh:
            preds = list(csv.DictReader(fh))
        for row, pred in zip(test_rows, preds):
            evidence = {v: int(row[v - 1]) for v in (1, 2, 3)}
            assert int(pred["prediction"]) == map_predict(in_model, 4, evidence)


class TestDeterminism:
    def test_marginal_file_matches_golden_bytes(self, tmp_path):
        # the order-2 set of this CSV holds supports 3, 2, 1 and 0
        data = tmp_path / "d.csv"
        data.write_text("1,2,3,?\n2,?,1,?\n1,1,?,2\n?,2,2,?\n2,2,3,?\n1,?,?,1\n")
        out = tmp_path / "m.json"
        assert run("marginals", "--input", data, "--output", out, "--order", 2) == 0
        assert out.read_bytes() == (GOLDEN / "marginals_order2.json").read_bytes()

    def test_marginal_file_bytes_stable(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2,1\n2,1,2\n1,1,1\n2,2,?\n")
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert run("marginals", "--input", data, "--output", out,
                       "--order", 2) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["map", "expect"])
    def test_predictions_match_golden(self, tmp_path, mode):
        # rows with missing cells, an all-missing row and two rows whose
        # evidence has probability zero under the model
        out = tmp_path / "pred.csv"
        assert run("predict", "--model", GOLDEN / "predict_model.json",
                   "--input", GOLDEN / "predict_rows.csv", "--output", out,
                   "--target", 3, "--mode", mode) == 0
        golden = GOLDEN / f"predict_{mode}.csv"
        if mode == "map":
            assert out.read_bytes() == golden.read_bytes()
            return
        with open(out) as fh, open(golden) as gh:
            got, want = list(csv.DictReader(fh)), list(csv.DictReader(gh))
        assert [(r["row"], r["note"]) for r in got] == [(r["row"], r["note"]) for r in want]
        assert sum(1 for r in want if r["note"]) == 2
        for g, w in zip(got, want):
            if w["note"]:
                assert g["prediction"] == ""
            else:
                assert float(g["prediction"]) == pytest.approx(float(w["prediction"]), abs=1e-10)

    @pytest.mark.parametrize("mode", ["map", "expect"])
    def test_prediction_reruns_byte_identical(self, tmp_path, mode):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run("predict", "--model", GOLDEN / "predict_model.json",
                       "--input", GOLDEN / "predict_rows.csv", "--output", out,
                       "--target", 3, "--mode", mode) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
