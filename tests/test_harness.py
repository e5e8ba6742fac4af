import csv
import json
import os

import numpy as np
import pytest

from krrsolve import harness
from krrsolve.config import ExperimentConfig
from krrsolve.data import load_dataset
from krrsolve.errors import InputError

from .test_cli import write_libsvm


def _read_residuals(out_dir):
    with open(os.path.join(out_dir, "residuals.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(r[1]) for r in rows])


def test_run_batch_fraction_solved_matches_residual_files(tmp_path):
    dataset = write_libsvm(tmp_path / "toy.txt", n=60)
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    # the third run stops at max_iter without reaching its tolerance
    runs = {"loose.cfg": (1e-2, 0), "tight.cfg": (1e-5, 0), "capped.cfg": (1e-12, 4)}
    for name, (eps, max_iter) in runs.items():
        (cfg_dir / name).write_text(
            f"dataset = {dataset}\nseed = 3\nrank = 4\nmu_over_n = 1e-3\nepsilon = {eps}\n"
            f"max_iter = {max_iter}\noutput_dir = {tmp_path / name}\n")
    result = harness.run_batch(str(cfg_dir))

    curves = [(_read_residuals(tmp_path / name), eps) for name, (eps, _) in runs.items()]
    assert len({len(h) for h, _ in curves}) == 3
    expect = [["iteration", "fraction_solved"]]
    for it in range(max(len(h) for h, _ in curves)):
        solved = sum(1 for h, eps in curves if np.any(h[:it + 1] < eps))
        expect.append([str(it), f"{solved / len(curves):.6f}"])
    assert result["fraction_solved_csv"] == str(cfg_dir / "fraction_solved.csv")
    with open(result["fraction_solved_csv"], newline="") as fh:
        assert list(csv.reader(fh)) == expect
    assert [row[1] for row in expect[1:]][-1] == "0.666667"
    assert "0.333333" in {row[1] for row in expect[1:]}


def test_unknown_names_raise(tmp_path):
    with pytest.raises(InputError, match="format"):
        load_dataset(str(tmp_path / "x"), "parquet")
    with pytest.raises(InputError, match="task"):
        harness.test_error(np.ones(2), np.ones(2), "ranking")


@pytest.mark.parametrize("mode", ["full", "restricted"])
def test_summary_times_prediction_within_the_run(tmp_path, mode):
    dataset = write_libsvm(tmp_path / "toy.txt", n=60)
    config = ExperimentConfig(dataset=dataset, seed=3, mode=mode, rank=4, centers=8,
                              test_fraction=0.25, output_dir=str(tmp_path / "out"))
    summary = harness.run_experiment(config)
    assert 0 <= summary["predict_time"] <= summary["total_time"]
    with open(tmp_path / "out" / "summary.json") as fh:
        assert json.load(fh)["predict_time"] == summary["predict_time"]


@pytest.mark.parametrize("mode", ["full", "restricted"])
def test_summary_solve_time_is_the_solvers_own(tmp_path, monkeypatch, mode):
    name = "solve_full_krr" if mode == "full" else "solve_restricted_krr"
    solve, reports = getattr(harness, name), []

    def spy(problem):
        reports.append(solve(problem))
        return reports[-1]

    monkeypatch.setattr(harness, name, spy)
    dataset = write_libsvm(tmp_path / "toy.txt", n=60)
    config = ExperimentConfig(dataset=dataset, seed=3, mode=mode, rank=4, centers=8,
                              output_dir=str(tmp_path / "out"))
    summary = harness.run_experiment(config)
    (report,) = reports
    assert summary["solve_time"] == report.meta["solve_time"]
    assert summary["preconditioner_build_time"] <= summary["solve_time"]
    assert summary["solve_time"] <= summary["total_time"]
    with open(tmp_path / "out" / "summary.json") as fh:
        assert json.load(fh)["solve_time"] == report.meta["solve_time"]


def test_summary_records_whether_the_full_solve_kept_a(tmp_path):
    # 60 points give an A well under two single-pass slabs, so it is kept
    # from the first apply
    dataset = write_libsvm(tmp_path / "toy.txt", n=60)
    config = ExperimentConfig(dataset=dataset, seed=3, mode="full", rank=4,
                              output_dir=str(tmp_path / "out"))
    summary = harness.run_experiment(config)
    assert summary["iterations"] >= 1 and summary["operator_kept"] is True
    with open(os.path.join(config.output_dir, "summary.json")) as fh:
        assert json.load(fh)["operator_kept"] is True


def test_summary_records_whether_the_restricted_solve_kept_a_ns(tmp_path):
    dataset = write_libsvm(tmp_path / "toy.txt", n=60)
    config = ExperimentConfig(dataset=dataset, seed=3, mode="restricted", centers=8,
                              preconditioner="krill", output_dir=str(tmp_path / "out"))
    harness.run_experiment(config)
    with open(os.path.join(config.output_dir, "summary.json")) as fh:
        assert json.load(fh)["operator_kept"] is True


@pytest.mark.parametrize("mode", ["full", "restricted"])
def test_center_targets_adds_the_target_mean_back(tmp_path, mode):
    # constant targets centre to zero, so the solution is zero and every
    # prediction is exactly the mean; uncentred, the kernel expansion misses it
    dataset = tmp_path / "flat.txt"
    x = np.random.default_rng(4).standard_normal((40, 3))
    dataset.write_text("".join(f"5 1:{a} 2:{b} 3:{c}\n" for a, b, c in x))
    errors = {}
    for center in (False, True):
        config = ExperimentConfig(dataset=str(dataset), seed=3, mode=mode, rank=4,
                                  centers=8, test_fraction=0.25, center_targets=center,
                                  output_dir=str(tmp_path / str(center)))
        errors[center] = harness.run_experiment(config)["test_error"]
    assert errors[True] == 0.0
    assert errors[False] > 1e-3


def test_run_batch_gives_the_same_runs_on_two_workers(tmp_path):
    # the process pool behind ``bench --workers`` runs each config as the
    # sequential loop does; only the wall times may differ
    dataset = write_libsvm(tmp_path / "toy.txt", n=60)
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for name, mode in (("full.cfg", "full"), ("restricted.cfg", "restricted")):
        (cfg_dir / name).write_text(
            f"dataset = {dataset}\nseed = 3\nmode = {mode}\nrank = 4\ncenters = 8\n"
            f"test_fraction = 0.25\noutput_dir = {tmp_path / name}\n")
    timing = {"load_time", "solve_time", "total_time", "predict_time",
              "preconditioner_build_time"}
    runs, fractions = {}, {}
    for workers in (1, 2):
        result = harness.run_batch(str(cfg_dir), workers=workers)
        runs[workers] = {path: {k: v for k, v in s.items() if k not in timing}
                         for path, s in result["runs"].items()}
        with open(result["fraction_solved_csv"], "rb") as fh:
            fractions[workers] = fh.read()
    assert len(runs[1]) == 2
    assert runs[1] == runs[2]
    assert fractions[1] == fractions[2]


def test_classification_reports_the_sign_error_rate(tmp_path):
    # a prediction of 0 counts as +1
    assert harness.test_error([0.3, -0.2, 0.0, -1.0], [1, 1, -1, -1],
                              "classification") == 0.5
    dataset = tmp_path / "signs.txt"
    x = np.random.default_rng(6).standard_normal((80, 2))
    dataset.write_text("".join(f"{1 if a > 0 else -1} 1:{a} 2:{b}\n" for a, b in x))
    config = ExperimentConfig(dataset=str(dataset), seed=3, task="classification",
                              mode="full", rank=10, mu_over_n=1e-3, test_fraction=0.25,
                              output_dir=str(tmp_path / "out"))
    summary = harness.run_experiment(config)
    # the label is the sign of the first feature, which the solve learns
    assert summary["test_size"] == 20 and summary["test_error"] <= 0.1


def test_classification_rejects_labels_other_than_plus_minus_one(tmp_path):
    config = ExperimentConfig(dataset=write_libsvm(tmp_path / "toy.txt", n=60), seed=3,
                              task="classification", rank=4, test_fraction=0.25,
                              output_dir=str(tmp_path / "out"))
    with pytest.raises(InputError, match="labels must be -1 or \\+1"):
        harness.run_experiment(config)


def test_subsample_trains_on_that_many_points_the_same_way_at_one_seed(tmp_path):
    dataset = write_libsvm(tmp_path / "toy.txt", n=60)
    timing = {"load_time", "solve_time", "total_time", "preconditioner_build_time"}
    summaries = []
    for run in range(2):
        config = ExperimentConfig(dataset=dataset, seed=3, subsample=30, rank=4,
                                  output_dir=str(tmp_path / str(run)))
        summary = harness.run_experiment(config)
        summaries.append({k: v for k, v in summary.items() if k not in timing})
        assert summary["n_train"] == 30
    assert summaries[0] == summaries[1]
    assert _read_residuals(tmp_path / "0").tobytes() == _read_residuals(tmp_path / "1").tobytes()
