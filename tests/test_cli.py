import json

import numpy as np
import pytest

from krrsolve.cli import (
    EXIT_INPUT,
    EXIT_NOT_CONVERGED,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    main,
)
from krrsolve.errors import NumericalError

SHARED_FLAGS = {
    "--config": ("config", None, None),
    "--dataset": ("dataset", None, None),
    "--format": ("format", None, ("libsvm", "csv")),
    "--target-column": ("target_column", None, None),
    "--task": ("task", None, ("regression", "classification")),
    "--subsample": ("subsample", int, None),
    "--seed": ("seed", int, None),
    "--kernel": ("kernel", None, ("squared_exponential", "laplace1")),
    "--bandwidth": ("bandwidth", float, None),
    "--mu-over-n": ("mu_over_n", float, None),
    "--epsilon": ("epsilon", float, None),
    "--max-iter": ("max_iter", int, None),
    "--memory-budget-bytes": ("memory_budget_bytes", int, None),
    "--test-fraction": ("test_fraction", float, None),
    "--center-targets": ("center_targets", None, None),
    "--output-dir": ("output_dir", None, None),
}
FULL_ONLY = {
    "--pivot-rule": ("pivot_rule", None, ("rpcholesky", "greedy", "uniform")),
    "--rank": ("rank", int, None),
    "--block-size": ("block_size", int, None),
}
RESTRICTED_ONLY = {
    "--preconditioner": ("preconditioner", None, ("krill", "falkon", "none")),
    "--centers": ("centers", int, None),
    "--embedding-dim": ("embedding_dim", int, None),
    "--embedding-nnz": ("embedding_nnz", int, None),
}


def _subparser(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return sub.choices[command]


@pytest.mark.parametrize("command,own", [("solve-full", FULL_ONLY),
                                         ("solve-restricted", RESTRICTED_ONLY)])
def test_solve_flags_are_pinned(command, own):
    assert len(SHARED_FLAGS) == 16  # 15 config fields plus --config
    actions = {a.option_strings[0]: a for a in _subparser(command)._actions
               if a.dest != "help"}
    expect = {**SHARED_FLAGS, **own}
    assert set(actions) == set(expect)
    for flag, (dest, typ, choices) in expect.items():
        action = actions[flag]
        assert action.option_strings == [flag]
        assert (action.dest, action.type) == (dest, typ), flag
        assert (None if action.choices is None else tuple(action.choices)) == choices, flag
        assert action.default is None, flag
        assert action.required is False, flag
        assert action.nargs == (0 if flag == "--center-targets" else None), flag


def write_libsvm(path, n=40, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = np.sin(x.sum(axis=1))
    with open(path, "w") as fh:
        for xi, yi in zip(x, y):
            feats = " ".join(f"{j + 1}:{v:.6f}" for j, v in enumerate(xi))
            fh.write(f"{yi:.6f} {feats}\n")
    return str(path)


@pytest.fixture
def dataset(tmp_path):
    return write_libsvm(tmp_path / "toy.txt")


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def test_solve_full_exit_ok(tmp_path, dataset, capsys):
    out = tmp_path / "full"
    code, cap = _run(capsys, ["solve-full", "--dataset", dataset, "--seed", "0",
                              "--rank", "20", "--output-dir", str(out)])
    assert code == EXIT_OK
    summary = json.loads(cap.out)
    assert summary["converged"] and summary["mode"] == "full"
    assert summary["factor_rank_requested"] == 20 and 1 <= summary["factor_rank"] <= 20
    assert 0 <= summary["load_time"] <= summary["total_time"]
    assert json.loads((out / "summary.json").read_text()) == summary


def test_solve_restricted_exit_ok(tmp_path, dataset, capsys):
    out = tmp_path / "restricted"
    for pre in ("krill", "falkon", "none"):
        code, cap = _run(capsys, ["solve-restricted", "--dataset", dataset,
                                  "--seed", "0", "--centers", "10",
                                  "--preconditioner", pre, "--output-dir", str(out)])
        assert code == EXIT_OK, pre
        summary = json.loads(cap.out)
        assert summary["mode"] == "restricted" and summary["preconditioner"] == pre


def test_exit_not_converged(tmp_path, dataset, capsys):
    code, cap = _run(capsys, ["solve-full", "--dataset", dataset, "--seed", "0",
                              "--rank", "1", "--epsilon", "1e-12", "--max-iter", "1",
                              "--output-dir", str(tmp_path / "nc")])
    assert code == EXIT_NOT_CONVERGED
    summary = json.loads(cap.out)
    assert not summary["converged"] and summary["iterations"] == 1


@pytest.mark.parametrize("argv,match", [
    (["--seed", "0", "--rank", "5", "--dataset", "missing.txt"], "missing.txt"),
    (["--rank", "5"], "seed"),
    (["--seed", "0", "--rank", "0"], "rank"),
    (["--seed", "0", "--rank", "5", "--epsilon", "-1"], "epsilon"),
])
def test_exit_input_error(tmp_path, dataset, capsys, argv, match):
    if "--dataset" not in argv:
        argv = argv + ["--dataset", dataset]
    code, cap = _run(capsys, ["solve-full", "--output-dir", str(tmp_path / "e")] + argv)
    assert code == EXIT_INPUT
    assert match in cap.err


def test_exit_numerical_breakdown(tmp_path, dataset, capsys, monkeypatch):
    def breakdown(config):
        raise NumericalError("Cholesky failed")

    monkeypatch.setattr("krrsolve.cli.run_experiment", breakdown)
    code, cap = _run(capsys, ["solve-full", "--dataset", dataset, "--seed", "0",
                              "--rank", "5", "--output-dir", str(tmp_path / "nb")])
    assert code == EXIT_NUMERICAL == 3
    assert "numerical breakdown: Cholesky failed" in cap.err
    assert cap.out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_mu_is_an_input_error(tmp_path, dataset, capsys, value):
    argv = ["solve-full", "--seed", "0", "--rank", "5", "--output-dir", str(tmp_path / "e")]
    code, cap = _run(capsys, argv + ["--dataset", dataset, "--mu-over-n", value])
    assert code == EXIT_INPUT and "mu_over_n" in cap.err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {dataset}\nmu_over_n = {value}\n")
    code, cap = _run(capsys, argv + ["--config", str(cfg)])
    assert code == EXIT_INPUT and "mu_over_n" in cap.err


def test_flags_override_config_file(tmp_path, dataset):
    from krrsolve.cli import _config_from_args

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {dataset}\nmode = restricted\nrank = 5\nseed = 1\n"
                   "bandwidth = 2.0\ncenters = 4\n")
    args = build_parser().parse_args(
        ["solve-full", "--config", str(cfg), "--rank", "7", "--center-targets"])
    config = _config_from_args(args, "full")
    assert (config.mode, config.rank, config.seed, config.bandwidth) == ("full", 7, 1, 2.0)
    assert config.center_targets is True and config.centers == 4


def test_bench_rejects_config_without_seed(tmp_path, dataset, capsys):
    from krrsolve.errors import InputError
    from krrsolve.harness import run_batch

    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "a.cfg").write_text(
        f"dataset = {dataset}\nrank = 5\noutput_dir = {tmp_path / 'a'}\n")
    code, cap = _run(capsys, ["bench", str(cfg_dir)])
    assert code == EXIT_INPUT and "seed" in cap.err
    assert not (tmp_path / "a" / "summary.json").exists()
    with pytest.raises(InputError, match="seed"):
        run_batch(str(cfg_dir))


def test_adversarial_stdout_has_no_lists(tmp_path, capsys):
    out = tmp_path / "adv.json"
    code, cap = _run(capsys, ["adversarial", "--seed", "0", "--n", "100",
                              "--n-seeds", "3", "--output", str(out)])
    assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
    printed = json.loads(cap.out)
    full = json.loads(out.read_text())
    assert [p["experiment"] for p in printed] == [f["experiment"] for f in full]
    for summary, report in zip(printed, full):
        assert not any(isinstance(v, list) for v in summary.values())
        assert summary == {k: v for k, v in report.items() if not isinstance(v, list)}
        assert len(report["rpcholesky_residuals"]) == 3
