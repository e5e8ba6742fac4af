import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import krrsolve

from krrsolve.cli import (
    EXIT_INPUT,
    EXIT_NOT_CONVERGED,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    main,
)
from krrsolve.errors import NumericalError
from krrsolve.lowrank import PartialCholeskyFactor
from krrsolve.sketch import practical_params

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
    "--preconditioner": ("preconditioner", None, ("direct", "krill", "falkon", "none")),
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
        assert json.loads((out / "summary.json").read_text()) == summary
        if pre == "none":
            assert "preconditioner_jitter" not in summary
        else:
            # at least the first rung, eps_mach * tr(P), of the jitter ladder
            assert 0 < summary["preconditioner_jitter"] < np.inf, pre
        if pre == "krill":
            assert (summary["embedding_dim"], summary["embedding_nnz"]) == practical_params(10)
        else:
            assert "embedding_dim" not in summary and "embedding_nnz" not in summary


def test_solve_restricted_defaults_to_the_direct_solve(tmp_path, dataset, capsys):
    out = tmp_path / "direct"
    code, cap = _run(capsys, ["solve-restricted", "--dataset", dataset, "--seed", "0",
                              "--centers", "10", "--output-dir", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary == json.loads(cap.out)
    assert summary["preconditioner"] == "direct" and summary["converged"]
    assert 0 < summary["preconditioner_jitter"] < np.inf
    assert "embedding_dim" not in summary and "embedding_nnz" not in summary


def test_direct_solve_reports_its_true_residual(tmp_path, dataset, capsys):
    out = tmp_path / "direct"
    code, _ = _run(capsys, ["solve-restricted", "--dataset", dataset, "--seed", "0",
                            "--centers", "10", "--output-dir", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert 0 <= summary["true_rel_residual"] <= summary["epsilon"]


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
    (["--seed", "0", "--rank", "5", "--epsilon", "inf"], "epsilon"),
    (["--seed", "0", "--rank", "5", "--bandwidth", "inf"], "bandwidth"),
    (["--seed", "0", "--rank", "5", "--bandwidth", "nan"], "bandwidth"),
])
def test_exit_input_error(tmp_path, dataset, capsys, argv, match):
    if "--dataset" not in argv:
        argv = argv + ["--dataset", dataset]
    code, cap = _run(capsys, ["solve-full", "--output-dir", str(tmp_path / "e")] + argv)
    assert code == EXIT_INPUT
    assert match in cap.err


def test_unallocatable_libsvm_features_exit_with_input_error(tmp_path):
    # One index sizes a 2 x 3e9 dense matrix (44.7 GiB).  The child caps its
    # own address space at 3 GiB after its imports, so the allocation fails
    # there whatever the host would grant.
    path = tmp_path / "huge.txt"
    path.write_text("1 1:0.5\n-1 3000000000:1\n")
    script = ("import resource, sys\n"
              "from krrsolve.cli import main\n"
              "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
              "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(krrsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve-full", "--dataset", str(path),
         "--seed", "0", "--rank", "1", "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{path}: the dense features, 2 x 3000000000 float64, need 44.7 GiB" in proc.stderr


def _run_cli(argv):
    """The CLI in a fresh interpreter, so that an uncaught error shows."""
    src = str(Path(krrsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "krrsolve.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("fmt,text,line", [
    ("libsvm", b"1 1:0.5\n-1 1:\xe9\n", 2),
    ("csv", b"a,target\xe9\n1,2\n", 1),
])
def test_non_utf8_dataset_exits_with_input_error(tmp_path, fmt, text, line):
    path = tmp_path / f"latin1.{fmt}"
    path.write_bytes(text)
    proc = _run_cli(["solve-full", "--dataset", str(path), "--format", fmt,
                     "--target-column", "target", "--seed", "0", "--rank", "1",
                     "--output-dir", str(tmp_path / "out")])
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"error: {path}:{line}: not UTF-8 text" in proc.stderr


@pytest.mark.parametrize("argv,match", [
    (["solve-full", "--rank", "x"], "argument --rank: invalid int value: 'x'"),
    (["solve-full", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ([], "the following arguments are required: command"),
], ids=["bad-value", "unknown-flag", "no-command"])
def test_usage_errors_exit_as_input_errors(capsys, argv, match):
    # argparse's own exit code, 2, is EXIT_NOT_CONVERGED
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: krrsolve") and match in err


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve-full", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--rank" in capsys.readouterr().out


def test_importing_the_package_loads_no_scipy():
    # scipy is imported where the Laplace kernel and KRILL's embedding use it,
    # and the process pool only where ``run_batch`` runs on several workers
    script = ("import sys, krrsolve, krrsolve.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0]\n"
              "             in ('scipy', 'multiprocessing', 'concurrent')))\n")
    src = str(Path(krrsolve.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exit_numerical_breakdown(tmp_path, dataset, capsys, monkeypatch):
    def breakdown(config):
        raise NumericalError("Cholesky failed")

    monkeypatch.setattr("krrsolve.cli.run_experiment", breakdown)
    code, cap = _run(capsys, ["solve-full", "--dataset", dataset, "--seed", "0",
                              "--rank", "5", "--output-dir", str(tmp_path / "nb")])
    assert code == EXIT_NUMERICAL == 3
    assert "numerical breakdown: Cholesky failed" in cap.err
    assert cap.out == ""


def test_rank_deficient_factor_at_tiny_mu_exits_numerical(tmp_path, dataset, capsys,
                                                          monkeypatch):
    def repeated_column(oracle, rank, rule):
        # two equal columns of squared norm 4: F^T F + mu I rounds to
        # [[4, 4], [4, 4]] at mu = 1e-300 * N, and its Cholesky breaks down
        f = np.zeros((oracle.n, 2))
        f[:4] = 1.0
        return PartialCholeskyFactor(f, np.arange(2), np.zeros(oracle.n))

    monkeypatch.setattr("krrsolve.krr.build_factor", repeated_column)
    code, cap = _run(capsys, ["solve-full", "--dataset", dataset, "--seed", "0",
                              "--rank", "2", "--mu-over-n", "1e-300",
                              "--output-dir", str(tmp_path / "rd")])
    assert code == EXIT_NUMERICAL
    assert "numerical breakdown: F^T F + mu I is not numerically positive definite" in cap.err
    assert "Traceback" not in cap.err and cap.out == ""


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


def _bench_dir(tmp_path, dataset, runs):
    """A directory of restricted-run configs, one per (name, extra lines)."""
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for name, extra in runs.items():
        (cfg_dir / f"{name}.cfg").write_text(
            f"dataset = {dataset}\nseed = 0\nmode = restricted\ncenters = 10\n"
            f"output_dir = {tmp_path / name}\n{extra}")
    return cfg_dir


@pytest.mark.parametrize("capped, code", [(False, EXIT_OK), (True, EXIT_NOT_CONVERGED)])
def test_bench_exits_by_how_many_runs_converged(tmp_path, dataset, capsys, capped, code):
    runs = {"direct": "", "krill": "preconditioner = krill\n"}
    if capped:
        runs["capped"] = "preconditioner = none\nmax_iter = 1\nepsilon = 1e-12\n"
    cfg_dir = _bench_dir(tmp_path, dataset, runs)
    exit_code, cap = _run(capsys, ["bench", str(cfg_dir)])
    assert exit_code == code
    assert json.loads(cap.out) == {
        "runs": len(runs), "not_converged": int(capped),
        "fraction_solved_csv": str(cfg_dir / "fraction_solved.csv")}
    for name in runs:
        assert (tmp_path / name / "summary.json").exists()


def test_bench_without_configs_is_an_input_error(tmp_path, dataset, capsys):
    cfg_dir = _bench_dir(tmp_path, dataset, {})
    (cfg_dir / "notes.txt").write_text("seed = 0\n")
    code, cap = _run(capsys, ["bench", str(cfg_dir)])
    assert code == EXIT_INPUT
    assert f"no .cfg files in {cfg_dir}" in cap.err


def test_csv_without_target_column_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "feat.csv"
    path.write_text("a,b\n1,2\n3,4\n5,7\n")
    code, cap = _run(capsys, ["solve-full", "--dataset", str(path), "--format", "csv",
                              "--seed", "0", "--rank", "1",
                              "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_INPUT
    assert "dataset has no targets" in cap.err


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


@pytest.mark.parametrize("command", ["verify-theorems", "adversarial"])
@pytest.mark.parametrize("n_seeds", ["0", "-2"])
def test_no_seeds_is_an_input_error(capsys, command, n_seeds):
    code, cap = _run(capsys, [command, "--seed", "1", "--n-seeds", n_seeds])
    assert code == EXIT_INPUT
    assert "n_seeds >= 1" in cap.err and "Traceback" not in cap.err
    assert cap.out == ""


@pytest.mark.parametrize("command,own", [
    ("solve-full", ["--rank", "5"]),
    ("solve-restricted", ["--centers", "5"]),
    ("adversarial", ["--n", "100", "--n-seeds", "1"]),
    ("verify-theorems", ["--n-seeds", "1"]),
])
def test_negative_seed_is_an_input_error(tmp_path, dataset, capsys, command, own):
    if command.startswith("solve"):
        own = own + ["--dataset", dataset, "--output-dir", str(tmp_path / "out")]
    code, cap = _run(capsys, [command, "--seed", "-1"] + own)
    assert code == EXIT_INPUT
    assert "seed must be nonnegative" in cap.err and "Traceback" not in cap.err
    assert cap.out == ""


@pytest.mark.parametrize("mu", ["nan", "inf", "0", "-1"])
def test_bad_mu_is_an_input_error(capsys, mu):
    code, cap = _run(capsys, ["verify-theorems", "--seed", "1", "--n-seeds", "1",
                              "--mu", mu])
    assert code == EXIT_INPUT
    assert "mu" in cap.err and "Traceback" not in cap.err
    assert cap.out == ""


def test_a_guarantee_rank_beyond_the_spectrum_is_an_input_error(capsys):
    # at mu = 1e-5 the 20 eigenvalues 2^-1..2^-20 need rank 213
    code, cap = _run(capsys, ["verify-theorems", "--seed", "1", "--n-seeds", "1",
                              "--n", "20", "--mu", "1e-5"])
    assert code == EXIT_INPUT
    assert "guarantee rank >= 1 and <= 20, got 213" in cap.err
    assert "Traceback" not in cap.err and cap.out == ""


def test_verify_theorems_reports_are_pinned(tmp_path, capsys):
    from krrsolve.sketch import theory_params

    out = tmp_path / "verify.json"
    code, cap = _run(capsys, ["verify-theorems", "--seed", "1", "--n-seeds", "2",
                              "--output", str(out)])
    assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
    rpc, krill = json.loads(out.read_text())
    assert set(rpc) == {"experiment", "n", "mu", "delta", "rank", "rank_mu",
                        "kappa_bound", "event_fraction", "mean_trace_residual",
                        "trace_bound", "tail_sum", "records"}
    assert set(rpc["records"][0]) == {"seed", "kappa", "trace_residual", "kappa_event"}
    assert set(krill) == {"experiment", "n", "k", "mu", "embedding_dim",
                          "embedding_nnz", "params", "event_count", "n_seeds",
                          "conditional_violations", "kappa_median", "kappa_max",
                          "records"}
    assert set(krill["records"][0]) == {"seed", "distortion_min", "distortion_max",
                                        "kappa", "distortion_event", "conditional_ok"}
    assert krill["params"] == "theory"
    assert (krill["embedding_dim"], krill["embedding_nnz"]) == theory_params(krill["k"])
    assert len(rpc["records"]) == len(krill["records"]) == 2


@pytest.mark.parametrize("k", ["0", "-3"])
def test_no_centers_is_an_input_error(capsys, k):
    code, cap = _run(capsys, ["verify-theorems", "--seed", "1", "--n-seeds", "1",
                              "--k", k])
    assert code == EXIT_INPUT
    assert "k >= 1" in cap.err and "Traceback" not in cap.err
    assert cap.out == ""
