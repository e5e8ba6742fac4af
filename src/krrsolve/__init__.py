"""Kernel ridge regression by randomized-preconditioned CG and direct restricted solves.

The library solves the full-data system (A + mu I) beta = y and the
restricted system [A(S,:) A(:,S) + mu A(S,S)] beta = A(S,:) y without ever
materializing the N x N kernel matrix: the full system by preconditioned
conjugate gradient with a randomized Nystrom preconditioner, and the
restricted one by default directly, from its exact k x k matrix formed in
one pass over A(:,S), or by PCG with a sketched-Gram (KRILL) or Falkon
preconditioner.
"""

from .data import Dataset, load_csv, load_dataset, load_libsvm
from .diagnostics import (
    build_greedy_failure_matrix,
    build_uniform_failure_matrix,
    clustered_dataset,
    crossover_experiment,
    guarantee_rank,
    psd_matrix_with_spectrum,
    separation_experiment,
    verify_krill_theorem,
    verify_rpc_theorem,
)
from .errors import InputError, KrrSolveError, NumericalError
from .harness import run_batch, run_experiment, split_train_test
from .kernels import (
    DatasetKernelOracle,
    ExplicitMatrixOracle,
    KernelOracle,
    KernelSpec,
    pairwise_kernel,
    predict,
)
from .krr import (
    FullKrrProblem,
    RestrictedKrrProblem,
    select_centers_uniform,
    smape,
    solve_full_krr,
    solve_restricted_krr,
    test_error,
)
from .lowrank import (
    PartialCholeskyFactor,
    PivotRule,
    build_factor,
    tail_rank,
    trace_residual,
)
from .pcg import LinearOperator, SolveReport, pcg
from .precond import (
    CholeskyPreconditioner,
    build_rpc_preconditioner,
    krill_from_sketch,
    precond_condition_number,
)
from .sketch import build_embedding, distortion_check, practical_params, theory_params

__version__ = "0.1.0"
