import numpy as np
import pytest

from krrsolve.errors import InputError, NumericalError
from krrsolve.pcg import LinearOperator, pcg


def random_spd(n, seed, cond=100.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, cond, n)
    return (q * lam) @ q.T


def op_from(m):
    return LinearOperator(m.shape[0], lambda v: m @ v)


def iterates(m, b, epsilon, max_iter, precond=None):
    """Every iterate beta_0 = 0, ..., beta_T of one solve, as a dict by t.

    The loop is deterministic, so beta_t is the solution of the same call
    stopped at ``max_iter=t``.
    """
    stop = pcg(op_from(m), b, epsilon, precond=precond, max_iter=max_iter).iterations
    found = {0: np.zeros_like(b)}
    for t in range(1, stop + 1):
        found[t] = pcg(op_from(m), b, epsilon, precond=precond, max_iter=t).solution
    return found


class TestBasics:
    def test_identity_system_one_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        rep = pcg(op_from(np.eye(3)), b, 1e-12, max_iter=10)
        assert rep.converged and rep.iterations == 1
        np.testing.assert_allclose(rep.solution, b, rtol=1e-12)

    def test_diag_system_two_iterations(self):
        m = np.diag([1.0, 2.0])
        rep = pcg(op_from(m), np.array([1.0, 2.0]), 1e-10, max_iter=5)
        assert rep.converged and rep.iterations <= 2
        np.testing.assert_allclose(rep.solution, [1.0, 1.0], atol=1e-9)

    def test_perfect_preconditioner_one_iteration(self):
        m = random_spd(100, seed=0)
        b = np.random.default_rng(1).standard_normal(100)
        inv = np.linalg.inv(m)
        rep = pcg(op_from(m), b, 1e-8, precond=lambda v: inv @ v, max_iter=50)
        assert rep.converged and rep.iterations == 1

    @pytest.mark.parametrize("max_iter", [5, 250], ids=["stopped", "converged"])
    def test_preconditioner_applied_once_per_iteration(self, max_iter):
        # convergence is tested before the next P^{-1} r, so the residual
        # the loop stops on is never preconditioned
        m = random_spd(40, seed=4)
        b = np.random.default_rng(5).standard_normal(40)
        scale = 1.0 / np.diag(m)
        calls = []

        def precond(v):
            calls.append(v.copy())
            return scale * v

        rep = pcg(op_from(m), b, 1e-8, precond=precond, max_iter=max_iter)
        assert rep.converged == (max_iter == 250)
        assert len(calls) == rep.iterations

    def test_zero_rhs(self):
        rep = pcg(op_from(np.eye(4)), np.zeros(4), 1e-8, max_iter=10)
        assert rep.converged and rep.iterations == 0
        np.testing.assert_array_equal(rep.solution, 0.0)
        assert rep.residual_history.tolist() == [0.0]

    def test_history_invariants(self):
        m = random_spd(30, seed=2)
        b = np.random.default_rng(3).standard_normal(30)
        rep = pcg(op_from(m), b, 1e-6, max_iter=100)
        assert len(rep.residual_history) == rep.iterations + 1
        assert rep.converged == (rep.residual_history[-1] < 1e-6)
        assert rep.residual_history[0] == 1.0

    def test_max_iter_reached_not_converged(self):
        m = random_spd(50, seed=4, cond=1e8)
        b = np.random.default_rng(5).standard_normal(50)
        rep = pcg(op_from(m), b, 1e-14, max_iter=3)
        assert not rep.converged and rep.iterations == 3

    def test_input_validation(self):
        with pytest.raises(InputError):
            pcg(op_from(np.eye(2)), np.ones(3), 1e-6)
        with pytest.raises(InputError):
            pcg(op_from(np.eye(2)), np.ones(2), 0.0)
        for epsilon in (float("nan"), float("inf"), -1.0):
            with pytest.raises(InputError, match="epsilon"):
                pcg(op_from(np.eye(2)), np.ones(2), epsilon)
        with pytest.raises(InputError):
            pcg(op_from(np.eye(2)), np.array([np.inf, 1.0]), 1e-6)


class TestBreakdown:
    def test_indefinite_operator(self):
        m = np.diag([1.0, -1.0])
        with pytest.raises(NumericalError, match="iteration"):
            pcg(op_from(m), np.array([1.0, 1.0]), 1e-10, max_iter=10)

    def test_indefinite_preconditioner(self):
        m = np.eye(3)
        with pytest.raises(NumericalError, match="positive definiteness"):
            pcg(op_from(m), np.ones(3), 1e-10, precond=lambda v: -v, max_iter=10)

    def test_nonfinite_product(self):
        bad = LinearOperator(2, lambda v: v * np.nan)
        with pytest.raises(NumericalError):
            pcg(bad, np.ones(2), 1e-10, max_iter=5)

    def test_overflowing_update_is_a_numerical_error(self):
        # p.Mp = 1e-10 makes eta = 3e10, so eta * v overflows; numpy's warning,
        # an error under this suite's filterwarnings, must not pre-empt the check
        bad = LinearOperator(3, lambda p: np.array([1e300, -1e300, 1e-10]))
        with pytest.raises(NumericalError, match="non-finite iterate at iteration 1"):
            pcg(bad, np.ones(3), 1e-6)


class TestConvergenceTheory:
    def test_finite_termination(self):
        # plain CG reaches the exact solution by iteration n
        for seed in range(3):
            n = 40
            m = random_spd(n, seed=seed, cond=10.0)
            b = np.random.default_rng(seed + 10).standard_normal(n)
            rep = pcg(op_from(m), b, 1e-300, max_iter=n)
            assert rep.iterations == n
            expect = np.linalg.solve(m, b)
            err = np.linalg.norm(rep.solution - expect) / np.linalg.norm(expect)
            assert err <= 1e-8

    def test_m_norm_error_monotone(self):
        n = 35
        m = random_spd(n, seed=6, cond=1e4)
        b = np.random.default_rng(7).standard_normal(n)
        expect = np.linalg.solve(m, b)
        errs = [float(np.sqrt((x - expect) @ m @ (x - expect)))
                for x in iterates(m, b, 1e-12, n).values()]
        diffs = np.diff(errs)
        assert (diffs <= 1e-10 * errs[0]).all()

    def test_rate_bound(self):
        # error at iteration t within 2 ((sqrt(k)-1)/(sqrt(k)+1))^t of start
        from krrsolve.precond import precond_condition_number

        for seed in range(5):
            n = 30
            m = random_spd(n, seed=seed + 20, cond=10.0 ** (1 + seed % 3))
            b = np.random.default_rng(seed + 30).standard_normal(n)
            kappa = precond_condition_number(m, lambda v: v)
            rho = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
            expect = np.linalg.solve(m, b)
            errs = [float(np.sqrt((x - expect) @ m @ (x - expect)))
                    for x in iterates(m, b, 1e-14, n).values()]
            for t, err in enumerate(errs):
                assert err <= 2.0 * rho**t * errs[0] + 1e-8

    def test_preconditioning_equivalence(self):
        # pcg iterates match plain CG on the split-preconditioned system;
        # the two roundoff paths drift apart exponentially with the
        # iteration count, so keep the instance mild and compare a prefix
        n = 25
        m = random_spd(n, seed=40, cond=25.0)
        p = random_spd(n, seed=41, cond=5.0)
        b = np.random.default_rng(42).standard_normal(n)
        w, v = np.linalg.eigh(p)
        p_inv_half = (v / np.sqrt(w)) @ v.T
        p_inv = (v / w) @ v.T

        precond_iters = iterates(m, b, 1e-12, n, precond=lambda x: p_inv @ x)

        m_tilde = p_inv_half @ m @ p_inv_half
        m_tilde = 0.5 * (m_tilde + m_tilde.T)
        plain_iters = iterates(m_tilde, p_inv_half @ b, 1e-12, n)

        shared = sorted(set(precond_iters) & set(plain_iters))[:15]
        assert len(shared) >= 10
        for t in shared:
            mapped = p_inv_half @ plain_iters[t]
            assert np.linalg.norm(mapped - precond_iters[t]) <= \
                1e-8 * max(1.0, np.linalg.norm(precond_iters[t]))

    def test_operator_symmetry_witness(self):
        m = random_spd(20, seed=50)
        op = op_from(m)
        rng = np.random.default_rng(51)
        for _ in range(10):
            u, v = rng.standard_normal((2, 20))
            lhs = op.apply(u) @ v
            rhs = u @ op.apply(v)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)


def test_true_residual_matches_the_recursive_one():
    m = random_spd(60, seed=60, cond=1e6)
    b = np.random.default_rng(61).standard_normal(60)
    rep = pcg(op_from(m), b, 1e-12, max_iter=80)
    assert rep.iterations >= 75
    # recursive and true residuals agree to roundoff scale here
    for t in (25, 50, 75):
        beta = pcg(op_from(m), b, 1e-12, max_iter=t).solution
        true_rel = np.linalg.norm(b - m @ beta) / np.linalg.norm(b)
        assert abs(true_rel - rep.residual_history[t]) <= 1e-6
