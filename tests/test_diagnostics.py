"""The paper's claims, checked by the diagnostics module at small size."""

from krrsolve.diagnostics import verify_krill_theorem


def test_krill_bound_holds_whenever_the_embedding_is_a_good_subspace_embedding():
    # kappa <= 3 must follow deterministically from distortion in [1/2, 3/2]
    result = verify_krill_theorem(n=400, k=20, mu=0.4, n_seeds=20)
    assert result["event_count"] >= 1
    assert result["conditional_violations"] == 0
