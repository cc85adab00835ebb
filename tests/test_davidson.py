"""When certify's Davidson run stops (stability._davidson_smallest).

The run stops once the residual of its smallest Ritz pair is at most
_DAVIDSON_RTOL times the largest Ritz value, the rule that certify's
Lanczos run stopped on, and takes a fraction of Lanczos's mat-vecs to
reach it.  Certify starts it from xi, with the S xi its bound formed.
Step counts follow the rounding of the mat-vecs, so CI runs
this module on one BLAS thread as well.
"""

import math

import numpy as np
import pytest

from kposi import certify_k_diag_stability, stability

from test_stein_enclosure import MARGIN_RTOL, certify_large_pool

DAVIDSON = stability._davidson_smallest


def counted_run(matvec, d, start=None, product=None):
    """θ of the Davidson run on matvec and d from start (all ones where not
    given) and its product, and the mat-vecs the run took, that product
    among them."""
    calls = []
    counted = lambda v: calls.append(1) or matvec(v)  # noqa: E731
    if start is None:
        start = np.ones(d.size)
    if product is None:
        product = counted(start)
    else:
        calls.append(1)
    theta = DAVIDSON(counted, d, start, product)
    return theta, len(calls)


def lanczos_steps(matvec, r):
    """The first step at which Lanczos from all ones, reorthogonalised
    twice a step, meets the same residual rule: |beta_j s_j| at most
    _DAVIDSON_RTOL times the largest Ritz value in modulus."""
    Q, alpha, beta = [np.full(r, 1.0 / math.sqrt(r))], [], []
    while True:
        w = matvec(Q[-1])
        alpha.append(Q[-1] @ w)
        B = np.array(Q)
        w -= (B @ w) @ B
        w -= (B @ w) @ B
        beta.append(math.sqrt(w @ w))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        if beta[-1] * abs(s[-1, 0]) <= stability._DAVIDSON_RTOL * max(abs(theta[0]), abs(theta[-1])):
            return len(alpha)
        Q.append(w / beta[-1])


@pytest.fixture(scope="module")
def chain_gaps():
    """The implicit Stein gaps, their d, and the start xi and its product
    that certify runs Davidson on, for the 40 certify-large chains of seeds
    0-9."""
    gaps = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(stability, "_davidson_smallest",
                  lambda *args: gaps.append(args) or DAVIDSON(*args))
        for seed in range(10):
            for A in certify_large_pool(seed):
                certify_k_diag_stability(A, 5)
    assert len(gaps) == 40
    return gaps


def test_chains_take_fewer_mat_vecs_than_lanczos(chain_gaps):
    # the same residual rule, both counts from one run: Lanczos needs 48
    # to 132 mat-vecs on these chains, Davidson from xi 12 to 16, the S xi
    # it is handed among them
    counts = []
    for matvec, d, start, product in chain_gaps:
        theta, steps = counted_run(matvec, d, start, product)
        assert theta is not None
        counts.append((steps, lanczos_steps(matvec, d.size)))
    assert all(steps < lanczos for steps, lanczos in counts)
    assert max(steps for steps, _ in counts) <= 20


def test_certify_starts_davidson_from_xi_with_the_product_its_bound_read(chain_gaps, monkeypatch):
    # the bound and the run share one S xi, so the proof applies S once
    # less than a run from all ones would
    bound, read = stability._Applied.stein_bound, []
    monkeypatch.setattr(stability._Applied, "stein_bound",
                        lambda applied, d, v, product: read.append((v, product)) or bound(applied, d, v, product))
    monkeypatch.setattr(stability, "_davidson_smallest", lambda *args: read.append(args[2:]) or DAVIDSON(*args))
    A = certify_large_pool(0)[0]
    cert = certify_k_diag_stability(A, 5)
    (xi, product), (start, handed) = read
    assert xi is cert.xi and start is xi and handed is product
    assert chain_gaps[0][2].tobytes() == cert.xi.tobytes()


def pair_gap(blocks, r=300, apart=1e-12):
    """2 I - X diag(sigma) X^T, X with `blocks` nonnegative orthonormal
    columns of disjoint support: a symmetric Z-matrix whose two smallest
    eigenvalues, 2 - sigma of the last two columns, are `apart` apart, and
    whose other eigenvalues are 2 - sigma of the other columns and 2."""
    rng = np.random.default_rng([blocks, 29])
    X = np.zeros((r, blocks))
    X[np.arange(r), np.arange(r) % blocks] = rng.uniform(0.5, 1.5, r)
    X /= np.linalg.norm(X, axis=0)
    sigma = np.linspace(0.2, 1.0, blocks)
    sigma[-2] = sigma[-1] - apart
    return 2.0 * np.eye(r) - (X * sigma) @ X.T


def positive_start(r, seed):
    """A positive start vector away from all ones, as a xi is."""
    return np.random.default_rng([seed, 30]).uniform(0.5, 1.5, r)


@pytest.mark.parametrize("blocks", [10, 40])
def test_a_pair_closer_than_the_stop_residual_is_resolved(blocks):
    # the run may not stop on a Ritz value between the two: its residual
    # stays near their distance until the basis holds both eigenvectors,
    # from all ones or from a positive start such as xi
    S = pair_gap(blocks)
    exact = np.linalg.eigvalsh(S)
    assert exact[1] - exact[0] < 2e-12
    for start in (None, positive_start(S.shape[0], blocks)):
        theta, _ = counted_run(S.__matmul__, np.diag(S).copy(), start)
        assert abs(theta - exact[0]) <= MARGIN_RTOL * exact[0]


@pytest.mark.parametrize("seed", range(4))
def test_a_least_d_away_from_the_bottom_eigenvector(seed):
    # a diagonal gap, weakly coupled in odd seeds, whose smallest
    # eigenvalue 0.5 sits at one index while the least d_i, where the
    # correction leans, sits at another: the run still finds 0.5, from
    # all ones or from a positive start
    rng = np.random.default_rng([seed, 29])
    r = 300
    s = rng.uniform(0.6, 2.0, r)
    low, least = rng.choice(r, 2, replace=False)
    s[low] = 0.5
    d = s + rng.uniform(0.0, 1.0, r)
    d[least] = 0.61
    S = np.diag(s)
    if seed % 2:
        S[np.arange(r), (np.arange(r) + 1) % r] = S[(np.arange(r) + 1) % r, np.arange(r)] = -1e-4
    exact = np.linalg.eigvalsh(S)[0]
    for start in (None, positive_start(r, seed)):
        theta, _ = counted_run(S.__matmul__, d, start)
        assert abs(theta - exact) <= MARGIN_RTOL * exact
