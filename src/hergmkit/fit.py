"""ERGM parameter estimation.

Two estimators share the ``ErgmFit`` result type:

* ``mple``: maximum pseudo-likelihood, a logistic regression of tie
  indicators on change-statistic rows solved by Newton iteration.
* ``mcmle``: Monte Carlo maximum likelihood on one warm Markov chain, which
  its docstring describes.

``between_density_mle`` is the closed-form Binomial estimate for the shared
between-cluster tie probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, Partition, between_edge_counts
from .rng import child_rng
from .sampler import (SamplerControls, _check_theta, check_counts, gibbs_sample,
                      near_degenerate)
from .stats import ChangeStatEngine, StatisticSpec, stat_matrix, stat_vector

__all__ = [
    "ErgmFit",
    "FitDiagnostics",
    "GraphTooSmallError",
    "McmleControls",
    "MpleNotConvergedError",
    "NonFiniteMleError",
    "SamplesDegenerateError",
    "mple",
    "mcmle",
    "between_density_mle",
]


class NonFiniteMleError(RuntimeError):
    """The (pseudo-)likelihood has no finite maximizer.

    Carries the unit direction along which the objective keeps improving,
    e.g. the all-edges direction for an empty graph with an edges term.
    """

    def __init__(self, message: str, direction: np.ndarray):
        super().__init__(message)
        self.direction = direction


class SamplesDegenerateError(RuntimeError):
    """Importance weights carry no information about the observed graph."""


class MpleNotConvergedError(RuntimeError):
    """MPLE Newton iteration did not reach its gradient tolerance."""


@dataclass
class FitDiagnostics:
    iterations: int = 0
    grad_norm: float = math.nan
    mc_samples: int | None = None
    mu_hat: np.ndarray | None = None
    mc_se: np.ndarray | None = None
    degenerate: bool = False
    converged: bool = True
    step_sizes: list[float] = field(default_factory=list)


@dataclass
class ErgmFit:
    theta_hat: np.ndarray
    std_errors: np.ndarray
    diagnostics: FitDiagnostics
    seed: int | None = None  # the chain's seed; None for MPLE


class GraphTooSmallError(ValueError):
    """The graph has fewer nodes than the spec needs (``StatisticSpec.min_nodes``)."""


def _check_size(g: Graph, spec: StatisticSpec) -> None:
    need = spec.min_nodes()
    if g.n < need:
        raise GraphTooSmallError(
            f"spec {spec.to_string()} needs at least {need} nodes, got {g.n}"
        )


def _inverse_se(h: np.ndarray) -> np.ndarray:
    """Square roots of the diagonal of ``h``'s inverse (pseudo-inverse if singular)."""
    try:
        cov = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(h)
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


MPLE_MAX_ITER = 100
MPLE_GRAD_TOL = 1e-8


def mple(g: Graph, spec: StatisticSpec) -> ErgmFit:
    """Maximum pseudo-likelihood estimate via Newton iteration.

    The logistic regression's design is ``ChangeStatEngine.design``'s, dense
    algebra on the adjacency matrix and its square.  A design whose
    rechecked row differs from ``ChangeStatEngine.compute`` by more than
    ``stats.DESIGN_RTOL`` relative raises ``RuntimeError``.

    Newton iteration stops once the gradient norm is below ``MPLE_GRAD_TOL``,
    however large the estimate; a nearly collinear design can have a
    finite MPLE far from the origin.  Raises ``NonFiniteMleError`` on
    perfect or quasi-complete separation (including the empty/complete
    graph with an edges term): once the dyads a Newton step moves have
    fitted probabilities within 1e-3 of their ties, with |beta| above 10.
    The error reports the direction of that step, along which the
    pseudo-likelihood keeps rising; the dyads it does not move are left
    out of the test.
    Raises ``MpleNotConvergedError`` when Newton iteration stops at
    ``MPLE_MAX_ITER`` iterations, and ``GraphTooSmallError`` when the graph
    is smaller than the spec needs (``StatisticSpec.min_nodes``).

    The standard errors are the inverse of the pseudo-likelihood Hessian.
    They treat dyads as independent, so they are not the standard errors of
    the MLE (the inverse covariance of the statistics under the model) and
    can badly understate the uncertainty when the model has dependence terms.
    """
    _check_size(g, spec)
    x, y = ChangeStatEngine(spec, g.n).design(g)
    beta = np.zeros(len(spec))
    step_log: list[float] = []
    p = 0.5 * (1.0 + np.tanh(0.5 * (x @ beta)))
    for it in range(1, MPLE_MAX_ITER + 1):
        grad = x.T @ (y - p)
        w = p * (1.0 - p)
        hess = x.T @ (x * w[:, None])
        if np.linalg.norm(grad) < MPLE_GRAD_TOL:
            break
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(hess) @ grad
        beta = beta + step
        step_log.append(float(np.linalg.norm(step)))
        p_new = 0.5 * (1.0 + np.tanh(0.5 * (x @ beta)))
        # dyads whose change statistics are 0 along the step keep their
        # probability however far beta goes, so only the moved ones must fit
        moved = np.abs(x @ step) > 1e-3
        perfect_fit = bool(moved.any()) and float(np.max(np.abs(y - p_new)[moved])) < 1e-3
        if perfect_fit and np.linalg.norm(beta) > 10.0:
            # fitted probabilities can reach the data only as beta diverges
            direction = step / np.linalg.norm(step)
            raise NonFiniteMleError(
                "pseudo-likelihood is monotone along a direction (perfect "
                "separation); no finite MPLE exists",
                direction,
            )
        p = p_new
    else:
        raise MpleNotConvergedError(
            f"MPLE Newton did not reach gradient norm {MPLE_GRAD_TOL} in {MPLE_MAX_ITER} "
            f"iterations (last norm {float(np.linalg.norm(grad)):.3g})"
        )
    diag = FitDiagnostics(
        iterations=it,
        grad_norm=float(np.linalg.norm(grad)),
        step_sizes=step_log,
    )
    return ErgmFit(beta, _inverse_se(hess), diag)


MCMLE_MAX_SAMPLES = 8192
MCMLE_SAMPLE_BOOST = 2
MCMLE_MAX_OUTER = 50
MCMLE_WALK_DIVISOR = 8
TRUST_RADIUS = 0.5
MOMENT_BAND = 3.0
POLISH_MIN_ESS = 0.8


@dataclass(frozen=True)
class McmleControls:
    """Monte Carlo MLE chain lengths (``mcmle`` describes their use).

    ``n_samples``: a full-size sample is ``MCMLE_SAMPLE_BOOST * n_samples``
    draws.  ``burnin_sweeps``: sweeps run once, before the first sample.
    """

    n_samples: int = 1024
    burnin_sweeps: int = 200

    def __post_init__(self):
        check_counts(self, n_samples=4, burnin_sweeps=0)


def _batch_se(s: np.ndarray) -> np.ndarray:
    """Batch-means Monte Carlo standard error of the column means.

    Accounts for chain autocorrelation that a plain sd/sqrt(m) misses.
    """
    m = s.shape[0]
    b = max(int(math.sqrt(m)), 2)
    n_batches = m // b
    trimmed = s[: n_batches * b]
    batch_means = trimmed.reshape(n_batches, b, -1).mean(axis=1)
    return batch_means.std(axis=0, ddof=1) / math.sqrt(n_batches)


def _weights(s_centered: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Normalized importance weights of the sample after a step ``delta``."""
    logw = s_centered @ delta
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def _weighted_newton(s_centered, s_obs_c, radius):
    """Maximize delta' s_obs - log mean exp(delta' s) within ``radius``.

    Works on statistics centered at the sample mean for conditioning.
    Returns (delta, collapsed, settled): ``collapsed`` when the effective
    sample size of the importance weights fell below a tenth of the sample,
    ``settled`` when the Newton iteration stopped moving (without a radius,
    at the maximizer).
    """
    m, t = s_centered.shape
    delta = np.zeros(t)
    for _ in range(40):
        w = _weights(s_centered, delta)
        ess = 1.0 / float(w @ w)
        if ess < m / 10.0:
            return delta, True, False
        wmean = w @ s_centered
        grad = s_obs_c - wmean
        centered = s_centered - wmean
        covw = centered.T @ (centered * w[:, None])
        try:
            step = np.linalg.solve(covw + 1e-10 * np.eye(t), grad)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(covw) @ grad
        new = delta + step
        nn = np.linalg.norm(new)
        if nn > radius:
            new = new * (radius / nn)
        moved = np.linalg.norm(new - delta)
        delta = new
        if moved < 1e-10:
            return delta, False, True
    return delta, False, False


def mcmle(
    g: Graph,
    spec: StatisticSpec,
    theta0=None,
    controls: McmleControls = McmleControls(),
    seed: int = 0,
) -> ErgmFit:
    """Monte Carlo maximum likelihood on one warm Markov chain.

    The fit starts from ``theta0``, or else the MPLE, or zero where the MPLE
    raises ``NonFiniteMleError`` or ``MpleNotConvergedError``.  One chain
    runs ``controls.burnin_sweeps`` sweeps from an Erdos-Renyi draw; each outer
    iteration then carries it on at the current parameter and keeps a draw
    on every sweep (no thinning: the batch-means standard error accounts for
    the autocorrelation).  A full-size sample is ``m = MCMLE_SAMPLE_BOOST *
    controls.n_samples`` draws.  The iteration checks the mean-value moment
    condition, i.e. every component of the sample's mean statistic within
    ``MOMENT_BAND`` Monte Carlo standard errors of the observed one, and
    otherwise takes a Newton step of at most ``TRUST_RADIUS`` on the
    importance-sampling likelihood-ratio surrogate.  The walk from the start
    toward the MLE keeps ``m // MCMLE_WALK_DIVISOR`` draws (at least 4, two
    batches for the standard error); its first sample in the band takes its
    step, and from then on every sample is full size.  ``m`` doubles (up to
    ``MCMLE_MAX_SAMPLES``) whenever the effective sample size of the
    importance weights drops below a tenth of the sample.  Each sample's
    statistics are one ``stat_matrix`` call on its draws, and a sample whose
    last draw is ``near_degenerate`` flags the fit ``degenerate``.

    The fit has three exits.  Each reports the outer iteration it ended at
    and the size and batch-means standard errors of its last sample:

    * polished (``converged``): every full-size sample with variation is
      polished, i.e. the surrogate is maximized without a trust radius, and
      the estimate is that sample's MLE when the polish settles and either
      the sample is in the band or the importance weights at the polished
      parameter keep an effective sample size of at least ``POLISH_MIN_ESS
      * m``.  Such weights barely differ from uniform, so the sample
      supports its MLE about as well as a new sample drawn there would; a
      statistic that the sample holds constant away from its observed value
      never lets the polish settle.  ``mu_hat`` is the weighted mean
      statistic, equal to the observed one up to ``grad_norm``, and the SEs
      invert the weighted covariance.  Any other sample takes an ordinary
      step.
    * frozen (``converged``, ``degenerate``): a full-size sample in the band
      without variation; chain and observation agree on a boundary graph.
      The parameter is reported as it is, with ``grad_norm`` 0 and zero SEs.
    * unconverged: neither within ``MCMLE_MAX_OUTER`` iterations.  ``mu_hat``
      is the last sample's mean; the SEs pseudo-invert its covariance.

    Raises ``SamplesDegenerateError`` when the sampled statistics carry no
    variation to compare against the observed graph even after repeated
    damping, and ``GraphTooSmallError`` when the graph is smaller than the
    spec needs.
    """
    _check_size(g, spec)
    s_obs = stat_vector(g, spec)
    if theta0 is None:
        # the MPLE can be wild, non-finite or unconverged on small graphs; the
        # start only changes the path, not the fixed point
        try:
            theta = np.clip(mple(g, spec).theta_hat, -10.0, 10.0)
        except (NonFiniteMleError, MpleNotConvergedError):
            theta = np.zeros(len(spec))
    else:
        theta = np.array(_check_theta(theta0, spec, "theta0"))
    m = MCMLE_SAMPLE_BOOST * controls.n_samples
    rng = child_rng(seed, "mcmle")
    chain = None
    walking = True
    step_log: list[float] = []
    degenerate = False
    converged = True
    contractions = 0
    for outer in range(1, MCMLE_MAX_OUTER + 1):
        draws = gibbs_sample(
            g.n,
            spec,
            theta,
            SamplerControls(
                controls.burnin_sweeps if chain is None else 0,
                max(m // MCMLE_WALK_DIVISOR, 4) if walking else m,
                thin_sweeps=1,
            ),
            rng,
            start=chain,
        )
        chain = draws[-1]
        degenerate = degenerate or near_degenerate(chain)
        s = stat_matrix(draws, spec)
        mean = s.mean(axis=0)
        mc_se = _batch_se(s)
        s_c = s - mean
        gap = np.abs(mean - s_obs)
        in_band = bool(np.all(gap <= MOMENT_BAND * mc_se + 1e-12))
        frozen = bool(np.all(s.std(axis=0, ddof=1) == 0.0))
        if in_band and frozen and not walking:
            degenerate = True
            mu_hat, grad_norm, se = mean, 0.0, np.zeros(len(spec))
            break
        if not (walking or frozen):
            # polish: solve the sample moment equation exactly, so the
            # estimate is the sample MLE, not wherever the walk stopped
            delta, _, settled = _weighted_newton(s_c, s_obs - mean, math.inf)
            w = _weights(s_c, delta)
            if settled and (in_band or 1.0 / float(w @ w) >= POLISH_MIN_ESS * m):
                theta = theta + delta
                if np.linalg.norm(delta) > 0:
                    step_log.append(float(np.linalg.norm(delta)))
                mu_hat = w @ s
                centered = s - mu_hat
                se = _inverse_se(centered.T @ (centered * w[:, None]))
                grad_norm = float(np.linalg.norm(mu_hat - s_obs))
                break
        if frozen and not in_band:
            # frozen chain: importance weights carry nothing, but damping the
            # parameter toward the uniform model restores variation
            contractions += 1
            degenerate = True
            if contractions > 8:
                raise SamplesDegenerateError(
                    "sampled statistics stay constant even after damping the "
                    "parameter; the observed graph does not overlap the model "
                    "samples. Increase sample size/burn-in or supply a start "
                    "closer to the solution (stepping)."
                )
            theta = theta * 0.5
            step_log.append(float(np.linalg.norm(theta)))
            continue
        walking = walking and not in_band
        delta, collapsed, _ = _weighted_newton(s_c, s_obs - mean, TRUST_RADIUS)
        theta = theta + delta
        step_log.append(float(np.linalg.norm(delta)))
        if collapsed and m < MCMLE_MAX_SAMPLES:
            m = min(2 * m, MCMLE_MAX_SAMPLES)
    else:
        converged = False
        mu_hat, grad_norm = mean, float(np.linalg.norm(mean - s_obs))
        cov = np.atleast_2d(np.cov(s.T, ddof=1))
        se = np.sqrt(np.clip(np.diag(np.linalg.pinv(cov)), 0.0, None))
    diag = FitDiagnostics(
        iterations=outer,
        grad_norm=grad_norm,
        mc_samples=len(s),
        mu_hat=mu_hat,
        mc_se=mc_se,
        degenerate=degenerate,
        converged=converged,
        step_sizes=step_log,
    )
    return ErgmFit(theta, se, diag, seed)


def between_density_mle(g: Graph, p: Partition) -> tuple[float, float]:
    """Closed-form MLE (p_hat, std_error) of the between-cluster density."""
    if p.n_clusters < 2:
        raise ValueError("between-cluster density needs K >= 2")
    y_b, n_b = between_edge_counts(g, p)
    if n_b == 0:
        raise ValueError("partition has no between-cluster dyads")
    p_hat = y_b / n_b
    se = math.sqrt(p_hat * (1.0 - p_hat) / n_b)
    return p_hat, se

