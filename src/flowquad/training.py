"""Likelihood training of the flow field over the box-constrained class.

The estimator minimizes the empirical negative log-likelihood of the
pushforward density with mini-batch first-order updates, projecting the
parameters back into [-1, 1]^q after every step.  The reported result is
the best-so-far parameter vector under the full-sample NLL, which keeps
the procedure an honest approximate minimizer.

Also houses the capacity schedule (width/depth/resolution as functions
of the sample size) and the sample-size threshold calculator.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, TrainingFailureError
from .flow import FlowMap, log_density_with_gradient, log_pushforward_density
from .network import MlpVectorField, hypothesis_architecture


@dataclass
class TrainConfig:
    sample_size: int
    batch_size: int = 256
    max_epochs: int = 60
    learning_rate: float = 0.02
    lr_decay: float = 0.995
    momentum: float = 0.9
    optimizer: str = "momentum"
    seed: int = 0
    hidden_depth: int = None
    width: int = None
    adaptive: bool = False
    beta: float = 0.25
    c_d: float = 1.0
    integrator_steps: int = 16
    holdout_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise InvalidArgumentError(f"beta must lie in (0, 1/2), got {self.beta}")
        if self.sample_size < 1:
            raise InvalidArgumentError("sample_size must be >= 1")
        if self.optimizer not in ("adam", "momentum"):
            raise InvalidArgumentError(f"unknown optimizer {self.optimizer!r}")
        if not self.adaptive and (self.hidden_depth is None or self.width is None):
            raise InvalidArgumentError(
                "set hidden_depth and width, or adaptive=True"
            )
        if self.adaptive and (self.hidden_depth is not None or self.width is not None):
            raise InvalidArgumentError(
                "adaptive=True chooses hidden_depth and width; set neither"
            )


@dataclass
class TrainResult:
    theta_hat: np.ndarray
    nll_trace: list
    final_nll: float
    architecture: object
    holdout_gap: float
    best_epoch: int
    grad_norm_trace: list = field(default_factory=list)


def empirical_nll(theta, samples, fm, source):
    """Mean negative pushforward log-likelihood of the samples at theta."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(samples) < 1:
        raise InvalidArgumentError("need at least one sample")
    net = fm.field.clone()
    net.set_theta(theta)
    probe = FlowMap(net, dim=fm.dim, steps=fm.steps)
    logp = log_pushforward_density(probe, source, samples)
    return -float(np.mean(logp))


def nll_with_gradient(net, samples, source, steps):
    """NLL over the batch and its exact parameter gradient."""
    n = len(samples)
    fm = FlowMap(net, dim=net.dim, steps=steps)
    logp, grad = log_density_with_gradient(
        fm, source, samples, sample_weights=np.full(n, -1.0 / n)
    )
    return -float(np.mean(logp)), grad


def train_erm(config, samples, source):
    """Projected mini-batch training; deterministic given (config, samples).

    Raises TrainingFailureError (with the epoch) if the loss turns
    non-finite.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, dim = samples.shape
    rng = np.random.default_rng(config.seed)

    if config.adaptive:
        sched = adaptive_architecture(n, config.beta, config.c_d, dim)
        depth, width = sched.depth, max(sched.width, dim + 1)
    else:
        depth, width = config.hidden_depth, config.width
    arch = hypothesis_architecture(dim, depth, width)
    net = MlpVectorField(arch, rng=rng)
    net.project_theta()

    n_hold = int(round(config.holdout_fraction * n))
    perm = rng.permutation(n)
    hold = samples[perm[:n_hold]]
    train = samples[perm[n_hold:]]

    lr = config.learning_rate
    vel = np.zeros_like(net.theta)
    adam_m = np.zeros_like(net.theta)
    adam_v = np.zeros_like(net.theta)
    adam_t = 0

    def full_nll(points):
        fm = FlowMap(net, dim=dim, steps=config.integrator_steps)
        return -float(np.mean(log_pushforward_density(fm, source, points)))

    nll_trace = []
    grad_norms = []
    best_nll = math.inf
    best_theta = net.theta.copy()
    best_epoch = -1
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train))
        epoch_gnorm = 0.0
        for start in range(0, len(train), config.batch_size):
            batch = train[order[start : start + config.batch_size]]
            loss, grad = nll_with_gradient(net, batch, source, config.integrator_steps)
            if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
                raise TrainingFailureError(
                    f"non-finite loss/gradient in epoch {epoch}", epoch=epoch
                )
            if config.optimizer == "adam":
                adam_t += 1
                adam_m = 0.9 * adam_m + 0.1 * grad
                adam_v = 0.999 * adam_v + 0.001 * grad * grad
                mhat = adam_m / (1 - 0.9**adam_t)
                vhat = adam_v / (1 - 0.999**adam_t)
                net.theta[:] -= lr * mhat / (np.sqrt(vhat) + 1e-8)
            else:
                vel = config.momentum * vel - lr * grad
                net.theta[:] += vel
            net.project_theta()
            epoch_gnorm = max(epoch_gnorm, float(np.linalg.norm(grad)))

        epoch_nll = full_nll(train)
        if not math.isfinite(epoch_nll):
            raise TrainingFailureError(
                f"non-finite training NLL in epoch {epoch}", epoch=epoch
            )
        nll_trace.append(epoch_nll)
        grad_norms.append(epoch_gnorm)
        if epoch_nll < best_nll:
            best_nll = epoch_nll
            best_theta = net.theta.copy()
            best_epoch = epoch
        lr *= config.lr_decay

    net.set_theta(best_theta)
    hold_gap = 0.0
    if len(hold):
        hold_gap = full_nll(hold) - best_nll
    return TrainResult(
        theta_hat=best_theta,
        nll_trace=nll_trace,
        final_nll=best_nll,
        architecture=arch,
        holdout_gap=hold_gap,
        best_epoch=best_epoch,
        grad_norm_trace=grad_norms,
    )


# ---------------------------------------------------------------------------
# capacity schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveSchedule:
    """Width/depth/spline-resolution schedule; raw_* are the pre-floor,
    pre-clamp formula values (the floors clamp to 1 at desk scale) and
    clamped says whether a floor or clamp changed any of them."""

    width: int
    depth: int
    resolution: int
    raw_width: float
    raw_depth: float
    raw_resolution: float
    clamped: bool


def adaptive_architecture(n, beta, c_d=1.0, dim=1):
    """Sample-size driven capacity: W = floor(log log n), nested-log depth,
    and the spline resolution implied by the width."""
    if not 0.0 < beta < 0.5:
        raise InvalidArgumentError(f"beta must lie in (0, 1/2), got {beta}")
    if n < 3:
        raise InvalidArgumentError("need n >= 3")
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    log_n = math.log(n)
    raw_w = math.log(log_n) if log_n > 0 else -math.inf
    w = max(1, math.floor(raw_w)) if math.isfinite(raw_w) else 1

    base = c_d * w
    inner = beta * log_n  # log(n^beta)
    if base > 1.0 and inner > 1.0:
        ratio = math.log(inner) / math.log(base)
        raw_l = 0.5 * math.log2(ratio) - 3.0 if ratio > 0 else -math.inf
    else:
        raw_l = -math.inf
    l = max(1, math.floor(raw_l)) if math.isfinite(raw_l) else 1

    raw_k = (w / (12.0 * (dim + 1))) ** (1.0 / (dim + 1)) / 3.0
    k = max(1, math.floor(raw_k))

    clamped = (w != math.floor(raw_w)) or (not math.isfinite(raw_l)) or (
        math.isfinite(raw_l) and l != math.floor(raw_l)
    ) or (k != math.floor(raw_k))
    return AdaptiveSchedule(
        width=w, depth=l, resolution=k,
        raw_width=raw_w, raw_depth=raw_l, raw_resolution=raw_k,
        clamped=clamped,
    )


@dataclass(frozen=True)
class SampleThreshold:
    """Sample-size threshold; value is None when it exceeds integer scale."""

    log10: float
    value: int


def sample_threshold(epsilon, delta, beta, qoi_sup_norm, c_const=1.0):
    """Smallest guaranteed-sufficient sample size for accuracy epsilon at
    confidence 1 - delta, evaluated in log10."""
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    if not 0.0 < delta <= 1.0:
        raise InvalidArgumentError("delta must lie in (0, 1]")
    if not 0.0 < beta < 0.5:
        raise InvalidArgumentError(f"beta must lie in (0, 1/2), got {beta}")
    if qoi_sup_norm <= 0:
        raise InvalidArgumentError("qoi_sup_norm must be positive")
    if c_const <= 0:
        raise InvalidArgumentError("c_const must be positive")
    log_conf = math.log(1.0 / delta)
    if log_conf <= 0.0:
        return SampleThreshold(log10=-math.inf, value=0)
    log10_base = (
        2 * math.log10(c_const)
        + math.log10(4096.0)
        + 4 * math.log10(qoi_sup_norm)
        - 4 * math.log10(epsilon)
        + math.log10(log_conf)
    )
    log10_n = log10_base / (1.0 - 2.0 * beta)
    value = int(math.ceil(10.0**log10_n)) if log10_n <= 15 else None
    return SampleThreshold(log10=log10_n, value=value)
