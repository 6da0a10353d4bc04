import math
import warnings

import numpy as np
import pytest

from flowquad import densities as dn
from flowquad.errors import DomainError, InvalidArgumentError
from flowquad.flow import FlowMap
from flowquad.network import MlpVectorField, hypothesis_architecture
from flowquad.training import (
    TrainConfig,
    adaptive_architecture,
    empirical_nll,
    nll_with_gradient,
    sample_threshold,
    train_erm,
)


def zero_net(dim=1, depth=2, width=8):
    arch = hypothesis_architecture(dim, depth, width)
    return MlpVectorField(arch, theta=np.zeros(arch.param_count))


# ---------------------------------------------------------------------------
# empirical NLL
# ---------------------------------------------------------------------------


def test_nll_zero_field_uniform_source():
    net = zero_net()
    fm = FlowMap(net, dim=1, steps=8)
    src = dn.uniform_density(1)
    samples = np.array([[0.2], [0.5], [0.9]])
    assert abs(empirical_nll(net.theta, samples, fm, src)) < 1e-12


def test_nll_zero_field_tilted_source():
    net = zero_net()
    fm = FlowMap(net, dim=1, steps=8)
    src = dn.product_density([dn.linear_tilt(0.0, 2.0)])
    samples = np.array([[0.25], [0.64]])
    expect = -(math.log(0.5) + math.log(1.28)) / 2
    assert abs(empirical_nll(net.theta, samples, fm, src) - expect) < 1e-12


def test_nll_propagates_domain_error():
    net = zero_net()
    fm = FlowMap(net, dim=1, steps=8)
    src = dn.product_density([dn.linear_tilt(0.0, 2.0)])  # vanishes at 0
    with pytest.raises(DomainError):
        empirical_nll(net.theta, np.array([[0.0]]), fm, src)


def test_descent_direction_decreases_nll():
    arch = hypothesis_architecture(1, 2, 8)
    net = MlpVectorField(arch, rng=np.random.default_rng(3))
    src = dn.uniform_density(1)
    samples = np.random.default_rng(4).uniform(0.1, 0.9, size=(32, 1)) ** 0.5
    val, grad = nll_with_gradient(net, samples, src, steps=8)
    net.theta[:] -= 1e-3 * grad / max(np.linalg.norm(grad), 1e-12)
    fm = FlowMap(net, dim=1, steps=8)
    val2 = empirical_nll(net.theta, samples, fm, src)
    assert val2 < val


# ---------------------------------------------------------------------------
# train_erm
# ---------------------------------------------------------------------------


def quick_config(**kw):
    base = dict(
        sample_size=64,
        batch_size=32,
        max_epochs=3,
        learning_rate=0.01,
        seed=11,
        hidden_depth=2,
        width=8,
        integrator_steps=8,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        quick_config(beta=0.5)
    with pytest.raises(InvalidArgumentError):
        quick_config(sample_size=0)
    with pytest.raises(InvalidArgumentError):
        TrainConfig(sample_size=8)  # no architecture, not adaptive
    with pytest.raises(InvalidArgumentError):
        TrainConfig(sample_size=8, adaptive=True, width=4)  # the schedule picks the width


def test_training_is_deterministic_and_projected():
    rng = np.random.default_rng(5)
    samples = rng.uniform(size=(64, 1))
    src = dn.uniform_density(1)
    res1 = train_erm(quick_config(), samples, src)
    res2 = train_erm(quick_config(), samples, src)
    assert res1.nll_trace == res2.nll_trace
    np.testing.assert_array_equal(res1.theta_hat, res2.theta_hat)
    assert np.max(np.abs(res1.theta_hat)) <= 1.0


def test_training_improves_or_keeps_nll():
    rng = np.random.default_rng(6)
    samples = np.sqrt(rng.uniform(size=(128, 1)))  # target density 2x
    src = dn.uniform_density(1)
    res = train_erm(quick_config(max_epochs=6), samples, src)
    assert res.final_nll <= res.nll_trace[0] + 1e-12
    assert res.best_epoch >= 0


def test_identity_target_reaches_source_entropy():
    # target == source: theta ~ 0 attains NLL == -(1/n) sum log f_nu(Z)
    rng = np.random.default_rng(7)
    src = dn.product_density([dn.cosine_bump(0.3)])
    samples = src.factors[0].quantile(rng.uniform(size=(96,))).reshape(-1, 1)
    res = train_erm(
        quick_config(max_epochs=8, learning_rate=0.005, seed=2), samples, src
    )
    oracle = -float(np.mean(np.log(src.evaluate(samples))))
    assert res.final_nll <= oracle + 0.05


# ---------------------------------------------------------------------------
# adaptive schedule
# ---------------------------------------------------------------------------


def test_schedule_width_examples():
    assert adaptive_architecture(530_000_000, 0.25).width == 3
    assert adaptive_architecture(10**6, 0.25).width == 2


def test_schedule_width_monotone():
    widths = [adaptive_architecture(10**k, 0.25).width for k in range(3, 13)]
    assert widths == sorted(widths)


def test_schedule_depth_grows_in_the_raw_formula():
    small = adaptive_architecture(10**6, 0.25)
    huge = adaptive_architecture(10**300, 0.25)
    assert huge.raw_depth > small.raw_depth
    assert small.depth >= 1 and huge.depth >= 1  # desk scale clamps to the floor


def test_schedule_clamps_without_warning():
    # the clamp is reported by the result alone, never as a Python warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sched = adaptive_architecture(10**6, 0.25)
    assert sched.clamped


def test_schedule_resolution_formula():
    sched = adaptive_architecture(10**12, 0.25, dim=1)
    raw = (sched.width / 24.0) ** 0.5 / 3.0
    assert abs(sched.raw_resolution - raw) < 1e-12
    assert sched.resolution == max(1, math.floor(raw))


# ---------------------------------------------------------------------------
# sample threshold
# ---------------------------------------------------------------------------


def test_threshold_delta_one_is_zero():
    got = sample_threshold(0.1, 1.0, 0.25, 1.0)
    assert got.value == 0


def test_threshold_reference_value():
    got = sample_threshold(0.1, 0.05, 0.25, 1.0, c_const=1.0)
    base = 4096.0 * 1e4 * math.log(20.0)
    assert abs(got.log10 - 2 * math.log10(base)) < 1e-12
    assert abs(got.log10 - 16.1777) < 1e-3


def test_threshold_epsilon_scaling():
    a = sample_threshold(0.1, 0.05, 0.25, 1.0)
    b = sample_threshold(0.05, 0.05, 0.25, 1.0)
    # halving epsilon multiplies the base by 16 before the 1/(1-2 beta) power
    assert abs((b.log10 - a.log10) - 4 * math.log10(2.0) / 0.5) < 1e-12


def test_threshold_moderate_values_are_integers():
    got = sample_threshold(0.5, 0.5, 0.25, 1.0)
    assert isinstance(got.value, int) and got.value > 0
