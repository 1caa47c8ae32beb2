"""Input guards: the one range rule on every public radius, scale and weight,
the one integer rule on every public dimension, count and seed, and one case
for each guard that no other test reaches."""

import inspect

import numpy as np
import pytest

import jitterlab
from jitterlab.attack import AttackConfig, pgd_attack
from jitterlab.errors import InvalidDimensionError, InvalidParameterError
from jitterlab.estimators import LinearEstimator, ShrinkageProfile, mmse_estimator
from jitterlab.model import (
    ForwardOperator, NoiseModel, SubspaceModel, _sub_seed, draw_latents, draw_sample_arrays,
    make_diagonal_operator, make_subspace, rng_stream,
)
from jitterlab.risk import (
    RiskReport, dual_values_batch, jittering_risk_closed_form, robust_risk_exact,
    robust_risk_mode_form,
)
from jitterlab.training import TrainConfig, _train_stack, sweep_jitter_levels

# Parameter names that carry a radius, a scale or a regularization weight.
RANGED = ("eps", "eps_grid", "sigma_c", "sigma_z", "sigma_w", "sigma_w_grid", "reg")
# Parameter names that carry a dimension.
DIMENSIONS = ("d", "n", "m")
# Parameter names that carry a count or a seed.
COUNTS = ("seed", "count", "n_samples", "eval_samples", "n_steps", "n_restarts", "n_iterations",
          "batch_size", "attack_steps")
# Result records: they hold what a computation returned, not an input.
RESULTS = ("RiskReport", "SweepResult")


def _setup():
    model = make_subspace(6, 3, 1.0, seed=0)
    op = make_diagonal_operator(6, "linear-decay")
    noise = NoiseModel(m=6, sigma_z=0.5)
    return model, op, noise


def _arguments() -> dict:
    """One valid argument per parameter name of the public callables that the scans call.

    v is inner_max_dual's one column; dual_values_batch checks eps before v's
    shape, and pgd_attack checks its seed before x's and y's.
    """
    model, op, noise = _setup()
    estimator = mmse_estimator(model, op, noise)
    x, y = draw_sample_arrays(model, op, noise, 4, seed=1)[:2]
    return {
        "model": model, "op": op, "noise": noise, "estimator": estimator,
        "basis": model.basis, "h": estimator.matrix, "x": x, "y": y, "v": x[:, 0],
        "c": np.ones(model.d), "z": np.zeros(model.n), "alpha": 0.5,
        "sigma_i": np.full(model.d, 0.5), "lambda_i": np.ones(model.d),
        "n": model.n, "d": model.d, "m": noise.m, "seed": 0, "spectrum": "identity",
        "n_steps": 2, "count": 4, "n_samples": 4, "eval_samples": 4,
        "base_config": TrainConfig(n_iterations=1), "config": AttackConfig(eps=0.1, n_steps=2),
        "eps": 0.2, "eps_grid": np.array([0.0, 0.2]), "sigma_c": 1.0, "sigma_z": 0.5,
        "sigma_w": 0.1, "sigma_w_grid": np.array([0.0, 0.1]), "reg": 0.01,
    }


def _public_parameters(names: tuple[str, ...]) -> list[tuple[str, str]]:
    """(public name, parameter) for each parameter in names of a public callable."""
    pairs = []
    for name in sorted(jitterlab.__all__):
        obj = getattr(jitterlab, name)
        exception = isinstance(obj, type) and issubclass(obj, Exception)
        if callable(obj) and not exception and name not in RESULTS:
            pairs += [(name, p) for p in inspect.signature(obj).parameters if p in names]
    return pairs


PAIRS = _public_parameters(RANGED)
DIMENSION_PAIRS = _public_parameters(DIMENSIONS)
COUNT_PAIRS = _public_parameters(COUNTS)


def _call_with(name: str, param: str, bad):
    """The public callable `name`, called with param=bad and a valid value for every other."""
    func, values = getattr(jitterlab, name), _arguments()
    kwargs = {param: bad}
    for other, spec in inspect.signature(func).parameters.items():
        if other != param and other in values:
            kwargs[other] = values[other]
        elif other != param and spec.default is spec.empty and spec.kind is not spec.VAR_POSITIONAL:
            pytest.fail(f"{name}: no test value for parameter {other!r}")
    return func(**kwargs)


@pytest.mark.parametrize("bad", [float("nan"), -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("name, param", PAIRS, ids=[f"{name}-{param}" for name, param in PAIRS])
def test_ranged_parameter_rejects_nan_and_negatives(name, param, bad):
    # Every public callable with a ranged parameter rejects NaN and -1 there,
    # naming it; a new parameter name needs a value in _arguments first.
    with pytest.raises(InvalidParameterError, match=param.removesuffix("_grid")):
        _call_with(name, param, bad)


@pytest.mark.parametrize("bad, error", [
    (0, InvalidDimensionError), (-1, InvalidDimensionError),
    (1.5, InvalidParameterError), (True, InvalidParameterError),
], ids=["zero", "negative", "fraction", "bool"])
@pytest.mark.parametrize(
    "name, param", DIMENSION_PAIRS, ids=[f"{name}-{param}" for name, param in DIMENSION_PAIRS]
)
def test_dimension_rejects_non_positive_and_non_int(name, param, bad, error):
    # Every public callable with a dimension d, n or m takes only an int >= 1
    # there: an int below 1 is a bad dimension, anything else not an int a bad
    # parameter, and the error names the parameter as a word.
    with pytest.raises(error, match=rf"\b{param}\b"):
        _call_with(name, param, bad)


@pytest.mark.parametrize("bad", [1.5, True, -1], ids=["fraction", "bool", "negative"])
@pytest.mark.parametrize(
    "name, param", COUNT_PAIRS, ids=[f"{name}-{param}" for name, param in COUNT_PAIRS]
)
def test_count_and_seed_reject_non_int_and_negatives(name, param, bad):
    # Every public callable with a count or a seed takes only an int there,
    # at least 0, 1 or 2 as it needs, and its error names the parameter as a
    # word, not a helper's name for it.
    with pytest.raises(InvalidParameterError, match=rf"\b{param}\b"):
        _call_with(name, param, bad)


def test_ranged_parameters_cover_the_public_api():
    # The scans above find classes and functions alike, and leave out the results.
    assert {("optimal_robust_alpha", "eps"), ("conjectured_robust_estimator", "eps"),
            ("robust_risk_mode_form", "sigma_z"), ("sweep_jitter_levels", "sigma_w_grid"),
            ("ridge_estimator", "reg"), ("AttackConfig", "eps")} <= set(PAIRS)
    assert {("NoiseModel", "m"), ("make_subspace", "d"), ("robust_risk_mode_form", "m"),
            ("standard_risk_closed_form", "n")} <= set(DIMENSION_PAIRS)
    assert {("residuals", "n_samples"), ("robust_risk_exact", "n_samples"),
            ("draw_latents", "count"), ("pgd_attack", "seed"), ("AttackConfig", "n_restarts"),
            ("TrainConfig", "attack_steps"), ("sweep_jitter_levels", "eval_samples")
            } <= set(COUNT_PAIRS)
    assert not any(name in RESULTS for name, _ in PAIRS + DIMENSION_PAIRS + COUNT_PAIRS)


def _with_setup(call):
    return lambda: call(*_setup())


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: LinearEstimator.from_matrix(np.ones(3)), InvalidDimensionError,
                 id="from-matrix-not-2d"),
    pytest.param(lambda: LinearEstimator.from_matrix(np.array([[1.0, np.inf]])),
                 InvalidParameterError, id="from-matrix-non-finite"),
    pytest.param(lambda: LinearEstimator.from_factors(np.eye(3)[:, :2], np.ones(3), np.eye(3)),
                 InvalidDimensionError, id="from-factors-do-not-chain"),
    pytest.param(lambda: LinearEstimator.from_factors(np.eye(3)[:, :2], np.array([1.0, np.inf]),
                                                      np.eye(2)),
                 InvalidParameterError, id="from-factors-non-finite-singular-values"),
    pytest.param(lambda: LinearEstimator.from_factors(np.full((3, 2), np.nan), np.ones(2),
                                                      np.eye(2)),
                 InvalidParameterError, id="from-factors-nan-left-factor"),
    pytest.param(lambda: LinearEstimator.from_factors(np.eye(3)[:, :2], np.ones(2),
                                                      np.full((2, 2), np.nan)),
                 InvalidParameterError, id="from-factors-nan-right-factor"),
    pytest.param(lambda: ShrinkageProfile(np.ones(2), np.ones(3), 1.0), InvalidDimensionError,
                 id="shrinkage-profile-shapes"),
    pytest.param(lambda: ShrinkageProfile(np.ones(2), np.ones(2), np.nan), InvalidParameterError,
                 id="shrinkage-profile-nan-dual-variable"),
    pytest.param(lambda: RiskReport(np.zeros(2), np.ones(1), np.ones(1), np.ones(1), 10),
                 InvalidDimensionError, id="risk-report-shapes"),
    pytest.param(lambda: RiskReport(np.zeros(1), -np.ones(1), -np.ones(1), np.ones(1), 10),
                 InvalidParameterError, id="risk-report-negative-value"),
    pytest.param(lambda: SubspaceModel(np.ones(3), 1.0), InvalidDimensionError,
                 id="subspace-basis-not-2d"),
    pytest.param(lambda: SubspaceModel(np.ones((3, 0)), 1.0), InvalidDimensionError,
                 id="subspace-d-zero"),
    pytest.param(lambda: SubspaceModel(np.ones((2, 3)), 1.0), InvalidDimensionError,
                 id="subspace-d-above-n"),
    pytest.param(lambda: SubspaceModel(np.full((3, 2), np.nan), 1.0), InvalidParameterError,
                 id="subspace-nan-basis"),
    pytest.param(lambda: ForwardOperator(np.ones(3)), InvalidDimensionError,
                 id="operator-not-2d"),
    pytest.param(lambda: ForwardOperator(np.array([[1.0, np.nan]])), InvalidParameterError,
                 id="operator-non-finite"),
    pytest.param(lambda: make_diagonal_operator(0, "identity"), InvalidDimensionError,
                 id="diagonal-operator-n-zero"),
    pytest.param(lambda: robust_risk_mode_form(np.ones(2), np.ones(3), 1.0, 0.5, 4, 4, 0.1),
                 InvalidDimensionError, id="mode-form-shapes"),
    pytest.param(lambda: robust_risk_mode_form(np.ones(3), np.ones(3), 1.0, 0.5, 2, 4, 0.1),
                 InvalidDimensionError, id="mode-form-more-modes-than-d"),
    pytest.param(_with_setup(lambda model, op, noise: jittering_risk_closed_form(
        LinearEstimator.from_matrix(np.ones((model.n, noise.m + 1))), model, op, noise, 0.1)),
                 InvalidDimensionError, id="jittering-risk-estimator-shape"),
    pytest.param(lambda: TrainConfig(attack_steps=0), InvalidParameterError,
                 id="train-config-attack-steps-zero"),
    pytest.param(_with_setup(lambda *setup: _train_stack(*setup, [TrainConfig(),
                                                                  TrainConfig(lr=0.01)])),
                 InvalidParameterError, id="train-stack-mixed-keys"),
    pytest.param(_with_setup(lambda *setup: sweep_jitter_levels(*setup, [], [0.1], 4, 0)),
                 InvalidParameterError, id="sweep-empty-eps-grid"),
    pytest.param(_with_setup(lambda *setup: sweep_jitter_levels(*setup, [0.1], [], 4, 0)),
                 InvalidParameterError, id="sweep-empty-sigma-w-grid"),
    pytest.param(lambda: pgd_attack(LinearEstimator.from_matrix(np.eye(6)), np.ones((6, 4)),
                                    np.ones((6, 4)), AttackConfig(eps=0.1, n_steps=2), 0),
                 InvalidDimensionError, id="pgd-attack-2d-x-and-y"),
    pytest.param(lambda: pgd_attack(LinearEstimator.from_matrix(np.eye(6)), np.ones(5),
                                    np.ones(6), AttackConfig(eps=0.1, n_steps=2), 0),
                 InvalidDimensionError, id="pgd-attack-short-x"),
    pytest.param(lambda: pgd_attack(LinearEstimator.from_matrix(np.ones((6, 4))), np.ones(6),
                                    np.ones(6), AttackConfig(eps=0.1, n_steps=2), 0),
                 InvalidDimensionError, id="pgd-attack-y-not-m"),
    pytest.param(lambda: dual_values_batch(LinearEstimator.from_matrix(np.zeros((3, 3))),
                                           np.ones((3, 2)), np.nan),
                 InvalidParameterError, id="dual-zero-estimator-nan-eps"),
    pytest.param(lambda: NoiseModel(m=1.5, sigma_z=0.5), InvalidParameterError,
                 id="noise-model-m-float"),
    pytest.param(lambda: NoiseModel(m=True, sigma_z=0.5), InvalidParameterError,
                 id="noise-model-m-bool"),
    pytest.param(lambda: NoiseModel(m=12.0, sigma_z=0.5), InvalidParameterError,
                 id="noise-model-m-whole-float"),
    pytest.param(lambda: make_subspace(12.0, 4, 1.0, 0), InvalidParameterError,
                 id="make-subspace-n-float"),
    pytest.param(lambda: make_subspace(12, 4.0, 1.0, 0), InvalidParameterError,
                 id="make-subspace-d-float"),
    pytest.param(lambda: make_diagonal_operator(6.0, "identity"), InvalidParameterError,
                 id="diagonal-operator-n-float"),
    pytest.param(_with_setup(lambda model, op, noise: draw_latents(model, noise, 5.5, 0)),
                 InvalidParameterError, id="draw-latents-count-float"),
    pytest.param(_with_setup(lambda model, op, noise: robust_risk_exact(
        mmse_estimator(model, op, noise), model, op, noise, 0.1, n_samples=100.0, seed=0)),
                 InvalidParameterError, id="robust-risk-exact-n-samples-float"),
    pytest.param(_with_setup(lambda *setup: sweep_jitter_levels(*setup, [0.1], [0.1], 50.5, 0)),
                 InvalidParameterError, id="sweep-eval-samples-float"),
])
def test_guard_raises_its_error(call, error):
    with pytest.raises(error):
        call()


def _seeded_calls():
    model, op, noise = _setup()
    x, y = draw_sample_arrays(model, op, noise, 4, seed=1)[:2]
    estimator = mmse_estimator(model, op, noise)
    return {
        "rng-stream": lambda seed: rng_stream(seed, 0),
        "sub-seed": lambda seed: _sub_seed(seed, 0),
        "draw-sample-arrays": lambda seed: draw_sample_arrays(model, op, noise, 4, seed),
        "make-subspace": lambda seed: make_subspace(6, 3, 1.0, seed),
        "pgd-attack": lambda seed: pgd_attack(estimator, x[:, 0], y[:, 0],
                                              AttackConfig(eps=0.1, n_steps=2), seed),
    }


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("name", sorted(_seeded_calls()))
def test_seed_is_a_nonnegative_int(name, seed):
    # One gate in rng_stream and _sub_seed: numpy's own ValueError or
    # TypeError never surfaces.
    with pytest.raises(InvalidParameterError, match="seed"):
        _seeded_calls()[name](seed)
