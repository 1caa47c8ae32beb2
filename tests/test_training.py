import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

import jitterlab.attack
import jitterlab.training
from jitterlab.attack import pgd_perturb_batch
from jitterlab.errors import (
    AttackDivergenceError, InvalidDimensionError, InvalidParameterError, TrainingDivergenceError,
)
from jitterlab.estimators import (
    jitter_level_for_eps,
    jittering_denoiser_alpha,
    mmse_estimator,
)
from jitterlab.estimators import LinearEstimator
from jitterlab.model import (
    ForwardOperator, NoiseModel, _sub_seed, make_diagonal_operator, make_subspace, rng_stream,
)
from jitterlab.training import (
    _MAX_STACK, TrainConfig, TrainTrace, _map_shares, _train_map, _train_runs, _train_stack,
    sweep_jitter_levels, train,
)


def _setup(n=20, d=8, sigma_c=1.0, sigma_z=0.4, spectrum="identity", seed=1):
    model = make_subspace(n, d, sigma_c, seed=seed)
    op = make_diagonal_operator(n, spectrum, ratio=0.8)
    noise = NoiseModel(m=n, sigma_z=sigma_z)
    return model, op, noise


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        TrainConfig(objective="bogus")
    with pytest.raises(InvalidParameterError):
        TrainConfig(lr=0.0)
    with pytest.raises(InvalidParameterError):
        TrainConfig(batch_size=0)
    with pytest.raises(InvalidParameterError):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(InvalidParameterError):
        TrainConfig(objective="adversarial", eps=-0.1)


@pytest.mark.parametrize("objective, field", [
    ("standard", "eps"), ("standard", "sigma_w"), ("jittering", "eps"), ("adversarial", "sigma_w"),
])
def test_config_rejects_a_level_its_objective_does_not_read(objective, field):
    # eps feeds only the adversarial objective and sigma_w only jittering; a
    # non-zero level elsewhere would train a run other than the one it names.
    with pytest.raises(InvalidParameterError, match=rf"^{field} is read only by objective"):
        TrainConfig(objective=objective, **{field: 0.2})
    TrainConfig(objective=objective, **{field: 0.0})


@pytest.mark.parametrize("field", ["seed", "n_iterations", "batch_size", "attack_steps"])
@pytest.mark.parametrize("value", [2.5, True, "3", np.float64(4.0)])
def test_config_rejects_non_int_counts(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        TrainConfig(**{field: value})


def test_config_rejects_negative_seed_and_takes_numpy_ints():
    with pytest.raises(InvalidParameterError, match="seed"):
        TrainConfig(seed=-1)
    config = TrainConfig(seed=np.uint32(7), n_iterations=np.int64(3))
    assert (config.seed, config.n_iterations) == (7, 3)


@pytest.mark.parametrize("field", ["eps", "sigma_w", "lr"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, value):
    objective = {"eps": "adversarial", "sigma_w": "jittering"}.get(field, "standard")
    with pytest.raises(InvalidParameterError):
        TrainConfig(objective=objective, **{field: value})


def test_standard_training_converges_to_mmse():
    model, op, noise = _setup()
    cfg = TrainConfig(objective="standard", n_iterations=15000, seed=3)
    trace = train(model, op, noise, cfg)
    target = mmse_estimator(model, op, noise)
    assert np.max(np.abs(trace.estimator.matrix - target.matrix)) <= 0.02


def test_jittering_training_converges_to_closed_form_alpha():
    model, op, noise = _setup()
    sw = 0.25
    cfg = TrainConfig(objective="jittering", sigma_w=sw, n_iterations=15000, seed=4)
    trace = train(model, op, noise, cfg)
    alpha = jittering_denoiser_alpha(model.sigma_c, noise.sigma_z, model.d, model.n, sw)
    target = alpha * model.basis @ model.basis.T
    assert np.max(np.abs(trace.estimator.matrix - target)) <= 0.02 * max(alpha, 1.0)


def test_training_deterministic():
    model, op, noise = _setup()
    cfg = TrainConfig(objective="adversarial", eps=0.2, n_iterations=500, seed=7)
    a = train(model, op, noise, cfg)
    b = train(model, op, noise, cfg)
    assert np.array_equal(a.estimator.matrix, b.estimator.matrix)
    assert np.array_equal(a.losses, b.losses)


def test_trace_records_ema_losses():
    model, op, noise = _setup()
    cfg = TrainConfig(objective="standard", n_iterations=1000, seed=2)
    trace = train(model, op, noise, cfg)
    assert trace.iterations[0] == 0
    assert trace.iterations[-1] == 999
    assert len(trace.iterations) == len(trace.losses)
    # loss decreases from the zero-estimator starting point
    assert trace.losses[-1] < trace.losses[0]


def test_divergence_raises_with_partial_trace():
    # plain SGD with an absurd step blows up geometrically
    model, op, noise = _setup()
    cfg = TrainConfig(
        objective="standard", optimizer="sgd", lr=1e3, n_iterations=2000, seed=0
    )
    with pytest.raises(TrainingDivergenceError) as exc_info:
        train(model, op, noise, cfg)
    assert hasattr(exc_info.value, "trace")


def test_sgd_optimizer_also_converges():
    model, op, noise = _setup()
    cfg = TrainConfig(
        objective="standard", optimizer="sgd", lr=0.05, n_iterations=15000, seed=5,
    )
    trace = train(model, op, noise, cfg)
    target = mmse_estimator(model, op, noise)
    assert np.max(np.abs(trace.estimator.matrix - target.matrix)) <= 0.03


def test_adversarial_training_shrinks_harder_than_standard():
    model, op, noise = _setup()
    std = train(model, op, noise, TrainConfig(objective="standard", n_iterations=8000, seed=8))
    adv = train(
        model, op, noise,
        TrainConfig(objective="adversarial", eps=0.5, n_iterations=8000, seed=8),
    )
    assert adv.estimator.frobenius_norm() < std.estimator.frobenius_norm()


def test_sweep_shapes_and_zero_eps_argmin():
    model, op, noise = _setup(n=16, d=6)
    eps_grid = np.array([0.0, 0.25])
    sw_grid = np.array([0.0, 0.15, 0.3])
    base = TrainConfig(objective="jittering", n_iterations=4000, lr=1e-3)
    res = sweep_jitter_levels(model, op, noise, eps_grid, sw_grid, 400, 0, base_config=base)
    assert res.risks.shape == (3, 2)
    assert res.ci_low.shape == (3, 2) and res.ci_high.shape == (3, 2)
    assert np.all(res.ci_low <= res.risks) and np.all(res.risks <= res.ci_high)
    # at eps=0 any jitter only hurts: argmin must sit at sigma_w = 0
    assert res.argmin_sigma_w[0] == 0.0


def test_sweep_reads_no_level_from_its_base_config():
    # The sweep sets each run's objective and jitter level; an adversarial
    # base's eps, which no jittering run reads, is dropped, not rejected.
    model, op, noise = _setup(n=10, d=3)
    args = (model, op, noise, np.array([0.1]), np.array([0.0, 0.2]), 20, 0)
    plain = sweep_jitter_levels(*args, base_config=TrainConfig(n_iterations=5))
    adversarial = TrainConfig(objective="adversarial", eps=0.3, n_iterations=5)
    assert np.array_equal(sweep_jitter_levels(*args, base_config=adversarial).risks, plain.risks)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_sweep_names_the_first_failing_row(monkeypatch, cpus):
    # Rows 1 and 2 fail, in different processes on two CPUs.  Row 1's error
    # is raised with its run named in one more arg, and keeps its trace.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    model, op, noise = _setup(n=12, d=4)
    sw_grid = np.array([0.0, 0.1, 0.2, 0.3])
    base = TrainConfig(n_iterations=5)
    own = train(
        model, op, noise, replace(base, objective="jittering", sigma_w=0.1, seed=_sub_seed(0, 1))
    )
    real = jitterlab.training._train_stack

    def failing_stack(model, op, noise, configs):
        outcomes = real(model, op, noise, configs)
        for p, config in enumerate(configs):
            if config.sigma_w in (0.1, 0.2):
                exc = TrainingDivergenceError(f"sigma_w {config.sigma_w}")
                exc.trace = outcomes[p]
                outcomes[p] = exc
        return outcomes

    monkeypatch.setattr(jitterlab.training, "_train_stack", failing_stack)
    with pytest.raises(TrainingDivergenceError) as info:
        sweep_jitter_levels(model, op, noise, np.array([0.2]), sw_grid, 20, 0, base_config=base)
    assert info.value.args == (
        "sigma_w 0.1", f"run 1: jittering seed={_sub_seed(0, 1)} eps=0.0 sigma_w=0.1"
    )
    assert np.array_equal(info.value.trace.losses, own.losses)
    assert np.array_equal(info.value.trace.estimator.matrix, own.estimator.matrix)
    assert multiprocessing.active_children() == []


def test_jitter_noise_shares_stream_with_batch():
    # jittering at sigma_w=0 must reproduce the standard run bit for bit, also
    # in the textbook loop, whose noise scale sqrt(s^2 + 0^2) is then s
    model, op, noise = _setup()
    standard = TrainConfig(objective="standard", n_iterations=400, seed=9)
    jitter = replace(standard, objective="jittering", sigma_w=0.0)
    a = train(model, op, noise, standard)
    b = train(model, op, noise, jitter)
    assert np.array_equal(a.estimator.matrix, b.estimator.matrix)
    assert np.array_equal(a.estimator.matrix, _reference_train(model, op, noise, jitter))


def _levelled(config, level):
    """config with the level its objective reads, eps or sigma_w, set to level."""
    field = {"adversarial": "eps", "jittering": "sigma_w"}.get(config.objective)
    return replace(config, **{field: level}) if field else config


@pytest.mark.parametrize("objective", ["standard", "adversarial", "jittering"])
def test_training_prefix_is_stable(objective):
    # A run's first iterations do not depend on how many follow them.
    model, op, noise = _setup(n=12, d=4)
    cfg = _levelled(TrainConfig(objective=objective, n_iterations=400, seed=5), 0.2)
    short = train(model, op, noise, cfg)
    long = train(model, op, noise, replace(cfg, n_iterations=800))
    assert list(short.iterations[:4]) == list(long.iterations[:4]) == [0, 100, 200, 300]
    assert np.array_equal(short.losses[:4], long.losses[:4])


def _reference_train(model, op, noise, config):
    # The textbook loop: every draw taken, dense A, out-of-place optimizer
    # steps, plain SGD.  Jittering trains on y + w = Ax + (z + w), whose noise
    # is one draw at per-coordinate variance sigma_z^2 / m + sigma_w^2.
    n, m, d = model.n, noise.m, model.d
    batch = config.batch_size
    h, mom1, mom2 = (np.zeros((n, m)) for _ in range(3))
    gen_c, gen_z = (rng_stream(config.seed, j) for j in range(2))
    z_scale = np.sqrt(noise.per_coordinate_std**2 + config.sigma_w**2)
    for t in range(config.n_iterations):
        c = model.sigma_c / np.sqrt(d) * gen_c.standard_normal((d, batch))
        z = z_scale * gen_z.standard_normal((m, batch))
        x = model.basis @ c
        y = op.matrix @ x + z
        if config.objective == "adversarial":
            yt = y + pgd_perturb_batch(h, x, y, config.eps, config.attack_steps)
        else:
            yt = y
        grad = (2.0 / batch) * ((h @ yt - x) @ yt.T)
        if config.optimizer == "sgd":
            h = h - config.lr * grad
        else:
            mom1 = 0.9 * mom1 + (1.0 - 0.9) * grad
            mom2 = 0.999 * mom2 + (1.0 - 0.999) * grad**2
            m1_hat = mom1 / (1.0 - 0.9 ** (t + 1))
            m2_hat = mom2 / (1.0 - 0.999 ** (t + 1))
            h = h - config.lr * m1_hat / (np.sqrt(m2_hat) + 1e-8)
    return h


@pytest.mark.parametrize("spectrum", ["identity", "linear-decay", "dense-9x12"])
@pytest.mark.parametrize("optimizer", ["adaptive", "sgd"])
@pytest.mark.parametrize("objective", ["standard", "adversarial", "jittering"])
def test_train_bit_identical_to_reference_loop(spectrum, optimizer, objective):
    # Alone and as one run of a lockstep stack, each run gets the textbook bits,
    # also at sigma_z = 0, where training skips the draw of z that the textbook
    # loop scales by 0.  The dense 9 x 12 operator takes the matmul branch
    # and has m != n.
    for sigma_z in (0.4, 0.0):
        if spectrum == "dense-9x12":
            model, _, _ = _setup(n=12, d=4)
            op = ForwardOperator(rng_stream(3, 0).standard_normal((9, 12)) / 3)
            noise = NoiseModel(m=9, sigma_z=sigma_z)
        else:
            model, op, noise = _setup(n=12, d=4, sigma_z=sigma_z, spectrum=spectrum)
        cfg = _levelled(TrainConfig(
            objective=objective, optimizer=optimizer, lr=1e-3 if optimizer == "adaptive" else 0.02,
            batch_size=9, n_iterations=60, seed=6,
        ), 0.3)
        h = train(model, op, noise, cfg).estimator.matrix
        assert np.array_equal(h, _reference_train(model, op, noise, cfg))
        stack = [cfg] + [
            _levelled(replace(cfg, seed=seed), level) for seed, level in ((7, 0.1), (8, 0.6))
        ]
        for config, run in zip(stack, _train_stack(model, op, noise, stack)):
            alone = train(model, op, noise, config)
            reference = _reference_train(model, op, noise, config)
            assert np.array_equal(run.estimator.matrix, reference)
            assert np.array_equal(run.iterations, alone.iterations)
            assert np.array_equal(run.losses, alone.losses)


@pytest.mark.parametrize("spectrum", ["identity", "linear-decay"])
@pytest.mark.parametrize("optimizer", ["adaptive", "sgd"])
@pytest.mark.parametrize("sigma_z", [0.4, 0.0])
def test_noisier_training_data_trains_as_jittering(spectrum, optimizer, sigma_z):
    # y + w with w ~ N(0, sigma_w^2 I) is a measurement at per-coordinate
    # variance sigma_z^2 / m + sigma_w^2: standard training on data at
    # sigma_z_train and jittering at the matching sigma_w are one run, up to
    # the rounding of the two noise scales.
    sigma_z_train = 0.75  # where the two scales differ in their last bit
    model, op, noisy = _setup(n=12, d=4, sigma_z=sigma_z_train, spectrum=spectrum)
    noise = NoiseModel(m=noisy.m, sigma_z=sigma_z)
    sigma_w = np.sqrt((sigma_z_train**2 - sigma_z**2) / noisy.m)
    cfg = TrainConfig(optimizer=optimizer, lr=1e-3 if optimizer == "adaptive" else 0.02,
                      batch_size=9, n_iterations=300, seed=11)
    jitter = replace(cfg, objective="jittering", sigma_w=sigma_w)
    h_a = train(model, op, noisy, cfg).estimator.matrix
    h_b = train(model, op, noise, jitter).estimator.matrix
    assert np.max(np.abs(h_a - h_b)) <= 1e-12 * np.max(np.abs(h_a))


@pytest.mark.parametrize("sigma_z", [0.4, 0.0])
def test_each_run_opens_the_latent_and_the_noise_stream_only(monkeypatch, sigma_z):
    # The stream layout: run p opens rng_stream(seed, 0) for c and, when its
    # noise scale is non-zero, (seed, 1) for z, and nothing else.  A change
    # to this layout changes every trained row that it touches.
    model, op, noise = _setup(n=10, d=3, sigma_z=sigma_z)
    base = TrainConfig(n_iterations=20, batch_size=6)
    configs = [
        replace(base, objective="standard", seed=1),
        replace(base, objective="jittering", sigma_w=0.3, seed=2),
        replace(base, objective="jittering", sigma_w=0.0, seed=3),
        replace(base, objective="adversarial", eps=0.2, seed=4),
        replace(base, objective="adversarial", eps=0.0, seed=5),
    ]
    opened = []

    def recording(seed, *path):
        opened.append((seed, *path))
        return rng_stream(seed, *path)

    monkeypatch.setattr(jitterlab.training, "rng_stream", recording)
    runs = _train_runs(model, op, [noise] * len(configs), configs)
    expected = [(config.seed, 0) for config in configs] + [
        (config.seed, 1) for config in configs
        if sigma_z != 0 or (config.objective == "jittering" and config.sigma_w != 0)
    ]
    assert sorted(opened) == sorted(expected)
    monkeypatch.undo()
    for config, run in zip(configs, runs):  # also a standard run stacked with noisier ones
        alone = _reference_train(model, op, noise, config)
        assert np.array_equal(run.estimator.matrix, alone)


def test_train_runs_returns_a_mixed_list_in_input_order():
    # Jittering runs and runs at eps = 0 join the standard stack; the adversarial
    # group is more than one stack; the sgd run stacks alone.
    model, op, noise = _setup(n=10, d=3)
    base = TrainConfig(n_iterations=30, batch_size=6)
    configs = [
        replace(base, objective="jittering", sigma_w=0.3, seed=1),
        replace(base, objective="adversarial", eps=0.0, seed=2),
        replace(base, objective="standard", optimizer="sgd", lr=0.01, seed=3),
        replace(base, objective="jittering", sigma_w=0.0, seed=4),
        replace(base, objective="standard", seed=5),
    ] + [
        replace(base, objective="adversarial", eps=0.1 * (j + 1), seed=10 + j)
        for j in range(_MAX_STACK + 1)
    ]
    runs = _train_runs(model, op, [noise] * len(configs), configs)
    assert len(runs) == len(configs)
    for config, run in zip(configs, runs):
        alone = train(model, op, noise, config)
        assert np.array_equal(run.estimator.matrix, alone.estimator.matrix)
        assert np.array_equal(run.losses, alone.losses)


def _diverging(objective="jittering"):
    if objective == "jittering":
        # At lr 0.05, plain SGD is stable at jitter level 0.1 and diverges at 10.
        base = TrainConfig(objective="jittering", optimizer="sgd", lr=0.05, n_iterations=300)
        return [replace(base, sigma_w=sw, seed=seed) for seed, sw in enumerate((0.1, 10.0, 0.2))]
    # At lr 30 every run diverges, one of them first inside the attack and
    # the others after their second recorded point.
    base = TrainConfig(objective="adversarial", optimizer="sgd", lr=30.0, n_iterations=400)
    return [replace(base, eps=eps, seed=seed) for seed, eps in enumerate((0.1, 1.0, 0.3, 3.0))]


@pytest.mark.parametrize("objective", ["jittering", "adversarial"])
def test_diverging_stack_member_stops_alone(objective):
    # Each run of a stack ends as its own loop ends: the same trace, or the
    # same exception with the same partial trace.
    model, op, noise = _setup()
    configs = _diverging(objective)
    # No errstate here: a stopped run's overflow must stay quiet on its own.
    runs = _train_stack(model, op, noise, configs)
    alone = []
    for config in configs:
        try:
            alone.append(train(model, op, noise, config))
        except (TrainingDivergenceError, AttackDivergenceError) as exc:
            alone.append(exc)
    kinds = [type(run) for run in alone]
    assert TrainingDivergenceError in kinds
    assert (AttackDivergenceError if objective == "adversarial" else TrainTrace) in kinds
    for run, own in zip(runs, alone):
        assert type(run) is type(own)
        if isinstance(own, Exception):
            assert str(run) == str(own)
            own, run = getattr(own, "trace", None), getattr(run, "trace", None)
            if own is None:
                assert run is None
                continue
            assert len(own.iterations) > 1
        assert np.array_equal(run.iterations, own.iterations)
        assert np.array_equal(run.losses, own.losses)
        assert np.array_equal(run.estimator.matrix, own.estimator.matrix)


def test_diverging_stack_member_trains_no_run_twice(monkeypatch):
    # The stack goes on without its diverged member: one call trains every
    # run, and the survivors end with the bits of their own loops.
    model, op, noise = _setup()
    configs = _diverging()
    calls = []
    stack = jitterlab.training._train_stack

    def counted(*args):
        calls.append(args)
        return stack(*args)

    monkeypatch.setattr(jitterlab.training, "_train_stack", counted)
    runs = jitterlab.training._train_stack(model, op, noise, configs)
    assert len(calls) == 1
    assert [type(run) for run in runs] == [TrainTrace, TrainingDivergenceError, TrainTrace]
    for config, run in zip(configs, runs):
        if isinstance(run, TrainTrace):
            alone = train(model, op, noise, config)
            assert np.array_equal(run.losses, alone.losses)
            assert np.array_equal(run.estimator.matrix, alone.estimator.matrix)


def test_train_stack_checks_no_attack_budget(monkeypatch):
    # TrainConfig checks eps and attack_steps once; the loop's attacks do not
    # check them again.
    model, op, noise = _setup()
    calls = []
    check = jitterlab.attack._check_budget

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(jitterlab.attack, "_check_budget", counted)
    config = TrainConfig(objective="adversarial", eps=0.3, n_iterations=50, batch_size=8)
    (run,) = _train_stack(model, op, noise, [config])
    assert isinstance(run, TrainTrace)
    assert calls == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_train_map_raises_the_first_failing_run(monkeypatch, cpus):
    # Runs 1 and 3 diverge.  Whether the runs stack in one process or two,
    # the first failure in item order is raised, as the plain loop would
    # raise it, with the run named in one more arg: run 1's divergence with
    # its partial trace when certify fails at item 2, and certify's error
    # when it fails at item 0.  Run i is certified at radius i / 10.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    model, op, noise = _setup()
    configs = _diverging()
    configs.append(replace(configs[1], seed=9))
    runs = [(noise, config, i / 10, 0) for i, config in enumerate(configs)]
    real = jitterlab.training.certify

    def certify_failing_at(k):
        def certify(estimator, x, y, eps):
            if eps == k / 10:
                raise ValueError(f"item {k}")
            return real(estimator, x, y, eps)
        return certify

    monkeypatch.setattr(jitterlab.training, "certify", certify_failing_at(2))
    with pytest.raises(TrainingDivergenceError) as info:
        _train_map(model, op, runs, 20)
    with pytest.raises(TrainingDivergenceError) as alone:
        train(model, op, noise, configs[1])
    assert info.value.args == alone.value.args + ("run 1: jittering seed=1 eps=0.0 sigma_w=10.0",)
    assert np.array_equal(info.value.trace.losses, alone.value.trace.losses)
    monkeypatch.setattr(jitterlab.training, "certify", certify_failing_at(0))
    with pytest.raises(ValueError) as info:
        _train_map(model, op, runs, 20)
    assert info.value.args == ("item 0", "run 0: jittering seed=0 eps=0.0 sigma_w=0.1")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_train_map_raises_a_dimension_mismatch_itself(monkeypatch, cpus):
    # A noise model whose m is not the operator's row count fails every
    # share before any run trains: the map raises that error, not a worker's
    # ChildProcessError, and leaves no child process behind.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    model, op, _ = _setup(n=10, d=3)
    runs = [(NoiseModel(m=7, sigma_z=0.4), TrainConfig(n_iterations=5, seed=seed), 0.1, 0)
            for seed in range(2)]
    with pytest.raises(InvalidDimensionError, match="10 rows but noise lives in dimension 7"):
        _train_map(model, op, runs, 20)
    assert multiprocessing.active_children() == []


def _pid_of(item):
    return item, os.getpid()


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _item_map(fn, items):
    """[fn(item) for item in items] through _map_shares, with a per-item prepare."""
    items = list(items)
    return _map_shares(
        lambda share: [items[i] for i in share], lambda i, item: fn(item), range(len(items))
    )


def test_fork_map_matches_plain_loop_in_order(monkeypatch):
    _two_cpus(monkeypatch)
    items = list(range(7))
    square = lambda i: np.arange(i) ** 2  # a closure cannot be pickled, only forked
    got = _item_map(square, items)
    assert len(got) == len(items)
    for a, b in zip(got, [square(i) for i in items]):
        assert np.array_equal(a, b)
    pairs = _item_map(_pid_of, items)
    assert [item for item, _ in pairs] == items
    # item k runs in worker k mod P, and none in this process, which only
    # forks and joins: two workers take the even and the odd items, three
    # take {0, 3, 6}, {1, 4} and {2, 5}
    for procs in (2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(procs)))
        pairs = _item_map(_pid_of, items)
        assert [item for item, _ in pairs] == items
        pids = [{pid for item, pid in pairs if item % procs == k} for k in range(procs)]
        assert [len(share) for share in pids] == [1] * procs
        assert len(set.union(*pids) - {os.getpid()}) == procs
    assert multiprocessing.active_children() == []


def _diverge(item, failing):
    if item in failing:
        exc = TrainingDivergenceError(f"item {item}")
        exc.trace = TrainTrace(
            iterations=np.array([0, item]), losses=np.array([1.0, 2.0]),
            estimator=LinearEstimator.from_matrix(np.full((2, 3), float(item))),
        )
        raise exc
    return item


@pytest.mark.parametrize(
    ("cpus", "failing"),
    [({0, 1}, {2, 5}), ({0, 1}, {3, 4}), ({0, 1}, {6}), ({0}, {3, 4})],
    ids=["worker-first", "odd-worker-first", "worker-only", "one-cpu"],
)
def test_fork_map_raises_first_failing_item(monkeypatch, cpus, failing):
    # With two CPUs one worker takes the even items and the other the odd ones.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    first = min(failing)
    with pytest.raises(TrainingDivergenceError, match=f"item {first}$") as info:
        _item_map(lambda item: _diverge(item, failing), range(8))
    trace = info.value.trace
    assert np.array_equal(trace.iterations, [0, first])
    assert np.array_equal(trace.estimator.matrix, np.full((2, 3), float(first)))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    ("cpus", "bad", "failing", "raised"),
    [
        ({0}, 5, {3}, "prepare 0"),
        ({0, 1}, 5, {0}, "finish 0"),
        ({0, 1}, 5, {2}, "prepare 1"),
        ({0, 1}, 4, {3}, "prepare 0"),
        ({0, 1, 2}, 5, {1}, "finish 1"),
        ({0, 1, 2}, 5, {4}, "prepare 2"),
        ({0, 1, 2}, 3, {2, 4}, "prepare 0"),
    ],
    ids=["one-cpu", "two-finish-first", "two-odd-worker-prepare", "two-worker-prepare",
         "three-finish-first", "three-last-worker-prepare", "three-worker-prepare"],
)
def test_map_shares_charges_a_failing_prepare_to_its_shares_first_item(
    monkeypatch, cpus, bad, failing, raised
):
    # The share holding item `bad` fails in prepare, which charges its first
    # item; finish fails at the items in `failing`.  Shares: {0..7} in this
    # process on one CPU; workers {0, 2, 4, 6} and {1, 3, 5, 7} on two;
    # workers {0, 3, 6}, {1, 4, 7} and {2, 5} on three.  The exception of
    # the first failing item in item order is raised.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)

    def prepare(share):
        if bad in share:
            raise ValueError(f"prepare {share[0]}")
        return list(share)

    def finish(i, item):
        if i in failing:
            raise ValueError(f"finish {i}")
        return item

    with pytest.raises(ValueError, match=f"^{raised}$"):
        _map_shares(prepare, finish, range(8))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("affinity", ["one-cpu", "absent"])
def test_fork_map_single_cpu_runs_in_process(monkeypatch, affinity):
    if affinity == "absent":
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _item_map(_pid_of, range(5)) == [(i, os.getpid()) for i in range(5)]


def test_fork_map_reports_a_dead_worker(monkeypatch):
    _two_cpus(monkeypatch)

    def die_on_even(item):  # the first worker's items: the second runs the odd ones
        if item % 2 == 0:
            os._exit(3)
        return item

    with pytest.raises(ChildProcessError, match="code 3"):
        _item_map(die_on_even, range(4))
    assert multiprocessing.active_children() == []
