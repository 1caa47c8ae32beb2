"""Deterministic experiment drivers emitting CSV artifacts.

Each command resolves a flat key=value config (file values overridden by
CLI flags), derives every random stream from one master seed, and writes
CSV atomically (temp file + rename).  The first line of every CSV is a
comment recording the SHA-256 hash of the canonical config string together
with the full configuration, so artifacts are self-describing and re-runs
are byte-identical.  The training drivers (equivalence, large-eps, sweep)
train and certify their independent runs over one forked worker per
available CPU (`training._train_map`), each worker training its share in
lockstep stacks.  equivalence and sweep draw their evaluation set before
the map; large-eps maps the runs of all its noise levels at once, and each
process draws a level's set when it first certifies a run of that level.
gap maps its eps grid the same way (`training._fork_map`), building and
certifying each eps's estimators in a worker.  The CSV is the same for any
worker count.

Risk columns in figure-style CSVs are per-coordinate (total risk divided
by n); the sweep matrix keeps raw totals since only argmin locations
matter there.  Where a perturbation radius appears, both raw eps and
eps^2/sigma_c^2 are emitted.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .estimators import (
    mmse_estimator,
    conjectured_robust_estimator,
    jitter_level_for_eps,
    optimal_jittering_estimator,
    optimal_robust_alpha,
)
from .model import (
    ForwardOperator,
    NoiseModel,
    SubspaceModel,
    _sub_seed,
    draw_sample_arrays,
    make_diagonal_operator,
    make_subspace,
)
from .risk import (
    RiskReport, _check_eval_samples, best_jitter_level_analytic, certify, standard_risk_closed_form,
)
from .training import TrainConfig, _fork_map, _train_map, sweep_jitter_levels

COMMANDS = ("alpha-curve", "equivalence", "gap", "large-eps", "sweep")


def _parse_int(text: str) -> int:
    """An integer >= 0: every integer key is a size, a count or the seed."""
    value = int(text)
    if value < 0:
        raise ValueError("value must be >= 0")
    return value


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_str(text: str) -> str:
    return text


def _parse_float_list(text: str) -> tuple[float, ...]:
    """Comma-separated finite values, each >= 0: every list key is a radius or a scale."""
    if text.strip() == "":
        return ()
    values = tuple(_parse_float(tok) for tok in text.split(","))
    if any(value < 0 for value in values):
        raise ValueError("values must be >= 0")
    return values


# key -> (parser, help)
KEY_SPECS: dict[str, tuple] = {
    "n": (_parse_int, "ambient signal dimension"),
    "d": (_parse_int, "subspace dimension"),
    "m": (_parse_int, "measurement dimension"),
    "sigma_c": (_parse_float, "signal scale, sqrt of expected signal energy"),
    "sigma_z": (_parse_float, "noise scale, sqrt of expected noise energy"),
    "operator": (_parse_str, "forward operator: identity | linear-decay | geometric"),
    "ratio": (_parse_float, "geometric spectrum ratio in (0, 1]"),
    "seed": (_parse_int, "master seed; every stream derives from it"),
    "eval_samples": (_parse_int, "Monte-Carlo sample count per risk estimate"),
    "eps_grid": (_parse_float_list, "comma-separated perturbation radii"),
    "eps_sq_rel_grid": (_parse_float_list, "comma-separated eps^2/sigma_c^2 values"),
    "sigma_w_grid": (_parse_float_list, "comma-separated jitter levels (empty = auto)"),
    "noise_levels": (_parse_float_list, "comma-separated noise levels (per-command units)"),
    "lr": (_parse_float, "training learning rate"),
    "batch_size": (_parse_int, "training minibatch size"),
    "n_iterations": (_parse_int, "training iteration count"),
    "optimizer": (_parse_str, "training optimizer: adaptive | sgd"),
    "attack_steps": (_parse_int, "PGD steps during adversarial training"),
    "out": (_parse_str, "output CSV path"),
}

_COMMON_DEFAULTS = {
    "n": 100,
    "d": 50,
    "m": 100,
    "sigma_c": 1.0,
    "operator": "identity",
    "ratio": 0.7,
    "seed": 0,
    "eval_samples": 10000,
    "lr": 1e-3,
    "batch_size": 50,
    "n_iterations": 20000,
    "optimizer": "adaptive",
    "attack_steps": 3,
    "out": "",
}

# sigma_z such that sigma_z * sqrt(d/n) = 0.4 at d=50, n=100.
_SIGMA_Z_EQUIV = 0.4 * np.sqrt(2.0)

COMMAND_DEFAULTS: dict[str, dict] = {
    "alpha-curve": {
        **_COMMON_DEFAULTS,
        "sigma_z": 0.0,
        "noise_levels": (0.0, 0.4, 1.2),
        "eps_grid": tuple(np.linspace(0.0, 1.2, 16)),
    },
    "equivalence": {
        **_COMMON_DEFAULTS,
        "sigma_z": float(_SIGMA_Z_EQUIV),
        "eps_grid": tuple(np.linspace(0.0, 0.7, 8)),
    },
    "gap": {
        **_COMMON_DEFAULTS,
        "operator": "linear-decay",
        "sigma_z": 0.2,
        "eps_grid": tuple(np.linspace(0.0, 0.5, 16)),
    },
    "large-eps": {
        **_COMMON_DEFAULTS,
        "sigma_c": float(np.sqrt(50.0)),
        "sigma_z": 0.0,  # superseded per noise level
        "noise_levels": (0.0, 0.5, 1.5),
        "eps_sq_rel_grid": (0.0, 0.25, 0.5, 0.75, 1.0, 1.2, 1.5),
    },
    "sweep": {
        **_COMMON_DEFAULTS,
        "sigma_z": float(_SIGMA_Z_EQUIV),
        "eps_grid": (0.2, 0.35, 0.5, 0.65),
        "sigma_w_grid": (),
    },
}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment, blank lines ignored."""
    raw: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
                key, _, value = stripped.partition("=")
                raw[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return raw


def resolve_config(command: str, raw_items: dict[str, str]) -> dict:
    """Defaults overlaid with raw string items, typed-parsed per key."""
    if command not in COMMAND_DEFAULTS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = dict(COMMAND_DEFAULTS[command])
    for key, text in raw_items.items():
        if key not in KEY_SPECS:
            raise ConfigError(f"unknown config key {key!r}")
        if key not in cfg and key != "out":
            raise ConfigError(f"key {key!r} is not used by command {command!r}")
        parser = KEY_SPECS[key][0]
        try:
            cfg[key] = parser(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc
        if cfg[key] == () and key != "sigma_w_grid":  # an empty sigma_w_grid means auto
            raise ConfigError(f"{key!r} needs at least one value")
    if "n" in raw_items and "m" not in raw_items:
        cfg["m"] = cfg["n"]  # measurement count tracks n unless set explicitly
    return cfg


def canonical_config(command: str, cfg: dict) -> str:
    parts = [f"command={command}"]
    for key in sorted(cfg):
        if key == "out":
            continue  # output location does not affect content
        value = cfg[key]
        if isinstance(value, tuple):
            text = ",".join(repr(float(x)) for x in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        parts.append(f"{key}={text}")
    return " ".join(parts)


def config_hash(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _emit(command: str, cfg: dict, columns: str, rows: list[str], path: str) -> str:
    """Config comment, column header and rows; written atomically to path if set."""
    canonical = canonical_config(command, cfg)
    text = f"# config sha256={config_hash(canonical)} {canonical}\n{columns}\n" + "".join(rows)
    if path:
        write_atomic(path, text)
    return text


def _g(x: float) -> str:
    return f"{x:.12g}"


def _risk_cells(report: RiskReport, k: int, n: int) -> str:
    """Per-coordinate risk, ci_low and ci_high of entry k of a report."""
    return f"{_g(report.values[k] / n)},{_g(report.ci_low[k] / n)},{_g(report.ci_high[k] / n)}"


def _build_setup(cfg: dict) -> tuple[SubspaceModel, ForwardOperator, NoiseModel]:
    if cfg["operator"] not in ("identity", "linear-decay", "geometric"):
        raise ConfigError(f"unknown operator {cfg['operator']!r}")
    _check_eval_samples(cfg["eval_samples"])
    model = make_subspace(cfg["n"], cfg["d"], cfg["sigma_c"], cfg["seed"])
    op = make_diagonal_operator(cfg["n"], cfg["operator"], cfg.get("ratio"))
    noise = NoiseModel(m=cfg["m"], sigma_z=cfg["sigma_z"])
    return model, op, noise


def cmd_alpha_curve(cfg: dict) -> str:
    """Optimal-denoiser shrinkage alpha versus eps, per noise level.

    noise_levels are combined scales sigma_z*sqrt(d/n); only sigma_c and
    those levels enter the alpha formula.
    """
    sigma_c = cfg["sigma_c"]
    rows = []
    for level in cfg["noise_levels"]:
        for eps in cfg["eps_grid"]:
            alpha = optimal_robust_alpha(sigma_c, level, 1, 1, eps)
            rows.append(
                f"{_g(level)},{_g(eps)},{_g(eps**2 / sigma_c**2)},{_g(alpha)}\n"
            )
    return _emit("alpha-curve", cfg, "noise_level,eps,eps_sq_rel,alpha", rows, cfg["out"])


def _train_config(cfg: dict, objective: str, seed: int, **kwargs) -> TrainConfig:
    return TrainConfig(
        objective=objective,
        optimizer=cfg["optimizer"],
        lr=cfg["lr"],
        batch_size=cfg["batch_size"],
        n_iterations=cfg["n_iterations"],
        attack_steps=cfg["attack_steps"],
        seed=seed,
        **kwargs,
    )


def cmd_equivalence(cfg: dict) -> str:
    """Robust risks of standard / adversarial / jittering trained denoisers.

    One standard model serves every eps; adversarial and jittering models
    are trained per eps (the jitter level is the closed-form sigma_w(eps)).
    One evaluation set is drawn before any training and every estimator is
    certified on it, and the closed-form optimal risk is emitted as a
    fourth method.  The 2k + 1 runs train and certify in parallel, one
    forked worker per available CPU, each training its share in lockstep
    stacks.  Risk columns are per-coordinate.
    """
    if cfg["operator"] != "identity":
        raise ConfigError("equivalence runs the denoising setup: operator=identity")
    model, op, noise = _build_setup(cfg)
    n = model.n
    sigma_c, sigma_z, d = model.sigma_c, noise.sigma_z, model.d
    eps_grid = [float(eps) for eps in cfg["eps_grid"]]

    # Standard first, then every adversarial run, then every jittering run.
    jobs = [(_train_config(cfg, "standard", _sub_seed(cfg["seed"], 1)), eps_grid)]
    jobs += [
        (_train_config(cfg, "adversarial", _sub_seed(cfg["seed"], 2 + 2 * j), eps=eps), eps)
        for j, eps in enumerate(eps_grid)
    ]
    jobs += [
        (_train_config(cfg, "jittering", _sub_seed(cfg["seed"], 3 + 2 * j),
                       sigma_w=jitter_level_for_eps(sigma_c, sigma_z, d, n, eps)), eps)
        for j, eps in enumerate(eps_grid)
    ]
    x, y, _ = draw_sample_arrays(model, op, noise, cfg["eval_samples"], _sub_seed(cfg["seed"], 0))
    reports = _train_map(
        model, op, [noise] * len(jobs), [config for config, _ in jobs],
        lambda i, run: certify(run().estimator, x, y, jobs[i][1]),
    )
    std, adv, jit = reports[0], reports[1:len(eps_grid) + 1], reports[len(eps_grid) + 1:]
    rows = []
    for j, eps in enumerate(eps_grid):
        for method, cells in (
            ("standard", _risk_cells(std, j, n)),
            ("adversarial", _risk_cells(adv[j], 0, n)),
            ("jittering", _risk_cells(jit[j], 0, n)),
        ):
            rows.append(f"{method},{_g(eps)},{_g(eps**2 / sigma_c**2)},{cells}\n")
        alpha_star = optimal_robust_alpha(sigma_c, sigma_z, d, model.n, eps)
        opt = (eps * alpha_star + np.sqrt(
            standard_risk_closed_form(alpha_star, sigma_c, sigma_z, d, model.n)
        )) ** 2
        rows.append(
            f"optimal,{_g(eps)},{_g(eps**2 / sigma_c**2)},"
            f"{_g(opt / n)},{_g(opt / n)},{_g(opt / n)}\n"
        )
    columns = "method,eps,eps_sq_rel,risk,ci_low,ci_high"
    return _emit("equivalence", cfg, columns, rows, cfg["out"])


def cmd_gap(cfg: dict) -> str:
    """Standard vs best-jittering vs conjectured estimators, general operator.

    The jitter level is optimized per eps by best_jitter_level_analytic,
    at the root of the derivative of the analytic mode-form risk; where
    that risk only falls toward the zero estimator, sigma_w* is inf and
    the `jittering-best` row certifies H = 0.  One evaluation set is drawn
    for the whole run, then each eps builds its two estimators and
    certifies all three on that set at its own eps, in parallel, one
    forked worker per available CPU.  Risk columns are per-coordinate.
    """
    if cfg["operator"] not in ("linear-decay", "geometric"):
        raise ConfigError("gap needs operator=linear-decay or geometric")
    model, op, noise = _build_setup(cfg)
    n = model.n
    x, y, _ = draw_sample_arrays(model, op, noise, cfg["eval_samples"], _sub_seed(cfg["seed"], 0))
    std = mmse_estimator(model, op, noise)

    def certify_at(eps: float) -> list[str]:
        cells = [_risk_cells(certify(std, x, y, eps), 0, n)]
        if eps == 0.0:
            return cells * 3  # all three estimators are the standard one at eps = 0
        sw_star, _ = best_jitter_level_analytic(model, op, noise, eps)
        jit = optimal_jittering_estimator(model, op, noise, sw_star)
        conj, _ = conjectured_robust_estimator(model, op, noise, eps)
        return cells + [_risk_cells(certify(est, x, y, eps), 0, n) for est in (jit, conj)]

    eps_grid = [float(eps) for eps in cfg["eps_grid"]]
    rows = []
    for eps, cells in zip(eps_grid, _fork_map(certify_at, eps_grid)):
        for method, cell in zip(("standard", "jittering-best", "conjectured"), cells):
            rows.append(f"{method},{_g(eps)},{_g(eps**2 / model.sigma_c**2)},{cell}\n")
    return _emit("gap", cfg, "method,eps,eps_sq_rel,risk,ci_low,ci_high", rows, cfg["out"])


def cmd_large_eps(cfg: dict) -> str:
    """Adversarially trained denoisers across the eps^2 ~ sigma_c^2 transition.

    noise_levels are sigma_z/sqrt(n) values.  The model and operator are
    built once; every (level, eps) run trains under its level's noise
    model, all of them in one map over one forked worker per available CPU,
    so each worker gets a like share of every level.  Each level has one
    evaluation set, which a process draws when it first certifies a run of
    that level, dropping the set of the level before: processes finish
    their runs in item order, level by level, so each holds one set at a
    time and draws each at most once.  Emits per-coordinate risk and the
    trained Frobenius norm; past the transition the estimator collapses
    toward zero and the risk plateaus at sigma_c^2/n per coordinate.
    """
    if cfg["operator"] != "identity":
        raise ConfigError("large-eps runs the denoising setup: operator=identity")
    sigma_c = cfg["sigma_c"]
    if not sigma_c > 0:  # eps = sqrt(eps_sq_rel) * sigma_c would all be 0
        raise InvalidParameterError(f"need sigma_c > 0, got {sigma_c}")
    model, op, _ = _build_setup(dict(cfg, sigma_z=0.0))  # each level sets its own sigma_z
    levels = cfg["noise_levels"]
    noises = [NoiseModel(m=cfg["m"], sigma_z=float(level * np.sqrt(cfg["n"]))) for level in levels]
    jobs = []  # (level index, eps_sq_rel, eps, config), level by level
    for li in range(len(levels)):
        for j, rel in enumerate(cfg["eps_sq_rel_grid"]):
            eps = float(np.sqrt(rel) * sigma_c)
            seed = _sub_seed(cfg["seed"], 200 + 10 * li + j)
            jobs.append((li, rel, eps, _train_config(cfg, "adversarial", seed, eps=eps)))
    held: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # this process's one evaluation set

    def certify_run(i: int, run) -> tuple[RiskReport, float]:
        li, _, eps, _ = jobs[i]
        est = run().estimator
        if li not in held:
            held.clear()  # free the last level's set before this level draws
            x, y, _ = draw_sample_arrays(
                model, op, noises[li], cfg["eval_samples"], _sub_seed(cfg["seed"], 100 + li)
            )
            held[li] = (x, y)
        return certify(est, *held[li], eps), est.frobenius_norm()

    results = _train_map(
        model, op, [noises[li] for li, *_ in jobs], [config for *_, config in jobs], certify_run
    )
    rows = []
    for (li, rel, eps, _), (report, h_frob) in zip(jobs, results):
        cells = _risk_cells(report, 0, model.n)
        rows.append(f"{_g(levels[li])},{_g(eps)},{_g(rel)},{cells},{_g(h_frob)}\n")
    columns = "noise_level,eps,eps_sq_rel,risk,ci_low,ci_high,h_frob"
    return _emit("large-eps", cfg, columns, rows, cfg["out"])


def _auto_sigma_w_grid(theory: list[float]) -> tuple[float, ...]:
    # Cover the closed-form levels for the requested eps grid with headroom.
    top = 1.4 * max(theory) if max(theory) > 0 else 0.1
    return tuple(np.linspace(0.0, top, 8))


def cmd_sweep(cfg: dict) -> str:
    """Jitter-level sweep: risk matrix plus argmin-vs-theory companion CSV.

    Writes the (sigma_w, eps) matrix to `out` and the per-eps argmin
    together with the closed-form sigma_w(eps) to `<out stem>_argmin.csv`.
    """
    if cfg["operator"] != "identity":
        raise ConfigError("sweep runs the denoising setup: operator=identity")
    model, op, noise = _build_setup(cfg)
    # Before any training: an eps grid without closed-form levels fails here.
    theory = [
        jitter_level_for_eps(model.sigma_c, noise.sigma_z, model.d, model.n, float(eps))
        for eps in cfg["eps_grid"]
    ]
    sigma_w_grid = cfg["sigma_w_grid"] or _auto_sigma_w_grid(theory)
    base = _train_config(cfg, "jittering", 0)
    result = sweep_jitter_levels(
        model, op, noise,
        np.asarray(cfg["eps_grid"]), np.asarray(sigma_w_grid),
        cfg["eval_samples"], cfg["seed"], base_config=base,
    )
    rows = []
    for i, sw in enumerate(result.sigma_w_grid):
        for j, eps in enumerate(result.eps_grid):
            rows.append(
                f"{_g(sw)},{_g(eps)},{_g(result.risks[i, j])},"
                f"{_g(result.ci_low[i, j])},{_g(result.ci_high[i, j])}\n"
            )
    argmin_rows = [
        f"{_g(eps)},{_g(sw_star)},{_g(sw_theory)}\n"
        for eps, sw_star, sw_theory in zip(result.eps_grid, result.argmin_sigma_w, theory)
    ]
    text = _emit("sweep", cfg, "sigma_w,eps,risk,ci_low,ci_high", rows, cfg["out"])
    stem, ext = os.path.splitext(cfg["out"])
    argmin_path = f"{stem}_argmin{ext or '.csv'}" if cfg["out"] else ""
    _emit("sweep", cfg, "eps,sigma_w_star,sigma_w_theory", argmin_rows, argmin_path)
    return text


COMMAND_FUNCS = {
    "alpha-curve": cmd_alpha_curve,
    "equivalence": cmd_equivalence,
    "gap": cmd_gap,
    "large-eps": cmd_large_eps,
    "sweep": cmd_sweep,
}
