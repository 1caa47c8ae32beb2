import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import jitterlab.experiments
import jitterlab.model
import jitterlab.training
from jitterlab.cli import main
from jitterlab.errors import TrainingDivergenceError
from jitterlab.experiments import (
    COMMAND_DEFAULTS,
    COMMAND_FUNCS,
    canonical_config,
    config_hash,
    parse_config_file,
    resolve_config,
)

# A config file holding the byte 0xff, which no UTF-8 text contains.
NOT_UTF8 = os.path.join(os.path.dirname(__file__), "data", "not_utf8.cfg")


def _read_rows(path):
    lines = open(path).read().strip().splitlines()
    assert lines[0].startswith("# config sha256=")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return lines[0], header, rows


def test_alpha_curve_header_and_hash(tmp_path):
    out = str(tmp_path / "alpha.csv")
    assert main(["alpha-curve", "--out", out]) == 0
    comment, header, rows = _read_rows(out)
    assert header == ["noise_level", "eps", "eps_sq_rel", "alpha"]
    cfg = resolve_config("alpha-curve", {"out": out})
    assert config_hash(canonical_config("alpha-curve", cfg)) in comment
    assert len(rows) == 3 * 16


def test_alpha_curve_spot_values(tmp_path):
    out = str(tmp_path / "alpha.csv")
    main(["alpha-curve", "--out", out])
    _, _, rows = _read_rows(out)
    by_key = {(r["noise_level"], r["eps"]): float(r["alpha"]) for r in rows}
    assert by_key[("0", "0")] == 1.0
    assert abs(by_key[("0.4", "0")] - 1 / 1.16) < 1e-9
    assert abs(by_key[("1.2", "0")] - 1 / 2.44) < 1e-9
    # every noise level collapses to zero at eps = 1.2 >= sigma_c
    for level in ("0", "0.4", "1.2"):
        assert by_key[(level, "1.2")] == 0.0


def test_rerun_is_byte_identical(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    main(["alpha-curve", "--out", a])
    main(["alpha-curve", "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_config_file_plus_flag_override(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("sigma_c=2.0\n# a comment\nnoise_levels=0.5\n")
    out = str(tmp_path / "alpha.csv")
    assert main(["alpha-curve", "--config", str(cfg_path), "--out", out,
                 "--eps-grid", "0.0,0.1"]) == 0
    _, _, rows = _read_rows(out)
    assert len(rows) == 2
    assert rows[0]["noise_level"] == "0.5"
    # alpha(0) = sc^2/(sc^2+nu^2) = 4/4.25
    assert abs(float(rows[0]["alpha"]) - 4.0 / 4.25) < 1e-9


def test_bad_key_fails_with_json_error(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    code = main(["alpha-curve", "--out", out, "--sigma-c", "zebra"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "sigma_c" in payload["detail"]


@pytest.mark.parametrize("args", [
    ["alpha-curve", "--eps-grid", "nan"],
    ["sweep", "--eps-grid", ""],
    ["gap", "--eps-grid", ""],
    ["large-eps", "--noise-levels", ""],
    ["large-eps", "--eps-sq-rel-grid", "-1"],
    ["gap", "--eps-grid=-0.1,0.2"],
    ["equivalence", "--eps-grid", "0.2,-0.1"],
], ids=["non-finite", "empty-sweep-eps", "empty-gap-eps", "empty-noise-levels",
        "negative-eps-sq-rel", "negative-gap-eps", "negative-equivalence-eps"])
def test_bad_list_fails_with_json_error_and_writes_nothing(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert main(args + ["--out", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, error", [
    (["gap", "--seed", "-1"], "ConfigError"),
    (["gap", "--sigma-c", "0"], "InvalidParameterError"),
    (["large-eps", "--sigma-c", "0"], "InvalidParameterError"),
    (["equivalence", "--eval-samples", "1"], "InvalidParameterError"),
    (["large-eps", "--eval-samples", "1"], "InvalidParameterError"),
    (["sweep", "--eval-samples", "0"], "InvalidParameterError"),
    (["gap", "--eval-samples", "1"], "InvalidParameterError"),
    (["equivalence", "--operator", "bogus"], "ConfigError"),
    (["gap", "--operator", "bogus"], "ConfigError"),
    (["large-eps", "--operator", "bogus"], "ConfigError"),
    (["sweep", "--operator", "bogus"], "ConfigError"),
    (["alpha-curve", "--sigma-z", "0.9"], "ConfigError"),
    (["large-eps", "--sigma-z", "0.9"], "ConfigError"),
    (["alpha-curve", "--sigma-w-grid", "0.1"], "ConfigError"),
    (["alpha-curve", "--config", "/nonexistent-dir/run.cfg"], "ConfigError"),
    (["gap", "--config", str(NOT_UTF8)], "ConfigError"),
    (["gap", "--lr", "7"], "ConfigError"),
    (["alpha-curve", "--n", "7"], "ConfigError"),
    (["equivalence", "--ratio", "0.1"], "ConfigError"),
], ids=["negative-seed", "zero-sigma-c", "large-eps-zero-sigma-c", "equivalence-one-sample",
        "large-eps-one-sample", "sweep-no-sample", "gap-one-sample", "equivalence-bogus-operator",
        "gap-bogus-operator", "large-eps-bogus-operator", "sweep-bogus-operator",
        "alpha-curve-sigma-z", "large-eps-sigma-z", "alpha-curve-unused-key",
        "missing-config-file", "non-utf-8-config-file", "gap-training-key",
        "alpha-curve-size-key", "equivalence-ratio"])
def test_bad_value_fails_with_one_json_line_and_writes_nothing(tmp_path, capfd, args, error):
    # capfd, not capsys: gap's forked workers write to the file descriptor.
    # The case's flag comes last, so that it overrides the small sizes.  A
    # command gets only the size flags it reads, so each case fails on its own.
    out = tmp_path / "x.csv"
    sizes = ["--n", "8", "--d", "2", "--eval-samples", "10", "--n-iterations", "5"]
    small = {"alpha-curve": [], "gap": sizes[:6]}.get(args[0], sizes)
    assert main(args[:1] + small + args[1:] + ["--out", str(out)]) == 1
    lines = capfd.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == error
    assert args[1][2:].replace("-", "_") in payload["detail"]
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("warp_factor=9\n")
    code = main(["alpha-curve", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "warp_factor" in payload["detail"]


def test_unwritable_output_fails_nonzero(tmp_path, capsys):
    code = main(["alpha-curve", "--out", "/nonexistent-dir/x.csv"])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] in ("OSError", "ConfigError")


def test_output_naming_a_directory_fails_and_leaves_no_temp_file(tmp_path, capsys):
    # The CSV is written to a temp file beside out, whose rename onto a
    # directory fails: one OSError line, and the temp file is removed.
    out = tmp_path / "x.csv"
    out.mkdir()
    assert main(["alpha-curve", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "OSError"
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


def test_outputs_honour_the_umask(tmp_path):
    # A CSV gets the mode a plain open() would give: 0o666 less the umask.
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o027, 0o640)):
            os.umask(umask)
            out = tmp_path / f"{umask:o}.csv"
            assert main(["alpha-curve", "--out", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == mode
    finally:
        os.umask(old)


def test_gap_rejects_identity_operator(tmp_path, capsys):
    code = main(["gap", "--out", str(tmp_path / "g.csv"), "--operator", "identity"])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"


def test_gap_small_run_ordering(tmp_path):
    out = str(tmp_path / "gap.csv")
    assert main([
        "gap", "--out", out, "--n", "24", "--d", "8",
        "--eval-samples", "400", "--eps-grid", "0.0,0.3",
    ]) == 0
    _, _, rows = _read_rows(out)
    risks = {(r["method"], r["eps"]): float(r["risk"]) for r in rows}
    assert risks[("conjectured", "0.3")] <= risks[("jittering-best", "0.3")] + 1e-12
    assert risks[("jittering-best", "0.3")] <= risks[("standard", "0.3")] + 1e-12
    # risk columns are per-coordinate: eps=0 standard risk is tiny but positive
    assert 0 < risks[("standard", "0")] < 1.0


def test_gap_best_jitter_beats_standard(tmp_path):
    # At sigma_z = 1 the best jitter level is far from 0, so the
    # jittering-best rows must not repeat the standard ones.
    out = str(tmp_path / "gap.csv")
    assert main([
        "gap", "--out", out, "--n", "20", "--d", "10", "--sigma-z", "1.0",
        "--eps-grid", "0.3,0.5",
    ]) == 0
    _, _, rows = _read_rows(out)
    risks = {(r["method"], r["eps"]): float(r["risk"]) for r in rows}
    for eps in ("0.3", "0.5"):
        assert risks[("jittering-best", eps)] < risks[("standard", eps)]


def test_sweep_small_run_writes_argmin_file(tmp_path):
    out = str(tmp_path / "sw.csv")
    assert main([
        "sweep", "--out", out, "--n", "12", "--d", "4",
        "--eval-samples", "100", "--n-iterations", "150",
        "--eps-grid", "0.0,0.2", "--sigma-w-grid", "0.0,0.2",
    ]) == 0
    _, header, rows = _read_rows(out)
    assert header == ["sigma_w", "eps", "risk", "ci_low", "ci_high"]
    assert len(rows) == 4
    comment, header2, rows2 = _read_rows(str(tmp_path / "sw_argmin.csv"))
    assert header2 == ["eps", "sigma_w_star", "sigma_w_theory"]
    assert rows2[0]["sigma_w_theory"] == "0"


@pytest.mark.parametrize("args, error", [
    (["--sigma-c", "0"], "InvalidParameterError"),
    (["--eps-grid", "1.5"], "OutOfRegimeError"),
], ids=["zero-sigma-c", "eps-past-sigma-c"])
def test_sweep_rejects_eps_without_a_theory_level_before_training(
    tmp_path, capfd, monkeypatch, args, error
):
    # With an explicit sigma_w grid, only the sigma_w_theory column needs
    # jitter_level_for_eps; it must fail before any grid point trains.
    def no_training(*_):
        raise AssertionError("sweep trained a grid point")

    monkeypatch.setattr(jitterlab.training, "_train_stack", no_training)
    out = tmp_path / "x.csv"
    assert main([
        "sweep", "--n", "12", "--d", "4", "--n-iterations", "2", "--eval-samples", "20",
        "--sigma-w-grid", "0,0.1", *args, "--out", str(out),
    ]) == 1
    lines = capfd.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gap", "equivalence", "large-eps", "sweep"])
def test_drivers_draw_the_evaluation_set_once(tmp_path, monkeypatch, command):
    # Every estimator and eps of a run is certified on one shared draw,
    # made before the map (sweep draws inside sweep_jitter_levels).
    # large-eps has one set per noise level, which each process draws when
    # it first certifies a run of that level: at most once per process.
    # Draws are logged to a file, as forked workers cannot append to this
    # process's lists.  Default grids, tiny sizes and budgets, two CPUs.
    log = tmp_path / "draws.log"
    real = jitterlab.model._latent_blocks  # opens the streams of every draw

    def counting(model, noise, count, seed):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {noise.sigma_z!r} {seed}\n")
        return real(model, noise, count, seed)

    monkeypatch.setattr(jitterlab.model, "_latent_blocks", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    sizes = {"n": "12", "d": "4", "n_iterations": "2", "eval_samples": "20"}
    if command == "gap":
        del sizes["n_iterations"]  # gap trains nothing
    cfg = resolve_config(command, sizes)
    COMMAND_FUNCS[command](cfg)
    draws = [tuple(line.split()) for line in log.read_text().splitlines()]
    if command == "large-eps":
        assert len(set(draws)) == len(draws)
        assert len({(sigma_z, seed) for _, sigma_z, seed in draws}) == len(cfg["noise_levels"])
        assert len({pid for pid, _, _ in draws}) == 2
    else:
        assert draws == [(str(os.getpid()),) + draws[0][1:]]


@pytest.mark.parametrize(
    "cpus", [{0}, {0, 1}, {0, 1, 2}], ids=["one-cpu", "two-cpus", "three-cpus"]
)
@pytest.mark.parametrize("command", ["equivalence", "large-eps", "sweep", "gap"])
def test_drivers_train_and_certify_only_in_workers(tmp_path, monkeypatch, command, cpus):
    # On several CPUs this process prepares the shared inputs, forks one
    # worker per CPU, joins them and writes the CSV: every training stack
    # and every certification runs in a worker, each worker gets a share.
    # On one CPU all of them run in this process.  Calls are logged to a
    # file, as forked workers cannot append to this process's lists.
    log = tmp_path / "calls.log"

    def logged(name, real):
        def call(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return real(*args, **kwargs)
        return call

    stack = jitterlab.training._train_stack
    monkeypatch.setattr(jitterlab.training, "_train_stack", logged("_train_stack", stack))
    for module in (jitterlab.experiments, jitterlab.training):  # sweep certifies in training
        monkeypatch.setattr(module, "certify", logged("certify", module.certify))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    out = tmp_path / "x.csv"
    sizes = {"n": "12", "d": "4", "n_iterations": "2", "eval_samples": "20", "out": str(out)}
    if command == "gap":
        del sizes["n_iterations"]  # gap trains nothing
    COMMAND_FUNCS[command](resolve_config(command, sizes))
    assert out.is_file()
    calls = [line.split() for line in log.read_text().splitlines()]
    assert {name for name, _ in calls} == (
        {"certify"} if command == "gap" else {"_train_stack", "certify"}
    )
    pids = {int(pid) for _, pid in calls}
    if len(cpus) == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids
        assert len(pids) == len(cpus)


@pytest.mark.parametrize(
    "cpus", [{0}, {0, 1}, {0, 1, 2}], ids=["one-cpu", "two-cpus", "three-cpus"]
)
def test_gap_certifies_its_standard_estimator_once_per_share(tmp_path, monkeypatch, cpus):
    # Each process of gap's map certifies the standard estimator in one call
    # over its share of the eps grid: one call per share, each radius in
    # exactly one call.  The standard estimator is gap's first _latent
    # result, made before the map.  Calls are logged to a file, as forked
    # workers cannot append to this process's lists.
    log = tmp_path / "certify.log"
    latents = []
    real_latent, real_certify = jitterlab.experiments._latent, jitterlab.experiments.certify

    def latent(est, model, op):
        latents.append(real_latent(est, model, op))
        return latents[-1]

    def certify(est, x, y, eps_grid):
        if est is latents[0]:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {np.atleast_1d(eps_grid).tolist()}\n")
        return real_certify(est, x, y, eps_grid)

    monkeypatch.setattr(jitterlab.experiments, "_latent", latent)
    monkeypatch.setattr(jitterlab.experiments, "certify", certify)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    cfg = resolve_config("gap", {"n": "12", "d": "4", "eval_samples": "20"})
    COMMAND_FUNCS["gap"](cfg)
    calls = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert len(calls) == len({pid for pid, _ in calls}) == len(cpus)
    radii = sorted(eps for _, grid in calls for eps in json.loads(grid))
    assert radii == sorted(cfg["eps_grid"])


@pytest.mark.parametrize(
    "cpus", [{0}, {0, 1}, {0, 1, 2}], ids=["one-cpu", "two-cpus", "three-cpus"]
)
def test_large_eps_raises_the_first_failing_run(tmp_path, monkeypatch, cpus):
    # All levels train in one map.  Two runs of the last level fail, in
    # different processes when there are several: the earlier in item order
    # (level by level, eps by eps) is raised, and no CSV is written.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    out = tmp_path / "x.csv"
    cfg = resolve_config("large-eps", {
        "n": "12", "d": "4", "n_iterations": "5", "eval_samples": "20", "out": str(out),
    })
    last = len(cfg["noise_levels"]) - 1
    failing = {jitterlab.model._sub_seed(cfg["seed"], 200 + 10 * last + j): j for j in (2, 5)}
    real = jitterlab.training._train_stack

    def failing_stack(model, op, noise, configs):
        runs = real(model, op, noise, configs)
        return [
            TrainingDivergenceError(f"eps index {failing[config.seed]}")
            if config.seed in failing else run
            for config, run in zip(configs, runs)
        ]

    monkeypatch.setattr(jitterlab.training, "_train_stack", failing_stack)
    with pytest.raises(TrainingDivergenceError, match="eps index 2$"):
        COMMAND_FUNCS["large-eps"](cfg)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["equivalence", "gap", "large-eps", "sweep"])
def test_drivers_write_the_same_bytes_on_one_or_two_cpus(tmp_path, monkeypatch, command):
    # The drivers fork one worker per available CPU; the output must not
    # depend on how many there are.  Three workers get stacks of unequal
    # sizes.  Default grids, tiny sizes and budgets.
    outputs = {}
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out = tmp_path / f"{len(cpus)}.csv"
        budget = [] if command == "gap" else ["--n-iterations", "40"]  # gap trains nothing
        assert main([
            command, "--out", str(out), "--n", "12", "--d", "4", *budget, "--eval-samples", "50",
        ]) == 0
        outputs[len(cpus)] = sorted(
            (path.name.replace(f"{len(cpus)}", "k"), path.read_bytes())
            for path in tmp_path.glob(f"{len(cpus)}*.csv")
        )
    assert outputs[1] == outputs[2] == outputs[3]
    assert len(outputs[1]) == (2 if command == "sweep" else 1)


def test_entry_point_subprocess(tmp_path):
    # the installed console script behaves like main(); the child imports
    # the same package as this process, installed or not
    out = str(tmp_path / "alpha.csv")
    package_root = os.path.dirname(os.path.dirname(jitterlab.model.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "jitterlab.cli", "alpha-curve", "--out", out],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert open(out).readline().startswith("# config sha256=")


def test_parse_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    from jitterlab.errors import ConfigError

    with pytest.raises(ConfigError):
        parse_config_file(str(bad))
    twice = tmp_path / "twice.cfg"
    twice.write_text("n=8\nd=2\nn=12\n")
    with pytest.raises(ConfigError, match="twice.cfg:3: 'n' already set on line 1$"):
        parse_config_file(str(twice))
    with pytest.raises(ConfigError, match="cannot read config file .*not_utf8.cfg"):
        parse_config_file(str(NOT_UTF8))


def test_m_follows_n_unless_explicit():
    cfg = resolve_config("equivalence", {"n": "30"})
    assert cfg["m"] == 30
    cfg = resolve_config("equivalence", {"n": "30", "m": "40"})
    assert cfg["m"] == 40
    assert COMMAND_DEFAULTS["equivalence"]["m"] == 100
