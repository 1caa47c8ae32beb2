import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
], ids=["negative-seed", "zero-sigma-c", "large-eps-zero-sigma-c", "equivalence-one-sample",
        "large-eps-one-sample", "sweep-no-sample", "gap-one-sample"])
def test_bad_value_fails_with_one_json_line_and_writes_nothing(tmp_path, capfd, args, error):
    # capfd, not capsys: gap's forked workers write to the file descriptor.
    # The case's flag comes last, so that it overrides the small sizes.
    out = tmp_path / "x.csv"
    small = ["--n", "8", "--d", "2", "--eval-samples", "10", "--n-iterations", "5"]
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
    real = jitterlab.model.draw_latents

    def counting(model, noise, count, seed):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {noise.sigma_z!r} {seed}\n")
        return real(model, noise, count, seed)

    monkeypatch.setattr(jitterlab.model, "draw_latents", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = resolve_config(
        command, {"n": "12", "d": "4", "n_iterations": "2", "eval_samples": "20"}
    )
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
        assert main([
            command, "--out", str(out), "--n", "12", "--d", "4",
            "--n-iterations", "40", "--eval-samples", "50",
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


def test_m_follows_n_unless_explicit():
    cfg = resolve_config("equivalence", {"n": "30"})
    assert cfg["m"] == 30
    cfg = resolve_config("equivalence", {"n": "30", "m": "40"})
    assert cfg["m"] == 40
    assert COMMAND_DEFAULTS["equivalence"]["m"] == 100
