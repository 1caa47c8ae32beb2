import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name, cwd):
    """Run demos/<name>.py in cwd (it must exit 0); return the rows of the CSV it writes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=cwd, env=env, check=True, capture_output=True,
    )
    with open(cwd / f"{name}.csv", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_attack_geometry_demo_pgd_rows_stay_under_the_dual(tmp_path):
    rows = {row["method"]: float(row["value"]) for row in _run_demo("attack_geometry", tmp_path)}
    dual = rows["exact-dual"]
    pgd = {tag: val for tag, val in rows.items() if tag.startswith("pgd-")}
    assert len(pgd) == 3
    assert all(val <= dual * (1 + 1e-12) for val in pgd.values())
    assert pgd["pgd-10x500"] >= 0.999 * dual


def test_general_operator_gap_demo_orders_the_three_estimators(tmp_path):
    rows = _run_demo("general_operator_gap", tmp_path)
    assert len(rows) == 5
    for row in rows:
        conjectured, jitter, standard = (
            float(row[f"risk_{tag}"]) for tag in ("conjectured", "jitter", "standard")
        )
        assert conjectured <= jitter <= standard
