import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_attack_geometry_demo_pgd_rows_stay_under_the_dual(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "demos" / "attack_geometry.py")],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    with open(tmp_path / "attack_geometry.csv", encoding="utf-8") as fh:
        rows = {row["method"]: float(row["value"]) for row in csv.DictReader(fh)}
    dual = rows["exact-dual"]
    pgd = {tag: val for tag, val in rows.items() if tag.startswith("pgd-")}
    assert len(pgd) == 3
    assert all(val <= dual * (1 + 1e-12) for val in pgd.values())
    assert pgd["pgd-10x500"] >= 0.999 * dual
