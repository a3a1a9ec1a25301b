"""tools/compare_runs.py: silent on one tree, and a changed closed formula
read as a status and exit-code change."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def compare_table(old: Path, new: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(ROOT / "tools" / "compare_runs.py"), str(old), str(new),
            "--seeds", "0", "--runs", '[["table"]]']
    return subprocess.run(argv, capture_output=True, text=True)


def test_compare_runs_is_silent_on_one_tree_and_reports_a_changed_formula(tmp_path):
    same = compare_table(SRC, SRC)
    assert (same.returncode, same.stdout, same.stderr) == (0, "", "")
    shutil.copytree(SRC / "nullcone", tmp_path / "nullcone",
                    ignore=shutil.ignore_patterns("__pycache__"))
    pairs = tmp_path / "nullcone" / "pairs.py"
    text = pairs.read_text()
    # the complex family's closed dim m, one entry of formula_dims
    assert text.count("        dim_m = n * n - 1\n") == 1
    pairs.write_text(text.replace("        dim_m = n * n - 1\n", "        dim_m = n * n\n"))
    changed = compare_table(SRC, tmp_path)
    assert changed.returncode == 1
    lines = changed.stdout.splitlines()
    assert lines[0] == "--suite table --seed 0:"
    assert "  exit code: 0 -> 1" in lines
    assert "  status table_C21: pass -> fail" in lines
    assert "  table_all_rows_match: true -> false" in lines
