"""``tools/ladder.py`` at its smallest rung, so that the script cannot rot."""

import importlib.util
import json
import random
import time
from pathlib import Path

from algcheck.axioms import check_n_jacobi
from algcheck.tensor import StructureTensor

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_runs_gl3_in_under_a_second(capsys):
    ladder = load_ladder()
    start = time.perf_counter()
    ladder.main(max_n=3, repeat=1)
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert elapsed < 1.0
    (row,) = doc["gl_f_bracket"]
    assert (row["n"], row["d"], row["stored"]) == (3, 9, 45)
    for name in ("build", "cyclic", "jacobi", "rb", "perturbed", "derived"):
        assert row[f"{name}_ms"] > 0 and row[f"{name}_peak_kib"] > 0
    prelie = doc["prelie_qt3_deg4_xD1y"]
    assert (prelie["d"], prelie["stored"]) == (20, 28)
    assert doc["verdicts"] == "as the theorems fix them"


def test_the_direct_evaluation_tells_the_perturbed_bracket_apart():
    ladder = load_ladder()
    lie = StructureTensor(2, 9, "skew", ladder.inputs.gl_bracket(3))
    fb = ladder.f_bracket(lie, ladder.LinearForm(ladder.inputs.trace_form(3)))
    broken = StructureTensor(3, 9, "skew", ladder.inputs.perturb(
        fb.entries, 9, random.Random(3)))
    at = check_n_jacobi(broken).counterexample.indices
    assert ladder.fails_jacobi_at(broken, at)
    assert not ladder.fails_jacobi_at(fb, at)
