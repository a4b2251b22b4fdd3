"""``tools/codelines.py`` on a fixture with every kind of line it skips."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "tests" / "data" / "codelines_sample.py"


def load_codelines():
    spec = importlib.util.spec_from_file_location(
        "codelines", ROOT / "tools" / "codelines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_sample_counts_only_its_code_lines():
    # import, class, both lines of the non-docstring string, def, return,
    # the two lines of each of the function's signature and return
    assert load_codelines().code_lines(SAMPLE.read_text()) == 10


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    for name in ("b.py", "a.py"):
        (tmp_path / "pkg" / name).write_text(SAMPLE.read_text())
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert load_codelines().main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["10", str(tmp_path / "pkg" / "a.py")],
        ["10", str(tmp_path / "pkg" / "b.py")],
        ["20", "total"]]
