"""EXPERIMENTS.md's paper tables are a rendering of BENCH_paper.json.

Reads only the two committed files: a table edited by hand, or a
``BENCH_paper.json`` regenerated without re-rendering, fails here.
Regenerating the numbers themselves is CI's ``perf-regression`` job.
"""

import json
import os

import pytest

from repro.bench.__main__ import main
from repro.bench.baseline import PAPER_TABLES, SUITES, render_experiments

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def _read(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return fh.read()


def test_paper_suite_is_the_nine_tables():
    names = [name for name, _, _ in SUITES["paper"]]
    assert names == list(PAPER_TABLES)
    assert len(names) == 9


def test_experiments_md_equals_its_rendering():
    text = _read("EXPERIMENTS.md")
    assert render_experiments(text, json.loads(_read("BENCH_paper.json"))) == text


def test_render_rewrites_a_stale_table(tmp_path):
    text = _read("EXPERIMENTS.md")
    stale = text.replace("| Q3 | 2.73 |", "| Q3 | 9.99 |")
    assert stale != text
    md = tmp_path / "EXPERIMENTS.md"
    md.write_text(stale, encoding="utf-8")
    (tmp_path / "BENCH_paper.json").write_text(_read("BENCH_paper.json"))
    argv = ["--render-experiments", str(md), "--baseline-dir", str(tmp_path)]
    assert main(argv) == 0
    assert md.read_text(encoding="utf-8") == text


def test_render_refuses_a_missing_table(tmp_path, capsys):
    text = _read("EXPERIMENTS.md").replace("<!-- BENCH_paper.json fig12 -->\n", "")
    md = tmp_path / "EXPERIMENTS.md"
    md.write_text(text, encoding="utf-8")
    (tmp_path / "BENCH_paper.json").write_text(_read("BENCH_paper.json"))
    argv = ["--render-experiments", str(md), "--baseline-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "fig12" in capsys.readouterr().err
    assert md.read_text(encoding="utf-8") == text
    with pytest.raises(ValueError, match="fig12"):
        render_experiments(text, json.loads(_read("BENCH_paper.json")))
