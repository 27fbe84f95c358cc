"""Meta tests: examples run, docs exist, CLI stays in sync with benches."""

from __future__ import annotations

import re
import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))
BENCHES = sorted((REPO / "benchmarks").glob("bench_*.py"))


class TestExamplesRun:
    """Every example must execute end-to-end (they are the quickstart)."""

    @pytest.mark.parametrize(
        "example", EXAMPLES, ids=lambda path: path.stem
    )
    def test_example_executes(self, example, capsys, monkeypatch):
        # Skip the slowest (paper-scale) example in the unit suite; it is
        # covered by its own fast sub-checks below.
        if example.stem == "paper_numbers":
            pytest.skip("exercised by test_paper_numbers_claims")
        monkeypatch.setattr(sys, "argv", [str(example)])
        runpy.run_path(str(example), run_name="__main__")
        out = capsys.readouterr().out
        assert out.strip(), f"{example.stem} produced no output"

    def test_paper_numbers_claims(self, capsys, monkeypatch):
        module = runpy.run_path(
            str(REPO / "examples" / "paper_numbers.py"),
            run_name="not_main",
        )
        module["claim_2_communication"]()
        out = capsys.readouterr().out
        assert "traffic per block" in out


class TestDocs:
    def test_docs_exist_and_are_substantive(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO / name
            assert path.exists(), name
            assert len(path.read_text(encoding="utf-8")) > 2000, name

    def test_design_lists_every_bench(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for bench in BENCHES:
            assert bench.name in design, f"{bench.name} missing in DESIGN.md"

    def test_experiments_covers_every_experiment_id(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for bench in BENCHES:
            exp_id = bench.stem.split("_")[1].upper()  # bench_e7_... -> E7
            assert f"## {exp_id} " in experiments or f"| {exp_id} |" in (
                experiments
            ), f"{exp_id} missing in EXPERIMENTS.md"


    def test_backticked_python_paths_resolve(self):
        """Every backticked ``*.py`` path in the docs names a real file.

        Paths may be relative to ``src/repro``, ``examples``,
        ``benchmarks``, ``tests`` or the repo root; glob patterns such
        as ``bench_e*.py`` are not paths and are skipped.
        """
        docs = [
            REPO / "README.md",
            REPO / "DESIGN.md",
            REPO / "EXPERIMENTS.md",
            *sorted((REPO / "docs").glob("*.md")),
        ]
        roots = [
            REPO / "src" / "repro",
            REPO / "examples",
            REPO / "benchmarks",
            REPO / "tests",
            REPO,
        ]
        checked = 0
        missing = []
        for doc in docs:
            text = doc.read_text(encoding="utf-8")
            for span in re.findall(r"`([^`\n]+)`", text):
                for token in re.split(r"\s|::", span):
                    if not token.endswith(".py") or any(
                        char in token for char in "*{}<>"
                    ):
                        continue
                    checked += 1
                    if not any((root / token).exists() for root in roots):
                        missing.append(f"{doc.name}: {token}")
        assert checked > 0
        assert not missing, missing


class TestCliSync:
    def test_cli_experiments_match_bench_files(self):
        from repro.cli import _EXPERIMENTS

        listed = {bench for _, _, bench in _EXPERIMENTS}
        on_disk = {bench.name for bench in BENCHES}
        assert listed == on_disk

    def test_cli_ids_match_filenames(self):
        from repro.cli import _EXPERIMENTS

        for exp_id, _desc, bench in _EXPERIMENTS:
            assert bench.startswith(f"bench_{exp_id.lower()}_")
