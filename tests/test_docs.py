"""Documentation anti-rot checks.

Docs reference modules, schemes, env vars and files; these tests verify the
referenced things exist so the docs cannot silently drift from the code.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro.experiments.figures import CLAIMS, FULL, read_summaries, required
from repro.experiments.report import render_experiments

REPO = Path(__file__).resolve().parent.parent

DOCS = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "EXPERIMENTS.md",
    REPO / "docs" / "API.md",
    REPO / "docs" / "INTERNALS.md",
    REPO / "CONTRIBUTING.md",
    REPO / "CHANGELOG.md",
]


class TestDocsExist:
    @pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
    def test_doc_present_and_nonempty(self, path):
        assert path.exists(), path
        assert len(path.read_text()) > 500

    def test_design_declares_paper_identity_check(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "Paper identity check" in text
        assert "10.1145/3225058.3225112" in text


class TestModuleReferences:
    def _module_refs(self, text):
        # `repro.foo.bar` style references in backticks or prose
        return set(re.findall(r"\brepro(?:\.[a-z_]+)+", text))

    @pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
    def test_referenced_modules_import(self, path):
        text = path.read_text()
        for ref in self._module_refs(text):
            # trim trailing attribute names until something imports
            parts = ref.split(".")
            imported = False
            for k in range(len(parts), 0, -1):
                try:
                    importlib.import_module(".".join(parts[:k]))
                    imported = True
                    break
                except ImportError:
                    continue
            assert imported, f"{path.name} references unimportable {ref}"

    def test_readme_scheme_names_registered(self):
        from repro.core.schemes import SCHEMES

        text = (REPO / "README.md").read_text()
        for name in ("base", "base-hit", "mmd", "camps", "camps-mod", "camps-fdp"):
            assert name in text
            assert name in SCHEMES

    def test_file_references_exist(self):
        """Paths mentioned in DESIGN.md's experiment index must exist."""
        text = (REPO / "DESIGN.md").read_text()
        for ref in re.findall(r"`(benchmarks/[a-z0-9_]+\.py)`", text):
            assert (REPO / ref).exists(), ref
        for ref in re.findall(r"`(repro/[a-z_/]+\.py)`", text):
            assert (REPO / "src" / ref).exists(), ref

    def test_examples_referenced_in_readme_exist(self):
        text = (REPO / "README.md").read_text()
        for ref in re.findall(r"(examples/[a-z_]+\.py)", text):
            assert (REPO / ref).exists(), ref

    def test_env_vars_documented_and_used(self):
        readme = (REPO / "README.md").read_text()
        runner = (REPO / "src/repro/experiments/runner.py").read_text()
        for var in ("REPRO_REFS", "REPRO_SEED", "REPRO_CACHE"):
            assert var in readme
            assert var in runner
        assert "REPRO_MIXES" in readme
        assert "REPRO_MIXES" in (REPO / "benchmarks/conftest.py").read_text()


class TestClaims:
    """The claims table against the committed benchmark CSVs: EXPERIMENTS.md
    shows its render, and every claim up to full scale holds there."""

    RESULTS = REPO / "benchmarks" / "results"
    BLOCK = re.compile(r"<!-- claims ([\w ]+) -->\n.*?<!-- /claims -->", re.S)

    def test_experiments_blocks_match_their_render(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        summaries = read_summaries(self.RESULTS)
        shown = {k for keys in self.BLOCK.findall(text) for k in keys.split()}
        assert shown == set(summaries)  # a block for every committed CSV
        rendered = render_experiments(text, summaries)
        drifted = [m.group(0) for m in self.BLOCK.finditer(rendered) if m.group(0) not in text]
        assert not drifted, (
            "EXPERIMENTS.md claims blocks drifted from the committed CSVs; "
            "regenerate with `PYTHONPATH=src python -m repro.experiments`. "
            "Expected:\n" + "\n\n".join(drifted)
        )

    def test_full_scale_claims_hold_on_committed_results(self):
        summaries = read_summaries(self.RESULTS)
        # every claim without a committed CSV is an ablation, checked at tier-1
        assert {c.figure for c in CLAIMS} - set(summaries) == {"ct_size", "rut_threshold"}
        broken = [c.verdict(summaries) for c in required(FULL, summaries) if not c.holds(summaries)]
        assert not broken, "\n".join(broken)
