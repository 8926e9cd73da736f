"""Documentation integrity: the docs-link checker passes on the repo.

The same check runs in the CI lint lane
(``python tools/check_doc_links.py``); this wrapper keeps it in tier-1
so a broken relative link fails locally before CI.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", REPO_ROOT / "tools" / "check_doc_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_doc_links", module)
    spec.loader.exec_module(module)
    return module


class TestDocLinks:
    def test_readme_and_docs_links_resolve(self):
        checker = _load_checker()
        files = checker.iter_doc_files(REPO_ROOT)
        assert any(path.name == "README.md" for path in files)
        problems = {
            path.name: checker.broken_links(path, REPO_ROOT) for path in files
        }
        assert all(not broken for broken in problems.values()), problems

    def test_required_docs_exist(self):
        for name in ("architecture.md", "multi-objective.md",
                     "native-kernel.md", "serve.md"):
            assert (REPO_ROOT / "docs" / name).is_file(), name

    def test_checker_flags_broken_link(self, tmp_path):
        checker = _load_checker()
        (tmp_path / "docs").mkdir()
        page = tmp_path / "README.md"
        page.write_text(
            "[ok](docs/real.md) [bad](docs/missing.md) "
            "[ext](https://example.com) [anchor](#x)\n"
        )
        (tmp_path / "docs" / "real.md").write_text("hi\n")
        broken = checker.broken_links(page, tmp_path)
        assert [target for _, target in broken] == ["docs/missing.md"]

    def test_every_example_has_module_docstring(self):
        import ast

        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert examples
        for path in examples:
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
