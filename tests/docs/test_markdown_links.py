"""The documentation front door stays navigable: links resolve, docs exist."""

import pathlib
import re
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_markdown_links import broken_links, markdown_files  # noqa: E402


def test_repo_has_a_front_door():
    assert (REPO_ROOT / "README.md").is_file()
    assert (REPO_ROOT / "docs" / "collaboration.md").is_file()
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "performance.md").is_file()


def test_readme_covers_the_quickstart():
    text = (REPO_ROOT / "README.md").read_text()
    for expected in ("make test", "make bench", "fig6", "fig_collab", "docs/"):
        assert expected in text, f"README quickstart is missing {expected!r}"


def test_architecture_links_collaboration():
    text = (REPO_ROOT / "docs" / "architecture.md").read_text()
    assert "collaboration.md" in text


@pytest.mark.parametrize(
    "path",
    markdown_files(REPO_ROOT),
    ids=lambda path: str(path.relative_to(REPO_ROOT)),
)
def test_intra_repo_markdown_links_resolve(path):
    failures = broken_links(path)
    assert not failures, f"broken links in {path}: {failures}"


def test_checker_flags_broken_links(tmp_path, monkeypatch):
    """The checker itself must catch a dangling link (guards the guard)."""
    import check_markdown_links

    document = tmp_path / "doc.md"
    document.write_text("see [missing](does-not-exist.md) and "
                        "[ok](doc.md) and [web](https://example.com)")
    monkeypatch.setattr(check_markdown_links, "REPO_ROOT", tmp_path)
    failures = check_markdown_links.broken_links(document)
    assert [target for target, _ in failures] == ["does-not-exist.md"]


def cited_markdown(root: pathlib.Path) -> list[tuple[str, str]]:
    """``(file:line, name)`` of every ``*.md`` name cited under ``src/`` and
    ``benchmarks/``."""
    cited = []
    for directory in ("src", "benchmarks"):
        for path in sorted((root / directory).rglob("*")):
            if not path.is_file() or path.suffix not in (".py", ".json", ".md"):
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                for name in re.findall(r"[\w./-]*\w\.md\b", line):
                    cited.append((f"{path.relative_to(root)}:{number}", name))
    return cited


def test_markdown_names_cited_in_code_resolve():
    """A citation resolves from the repo root or from docs/."""
    cited = cited_markdown(REPO_ROOT)
    assert "docs/collaboration.md" in {name for _, name in cited}
    assert [(where, name) for where, name in cited
            if not (REPO_ROOT / name).is_file()
            and not (REPO_ROOT / "docs" / name).is_file()] == []
