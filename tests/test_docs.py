"""The documentation is part of the contract: links resolve, examples run.

Four layers:

* **Link check** (fast, tier-1): every markdown link in ``docs/*.md``
  and ``README.md`` must resolve — relative paths to real files,
  ``#fragments`` to real headings. External ``http(s)`` links and
  GitHub-side paths (the CI badge) are skipped; no network.
* **CI path check** (fast, tier-1): every ``benchmarks/…``,
  ``tests/…`` and ``docs/…`` path a step of
  ``.github/workflows/ci.yml`` names must exist — nobody runs Actions
  before a merge, and a step pointing at a deleted script fails late.
* **Example smoke** (slow-marked; the CI ``docs`` job runs with
  ``-m ''``): every fenced ````bash```` / ````python```` block in
  ``docs/*.md`` executes against the real package, blocks of one file
  sharing a scratch working directory in document order.  Transcripts
  and illustrations use ````console```` / ````text```` / ````json````
  fences, which are never executed — so a ````bash```` fence *is* the
  claim "this runs".
* **Example scripts** (slow-marked, same CI job): every
  ``examples/*.py`` runs as a subprocess, with a small key count where
  it takes one, and exits 0.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*$")


def _strip_fences(text: str) -> str:
    """Markdown with fenced code bodies removed (links in code aren't links)."""
    out, in_fence = [], False
    for line in text.splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def _slugify(heading: str) -> str:
    """GitHub-style anchor: lowercase, drop punctuation, spaces to dashes."""
    heading = re.sub(r"[`*_]", "", heading)
    heading = re.sub(r"[^\w\s-]", "", heading.lower())
    return re.sub(r"\s+", "-", heading.strip())


def _anchors(path: Path) -> set[str]:
    return {
        _slugify(m.group(2))
        for m in map(_HEADING_RE.match, _strip_fences(path.read_text()).splitlines())
        if m
    }


def _fenced_blocks(path: Path) -> list[tuple[str, str]]:
    """(language, body) for every fenced block, in document order."""
    blocks, lang, body = [], None, []
    for line in path.read_text().splitlines():
        fence = _FENCE_RE.match(line)
        if fence and lang is None:
            lang, body = fence.group(1).lower(), []
        elif fence:
            blocks.append((lang, "\n".join(body) + "\n"))
            lang = None
        elif lang is not None:
            body.append(line)
    return blocks


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_links_resolve(doc):
    text = _strip_fences(doc.read_text())
    problems = []
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if "/actions/" in target:  # GitHub-side path (CI badge)
            continue
        path_part, _, fragment = target.partition("#")
        dest = (doc.parent / path_part).resolve() if path_part else doc
        if path_part and not dest.exists():
            problems.append(f"{target}: no such file {dest}")
            continue
        if fragment and dest.suffix == ".md" and fragment not in _anchors(dest):
            problems.append(f"{target}: no heading anchors to #{fragment}")
    assert not problems, f"{doc.name}: " + "; ".join(problems)


def test_every_doc_is_linked_from_readme():
    readme = _strip_fences((REPO_ROOT / "README.md").read_text())
    for doc in (REPO_ROOT / "docs").glob("*.md"):
        assert f"docs/{doc.name}" in readme, f"README does not link {doc.name}"


def test_ci_steps_name_existing_paths():
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    steps = "\n".join(
        line for line in workflow.splitlines() if not line.lstrip().startswith("#")
    )
    named = set(re.findall(r"(?<![\w/.-])(?:benchmarks|tests|docs)/[\w./-]+", steps))
    assert named, "no repo path found in ci.yml: the pattern has rotted"
    missing = sorted(path for path in named if not (REPO_ROOT / path).exists())
    assert not missing, f"ci.yml names paths that do not exist: {missing}"


@pytest.mark.slow
@pytest.mark.parametrize(
    "doc", sorted((REPO_ROOT / "docs").glob("*.md")), ids=lambda p: p.name
)
def test_examples_run(doc, tmp_path):
    """Each doc's bash/python blocks execute cleanly, sharing a cwd."""
    blocks = [b for b in _fenced_blocks(doc) if b[0] in ("bash", "python")]
    if not blocks:
        pytest.skip(f"{doc.name} has no executable examples")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PATH"] = str(Path(sys.executable).parent) + os.pathsep + env["PATH"]
    for i, (lang, body) in enumerate(blocks):
        if lang == "bash":
            argv = ["bash", "-euo", "pipefail", "-c", body]
        else:
            argv = [sys.executable, "-c", body]
        proc = subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=600,
        )
        assert proc.returncode == 0, (
            f"{doc.name} block {i + 1} ({lang}) exited "
            f"{proc.returncode}:\n{body}\n--- stdout ---\n{proc.stdout}"
            f"\n--- stderr ---\n{proc.stderr}"
        )


#: Command-line arguments of the examples that take any: a small key
#: count, so the smoke runs each script's full path in seconds.
EXAMPLE_ARGS = {
    "csv_on_hard_dataset.py": ["2000"],
    "index_comparison.py": ["genome", "2000"],
    "readwrite_resilience.py": ["2000"],
}


@pytest.mark.slow
@pytest.mark.parametrize(
    "script", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda p: p.name
)
def test_example_scripts_run(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(script), *EXAMPLE_ARGS.get(script.name, [])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, (
        f"{script.name} exited {proc.returncode}:\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}"
    )
