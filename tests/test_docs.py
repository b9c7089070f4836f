"""The documentation suite stays honest: links resolve, the executable
snippets run, and the public API is documented.

These mirror the CI docs job (``make docs-check``) inside tier-1 so a
broken link or a stale snippet (the README quickstart, the
``docs/clients.md`` worked example) fails locally too.  They also run
every ``examples/*.py`` script as-is, and enforce the docstring contract
on the ``repro.trace`` / ``repro.sim`` / ``repro.network`` public API —
every exported symbol must be usable through ``help()``.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_docs():
    return _load_check_docs()


def test_required_documents_exist():
    for relative in (
        "README.md",
        "docs/architecture.md",
        "docs/clients.md",
        "docs/events.md",
        "docs/faults.md",
        "docs/hierarchy.md",
        "docs/observability.md",
        "docs/performance.md",
        "docs/streaming.md",
        "docs/traces.md",
    ):
        assert (REPO_ROOT / relative).exists(), f"missing {relative}"


def test_markdown_links_resolve(check_docs):
    files = check_docs.iter_markdown_files()
    assert len(files) >= 5
    problems = check_docs.check_links(files)
    assert problems == []


def test_readme_quickstart_runs_as_is(check_docs):
    snippet = check_docs.extract_quickstart()
    assert snippet is not None, "README.md lost its ```python quickstart block"
    code, output = check_docs.run_quickstart(snippet)
    assert code == 0, f"README quickstart failed:\n{output}"
    # The snippet prints one metrics line per policy it compares.
    assert "traffic_reduction" in output


def test_clients_worked_example_runs_as_is(check_docs):
    snippet = check_docs.extract_python_block(REPO_ROOT / "docs" / "clients.md")
    assert snippet is not None, "docs/clients.md lost its ```python example"
    code, output = check_docs.run_snippet(snippet)
    assert code == 0, f"docs/clients.md example failed:\n{output}"
    # One line per client-cloud setting, plus the reactive summary.
    assert "unconstrained" in output and "heterogeneous" in output
    assert "reactive:" in output


def test_events_example_runs_as_is(check_docs):
    snippet = check_docs.extract_python_block(REPO_ROOT / "docs" / "events.md")
    assert snippet is not None, "docs/events.md lost its ```python example"
    code, output = check_docs.run_snippet(snippet)
    assert code == 0, f"docs/events.md example failed:\n{output}"
    # The reactive half of the example reports its shift/re-key counters.
    assert "shifts re-keyed" in output


def test_observability_example_runs_as_is(check_docs):
    snippet = check_docs.extract_python_block(
        REPO_ROOT / "docs" / "observability.md"
    )
    assert snippet is not None, "docs/observability.md lost its ```python example"
    code, output = check_docs.run_snippet(snippet)
    assert code == 0, f"docs/observability.md example failed:\n{output}"
    # The example prints the window count and the promoted heap stats.
    assert "windows of" in output
    assert "heap:" in output


def test_hierarchy_example_runs_as_is(check_docs):
    snippet = check_docs.extract_python_block(REPO_ROOT / "docs" / "hierarchy.md")
    assert snippet is not None, "docs/hierarchy.md lost its ```python example"
    code, output = check_docs.run_snippet(snippet)
    assert code == 0, f"docs/hierarchy.md example failed:\n{output}"
    # The example compares the single cache against the two-tier chain.
    assert "single cache" in output and "2-tier" in output


def test_streaming_example_runs_as_is(check_docs):
    snippet = check_docs.extract_python_block(REPO_ROOT / "docs" / "streaming.md")
    assert snippet is not None, "docs/streaming.md lost its ```python example"
    code, output = check_docs.run_snippet(snippet)
    assert code == 0, f"docs/streaming.md example failed:\n{output}"
    # The example compares prefix caching against the whole-object ablation.
    assert "prefix" in output and "whole-object" in output


def _git_status():
    """``git status --porcelain`` of the checkout, or ``None`` without git."""
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


@pytest.mark.parametrize(
    "script", sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))
)
def test_example_runs_as_is(script):
    """Each example script exits 0 run from the repository root, and leaves
    the checkout as it found it."""
    before = _git_status()
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert _git_status() == before


def test_executable_snippet_registry_covers_clients_page(check_docs):
    assert "docs/clients.md" in check_docs.EXECUTABLE_SNIPPETS
    assert "README.md" in check_docs.EXECUTABLE_SNIPPETS
    assert "docs/events.md" in check_docs.EXECUTABLE_SNIPPETS
    assert "docs/hierarchy.md" in check_docs.EXECUTABLE_SNIPPETS
    assert "docs/observability.md" in check_docs.EXECUTABLE_SNIPPETS
    assert "docs/streaming.md" in check_docs.EXECUTABLE_SNIPPETS


def test_link_checker_flags_broken_links(check_docs, tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "[ok](real.md)\n[missing](nowhere.md)\n[web](https://example.com)\n"
        "```\n[fenced](also_nowhere.md)\n```\n"
    )
    (tmp_path / "real.md").write_text("hi")
    problems = check_docs.check_links([page])
    assert len(problems) == 1
    assert "nowhere.md" in problems[0]


# ----------------------------------------------------------------------
# Docstring pass: repro.trace, repro.sim, repro.network, repro.obs, and
# repro.streaming are help()-complete (repro.network joined with the
# client-cloud API, repro.obs with the observability subsystem,
# repro.streaming with the segment-aware session model).
# ----------------------------------------------------------------------
DOCUMENTED_PACKAGES = (
    "repro.trace",
    "repro.sim",
    "repro.network",
    "repro.obs",
    "repro.streaming",
)


def _exported_symbols(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, f"{package_name} has no module docstring"
    for name in package.__all__:
        yield package_name, name, getattr(package, name)


@pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
def test_public_api_is_documented(package_name):
    undocumented = []
    for owner, name, symbol in _exported_symbols(package_name):
        if not inspect.isclass(symbol) and not inspect.isfunction(symbol):
            continue  # constants (tuples, dicts) document themselves in the module
        if not inspect.getdoc(symbol):
            undocumented.append(f"{owner}.{name}")
            continue
        if inspect.isclass(symbol):
            for method_name, method in vars(symbol).items():
                if method_name.startswith("_"):
                    continue
                if inspect.isfunction(method) and not inspect.getdoc(method):
                    undocumented.append(f"{owner}.{name}.{method_name}")
    assert undocumented == [], f"missing docstrings: {undocumented}"


@pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
def test_submodules_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    package_dir = Path(package.__file__).parent
    for module_file in package_dir.glob("*.py"):
        module_name = (
            package_name
            if module_file.stem == "__init__"
            else f"{package_name}.{module_file.stem}"
        )
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} has no module docstring"
