"""Documentation contracts: every public item is exported and documented.

Deliverable (e) requires doc comments on every public item.  This test
walks each package's ``__all__``, asserting (i) the name actually resolves,
(ii) it carries a non-trivial docstring, and (iii) the package module
itself is documented.  Doctests embedded in docstrings are executed too.
"""

import doctest
import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.scaling",
    "repro.encoding",
    "repro.sax",
    "repro.llm",
    "repro.baselines",
    "repro.data",
    "repro.decomposition",
    "repro.metrics",
    "repro.evaluation",
    "repro.experiments",
    "repro.tasks",
    "repro.cli",
    "repro.exceptions",
    "repro.serving",
    "repro.observability",
    "repro.gateway",
    "repro.loadtest",
    "repro.sharding",
    "repro.sweeps",
    "repro.adapters",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_module_is_documented(package_name):
    module = importlib.import_module(package_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, package_name


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_names_resolve_and_are_documented(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{package_name}.{name} not importable"
        item = getattr(module, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            assert item.__doc__ and item.__doc__.strip(), (
                f"{package_name}.{name} lacks a docstring"
            )


def _documented_somewhere(cls, method_name, method) -> bool:
    """A method is documented if it or any base's same-named method is.

    Overrides of a documented abstract protocol (``LanguageModel.reset``,
    ``Scaler.fit``, ``Multiplexer.mux``, …) inherit their contract from the
    base; repeating the docstring on every override would be noise.
    """
    if method.__doc__ and method.__doc__.strip():
        return True
    for base in cls.__mro__[1:]:
        parent = base.__dict__.get(method_name)
        if parent is not None and getattr(parent, "__doc__", None):
            return True
    return False


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_classes_document_their_public_methods(package_name):
    module = importlib.import_module(package_name)
    for name in getattr(module, "__all__", []):
        item = getattr(module, name)
        if not inspect.isclass(item):
            continue
        for method_name, method in inspect.getmembers(item, inspect.isfunction):
            if method_name.startswith("_"):
                continue
            if method.__qualname__.split(".")[0] != item.__name__:
                continue  # defined on a parent; checked there
            assert _documented_somewhere(item, method_name, method), (
                f"{package_name}.{name}.{method_name} lacks a docstring"
            )


def test_forecaster_doctest_runs():
    """The usage example embedded in MultiCastForecaster must stay true."""
    from repro.core import forecaster

    results = doctest.testmod(forecaster, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 1


from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Every prose document whose fenced ``python`` blocks must actually run.
#: Blocks fenced ```` ```python noexec ```` are skipped (illustrative
#: fragments); everything fenced plain ```` ```python ```` executes in
#: file order, sharing one namespace per file, so each document is a
#: runnable script from top to bottom.
DOCUMENTS = [
    "README.md",
    "docs/API.md",
    "docs/TUTORIAL.md",
    "docs/ARCHITECTURE.md",
    "docs/OBSERVABILITY.md",
    "docs/SERVING.md",
]

#: Substitutions applied before execution to keep the suite fast — the
#: documents show realistic settings; the tests shrink the sample counts.
SPEEDUPS = [
    ("num_samples=5", "num_samples=2"),
    ("--samples 5", "--samples 2"),
]


def extract_python_blocks(text: str) -> list[str]:
    """Fenced code blocks whose info string is exactly ``python``."""
    blocks: list[str] = []
    inside = False
    executable = False
    current: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not inside and stripped.startswith("```"):
            inside = True
            executable = stripped[3:].strip() == "python"
            current = []
        elif inside and stripped.startswith("```"):
            inside = False
            if executable:
                blocks.append("\n".join(current))
        elif inside:
            current.append(line)
    return blocks


@pytest.mark.parametrize("relative_path", DOCUMENTS)
def test_documentation_code_blocks_run(relative_path, tmp_path, monkeypatch):
    """Every ``python`` block in the prose docs executes, in file order.

    Blocks run from a temporary working directory so examples that write
    artifacts (ledgers, metric dumps) stay out of the repository.
    """
    path = ROOT / relative_path
    assert path.exists(), f"{relative_path} is missing"
    blocks = extract_python_blocks(path.read_text())
    assert blocks, f"{relative_path} has no executable python blocks"
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for index, block in enumerate(blocks):
        code = block
        for old, new in SPEEDUPS:
            code = code.replace(old, new)
        exec(  # noqa: S102 - executing our own documentation is the point
            compile(code, f"<{relative_path} block {index}>", "exec"), namespace
        )
