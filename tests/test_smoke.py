"""Smoke test of the benchmark harness, the digest tool and the demos: each
script runs to completion in a fresh interpreter, and the digests do not
depend on the size of the thread pool and match `tests/digests.golden`. The harness self-test
drives the public calls the benchmark makes (init_model, fit, checkpoints,
evaluate and its per-query ranks) on a tiny generated KG. The benchmark's
per-function metric names are checked against the program's functions,
every function, class and method of the package against its uses, each
error message against the modules that raise it, and each import of the
package against the top of its module."""

import ast
import glob
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = ["perfbench/selftest.py", "tools/digests.py"] + sorted(
    f"demos/{name}" for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py")
)


def _run(script, threads=None):
    """Run a script of the repository in a fresh interpreter on `src/`, with
    MKGE_THREADS set to `threads`, or unset for the default pool."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MKGE_THREADS", None)
    if threads is not None:
        env["MKGE_THREADS"] = str(threads)
    return subprocess.run([sys.executable, os.path.join(ROOT, script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_exits_cleanly(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr[-4000:]


@pytest.fixture(scope="module")
def digest_runs():
    """`tools/digests.py` run with one pool worker and with the default pool.
    The tool sets module globals at import, so it runs in its own process."""
    one, default = (_run("tools/digests.py", threads) for threads in (1, None))
    assert one.returncode == 0 and default.returncode == 0, (one.stderr + default.stderr)[-4000:]
    return {"MKGE_THREADS=1": one.stdout, "default pool": default.stdout}


def test_digests_do_not_depend_on_pool_size(digest_runs):
    """The bit digests of every variant and ablation are the same with one
    pool worker as with the default pool."""
    one, default = digest_runs.values()
    assert one and one == default


def test_digests_match_golden_file(digest_runs):
    """Both digest runs print `tests/digests.golden` line for line, on a
    build whose `env` line (numpy, BLAS, SIMD extensions, machine) matches
    the file's; on another build the bits may round otherwise, so the test
    skips and names the fields that differ. A change that alters bits on
    purpose regenerates the file and says so:

        PYTHONPATH=src python tools/digests.py > tests/digests.golden
    """
    with open(os.path.join(ROOT, "tests", "digests.golden"), encoding="utf-8") as fh:
        golden = fh.read()
    for setting, output in digest_runs.items():
        want, got = golden.splitlines()[0].split(), output.splitlines()[0].split()
        if want != got:
            pytest.skip(f"digest build differs from the golden file's: "
                        f"{[f for f in want if f not in got]} in the file, "
                        f"{[f for f in got if f not in want]} here")
        assert output == golden, setting


def _traced_function_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    return sorted({tuple(name.split(".")[:2]) for name in names if name.count(".") == 2})


@pytest.mark.parametrize("layer,function", _traced_function_metrics())
def test_benchmark_metric_names_a_function(layer, function):
    """Each `<layer>.<function>.<stat>` metric of the benchmark names a function
    defined in `mkge.<layer>`, which the tracer wraps; a renamed or deleted one
    would read 0 in the trace instead of failing."""
    module = importlib.import_module(f"mkge.{layer}")
    obj = getattr(module, function, None)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__


# public calls that build KGs for tests, demos and tools/digests.py; no
# command of the package calls them
ENTRY_POINTS = {("data", "generate_synthetic_kg"), ("data", "write_dataset")}


def test_every_definition_is_used():
    """Each module-level function and class of `src/mkge`, and each method of
    such a class, is named somewhere in `src/mkge` (as a name or an
    attribute), so that no second path that only tests call hides there.
    Dunder methods, which Python calls itself, and `ENTRY_POINTS` are exempt."""
    trees = {os.path.basename(path)[:-3]: ast.parse(open(path, encoding="utf-8").read())
             for path in glob.glob(os.path.join(ROOT, "src", "mkge", "*.py"))}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [(module, name) for module, name in defined
              if name not in used and not name.startswith("__")]
    assert sorted(set(unused) - ENTRY_POINTS) == []


def _message_text(node):
    """The string-constant parts of an error message expression, each
    formatted value as `{}`; None if the message has no constant text."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        text = "".join(_message_text(part) or "{}" for part in node.values)
        return text if text.strip("{}") else None
    return None


def test_each_error_rule_has_one_module():
    """No error message text is raised from two modules of `src/mkge`: each
    rule has one owner, and a caller asks it rather than copying its check.
    Repeats inside one module are allowed."""
    owners = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "mkge", "*.py"))):
        module = os.path.basename(path)[:-3]
        for node in ast.walk(ast.parse(open(path, encoding="utf-8").read())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                text = _message_text(node.exc.args[0])
                if text is not None:
                    owners.setdefault(text, set()).add(module)
    assert {text: sorted(mods) for text, mods in owners.items() if len(mods) > 1} == {}


def test_no_function_local_imports():
    """Every import of `src/mkge` is at module level, so a module's imports
    list what it uses, and no layer is loaded late to keep numpy out."""
    local = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "mkge", "*.py"))):
        for node in ast.walk(ast.parse(open(path, encoding="utf-8").read())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [(os.path.basename(path), inner.lineno) for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert local == []
