"""Layering rules read from the source with ``ast``.

The data layer imports nothing from the model layer, only the encoder makes threads: its run pool
is the one pool of the program, every top-level function and class is named by some other code, and
no module reads another package module's ``_``-prefixed names.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import misinfo_mtl

PACKAGE = Path(misinfo_mtl.__file__).parent
DATA_LAYER = ("atomic", "tasks", "tokenization", "data", "metrics")
MODEL_LAYER = {"encoder", "multitask", "training", "evaluation", "checkpoint", "cli"}


def package_imports(source: str) -> set[str]:
    """The ``misinfo_mtl`` modules a source imports, anywhere in the file, in any import form."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["misinfo_mtl" if node.level else None, node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in names if name.startswith("misinfo_mtl.")}


@pytest.mark.parametrize("source", [
    "from .encoder import EncoderConfig",
    "from . import encoder as enc",
    "from misinfo_mtl.encoder import split_runs",
    "from misinfo_mtl import atomic, encoder",
    "import misinfo_mtl.encoder",
    "def f():\n    from .encoder import split_runs\n",
])
def test_every_import_form_is_read(source):
    assert "encoder" in package_imports(source)


def test_the_model_layer_is_seen_where_it_is_imported():
    assert {"encoder", "multitask"} <= package_imports((PACKAGE / "training.py").read_text())


@pytest.mark.parametrize("module", DATA_LAYER)
def test_data_layer_module_imports_no_model_layer_module(module):
    assert package_imports((PACKAGE / f"{module}.py").read_text()) & MODEL_LAYER == set()


THREAD_MAKERS = {"ThreadPoolExecutor", "Thread"}


def thread_makers(source: str) -> set[str]:
    """The thread-making classes (``ThreadPoolExecutor``, ``threading.Thread``) a source names, in any form."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names & THREAD_MAKERS


@pytest.mark.parametrize("source", [
    "from concurrent.futures import ThreadPoolExecutor",
    "from concurrent.futures import ThreadPoolExecutor as Pool",
    "import concurrent.futures as cf\npool = cf.ThreadPoolExecutor(2)",
    "import threading\nthreading.Thread(target=print).start()",
    "from threading import Thread",
    "def f():\n    from threading import Thread as T\n",
])
def test_every_thread_maker_form_is_read(source):
    assert thread_makers(source)


def test_the_encoder_pool_is_seen_where_it_is_made():
    assert "ThreadPoolExecutor" in thread_makers((PACKAGE / "encoder.py").read_text())


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "encoder"))
def test_only_the_encoder_makes_threads(module):
    assert thread_makers((PACKAGE / f"{module}.py").read_text()) == set()


def names(node) -> Counter:
    """How often each name is read (``f``), taken as an attribute (``mod.f``) or imported under ``node``."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
    return found


def unnamed_definitions(sources: dict[str, str]) -> set[str]:
    """The top-level functions and classes of ``sources`` (module name -> source) that no other code in them names.

    An import counts, so a name that ``__init__`` exports is named. A definition's own body does not: a function
    that only calls itself is unnamed.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((names(tree) for tree in trees.values()), Counter())
    return {f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and everywhere[node.name] == names(node)[node.name]}


@pytest.mark.parametrize("sources, unnamed", [
    ({"m": "def used():\n    pass\n\ndef caller():\n    used()\n"}, {"m.caller"}),
    ({"m": "def loop(n):\n    return loop(n - 1)\n"}, {"m.loop"}),
    ({"__init__": "from .m import f", "m": "def f():\n    pass\n"}, set()),
    ({"a": "from . import m\nm.C()", "m": "class C:\n    pass\n"}, set()),
])
def test_every_way_of_naming_a_definition_is_read(sources, unnamed):
    assert unnamed_definitions(sources) == unnamed


def test_every_top_level_function_and_class_is_named_elsewhere():
    assert unnamed_definitions({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == set()


def private_reads(source: str) -> set[str]:
    """The ``_``-prefixed names a source takes from a ``misinfo_mtl`` module: imported by name, or read as an
    attribute of a name it imports from the package (``enc._drop``, ``misinfo_mtl.encoder._drop``)."""
    tree = ast.parse(source)
    imported, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("misinfo_mtl")):
            imported.update(alias.asname or alias.name for alias in node.names)
            found.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                            if alias.name.startswith("misinfo_mtl"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.add(node.attr)
    return found


@pytest.mark.parametrize("source", [
    "from . import encoder\nencoder._drop(x)",
    "from . import encoder as enc\nenc._drop(x)",
    "from .encoder import _drop",
    "from misinfo_mtl.encoder import _drop as drop",
    "import misinfo_mtl.encoder\nmisinfo_mtl.encoder._drop(x)",
    "import misinfo_mtl.encoder as enc\nenc._drop(x)",
    "def f():\n    from . import encoder\n    return encoder._drop\n",
])
def test_every_private_read_form_is_seen(source):
    assert private_reads(source) == {"_drop"}


@pytest.mark.parametrize("source", [
    "self._cache = None",
    "import numpy as np\nnp._NoValue",
    "from . import encoder as enc\nenc.__name__",
    "def _local():\n    pass\n_local()",
])
def test_own_and_outside_private_names_are_not_reads(source):
    assert private_reads(source) == set()


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_reads_another_package_modules_private_names(module):
    assert private_reads((PACKAGE / f"{module}.py").read_text()) == set()
