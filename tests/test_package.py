"""The lazy `egr` package: `import egr` loads no submodule, and each public
name imports its home submodule on first use.  Checks of what an import
loads run in a fresh interpreter, since this one has loaded egr already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import egr

ROOT = Path(__file__).resolve().parents[1]


def fresh(code: str):
    """Runs `code` in a fresh interpreter that imports egr from this
    checkout, and returns the JSON value that its last line prints."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


NEW_MODULES = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "{}\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))"
)


def test_import_egr_loads_no_submodule():
    loaded = fresh(NEW_MODULES.format("import egr"))
    assert [m for m in loaded if m.startswith("egr")] == ["egr"]
    assert not {"multiprocessing", "dataclasses", "fractions"} & set(loaded)


def test_field_of_order_loads_only_finite_field():
    loaded = fresh(NEW_MODULES.format("import egr\negr.Field.of_order(9)"))
    assert [m for m in loaded if m.startswith("egr")] == ["egr", "egr.finite_field"]


def test_submodules_resolve_after_plain_import():
    names = fresh(
        "import json, egr\n"
        "print(json.dumps([egr.adg.__name__, egr.census.certify is egr.certify, egr.graph6.__name__]))"
    )
    assert names == ["egr.adg", True, "egr.graph6"]


def test_every_public_name_is_its_home_modules_object():
    for name in egr.__all__:
        value = getattr(egr, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert value.__module__.startswith("egr."), name


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from egr import *", namespace)
    assert all(namespace[name] is getattr(egr, name) for name in egr.__all__)
    assert set(egr.__all__) <= set(dir(egr))
    assert {"adg", "census", "finite_field"} <= set(dir(egr))


@pytest.mark.parametrize("name", ["no_such_name", "Lcg", "representation_pair"])
def test_unknown_name_raises_attribute_error_naming_it(name):
    with pytest.raises(AttributeError, match=repr(name)):
        getattr(egr, name)


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    for line in block.strip().splitlines():
        code, _, shown = line.partition("#")
        if shown:
            assert eval(code, namespace) == ast.literal_eval(shown.strip()), line
        else:
            exec(line, namespace)
