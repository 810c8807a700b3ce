"""The package loads a submodule only when it is used.

The start-up cases run in a fresh interpreter, because this one has long
since imported every module; each prints JSON that names the ``ziminwords``
submodules it loaded."""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import ziminwords

SRC = os.path.dirname(os.path.dirname(ziminwords.__file__))

HEAVY = {"ziminwords.zimin", "ziminwords.search", "ziminwords.abelian", "ziminwords.verify", "ziminwords.oracles"}

LOADED = 'sorted(m for m in sys.modules if m.startswith("ziminwords."))'

AFTER_COMMAND = f"""
import contextlib, io, json, sys
import ziminwords.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ziminwords.cli.main(sys.argv[1:])
print(json.dumps([code, {LOADED}]))
"""

# every module a command loads, the standard library's too, against a
# baseline taken before the CLI is imported
NEW_AFTER_COMMAND = """
import contextlib, io, json, sys
before = set(sys.modules)
import ziminwords.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ziminwords.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

PACKAGE_ONLY = f"""
import json, sys
import ziminwords
loaded, listed = {LOADED}, sorted(dir(ziminwords))
star = {{}}
exec("from ziminwords import *", star)
print(json.dumps([loaded, listed, [name for name in ziminwords.__all__ if name not in star]]))
"""


def _fresh(script, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_after(argv):
    code, loaded = _fresh(AFTER_COMMAND, *argv)
    assert code == 0
    return set(loaded)


@pytest.mark.parametrize(
    "argv", [["psi", "parses", "0000000000"], ["counters", "make", "--order", "3", "--index", "5"]]
)
def test_light_commands_load_no_search_or_zimin(argv):
    assert not _loaded_after(argv) & HEAVY


def test_search_loads_the_search_only():
    loaded = _loaded_after(["search", "f", "--n", "2", "--k", "2"])
    assert "ziminwords.search" in loaded
    assert not loaded & {"ziminwords.verify", "ziminwords.oracles", "ziminwords.abelian"}


def _new_after(argv):
    code, new = _fresh(NEW_AFTER_COMMAND, *argv)
    assert code == 0
    return set(new)


def test_search_f_loads_no_counters_or_fractions():
    new = _new_after(["search", "f", "--n", "2", "--k", "2"])
    assert "ziminwords.search" in new
    assert not new & {"ziminwords.counters", "fractions", "decimal"}


def test_abelian_g_loads_no_fractions():
    new = _new_after(["abelian", "g", "--n", "2", "--k", "2"])
    assert "ziminwords.abelian" in new
    assert not new & {"fractions", "decimal"}


def test_verify_loads_fractions_only_for_the_checks_that_build_one():
    new = _new_after(["regular", "check-identities"])
    assert "ziminwords.verify" in new
    assert not new & {"fractions", "decimal"}


# every record of the package is a tuple, so no command needs dataclasses
@pytest.mark.parametrize(
    "argv, module",
    [
        (["psi", "parses", "0000000000"], "ziminwords.coding"),
        (["zimin", "type", "abc"], "ziminwords.zimin"),
        (["search", "f", "--n", "2", "--k", "2"], "ziminwords.search"),
        (["abelian", "g", "--n", "2", "--k", "2"], "ziminwords.abelian"),
        (["regular", "check-identities"], "ziminwords.verify"),
    ],
    ids=["psi-parses", "zimin-type", "search-f", "abelian-g", "regular-check-identities"],
)
def test_command_loads_no_dataclasses_or_inspect(argv, module):
    new = _new_after(argv)
    assert module in new
    assert not new & {"dataclasses", "inspect"}


def test_the_package_loads_nothing_yet_lists_and_binds_every_export():
    loaded, listed, unbound = _fresh(PACKAGE_ONLY)
    assert loaded == []
    assert set(ziminwords.__all__) <= set(listed)
    assert unbound == []


def test_every_export_is_its_home_modules_object():
    for name in ziminwords.__all__:
        value = getattr(ziminwords, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"ziminwords.{name}"]
            continue
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("ziminwords.")
        assert getattr(home, name) is value
    namespace = {}
    exec("from ziminwords import *", namespace)
    assert all(namespace[name] is getattr(ziminwords, name) for name in ziminwords.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ziminwords.no_such_name
