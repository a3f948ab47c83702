"""The package namespace: names load their module on first use, and a
process imports only the modules its run uses."""

import importlib
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import rscwe

SRC = str(Path(rscwe.__file__).parents[1])


def _run(code: str) -> str:
    """Standard output of a fresh interpreter that runs code with this
    checkout's rscwe first on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _modules_after(code: str) -> set[str]:
    # sys is built in and already loaded, so printing adds no module
    return set(_run(f"{code}\nimport sys\nprint(*sys.modules, sep='\\n')").split())


@cache
def _bare() -> set[str]:
    """What an interpreter loads before any code runs: site, .pth files."""
    return _modules_after("pass")


def _loaded(code: str) -> set[str]:
    return _modules_after(code) - _bare()


class TestImportFootprint:
    def test_import_loads_no_submodule(self):
        assert {m for m in _loaded("import rscwe") if m.startswith("rscwe")} == {"rscwe"}

    def test_build_field_loads_gf_and_errors(self):
        loaded = _loaded("import rscwe\nrscwe.build_field(2, 3)")
        assert {m for m in loaded if m.startswith("rscwe")} == {"rscwe", "rscwe.gf", "rscwe.errors"}

    def test_cli_skips_lemma_modules_and_dataclasses(self):
        loaded = _loaded("import rscwe.cli")
        assert "rscwe.cwe" in loaded
        assert not loaded & {"rscwe.counts", "rscwe.cyclo", "dataclasses", "inspect"}


class TestLazyNamespace:
    def test_table_is_all(self):
        assert len(rscwe.__all__) == len(set(rscwe.__all__))
        assert set(rscwe._HOMES) == set(rscwe.__all__)

    @pytest.mark.parametrize("name", rscwe.__all__)
    def test_name_is_its_home_modules_object(self, name):
        home = importlib.import_module(f"rscwe.{rscwe._HOMES[name]}")
        assert getattr(rscwe, name) is getattr(home, name)
        # cached in the namespace, so __getattr__ runs once per name
        assert vars(rscwe)[name] is getattr(home, name)

    def test_dir_lists_all(self):
        assert set(rscwe.__all__) <= set(dir(rscwe))
        assert "__version__" in dir(rscwe)

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from rscwe import *", namespace)
        assert set(rscwe.__all__) <= set(namespace)
        # and from a fresh interpreter, where no name is loaded yet
        out = _run("from rscwe import *\nimport rscwe\nprint(all(n in globals() for n in rscwe.__all__))")
        assert out == "True\n"

    def test_submodule_import(self):
        from rscwe import cwe

        assert cwe is sys.modules["rscwe.cwe"]

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="module 'rscwe' has no attribute 'nope'"):
            rscwe.nope
        assert not hasattr(rscwe, "nope")
        with pytest.raises(ImportError):
            from rscwe import nope  # noqa: F401

    def test_patch_and_restore_from_first_use(self):
        # bench/spans.py patched(): getattr (the first use loads the name),
        # setattr a wrapper, setattr the original back
        out = _run(
            "import importlib, rscwe\n"
            "for name, home in rscwe._HOMES.items():\n"
            "    original = getattr(rscwe, name, None)\n"
            "    setattr(rscwe, name, object())\n"
            "    setattr(rscwe, name, original)\n"
            "    assert getattr(rscwe, name) is original\n"
            "    assert original is getattr(importlib.import_module('rscwe.' + home), name), name\n"
            "print('ok')"
        )
        assert out == "ok\n"
