"""A fresh ``import ltbe`` loads the query path only.

The self-checks (``ltbe.laws``) and the brute-force oracle (``ltbe.oracle``)
serve no parse or query, so the package resolves their names on first
access; these tests pin both halves of that contract.  The value classes
are plain slotted classes, so the import generates no code and loads none
of the standard library's class-generation machinery.
"""

import importlib
import json
import pathlib
import subprocess
import sys
import types

import pytest

import ltbe

QUERY_PATH = {
    "ltbe",
    "ltbe.errors",
    "ltbe.semiring",
    "ltbe.polyfunctor",
    "ltbe.branching",
    "ltbe.relation",
    "ltbe.lifting",
    "ltbe.system",
    "ltbe.engine",
}

LAZY = {
    "LawCheck": "laws",
    "LawReport": "laws",
    "MonadReport": "laws",
    "check_monad_consistency": "laws",
    "check_semiring_laws": "laws",
    "oracle_matrix": "oracle",
    "oracle_common": "oracle",
}


def loaded_after(code: str) -> set:
    """The ``ltbe`` modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport json, sys\n" + (
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'ltbe')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_fresh_import_loads_only_the_query_path():
    assert loaded_after("import ltbe") == QUERY_PATH


#: Standard modules that ``import ltbe`` must not load: ``dataclasses`` pulls in
#: ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``); ``typing`` is
#: only needed for annotations, which are never evaluated.
GENERATORS = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


def test_fresh_import_loads_no_class_generation():
    # -S skips ``site``, which may itself import ``typing``
    src = pathlib.Path(ltbe.__file__).resolve().parent.parent
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); before = set(sys.modules)\n"
             "import ltbe, json\nprint(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "ltbe.engine" in added
    assert not added & GENERATORS, sorted(added & GENERATORS)


def test_every_public_name_resolves():
    for name in ltbe.__all__:
        assert getattr(ltbe, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ltbe import *", namespace)
    for name in ltbe.__all__:
        assert namespace[name] is getattr(ltbe, name), name


def test_all_holds_no_private_name_and_no_module():
    assert not [name for name in ltbe.__all__
                if name.startswith("_") or isinstance(getattr(ltbe, name), types.ModuleType)]


def package_subclasses(cls: type) -> set:
    """``cls`` and every class of the package that derives from it."""
    found = {cls}
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("ltbe."):
            found |= package_subclasses(sub)
    return found


def test_all_holds_every_error_expression_term_and_lazy_name():
    bases = (ltbe.LtbeError, ltbe.PolyExpr, ltbe.PolyTerm)
    classes = {cls.__name__ for base in bases for cls in package_subclasses(base)}
    assert len(classes) == 22  # ten errors, and each base with its five node classes
    assert classes | set(LAZY) <= set(ltbe.__all__)


def test_star_import_binds_the_errors_and_the_term_classes():
    namespace: dict = {}
    exec("from ltbe import *", namespace)
    assert namespace["TransitionTypeError"] is ltbe.TransitionTypeError
    assert namespace["StateRef"] is ltbe.StateRef


@pytest.mark.parametrize("name", sorted(LAZY))
def test_lazy_name_is_the_module_attribute(name):
    module = importlib.import_module(f"ltbe.{LAZY[name]}")
    assert getattr(ltbe, name) is getattr(module, name)


def test_dir_lists_the_lazy_names():
    assert set(LAZY) <= set(dir(ltbe))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ltbe.no_such_name
