"""The package namespace: what ``import abext`` exports, and when it loads it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abext

# The names `import abext` exported when it imported every submodule
# eagerly, by defining module, less ``det``, which left the library.
EXPORTED = {
    "intlin": ("IntMatrix", "SnfDecomposition", "hnf", "snf", "solve_mod", "solve_mod_many"),
    "abgroup": (
        "AbMap", "FinGenAb", "SumDiagram", "abelian_groups_of_order", "abelian_groups_up_to_order",
        "canonicalize", "codiagonal", "cokernel", "cokernel_group", "diagonal", "direct_sum", "is_epi",
        "is_mono", "kernel", "pullback", "pushout", "torsion_part",
    ),
    "homext": (
        "ExtClass", "ExtGroup", "HomGroup", "ShortExactSeq", "classify", "connecting_hom",
        "connecting_hom_dual", "ext_contravariant_map", "ext_covariant_map", "ext_group", "find_equivalence",
        "hom_group", "pullback_action", "pushout_action", "realize", "ses_equivalent",
    ),
    "universal": (
        "ComparisonMap", "UniversalCertificate", "build_universal_coextension", "build_universal_extension",
        "cyclic_generation_check", "phi", "phi_inverse_via_lim", "psi", "psi_inverse_via_colim",
        "sufficient_condition_check",
    ),
    "torsioncat": (
        "ClassificationReport", "TorsionExpr", "ab4star_failure_witness", "counterexample_witness",
        "divisible_reduced_split", "is_cotorsion", "p_component", "parse", "parse_finite_group",
        "quotient_closure_check",
    ),
}
SUBMODULES = ("abgroup", "errors", "homext", "intlin", "torsioncat", "universal")
HOMES = {name: (module, name) for module, names in EXPORTED.items() for name in names}
HOMES["classify_torsion"] = ("torsioncat", "classify")


def run_child(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(abext.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)


def test_all_lists_the_60_exported_names():
    assert len(HOMES) == 60
    assert sorted(abext.__all__) == sorted(HOMES)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_each_name_is_the_defining_modules_object(name):
    module, attr = HOMES[name]
    assert getattr(abext, name) is getattr(importlib.import_module("abext." + module), attr)


def test_renamed_and_plain_exports():
    assert abext.classify_torsion is abext.torsioncat.classify
    assert abext.classify is abext.homext.classify
    assert abext.snf is abext.intlin.snf


def test_star_import_and_dir_cover_every_name():
    namespace = {}
    exec("from abext import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(HOMES)
    assert all(namespace[name] is getattr(abext, name) for name in HOMES)
    assert set(HOMES) | set(SUBMODULES) | {"__version__"} <= set(dir(abext))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        abext.no_such_name
    assert not hasattr(abext, "no_such_name")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        from abext import no_such_name  # noqa: F401


def test_bare_import_loads_nothing_until_a_name_is_used():
    # Each submodule is reached with no other submodule loaded, since loading
    # one binds the submodules it imports on the package.
    child = run_child(
        "import sys, abext\n"
        "print(sorted(m for m in sys.modules if m.startswith('abext')))\n"
        f"for name in {SUBMODULES!r}:\n"
        "    for key in [m for m in sys.modules if m.startswith('abext.')]:\n"
        "        del sys.modules[key]\n"
        "        vars(abext).pop(key[len('abext.'):], None)\n"
        "    assert getattr(abext, name) is sys.modules['abext.' + name], name\n"
        "print(abext.psi.__module__, abext.classify_torsion.__qualname__)\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["['abext']", "abext.universal classify"]


def test_an_import_error_inside_a_submodule_reaches_the_caller():
    # universal's own `from .homext import ...` fails: the caller sees that
    # ImportError, not an AttributeError for the name it asked for.
    child = run_child(
        "import sys, abext\n"
        "sys.modules['abext.homext'] = None\n"
        "for attempt in ('attribute', 'from'):\n"
        "    try:\n"
        "        abext.psi if attempt == 'attribute' else exec('from abext import psi')\n"
        "    except AttributeError as e:\n"
        "        print(attempt, 'AttributeError', e)\n"
        "    except ImportError as e:\n"
        "        print(attempt, type(e).__name__, e.name)\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [
        "attribute ModuleNotFoundError abext.homext",
        "from ModuleNotFoundError abext.homext",
    ]
