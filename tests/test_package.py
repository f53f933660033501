"""``import cobweb`` is lazy: its names resolve on first use to the objects of their modules."""

import inspect
import subprocess
import sys
from importlib import import_module

import pytest

import cobweb

# every name the package imported eagerly before it became lazy, by module
EXPORTS = {
    "fib_core": ["FIBONACCI", "NATURAL", "PsiSequence", "fib", "fibonomial_def", "fibonomial_rec", "psi_binomial",
                 "psi_factorial", "psi_falling"],
    "poset": ["ROOT", "CobwebCopy", "CobwebTruncation", "Vertex", "count_copies_rooted", "enumerate_copies_rooted",
              "from_linear", "leq", "level_size", "to_dot", "to_linear", "truncate"],
    "incidence": ["TriangularMatrix", "chain_count", "eta", "maximal_chain_matrix", "mobius", "zeta_explicit",
                  "zeta_from_order"],
    "chains": ["ChainCountReport", "K1DegeneracyReport", "brute_force_max_chains", "chain_count_report",
               "check_k1_degeneracy", "fibonomial_via_chains", "max_chains_from_fixed", "max_chains_from_root",
               "max_chains_level_to_level", "recurrence_class_split"],
    "konvalina": ["WeightVector", "brute_sum", "c_first_kind", "gaussian_binomial", "pascal_binomial",
                  "s_second_kind", "specialize", "stirling1_unsigned", "stirling2"],
    "paths_fences": ["FencePoset", "beck_identity", "fence_ideals", "fence_ideals_brute", "fibonomial_via_gv",
                     "gv_terms", "iter_fence_ideals", "path_determinant"],
    "crosscheck": ["CrosscheckConfig", "run_crosschecks"],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_former_exports_resolve_to_their_modules(module):
    for name in EXPORTS[module]:
        scope = {}
        exec(f"from cobweb import {name}", scope)
        assert scope[name] is getattr(import_module(f"cobweb.{module}"), name) is getattr(cobweb, name)
    assert getattr(cobweb, module) is import_module(f"cobweb.{module}")
    assert set(EXPORTS[module]) | {module} <= set(dir(cobweb))


def test_every_listed_name_resolves():
    # a name left in _EXPORTS after its function is gone fails here
    for name in dir(cobweb):
        getattr(cobweb, name)


@pytest.mark.parametrize("module", sorted(cobweb._EXPORTS))
def test_every_public_definition_is_listed(module):
    # _EXPORTS is the whole public surface: a public function or class outside it is reached by nothing listed
    mod = import_module(f"cobweb.{module}")
    defined = {name for name, obj in vars(mod).items() if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == mod.__name__}
    assert defined <= set(cobweb._EXPORTS[module].split())


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="module 'cobweb' has no attribute 'zeta'"):
        cobweb.zeta
    with pytest.raises(ImportError):
        exec("from cobweb import no_such_name", {})
    assert cobweb.__version__ == "0.1.0"


def test_import_cobweb_loads_no_module():
    code = "import cobweb, sys; print(sorted(m for m in sys.modules if m.startswith('cobweb')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['cobweb']\n"
