"""Exact-arithmetic Fibonacci cobweb poset and fibonomial toolkit.

``import cobweb`` loads no module: each name X below is ``cobweb.<module>.X``, imported on first use
(PEP 562)."""

__version__ = "0.1.0"

_EXPORTS = {
    "fib_core": "FIBONACCI NATURAL PsiSequence fib fibonomial_def fibonomial_rec psi_binomial psi_factorial"
    " psi_falling",
    "poset": "ROOT CobwebCopy CobwebTruncation Vertex count_copies_rooted enumerate_copies_rooted from_linear leq"
    " level_size to_dot to_linear truncate",
    "incidence": "TriangularMatrix chain_count eta maximal_chain_matrix mobius zeta_explicit zeta_from_order",
    "chains": "ChainCountReport K1DegeneracyReport brute_force_max_chains chain_count_report"
    " check_k1_degeneracy fibonomial_via_chains max_chains_from_fixed max_chains_from_root"
    " max_chains_level_to_level recurrence_class_split",
    "konvalina": "WeightVector brute_sum c_first_kind gaussian_binomial pascal_binomial s_second_kind"
    " specialize stirling1_unsigned stirling2",
    "paths_fences": "FencePoset beck_identity fence_ideals fence_ideals_brute fibonomial_via_gv gv_terms"
    " iter_fence_ideals path_determinant",
    "crosscheck": "CrosscheckConfig run_crosschecks",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULES = {*_EXPORTS, "bigint", "cli", "record"}


def __getattr__(name: str):
    """An exported name, or a submodule not imported yet (``perfbench`` reads ``cobweb.fib_core``)."""
    module = _HOME.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # sets the attribute; unlike import_module, -X importtime sees it
    return globals()[module] if name == module else getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_MODULES})
