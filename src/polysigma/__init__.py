"""polysigma: exact algebra of cyclic-shift Sigma matrices.

Polyadic special unitary elements built from cyclic-shift block matrices,
their elementary/full/heterogeneous Sigma matrices, the finite phase-shifted
binary and n-ary structures they generate, and a brute-force dense-matrix
oracle that adjudicates every closed-form rule.

Importing the package imports none of its modules.  Each public name, and
each submodule, is imported on first use (PEP 562), so a command loads only
the modules it runs: ``verify`` and ``cayley`` never load ``su2`` or
``sigma_algebra``.
"""

__version__ = "0.1.0"

#: each public name, by the module it lives in
_EXPORTS = {
    "errors": ("ArityError", "BudgetExceededError", "DomainError", "ValidationError"),
    "matrices": ("BlockCyclicMatrix", "det", "hadamard", "hermitian", "mat_mul", "sigma",
                 "trace"),
    "phases": ("Q12", "ElementaryLabel", "FullLabel", "HetLabel", "PauliLabel",
               "StructureReport", "ZeroLabel", "build_elementary_semigroup",
               "build_full_group", "build_het_group", "build_pauli_group",
               "elementary_nary_mul", "full_nary_mul", "full_querelement", "het_nary_mul",
               "het_querelement", "pauli_mul", "root_of_unity", "levi_civita"),
    "sigma_algebra": ("ElementarySigma", "FullSigma", "HetSigma", "elementary", "full", "het",
                      "reduce_sigma_word"),
    "su2": ("PolyadicSU2Element", "SU2Params", "binary_param_mul", "identity_element",
            "invariant_i2", "nary_product", "polyadic_identity", "polyadic_trace",
            "querelement", "ternary_param_mul"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "oracle"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import a public name from its module, or a submodule, on first use,
    and keep it in the package's namespace."""
    home = _HOME.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # by __import__, as an import statement imports, so that -X importtime
    # reports the module; a nonempty fromlist returns the submodule itself
    module = __import__(f"{__name__}.{home}", fromlist=["__name__"])
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
