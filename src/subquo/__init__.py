"""Exact Groebner bases for subquotients of free modules over polynomial rings.

Every library module is registered in sys.modules and on this package when
the package is imported, but is compiled and run only on its first attribute
access (importlib.util.LazyLoader), so each command loads only the modules
it uses. The public names below resolve through module __getattr__ (PEP 562).
"""

import importlib.util
import sys

from .errors import ContractViolation, InputError

__version__ = "1.0.0"

# Public names by the module that defines them.
_EXPORTS = {
    "elements": (
        "ModuleElement",
        "PrimeField",
        "QQ",
        "RationalField",
        "Ring",
        "format_degree",
        "format_element",
        "parse_degree",
        "parse_element",
        "parse_field",
    ),
    "flange": (
        "FreeInjectiveMatrix",
        "buchberger_flange",
        "free_presentation",
        "is_groebner_form",
        "monomial_division",
    ),
    "graded": (
        "GradedMatrix",
        "deg_join",
        "deg_leq",
        "deg_meet",
        "degrees_in_box",
        "element_degree",
        "graded_dimension",
        "is_homogeneous",
        "monomialize",
        "presentation_dimension",
    ),
    "groebner": (
        "buchberger",
        "buchberger_transform",
        "divide",
        "express",
        "is_groebner",
        "normal_form",
        "reduce_groebner",
        "s_polynomial",
        "schreyer_syzygies",
    ),
    "homres": (
        "Resolution",
        "VectorDiagram",
        "betti_numbers",
        "free_resolution",
        "homology_presentation",
        "kernel_of_free_map",
        "module_from_diagram",
        "prune_minimize",
        "verify_complex",
    ),
    "orders": (
        "BaseOrder",
        "ModuleOrder",
        "SchreyerOrder",
        "default_order",
        "format_order",
        "parse_order",
    ),
    "relative": (
        "is_relative_gb",
        "reduce_relative",
        "relative_buchberger",
        "relative_division",
        "relative_schreyer",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["ContractViolation", "InputError", *_HOME])


def _register(name):
    """Put subquo.<name> in sys.modules and on the package, unexecuted."""
    spec = importlib.util.find_spec(__name__ + "." + name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    spec.loader.exec_module(module)


# Not cli: `python -m subquo.cli` would find it in sys.modules and warn.
for _name in (*_EXPORTS, "files"):
    _register(_name)
del _name


def __getattr__(name):
    """A public name, loading its module on first use."""
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__():
    """The package's attributes and every public name, loaded or not."""
    return sorted(set(globals()) | set(__all__))
