"""Linear Temporal Logic support (Section 3.3, Tables 1 and 2).

The package provides the LTL AST, a parser for the paper's textual notation,
finite-trace semantics, translation between recurrent rules and LTL, and the
English rendering used to regenerate Table 1.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ast": (
            "And",
            "Atom",
            "Finally",
            "Formula",
            "Globally",
            "Implies",
            "Next",
            "WeakNext",
            "atoms",
            "depth",
        ),
        "parser": ("parse_ltl",),
        "pretty": ("describe_rule", "explain"),
        "semantics": ("holds",),
        "translate": ("consequent_to_ltl", "is_minable", "ltl_to_rule", "rule_to_ltl"),
    },
)
