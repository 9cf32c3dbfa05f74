"""Truncated q-series arithmetic with a congruence-verification registry.

The package splits into small layers:

* :mod:`qseries.series` — exact truncated power series over Z or Z/m;
* :mod:`qseries.qfunctions` — Euler products, theta series, the cubic
  theta, septic theta quotients, and partition-family generating
  functions;
* :mod:`qseries.qexpr` — a tiny expression language for stating
  identities as text;
* :mod:`qseries.oracle` — brute-force counting used as independent
  ground truth;
* :mod:`qseries.verify` — the registry of identities, dissection chains
  and congruence scans, with structured reports;
* :mod:`qseries.cli` — the ``qseries`` command-line front end.
"""

from .series import (
    CoefficientRing,
    EXACT,
    NonUnitError,
    RingMismatchError,
    SeriesError,
    TruncatedSeries,
    ValuationError,
    mod_ring,
)
from .qfunctions import (
    bipartition_series,
    borwein_a,
    euler_f,
    pk_series,
    ramanujan_theta,
    regular_series,
    septic_ABC,
)
from .qexpr import (
    EvalContext,
    EvalError,
    QSyntaxError,
    evaluate,
    evaluate_text,
    parse,
    parse_expr,
    to_text,
    tokenize,
)
from .verify import (
    CongruenceCheck,
    Families,
    IdentityCheck,
    REGISTRY,
    RegistryItem,
    RegistryRun,
    VerificationReport,
    run_check,
    run_item,
    run_pipeline,
    run_registry,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientRing", "EXACT", "mod_ring", "TruncatedSeries",
    "SeriesError", "RingMismatchError", "NonUnitError", "ValuationError",
    "euler_f", "pk_series", "ramanujan_theta", "septic_ABC",
    "borwein_a", "regular_series", "bipartition_series",
    "EvalContext", "EvalError", "QSyntaxError", "tokenize", "parse",
    "parse_expr", "to_text", "evaluate", "evaluate_text",
    "IdentityCheck", "CongruenceCheck", "Families",
    "RegistryItem", "RegistryRun", "VerificationReport", "REGISTRY",
    "run_check",
    "run_pipeline", "run_item", "run_registry",
    "__version__",
]
