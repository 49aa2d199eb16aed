"""Exact algorithmic statistics on a tiny total machine.

Everything downstream (complexity, model deficiency, structure functions,
probability models, information laws) reduces to exhaustive enumerations
of a small prefix-free instruction set, so all reported quantities are
exact integers or dyadic rationals — no estimates, no floats.

The table core (``bits``, ``machine``, ``enumeration``, ``cache``,
``complexity``) is imported with the package. The walker (``_pykernel``,
the one path into the machine, state walk and all) and the analysis
modules (``constants``, ``infolaws``, ``models_prob``, ``models_set``,
``skstats``) are registered in ``sys.modules`` but run only on first
use: the walker on the first build, an analysis module on the first read
of one of its names. So a command that reads one cached table compiles
none of them; the analysis modules' re-exports below resolve on first
access.
"""

import importlib.util
import sys


def _lazy(name: str):
    """Register the submodule ``name`` in ``sys.modules`` without running it;
    its code runs on the first attribute read (``importlib.util.LazyLoader``)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


# Registered before the table core is imported: ``enumeration`` binds this
# module, and reads ``walk`` and ``walk_args`` off it only when it walks.
_pykernel = _lazy("_pykernel")

from .bits import CodeError, bar, bits_to_nat, nat_to_bits, pair, std, unpair
from .cache import TableSource, load_or_build
from .complexity import (
    Absent,
    MIRecord,
    SoiReport,
    k_cond,
    mutual_info,
    require_k,
    shortest_program,
    soi_audit,
)
from .enumeration import (
    ComplexityTable,
    EntryCapExceeded,
    TableError,
    TableFormatError,
    TableVersionError,
    build_table,
    export_table,
    import_table,
)
from .machine import (
    MACHINE_VERSION,
    Budgets,
    Condition,
    RunOutcome,
    Status,
    opcode_decode,
    run,
)


constants = _lazy("constants")
infolaws = _lazy("infolaws")
models_prob = _lazy("models_prob")
models_set = _lazy("models_set")
skstats = _lazy("skstats")

# The re-exports of the lazily run modules, served by ``__getattr__``.
_LAZY_EXPORTS = {
    constants: (
        "ConstantsError",
        "load_constants",
        "regression_check",
        "save_constants",
    ),
    infolaws: (
        "JointModel",
        "JointModelError",
        "Statistic",
        "Transform",
        "default_transforms",
        "expected_mi_audit",
        "format_joint_text",
        "laws_audit",
        "nonincrease_audit",
        "parse_joint_text",
        "prior_sweep",
        "prob_mi",
        "prob_suff_check",
        "pushforward",
        "standard_joints",
        "suff_identity_audit",
        "theta_suff_audit",
        "weight_models",
    ),
    models_prob: (
        "Bernoulli",
        "BernoulliDemoReport",
        "Codebook",
        "DistDesc",
        "DistLangError",
        "ProbDeficiencyRecord",
        "TableDist",
        "UniformOn",
        "bernoulli_demo",
        "check_demo_n",
        "codebook",
        "codeword_length",
        "deficiency_p",
        "format_distlang",
        "parse_distlang",
        "pk",
        "suffstat_p",
        "two_part_p",
    ),
    models_set: (
        "All",
        "CapExceeded",
        "Cyl",
        "DeficiencyRecord",
        "Hamming",
        "ListSet",
        "ModelOpts",
        "NonStochReport",
        "SetDesc",
        "SetLangError",
        "Singleton",
        "StructureCurve",
        "SuffStatReport",
        "UnionSet",
        "deficiency",
        "enumerate_models",
        "format_setlang",
        "nonstoch_scan",
        "parse_setlang",
        "stochastic",
        "structfn",
        "suffstat",
        "two_part",
    ),
    skstats: (
        "MxRecord",
        "SkIndex",
        "XrRow",
        "logn_gap",
        "mx",
        "sk",
        "sk_csv",
        "sk_mx",
        "slice_bound_check",
        "t_kraft_sum",
        "xr",
        "xr_bound_check",
        "xr_csv",
        "xr_report",
    ),
}
_ORIGIN = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORIGIN))


__version__ = "0.1.0"

# The eager re-exports are the public names above that are not modules, so
# only a re-export may be bound here under a public name: a helper imported
# as one (``Path``, a typing name) would be exported silently.
_EAGER = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, type(sys))]
__all__ = sorted([*_EAGER, *_ORIGIN, "__version__"])
