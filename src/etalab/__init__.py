"""Exact character theory for finite p-groups.

Permutation groups in, exact cyclotomic character tables out, plus the
product-constituent counts, descent-chain ledgers, and verification sweeps
built on top of them.  Everything is integer arithmetic end to end; there
is no floating point anywhere in the pipeline.
"""

from .errors import (
    CharacterError,
    ChainError,
    ConstructionError,
    CyclotomicError,
    EtalabError,
    GroupError,
    GroupFileError,
    PermutationError,
    TableError,
)
from .cyclotomic import CycValue, cyclotomic_polynomial, euler_phi
from .perm import (
    ConjugacyClassSet,
    PermGroup,
    Permutation,
    center,
    centralizer,
    chief_series,
    conjugacy_classes,
    group_from_generators,
    is_p_group,
)
from .groupfile import format_group, load_group, parse_group, save_group
from .chars import Character
from .table import CharTable, character_table
from .charops import (
    ConstituentDecomposition,
    center_of_character,
    decompose,
    eta_count,
    induce,
    inner_product,
    irr_mod,
    kernel,
    lin,
    restrict,
)
from .clifford import (
    CharacterChain,
    ChainLedger,
    all_chains,
    build_chain,
    classify_chain,
    clifford_correspondent,
    conjugate_action,
    stabilizer,
)
from .constructions import (
    WitnessPair,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_exp_p,
    metacyclic,
    prop5_witness,
    quaternion,
    wreath_cp,
)
from .catalog import catalog_ids, default_catalog, load_catalog_group
from .verify import (
    VerificationReport,
    verify_corollary_a,
    verify_ledger,
    verify_prop5,
    verify_theorem_a,
    verify_theorem_b,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the CLI is imported on first use, so that `python -m etalab.cli` does
    # not find etalab.cli already imported by the package
    if name == "run_cli":
        from .cli import run_cli

        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CharacterError",
    "ChainError",
    "ConstructionError",
    "CyclotomicError",
    "EtalabError",
    "GroupError",
    "GroupFileError",
    "PermutationError",
    "TableError",
    "CycValue",
    "cyclotomic_polynomial",
    "euler_phi",
    "ConjugacyClassSet",
    "PermGroup",
    "Permutation",
    "center",
    "centralizer",
    "chief_series",
    "conjugacy_classes",
    "group_from_generators",
    "is_p_group",
    "format_group",
    "load_group",
    "parse_group",
    "save_group",
    "Character",
    "CharTable",
    "character_table",
    "ConstituentDecomposition",
    "center_of_character",
    "decompose",
    "eta_count",
    "induce",
    "inner_product",
    "irr_mod",
    "kernel",
    "lin",
    "restrict",
    "CharacterChain",
    "ChainLedger",
    "all_chains",
    "build_chain",
    "classify_chain",
    "clifford_correspondent",
    "conjugate_action",
    "stabilizer",
    "WitnessPair",
    "cyclic",
    "dihedral",
    "direct_product",
    "extraspecial_exp_p",
    "metacyclic",
    "prop5_witness",
    "quaternion",
    "wreath_cp",
    "catalog_ids",
    "default_catalog",
    "load_catalog_group",
    "VerificationReport",
    "verify_corollary_a",
    "verify_ledger",
    "verify_prop5",
    "verify_theorem_a",
    "verify_theorem_b",
    "run_cli",
    "__version__",
]
