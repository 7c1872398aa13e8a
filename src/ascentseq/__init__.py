"""Pattern avoidance in ascent sequences.

Enumeration with pruning, statistic distributions, executable bijections
to permutations, set partitions and ternary words, and closed-form
reference counts, plus the ``ascentseq`` command-line tool.

Submodules load on first use: ``import ascentseq`` runs none of them,
and the first lookup of an exported name imports its home module.
"""

import importlib

_EXPORTS = {
    "core": """STATISTICS Word as_word asc avoids contains count_occurrences
        des fwd is_ascent_sequence is_pattern is_permutation is_restricted
        is_rgf lrmax lrmin maximal_positions normalize_pattern perm_contains
        rlmax rlmin stat word_str zeros""",
    "enumeration": """CountSeries avoider_counts avoiders
        count_ascent_sequences count_avoiders count_modified_avoiders distribution
        generate_ascent_sequences generate_restricted generate_set_partitions
        joint_distribution joint_histograms modified_asc_counts
        modified_avoiders perm_avoiders""",
    "bijections": """BIJECTIONS LiftedBinaryDecomposition SetPartition
        is_noncrossing lifted_binary_decompose modify partition_str
        perm231_to_ncpartition perm312_to_seq101 phi reduce_tail
        restricted_to_021 rgf_decode rgf_encode seq021_to_restricted
        seq101_to_perm312 seq102_to_ternary standardize_partition
        ternary_to_seq102 unmodify""",
    "oracles": """ConjectureResult WilfReport all_patterns bell
        binomial_transform_catalan catalan dyck_height5_count fishburn
        growth_rate_estimates half_power_formula narayana
        non_k_crossing_partition_count run_conjecture stirling2
        ternary_even_twos_count wilf_classify""",
}
# exported name -> the submodule that defines it
_HOME = {name: mod for mod, names in _EXPORTS.items()
         for name in names.split()}
_SUBMODULES = frozenset({*_EXPORTS, "incremental", "fixtures", "cli"})

__all__ = [*_HOME, *_EXPORTS, "incremental"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
