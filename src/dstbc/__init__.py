"""Distributed space-time block codes for amplify-and-forward relay networks.

Construction of full-diversity codes from complex orthogonal designs,
PIC / PIC-SIC / ZF / ML decoding, randomized and analytic verification of
the full-diversity rank criteria, and a reproducible Monte-Carlo BER
harness with a CLI (`dstbc`).

Importing the package loads none of its modules. Each name below is looked
up in its module when first asked for (`dstbc.run_ber`, `from dstbc import
run_ber`), which loads that module and the ones it imports, and nothing is
kept here: the name always reads the module's current binding. Modules load
on first use as well (`dstbc.harness`).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "constellation": ("RotationMatrix", "SignalSet", "difference_set", "identity_rotation",
                          "make_pam", "make_rotated_qam", "rotation_2d", "verify_rotation"),
        "design": ("CodProfile", "LinearDesign", "cod_alamouti", "cod_trivial", "evaluate",
                   "verify_cod"),
        "construct": ("ConjugateLinearForm", "DstbcCode", "GroupingScheme", "NotConjugateLinear",
                      "bits_per_channel_use", "build", "contiguous_grouping", "drop_relays",
                      "extract_relay_form", "from_design", "preset", "rate_cspcu"),
        "channel": ("PowerConfig", "RelayChannel"),
        "decode": ("DECODERS", "GroupDecoder"),
        "diversity": ("CriterionReport", "check_pic", "check_pic_sic", "check_zf",
                      "cod_certificate", "relay_failure_sweep"),
        "harness": ("BerCurve", "ExperimentConfig", "estimate_diversity_slope", "run_ber"),
    }.items()
    for name in names
}
_MODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _MODULES)
