"""Distributed space-time block codes for amplify-and-forward relay networks.

Construction of full-diversity codes from complex orthogonal designs,
PIC / PIC-SIC / ZF / ML decoding, randomized and analytic verification of
the full-diversity rank criteria, and a reproducible Monte-Carlo BER
harness with a CLI (`dstbc`).
"""

__version__ = "0.1.0"

from .constellation import (
    RotationMatrix,
    SignalSet,
    difference_set,
    identity_rotation,
    make_pam,
    make_rotated_qam,
    rotation_2d,
    verify_rotation,
)
from .design import (
    CodProfile,
    LinearDesign,
    cod_alamouti,
    cod_trivial,
    evaluate,
    verify_cod,
)
from .construct import (
    ConjugateLinearForm,
    DstbcCode,
    GroupingScheme,
    NotConjugateLinear,
    bits_per_channel_use,
    build,
    contiguous_grouping,
    drop_relays,
    extract_relay_form,
    from_design,
    preset,
    rate_cspcu,
)
from .channel import PowerConfig, RelayChannel
from .decode import DECODERS, GroupDecoder, group_symbols
from .diversity import (
    CriterionReport,
    check_pic,
    check_pic_sic,
    check_zf,
    cod_certificate,
    relay_failure_sweep,
)
from .harness import (
    BerCurve,
    ExperimentConfig,
    estimate_diversity_slope,
    run_ber,
)
