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
    reindex,
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
from .channel import (
    ChannelRealization,
    NoiseModel,
    PowerConfig,
    draw_realization,
    effective_channel,
    equivalent_real_channel,
    noise_covariance,
    rvec,
    simulate_transmission,
    whiten,
)
from .decode import (
    DecodeProblem,
    DecodeResult,
    ml_decode,
    pic_decode,
    pic_sic_decode,
    projector_complement,
    zf_decode,
    zf_sic_decode,
)
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
