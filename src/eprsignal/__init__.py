"""EPR signaling simulator and quadraticity certifiers for functional
observables on quantum states."""

from .hilbert import (
    gram_schmidt,
    haar_unitary,
    inner,
    partial_trace_a,
    random_pure,
    tensor,
)
from .nosignal import (
    Certificate,
    ChordColumns,
    SubspaceMeasureRecord,
    affinity_scan,
    basis_independence,
    gleason_certify,
    orthoadditivity_check,
    subspace_measure,
)
from .observables import (
    FunctionalObservable,
    combine,
    custom,
    ensemble_average,
    polarization_reconstruct,
    power,
    quadratic,
)
from .signaling import (
    ChannelReport,
    Scenario,
    SignalReport,
    channel_capacity,
    exact_gap,
    monte_carlo_report,
    random_scenario,
)
from .states import (
    Ensemble,
    EntangledState,
    PureState,
    build_entangled,
    conditional_ensemble,
    rebase_alice,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChannelReport",
    "ChordColumns",
    "Ensemble",
    "EntangledState",
    "FunctionalObservable",
    "PureState",
    "Scenario",
    "SignalReport",
    "SubspaceMeasureRecord",
    "affinity_scan",
    "basis_independence",
    "build_entangled",
    "channel_capacity",
    "combine",
    "conditional_ensemble",
    "custom",
    "ensemble_average",
    "exact_gap",
    "gleason_certify",
    "gram_schmidt",
    "haar_unitary",
    "inner",
    "monte_carlo_report",
    "orthoadditivity_check",
    "partial_trace_a",
    "polarization_reconstruct",
    "power",
    "quadratic",
    "random_pure",
    "random_scenario",
    "rebase_alice",
    "subspace_measure",
    "tensor",
]
