"""EPR signaling simulator and quadraticity certifiers for functional
observables on quantum states."""

from .hilbert import haar_unitary
from .nosignal import (
    Certificate,
    ChordColumns,
    SubspaceMeasureRecord,
    affinity_scan,
    basis_independence,
    gleason_certify,
    subspace_measure,
)
from .observables import (
    FunctionalObservable,
    combine,
    custom,
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
)
from .states import (
    Ensemble,
    EntangledState,
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
    "Scenario",
    "SignalReport",
    "SubspaceMeasureRecord",
    "affinity_scan",
    "basis_independence",
    "channel_capacity",
    "combine",
    "conditional_ensemble",
    "custom",
    "exact_gap",
    "gleason_certify",
    "haar_unitary",
    "monte_carlo_report",
    "polarization_reconstruct",
    "power",
    "quadratic",
    "rebase_alice",
    "subspace_measure",
]
