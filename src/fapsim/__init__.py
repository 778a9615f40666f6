"""Feedback-aware hybrid precoding for mmWave massive MIMO.

Library layers: clustered channel generation, SVD precoding, greedy
basis-selection feedback with bit accounting, exact two-phase-shifter hybrid
decomposition, benchmark schemes, and Monte-Carlo link evaluation. The
`fapsim` CLI drives seeded, reproducible experiment sweeps.
"""

from .benchmarks import SparsePrecoderConfig, multilevel_csi_feedback, sparse_precoder
from .channel import (ArrayGeometry, ChannelConfig, ChannelRealization, PathComponent,
                      array_response, channel_from_paths, reconstruct_from_paths, sample_channel,
                      substream)
from .errors import DegenerateChannelError, DomainError, InvalidInputError
from .evaluation import BeamPattern, achievable_rate, beam_pattern, ber_qpsk_mmse
from .feedback import (AngleCodebook, BasisSpec, ComplexCodebook, FeedbackReport, OmpPath,
                       basis_matrix, build_report, deserialize_report, dictionary,
                       omp_approximate, overhead_bits, pack_report, proposed_bits,
                       quantize_angles, reconstruct_precoder, serialize_report)
from .hybrid import HybridDecomposition, decompose, reconstruct
from .precoding import Precoder, PowerAllocation, optimal_precoder, water_fill
from .runner import (SCHEMES, BeamPatternConfig, ExperimentConfig, MultilevelScheme, OptimalScheme,
                     ProposedScheme, SparseScheme, run_beam_pattern, run_ber_sweep,
                     run_overhead_table, run_rate_sweep)

__version__ = "0.1.0"

__all__ = [
    "SCHEMES", "AngleCodebook", "ArrayGeometry", "BasisSpec", "BeamPattern", "BeamPatternConfig",
    "ChannelConfig", "ChannelRealization", "ComplexCodebook", "DegenerateChannelError",
    "DomainError", "ExperimentConfig", "FeedbackReport", "HybridDecomposition",
    "InvalidInputError", "MultilevelScheme", "OmpPath", "OptimalScheme",
    "PathComponent", "Precoder", "PowerAllocation", "ProposedScheme", "SparsePrecoderConfig",
    "SparseScheme", "achievable_rate", "array_response", "basis_matrix", "beam_pattern",
    "ber_qpsk_mmse", "build_report", "channel_from_paths", "decompose", "deserialize_report",
    "dictionary", "multilevel_csi_feedback", "omp_approximate", "optimal_precoder",
    "overhead_bits", "pack_report", "proposed_bits", "quantize_angles",
    "reconstruct", "reconstruct_from_paths", "reconstruct_precoder", "run_beam_pattern",
    "run_ber_sweep", "run_overhead_table", "run_rate_sweep", "sample_channel",
    "serialize_report", "sparse_precoder", "substream", "water_fill",
]
