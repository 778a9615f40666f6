"""Feedback-aware hybrid precoding for mmWave massive MIMO.

Library layers: clustered channel generation, SVD precoding, greedy
basis-selection feedback with bit accounting, exact two-phase-shifter hybrid
decomposition, benchmark schemes, and Monte-Carlo link evaluation. The
`fapsim` CLI drives seeded, reproducible experiment sweeps.
"""

from types import ModuleType as _ModuleType

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

# Every public name imported above (its submodules aside).
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType))
