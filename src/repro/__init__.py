"""repro -- reproduction of Cherkaoui et al., "Comparison of Self-Timed
Ring and Inverter Ring Oscillators as Entropy Sources in FPGAs"
(DATE 2012).

Quick start::

    from repro import Board, InverterRingOscillator, SelfTimedRing

    board = Board()
    iro = InverterRingOscillator.on_board(board, stage_count=5)
    str_ring = SelfTimedRing.on_board(board, stage_count=96)
    print(iro.predicted_frequency_mhz(), str_ring.predicted_frequency_mhz())
    print(str_ring.simulate(256, seed=1).trace.period_jitter_ps())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core.charlie import CharlieDiagram, CharlieParameters, DraftingEffect
from repro.core.comparison import ComparisonReport, compare_entropy_sources
from repro.core.temporal_model import SteadyState, solve_steady_state
from repro.fpga.board import Board, BoardBank
from repro.fpga.calibration import cyclone_iii_calibration
from repro.fpga.voltage import SupplySpec
from repro.rings.iro import InverterRingOscillator
from repro.rings.modes import OscillationMode, classify_trace
from repro.rings.str_ring import SelfTimedRing
from repro.trng.elementary import ElementaryTrng

__version__ = "1.1.0"

__all__ = [
    "CharlieDiagram",
    "CharlieParameters",
    "DraftingEffect",
    "ComparisonReport",
    "compare_entropy_sources",
    "SteadyState",
    "solve_steady_state",
    "Board",
    "BoardBank",
    "cyclone_iii_calibration",
    "SupplySpec",
    "InverterRingOscillator",
    "OscillationMode",
    "classify_trace",
    "SelfTimedRing",
    "ElementaryTrng",
    "__version__",
]
