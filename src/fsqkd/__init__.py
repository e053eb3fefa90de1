"""fsqkd: a deterministic free-space B92 quantum key distribution simulator."""

from .analytics import LinkBudget, ber_model, detection_probability, optimize_nbar
from .channel import (
    Cause,
    DetectionBatch,
    Outcome,
    draw_eta_system,
    simulate_channel,
)
from .core import KeyBuffer, Stage, compare_keys
from .messages import Kind, Message, decode, encode, leak_meter
from .params import ProtocolParams
from .privacy import (
    PaPlan,
    compress,
    pa_fraction,
    plan_output_length,
    secret_yield_per_sifted_bit,
)
from .protocol import alice_generate, bob_receive, sift
from .reconciliation import (
    ReconConfig,
    ReconOutcome,
    reconcile,
    shannon_leak_per_bit,
)
from .rng import stream
from .session import SessionConfig, SessionReport, run_alice, run_bob, run_simulation
from .transport import loopback_pair

__version__ = "0.1.0"
