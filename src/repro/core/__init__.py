"""The Broadcast Congested Clique simulator substrate.

``BCAST(b)``: ``n`` processors, unlimited local computation, synchronous
rounds; each round every processor broadcasts the *same* ``b``-bit message
to all others.  ``b = 1`` is the paper's primary model; ``b = O(log n)`` the
standard variant.
"""

from .compile import Bcast1Compiled, compiled_round_count
from .engine import (
    BatchResult,
    Engine,
    Executor,
    RunSpec,
    SerialExecutor,
    TrialResult,
    derive_seed,
    resolve_executor,
)
from .errors import (
    BatchFallbackWarning,
    BroadcastCliqueError,
    MessageSizeError,
    ProtocolViolation,
    RandomnessExhausted,
    SchedulingError,
)
from .network import CostReport
from .processor import ProcessorContext
from .protocol import ComposedProtocol, FunctionProtocol, Protocol
from .randomness import (
    CoinSource,
    PrivateCoins,
    PublicCoins,
    ReplayCoins,
    ZeroCoins,
    expand_seed,
    fresh_generator,
)
from .scheduler import RoundScheduler, Scheduler, TurnScheduler
from .simulator import ExecutionResult, make_contexts, run_protocol
from .tracing import TranscriptStats, format_transcript, transcript_stats
from .transcript import BroadcastEvent, Transcript

__all__ = [
    "Bcast1Compiled",
    "compiled_round_count",
    "BatchResult",
    "Engine",
    "Executor",
    "RunSpec",
    "SerialExecutor",
    "TrialResult",
    "derive_seed",
    "resolve_executor",
    "BatchFallbackWarning",
    "BroadcastCliqueError",
    "MessageSizeError",
    "ProtocolViolation",
    "RandomnessExhausted",
    "SchedulingError",
    "CostReport",
    "ProcessorContext",
    "ComposedProtocol",
    "FunctionProtocol",
    "Protocol",
    "CoinSource",
    "PrivateCoins",
    "PublicCoins",
    "ReplayCoins",
    "ZeroCoins",
    "expand_seed",
    "fresh_generator",
    "RoundScheduler",
    "Scheduler",
    "TurnScheduler",
    "ExecutionResult",
    "make_contexts",
    "run_protocol",
    "BroadcastEvent",
    "Transcript",
    "TranscriptStats",
    "format_transcript",
    "transcript_stats",
]
