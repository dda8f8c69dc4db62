"""Desk-scale laboratory for remote timing covert channels: a simulated
victim service whose response times depend on microarchitectural state,
and an attacker that recovers planted secrets purely from round trips.
"""

from . import attacker, config, figures, stats, uarch, victim, wire
from .attacker import (AslrResult, BitRead, Calibration, CalibrationError,
                       ExtractionError, ExtractionPlan, LeakResult, Session,
                       ValueResult, break_aslr, calibrate, leak_bit,
                       leak_range, value_threshold_search)
from .config import dump_config, load_config
from .stats import Histogram, HistogramSpec
from .uarch import (AvxUnit, BranchPredictor, CacheModel, MicroarchState,
                    SecretStore, VirtualClock, avx_penalty,
                    thrash_probability)
from .victim import ConfigError, Victim, VictimConfig
from .wire import (LatencyModel, LoopbackTransport, RequestPacket,
                   ResponsePacket, UDPTransport)

__version__ = "1.0.0"
