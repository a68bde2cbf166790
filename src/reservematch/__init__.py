"""Applicant selection under two-rank diversity reservations.

The package bundles a rank-maximal matching engine over ranked reserved
seats, six selection rules built on it, seeded synthetic pool generators,
diversity/merit metrics, and a CLI for running reproducible experiment
sweeps.
"""

__version__ = "0.1.0"

from .algorithms import (
    ALGORITHMS,
    Outcome,
    a_s_select,
    ehyy_select,
    pog_select,
    pos_select,
    sy1_select,
    sy2_select,
)
from .datagen import SatGenConfig, SettingsError, gen_instance, gen_quotas
from .graph import (
    Matching,
    RankSignature,
    ReservationGraph,
    Seat,
    SeatPool,
    build_graph,
    signature,
)
from .metrics import MetricValues, OutcomeError, evaluate
from .model import (
    Instance,
    InstanceFormatError,
    QuotaTable,
    Student,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .solver import InfeasibleForcedError, RankMaximalMatcher

__all__ = [
    "ALGORITHMS",
    "InfeasibleForcedError",
    "Instance",
    "InstanceFormatError",
    "Matching",
    "MetricValues",
    "Outcome",
    "OutcomeError",
    "QuotaTable",
    "RankMaximalMatcher",
    "RankSignature",
    "ReservationGraph",
    "SatGenConfig",
    "Seat",
    "SeatPool",
    "SettingsError",
    "Student",
    "__version__",
    "a_s_select",
    "build_graph",
    "ehyy_select",
    "evaluate",
    "gen_instance",
    "gen_quotas",
    "load_instance",
    "parse_instance",
    "pog_select",
    "pos_select",
    "save_instance",
    "serialize_instance",
    "signature",
    "sy1_select",
    "sy2_select",
]
