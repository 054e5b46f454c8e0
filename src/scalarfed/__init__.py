"""scalarfed: deterministic simulation of scalar-only federated zeroth-order training.

Clients and server exchange nothing but gradient scalars and (implicitly,
through a shared root) random seeds; model vectors are reconstructed locally
by replaying the scalar history. A diagonal curvature estimate learned from
squared global steps preconditions the search directions without adding a
single byte to the wire.
"""

from .curvature import CurvatureDiagnostics, DiagHessian, diagnostics, ema_update, inv_sqrt
from .errors import (ConfigError, CurvatureError, EstimatorFailureError,
                     InvalidDimensionError, LedgerFormatError, LedgerRangeError,
                     ProtocolOrderError, ScalarFedError, SeedCollisionError)
from .fedsim import (ClientState, DirectionProvider, RoundConfig, RunResult,
                     ServerState, client_local_update, client_rebuild,
                     run_training, sample_clients, server_aggregate)
from .ledger import (CommMeter, Ledger, RoundLog, WireCostModel, deserialize,
                     fetch_since, full_vector_bytes, meter_round,
                     per_client_scalar_bytes, record_round, serialize)
from .rng import SeedSchedule, gaussian_vector, mix, sample_without_replacement
from .tasks import (DirichletPartition, LogisticTask, QuadraticTask,
                    make_lognormal_spectrum, partition_dirichlet)
from .zo import multi_perturbation_delta, scale_direction

__version__ = "0.1.0"
