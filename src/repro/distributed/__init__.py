"""Master-worker distributed platform (the paper's DataManager/Algorithm)."""

from .backends import (
    BACKEND_NAMES,
    Backend,
    MultiprocessingBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from .checkpoint import CheckpointError, CheckpointManager, run_key
from .datamanager import DataManager, RunReport, TaskFailedError
from .faults import FaultInjector, WorkerCrash
from .health import WorkerHealth, WorkerStats
from .lifecycle import Attempt, RunPlan, TaskLifecycle
from .net import (
    NetworkServer,
    ProtocolError,
    recv_message,
    run_network_client,
    send_message,
)
from .protocol import (
    ResultValidationError,
    SpanSpec,
    TaskResult,
    TaskSpec,
    decode,
    encode,
    freeze_result,
    make_units,
    thaw_result,
    validate_result,
)
from .worker import execute_span, execute_task, execute_unit, worker_identity

__all__ = [
    "Attempt",
    "BACKEND_NAMES",
    "Backend",
    "CheckpointError",
    "CheckpointManager",
    "DataManager",
    "FaultInjector",
    "MultiprocessingBackend",
    "NetworkServer",
    "ProtocolError",
    "ResultValidationError",
    "RunPlan",
    "RunReport",
    "SerialBackend",
    "SpanSpec",
    "TaskFailedError",
    "TaskLifecycle",
    "TaskResult",
    "TaskSpec",
    "ThreadBackend",
    "WorkerCrash",
    "WorkerHealth",
    "WorkerStats",
    "decode",
    "encode",
    "execute_span",
    "execute_task",
    "execute_unit",
    "freeze_result",
    "make_backend",
    "make_units",
    "recv_message",
    "run_key",
    "run_network_client",
    "send_message",
    "thaw_result",
    "validate_result",
    "worker_identity",
]
