"""MuxWise core: multiplex engine, estimator, dispatcher/server."""

from repro.core.calibration import calibrated_estimator, calibrated_predictor
from repro.core.engine import MultiplexEngine
from repro.core.hybrid import HybridPDServer
from repro.core.estimator import (
    BATCH_SIZE_BUCKETS,
    DEFAULT_GUARD,
    TOKEN_BUCKETS,
    ContentionGuard,
    ContentionTolerantEstimator,
    DecodeSample,
    GuardKey,
    PrefillSample,
    SoloRunPredictor,
    batch_bucket,
    token_bucket,
)
from repro.core.server import MuxWiseServer, PrefillJob

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "ContentionGuard",
    "ContentionTolerantEstimator",
    "DEFAULT_GUARD",
    "DecodeSample",
    "GuardKey",
    "HybridPDServer",
    "MultiplexEngine",
    "MuxWiseServer",
    "PrefillJob",
    "PrefillSample",
    "SoloRunPredictor",
    "TOKEN_BUCKETS",
    "batch_bucket",
    "calibrated_estimator",
    "calibrated_predictor",
    "token_bucket",
]
