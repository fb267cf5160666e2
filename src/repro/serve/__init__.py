"""repro.serve: an always-on trace-generation service.

Training a NetShare model is a batch job; *using* one rarely is — a
traffic-engineering dashboard, a test-data faucet, or an anonymized
data-sharing endpoint wants small synthetic traces on demand, without
paying a model load per request.  This package wraps the existing
generation runtime in a long-running daemon:

* :class:`ServeDaemon` — line-delimited-JSON socket service with a
  bounded admission queue, batches of whatever requests have queued
  (task sizes on the :func:`~repro.nn.bucket_size` grid), and graceful
  SIGTERM drain (:mod:`repro.serve.daemon`);
* :class:`ModelRegistry` — LRU cache of loaded models (each keeps the
  dispatch blobs its first session froze) and hot reload on archive
  mtime change (:mod:`repro.serve.registry`);
* :class:`ServeClient` — persistent-connection client that honours
  ``retry_after`` backpressure (:mod:`repro.serve.client`);
* :func:`derive_client_seed` — per-client seed namespacing; a served
  trace is bit-identical to offline ``NetShare.generate`` with the
  same derived seed (:mod:`repro.serve.protocol`).

Entry points: ``python -m repro.serve serve --model name=path`` and
``python -m repro.serve request --port P --model name``.
"""

from .cache import DEFAULT_CACHE_CAPACITY, ResultCache
from .client import ServeClient, ServeError, ServeOverloadedError
from .coalescer import AdmissionQueue, PendingRequest, run_generation_batch
from .daemon import ServeConfig, ServeDaemon, install_signal_handlers
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    derive_client_seed,
    payload_to_trace,
    trace_to_payload,
)
from .registry import LoadedModel, ModelRegistry

__all__ = [
    "ResultCache", "DEFAULT_CACHE_CAPACITY",
    "ServeClient", "ServeError", "ServeOverloadedError",
    "AdmissionQueue", "PendingRequest", "run_generation_batch",
    "ServeConfig", "ServeDaemon", "install_signal_handlers",
    "PROTOCOL_VERSION", "ProtocolError", "derive_client_seed",
    "payload_to_trace", "trace_to_payload",
    "LoadedModel", "ModelRegistry",
]
