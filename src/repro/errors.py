"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the reproduction stack with a single handler
while still being able to discriminate configuration problems from runtime
modelling problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class TrainingError(ReproError):
    """Offline training (NN or error predictor) failed or diverged."""


class NotFittedError(ReproError):
    """A model was used before :meth:`fit` / training was performed."""


class PurityError(ReproError):
    """A kernel that must be pure (side-effect free) was found not to be."""


class UnknownApplicationError(ReproError, KeyError):
    """An application name was looked up that is not in the registry."""


class ServingError(ReproError):
    """The serving layer was driven through an invalid lifecycle state."""


class OverloadedError(ServingError):
    """A request was shed because the admission queue is full.

    Raised instead of queueing unboundedly — the caller is expected to
    back off and retry, exactly like an HTTP 503."""


class ProtocolError(ServingError):
    """A network wire-protocol frame was malformed or unacceptable.

    Raised by the :mod:`repro.serving.net` codecs for truncated frames,
    bad magic, unsupported protocol versions, CRC mismatches, and
    oversized length prefixes.  A server that hits one of these closes
    the offending connection (after a best-effort typed error frame);
    it never crashes and never strands an admitted request."""


class WorkerCrashError(ServingError):
    """A serving worker died (or was killed) with batches in flight.

    This is the *retryable* failure class: the batch itself is not at
    fault, so the server re-dispatches it to a healthy worker until the
    request's deadline budget or retry bound is exhausted.  Application
    errors (bad inputs, kernel failures) deliberately do not derive from
    this — re-running them would fail identically."""


class ConnectionLostError(WorkerCrashError):
    """The TCP connection to a serving node died with requests in flight.

    The node never sent a completion for these requests, so — exactly
    like a :class:`WorkerCrashError` one level down — the *request* is
    not at fault and a fronting router may redeliver it to a surviving
    node within the request's deadline budget.  Clients receive this
    instead of a raw socket error so their retry decision is typed."""


class NoHealthyNodesError(ServingError):
    """A cluster router had no healthy node to route a request to.

    Every member of the fleet is evicted, draining, or still backing
    off.  Like :class:`OverloadedError`, the caller is expected to back
    off and retry — the fleet may re-admit a recovered node at any
    probe tick."""
