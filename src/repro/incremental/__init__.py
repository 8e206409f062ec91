"""Incremental envelope maintenance under insert / delete / retarget.

The kinetic update layer (``docs/incremental.md``): a maintained envelope whose
updates localize to the affected breakpoints via a deterministic
certificate event queue, with the full recompute kept as the semantic
reference (byte-identical parity, enforced by ``repro.verify
incremental`` and the Hypothesis suite in ``tests/incremental/``).

See docs/incremental.md for the certificate model, the parity
contract, and the measured incremental-vs-recompute crossover.
"""

from .engine import IncrementalEnvelope, encode_envelope, envelope_bytes
from .events import Certificate, CertificateQueue

__all__ = [
    "IncrementalEnvelope",
    "Certificate",
    "CertificateQueue",
    "encode_envelope",
    "envelope_bytes",
]
