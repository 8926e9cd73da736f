"""Wire protocol of the serve daemon: JSON bodies in, canonical JSON out.

Every request and response body is JSON.  Responses are rendered by
:func:`canonical_json` — sorted keys, no whitespace, one trailing
newline — so a response is a *byte-deterministic* function of its
payload dict.  That is the foundation of the serve determinism
contract: the daemon and the offline ``repro request`` command build
their payloads through the same :mod:`repro.serve.service` functions,
so equal payloads become equal bytes, `cmp`-able by the parity suite.

Genomes travel as trit strings over ``0``/``1``/``U`` (``X`` and
``-`` accepted on input, ``U`` always emitted), one string per genome
of exactly ``n_vectors * block_length`` characters — the same surface
notation as the paper and the rest of the CLI.

Validation errors raise :class:`ProtocolError` carrying the HTTP
status the daemon should answer with; the offline runner prints the
same message to stderr, so a malformed request fails identically both
ways.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from ..core.encoding import EncodingStrategy
from ..core.trits import format_trits, parse_trits

__all__ = [
    "ProtocolError",
    "canonical_json",
    "decode_genomes",
    "encode_mv_set",
    "parse_strategy",
    "reject_unknown_fields",
    "require",
]


class ProtocolError(Exception):
    """A malformed or unserviceable request; carries the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def canonical_json(payload: Any) -> bytes:
    """The one byte rendering of a payload: sorted keys, no spaces.

    ``sort_keys`` removes dict insertion order from the bytes,
    ``separators`` removes formatting discretion, and floats render
    through :func:`repr` (shortest round-trip), which is deterministic
    for equal float64 values — together: equal payloads, equal bytes.
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("ascii")


def require(body: dict, field: str, kind: type | tuple) -> Any:
    """Fetch a typed required field or raise a 400 naming it."""
    if not isinstance(body, dict):
        raise ProtocolError(400, "request body must be a JSON object")
    if field not in body:
        raise ProtocolError(400, f"missing required field {field!r}")
    value = body[field]
    if not isinstance(value, kind) or isinstance(value, bool):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = "/".join(k.__name__ for k in kinds)
        raise ProtocolError(400, f"field {field!r} must be {names}")
    return value


def reject_unknown_fields(body: Any, known: frozenset[str], what: str) -> None:
    """A 400 naming every field of the object ``body`` outside ``known``.

    Catching a typo (or a field this version no longer reads) beats
    silently running the default.
    """
    if not isinstance(body, dict):
        raise ProtocolError(400, f"{what} must be a JSON object")
    unknown = sorted(set(body) - known)
    if unknown:
        raise ProtocolError(400, f"unknown {what} fields: {', '.join(unknown)}")


def parse_strategy(value: str) -> EncodingStrategy:
    """An encoding strategy name → enum, rejecting non-frequency ones."""
    try:
        strategy = EncodingStrategy(value)
    except ValueError:
        valid = ", ".join(s.value for s in EncodingStrategy)
        raise ProtocolError(
            400, f"unknown strategy {value!r}; choose one of: {valid}"
        ) from None
    if strategy is EncodingStrategy.FIXED:
        raise ProtocolError(
            400, "strategy 'fixed' has no fitness; use a frequency-based one"
        )
    return strategy


def decode_genomes(texts: list, genome_length: int) -> np.ndarray:
    """Trit strings → an ``(C, L·K)`` int8 genome matrix (strict length)."""
    if not isinstance(texts, list) or not texts:
        raise ProtocolError(400, "field 'genomes' must be a non-empty list")
    rows = []
    for index, text in enumerate(texts):
        if not isinstance(text, str):
            raise ProtocolError(400, f"genome {index} must be a trit string")
        try:
            trits = parse_trits(text)
        except ValueError as error:
            raise ProtocolError(400, f"genome {index}: {error}") from None
        if len(trits) != genome_length:
            raise ProtocolError(
                400,
                f"genome {index} has {len(trits)} trits, "
                f"expected n_vectors*block_length = {genome_length}",
            )
        rows.append(trits)
    return np.asarray(rows, dtype=np.int8)


def encode_mv_set(mv_set) -> list[str]:
    """An :class:`~repro.core.matching.MVSet` → its wire trit strings."""
    return [format_trits(vector.trits) for vector in mv_set]
