"""Strict RFC 8259 JSON helpers shared across layers.

``json.dumps`` happily emits the bare tokens ``NaN`` / ``Infinity`` for
non-finite floats (a tolerance search that never passed, an eye metric of
a closed eye, a BER with zero compared bits).  Those tokens are not
RFC 8259 JSON — strict parsers (and every non-Python consumer) reject
them — so every serialization layer of this repository encodes them
portably and decodes them on load:

* inside *float-typed arrays* non-finite entries become the strings
  ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"`` (unambiguous there — the
  declared dtype says every entry is a float, and numpy parses the tokens
  right back);
* inside *general payloads* (where strings are legitimate values) a
  non-finite float becomes the tagged object ``{"__nonfinite__": "NaN"}``,
  so a genuine ``"NaN"`` string survives the round-trip untouched.

The helpers were born in :mod:`repro.experiments.results` and moved here
so the sweep layer (:mod:`repro.sweep.resilient` checkpoints worker
return values) can share them without importing the experiments package
upward.  :func:`content_key` canonicalizes arbitrarily nested dataclass /
array structures into a stable SHA-256 digest — the identity of a
checkpoint or cache entry.

:func:`read_jsonl` is the one reader of append-only JSONL files (sweep
journals, telemetry traces, the bench-history ledger): a crash can tear
at most the trailing line, so parsing stops at the first line that does
not decode and everything durably written before it still counts.  The
sweep journal — a checkpoint plus its ``.audit`` and ``.progress``
sidecars — is described once by :data:`JOURNAL_FILES`, built by
:func:`journal_header` and validated by :func:`read_journal`.

The numpy import is guarded: stdlib-only consumers — the CI lint job's
``python -m repro.telemetry.watch`` sidecar viewer — only ever feed plain
Python values through the codec, and every numpy-specific branch below is
reached exclusively by numpy-typed *inputs*, which cannot exist where
numpy is absent.  Output is byte-identical either way (the non-finite
float checks use :mod:`math`, which accepts numpy scalars too).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import NamedTuple

try:
    import numpy as np
except ImportError:  # numpy-free consumers (telemetry watch in the lint job)
    np = None

#: isinstance() targets that exist only where numpy imported; the empty
#: tuple makes every numpy branch statically unreachable without it.
_NP_ARRAY = () if np is None else (np.ndarray,)
_NP_BOOL = () if np is None else (np.bool_,)
_NP_FLOAT = (float,) if np is None else (float, np.floating)
_NP_INT = () if np is None else (np.integer,)

__all__ = [
    "NONFINITE_TOKENS",
    "dumps_strict",
    "dumps_compact",
    "loads_strict",
    "encode_float",
    "encode_float_array",
    "encode_json_value",
    "decode_json_value",
    "canonical_payload",
    "content_key",
    "Jsonl",
    "read_jsonl",
    "JOURNAL_FILES",
    "CheckpointMismatchError",
    "journal_path",
    "journal_header",
    "read_journal",
]

#: Sentinel string -> non-finite float value (the decoding table).
NONFINITE_TOKENS = {
    "NaN": float("nan"),
    "Infinity": float("inf"),
    "-Infinity": float("-inf"),
}

_NONFINITE_TAG = "__nonfinite__"
_LITERAL_TAG = "__literal__"


def dumps_strict(payload, *, indent: int | None = None, sort_keys: bool = False) -> str:
    """``json.dumps`` with ``allow_nan=False`` — the only sanctioned serializer.

    Every persisted JSON document in this repository goes through here (or
    :func:`dumps_compact`); a bare ``NaN`` / ``Infinity`` token raises
    ``ValueError`` at write time instead of corrupting a file that strict
    parsers reject.  Separators follow the ``json.dumps`` defaults so
    existing golden-pinned serializations stay byte-identical.
    """
    return json.dumps(payload, indent=indent, sort_keys=sort_keys, allow_nan=False)


def dumps_compact(payload, *, sort_keys: bool = False) -> str:
    """Strict JSON with compact separators — the JSONL record form.

    Checkpoint lines, audit sidecar lines and telemetry trace records are
    all written in this shape, one record per line.
    """
    return json.dumps(payload, sort_keys=sort_keys, allow_nan=False, separators=(",", ":"))


def _reject_nonfinite_constant(token: str):
    raise ValueError(
        f"non-RFC-8259 token {token!r} in JSON input; strict documents encode "
        f"non-finite floats as sentinel strings (see repro._jsonio)"
    )


def loads_strict(text: str):
    """``json.loads`` that rejects the bare ``NaN`` / ``Infinity`` tokens.

    Documents written by :func:`dumps_strict` / :func:`dumps_compact` never
    contain them, so a hit means the file was produced by an unsanctioned
    serializer — better to fail loudly than to silently import a float that
    the strict writers could never round-trip.  Malformed JSON raises
    ``json.JSONDecodeError`` exactly as ``json.loads`` does.
    """
    return json.loads(text, parse_constant=_reject_nonfinite_constant)


def _is_tagged(value: dict) -> bool:
    return set(value) == {_NONFINITE_TAG} or set(value) == {_LITERAL_TAG}


def encode_float(value: float) -> float | str:
    """One float as itself, or as its sentinel string when non-finite."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def encode_float_array(values: np.ndarray) -> list:
    """``ndarray.tolist()`` with non-finite floats as sentinel strings."""
    if np.all(np.isfinite(values)):
        return values.tolist()

    def encode(node):
        if isinstance(node, list):
            return [encode(child) for child in node]
        return encode_float(node)

    return encode(values.tolist())


def encode_json_value(value):
    """Recursively make *value* strict-JSON-safe, tagging non-finite floats.

    A non-finite float becomes ``{"__nonfinite__": <token>}`` so that
    legitimate payload *strings* like ``"NaN"`` stay distinguishable; a
    genuine dict that happens to look like a tag is escaped as
    ``{"__literal__": <encoded dict>}``, keeping the round-trip lossless
    for every input.  Numpy scalars and arrays are converted to their
    Python equivalents (ints, floats, nested lists) so checkpointed
    worker payloads never hit ``json.dumps`` type errors.
    """
    if isinstance(value, dict):
        encoded = {key: encode_json_value(child) for key, child in value.items()}
        if _is_tagged(value):
            return {_LITERAL_TAG: encoded}
        return encoded
    if isinstance(value, (list, tuple)):
        return [encode_json_value(child) for child in value]
    if isinstance(value, _NP_ARRAY):
        return [encode_json_value(child) for child in value.tolist()]
    if isinstance(value, _NP_BOOL):
        return bool(value)
    if isinstance(value, _NP_FLOAT):
        value = float(value)
        if not math.isfinite(value):
            return {_NONFINITE_TAG: encode_float(value)}
        return value
    if isinstance(value, _NP_INT):
        return int(value)
    return value


def decode_json_value(value):
    """Inverse of :func:`encode_json_value` (tagged objects back to values)."""
    if isinstance(value, dict):
        if set(value) == {_NONFINITE_TAG} and value[_NONFINITE_TAG] in NONFINITE_TOKENS:
            return NONFINITE_TOKENS[value[_NONFINITE_TAG]]
        if set(value) == {_LITERAL_TAG} and isinstance(value[_LITERAL_TAG], dict):
            literal = value[_LITERAL_TAG]
            return {key: decode_json_value(child) for key, child in literal.items()}
        return {key: decode_json_value(child) for key, child in value.items()}
    if isinstance(value, list):
        return [decode_json_value(child) for child in value]
    return value


def canonical_payload(value):
    """A deterministic, JSON-serializable shadow of *value*.

    Dataclasses become ``{type name: {field: ...}}`` maps, numpy arrays
    nested lists tagged with their dtype, tuples lists, dict keys strings
    (sorted at dump time), non-finite floats their sentinel strings.
    Anything unrecognized falls back to ``repr`` — good enough for the
    identity of frozen specification objects, which is the only use.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: canonical_payload(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, "fields": fields}
    if isinstance(value, dict):
        return {str(key): canonical_payload(child) for key, child in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_payload(child) for child in value]
    if isinstance(value, _NP_ARRAY):
        return {
            "__ndarray__": str(value.dtype),
            "values": [canonical_payload(child) for child in value.tolist()],
        }
    if isinstance(value, _NP_BOOL):
        return bool(value)
    if isinstance(value, _NP_FLOAT):
        return encode_float(float(value))
    if isinstance(value, _NP_INT):
        return int(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def content_key(value) -> str:
    """Stable SHA-256 hex digest of *value*'s canonical payload."""
    text = json.dumps(
        canonical_payload(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- append-only JSONL files --------------------------------------------------


class Jsonl(NamedTuple):
    """What :func:`read_jsonl` recovered from one append-only JSONL file.

    ``records`` are the complete JSON-object lines in file order;
    ``torn`` is the line parsing stopped at (``None`` for an intact
    file); ``end`` is the byte offset just past the last complete record
    — the length to truncate the file to before appending again.
    """

    records: list
    torn: str | None
    end: int


def read_jsonl(path: str | Path) -> Jsonl:
    """All complete records of an append-only JSONL file.

    Parsing stops at the first line that does not decode — the signature
    of a crash or an in-flight append.  Blank lines and lines holding a
    JSON value other than an object are skipped.
    """
    records: list = []
    offset = end = 0
    for line in Path(path).read_bytes().splitlines(keepends=True):
        offset += len(line)
        if not line.strip():
            continue
        try:
            record = loads_strict(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return Jsonl(records, line.decode("utf-8", errors="replace").rstrip("\r\n"), end)
        if isinstance(record, dict):
            records.append(record)
            end = offset
    return Jsonl(records, None, end)


# --- the sweep journal --------------------------------------------------------

#: Version stamped into every sweep-journal header.
_JOURNAL_VERSION = 1

#: The files of one checkpointed sweep: name -> (suffix appended to the
#: checkpoint path, header ``kind``, what error messages call the file).
JOURNAL_FILES = {
    "checkpoint": ("", "repro-sweep-checkpoint", "sweep checkpoint"),
    "audit": (".audit", "repro-sweep-audit", "sweep audit sidecar"),
    "progress": (".progress", "repro-sweep-progress", "sweep progress sidecar"),
}

#: Header fields that identify the study a journal belongs to.
_IDENTITY_FIELDS = ("version", "key", "n_tasks", "seed")


class CheckpointMismatchError(ValueError):
    """A journal file on disk is not the expected kind or belongs to a different study."""


def journal_path(checkpoint: str | Path, name: str) -> Path:
    """Where journal file *name* of the sweep checkpointed at *checkpoint* lives."""
    checkpoint = Path(checkpoint)
    return checkpoint.with_name(checkpoint.name + JOURNAL_FILES[name][0])


def journal_header(
    name: str, key: str, n_tasks: int, seed: int | None, manifest: dict | None = None
) -> dict:
    """The first record of journal file *name*; *manifest* is provenance, not identity."""
    header = {
        "kind": JOURNAL_FILES[name][1],
        "version": _JOURNAL_VERSION,
        "key": key,
        "n_tasks": n_tasks,
        "seed": seed,
    }
    if manifest is not None:
        header["manifest"] = manifest
    return header


def read_journal(path: str | Path, name: str, expected: dict | None = None) -> Jsonl:
    """:func:`read_jsonl` of journal file *name*, header first and validated.

    A missing or empty file reads as no records.  Otherwise the first
    record must be a *name* header, and when *expected* (a
    :func:`journal_header`) is given, its identity fields — version, key,
    task count, seed — must match; :class:`CheckpointMismatchError` is
    raised instead of silently mixing studies.  The manifest is never
    compared, so a journal written on one machine resumes on another.
    """
    if not Path(path).exists():
        return Jsonl([], None, 0)
    journal = read_jsonl(path)
    if not journal.records and journal.torn is None:
        return journal
    _, kind, label = JOURNAL_FILES[name]
    header = journal.records[0] if journal.records else None
    found = header.get("kind") if header is not None else None
    if found != kind:
        raise CheckpointMismatchError(
            f"{path} is not a {label} (header kind {found!r}, not a {kind} header)"
        )
    for field in _IDENTITY_FIELDS if expected is not None else ():
        if header.get(field) != expected[field]:
            raise CheckpointMismatchError(
                f"{label} {path} belongs to a different study: "
                f"{field} is {header.get(field)!r}, expected {expected[field]!r}"
            )
    return journal
