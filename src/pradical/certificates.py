"""Machine-readable certificates: JSON documents with a fixed key order,
an input digest binding the payload to its input, and deterministic
payloads (timing excluded from the determinism contract)."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time

TOOL = "pradical"
VERSION = "0.1.0"

_KEY_ORDER = ("tool", "version", "operation", "input_digest", "options",
              "verdict", "payload", "timing_ms")


def input_digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def certificate(operation, input_data, verdict, payload, options=None,
                started=None):
    timing = None
    if started is not None:
        timing = round((time.monotonic() - started) * 1000.0, 3)
    cert = {
        "tool": TOOL,
        "version": VERSION,
        "operation": operation,
        "input_digest": input_digest(input_data),
        "options": dict(options or {}),
        "verdict": verdict,
        "payload": payload,
        "timing_ms": timing,
    }
    assert tuple(cert) == _KEY_ORDER
    return cert


def to_json(cert):
    return json.dumps(cert, indent=2, sort_keys=False)


def comparable(cert):
    """The deterministic part of a certificate (timing stripped)."""
    out = dict(cert)
    out.pop("timing_ms", None)
    return out


def write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
