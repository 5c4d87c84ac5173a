"""Small shared helpers: canonical JSON, float formatting."""

from __future__ import annotations

import hashlib
import json


def fmt_float(x):
    """Render a float with 17 significant digits (round-trip safe)."""
    return f"{float(x):.17g}"


def canonical_json(obj):
    """Key-sorted, whitespace-free JSON used for hashing configs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
