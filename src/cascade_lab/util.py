"""Small shared helpers: canonical JSON, float formatting, the config digest."""

from __future__ import annotations

import json

# hashlib maps OpenSSL on import, which costs every run memory for one config
# hash; the interpreter's builtin SHA-256 gives the same digest (CPython's own
# random.py loads its SHA-512 in this order for the same reason)
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def fmt_float(x):
    """Render a float with 17 significant digits (round-trip safe)."""
    return f"{float(x):.17g}"


def canonical_json(obj):
    """Key-sorted, whitespace-free JSON used for hashing configs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(text):
    return sha256(text.encode("utf-8")).hexdigest()
