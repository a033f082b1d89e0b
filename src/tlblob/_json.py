"""The canonical JSON text of certificates and CLI output.

``dumps_canonical`` writes it itself, so no certificate command loads
``json``.  ``cli`` imports this module when it loads, so a wrapper that
``perfbench/traced.py`` installs after ``import tlblob.cli`` is reached;
``rings`` serves the name under its old home, where the tracer wraps it.
"""

__all__ = ["dumps_canonical"]

# The characters json escapes by name; other controls, DEL and non-ASCII
# characters become \uXXXX (a surrogate pair outside the BMP).
_JSON_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f",
                 "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_char(ch):
    code = ord(ch)
    if code > 0xFFFF:
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return _JSON_ESCAPES.get(ch) or (ch if 0x20 <= code < 0x7F else f"\\u{code:04x}")


def _json_string(text):
    if not (text.isascii() and text.isprintable()) or '"' in text or "\\" in text:
        text = "".join(map(_json_char, text))
    return f'"{text}"'


def _json(obj):
    if isinstance(obj, str):
        return _json_string(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        return f"[{','.join(map(_json, obj))}]"
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        return "{%s}" % ",".join(f"{_json_string(k)}:{_json(obj[k])}"
                                 for k in sorted(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_canonical(obj):
    """Deterministic JSON used by certificates and the CLI.

    Dicts with str keys (written in sorted order), lists, tuples, str, int,
    bool and None, written byte for byte as
    ``json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\\n"``
    writes them: ASCII only, with json's escapes.  Any other value or key
    type raises TypeError.
    """
    return _json(obj) + "\n"
