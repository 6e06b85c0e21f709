"""Small shared helpers: atomic output, float formatting and input decoding."""

from __future__ import annotations

import json
import math
import os

from .errors import InputError, InvariantViolation


def format_float(x: float) -> str:
    """17 significant digits: reproducible and round-trip exact."""
    return format(float(x), ".17g")


def read_utf8(path: str, what: str) -> str:
    """Text of the input file ``path``, which errors call ``what``:
    ``InputError`` when it cannot be read or is not UTF-8, naming the line
    of the first bad byte."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{what} {path} line {line}: not UTF-8 text ({exc.reason})") from exc


def _json_default(obj):
    import numpy as np

    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _render(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _render(val, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad + "  ")
            _render(val, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise InvariantViolation(f"non-finite value {obj} in a JSON artifact")
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    else:
        out.append(json.dumps(obj))


def dumps_json(obj) -> str:
    """JSON with every float printed at 17 significant digits; a NaN or
    infinity raises InvariantViolation (JSON has no spelling for them)."""
    normalized = json.loads(json.dumps(obj, default=_json_default))
    out: list = []
    _render(normalized, 0, out)
    return "".join(out) + "\n"


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file + rename so interrupted runs leave no output.
    The temp file is created with mode 0666 less the umask, as ``open``
    would create ``path``, and the rename keeps that mode.  A path that
    cannot be written (missing directory, a directory) raises InputError."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-roughgg-{os.getpid()}-{os.urandom(6).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
