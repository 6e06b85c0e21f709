"""Small shared helpers: atomic output, float formatting and input decoding.

JSON artifacts spell floats the shortest way that reads back exactly;
CSVs and stdout use ``format_float`` (17 significant digits)."""

from __future__ import annotations

import json
import os

from .errors import InputError, InvariantViolation


def format_float(x: float) -> str:
    """17 significant digits, the CSV and stdout spelling: reproducible and
    round-trip exact."""
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


def dumps_json(obj) -> str:
    """JSON with 2-space indent and a final newline; floats take Python's
    shortest round-trip spelling, so they read back as the same floats.  A
    NaN or infinity raises InvariantViolation (JSON has no spelling for
    them)."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=_json_default) + "\n"
    except ValueError as exc:
        raise InvariantViolation(f"JSON artifact: {exc}") from exc


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
