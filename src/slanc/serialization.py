"""JSON reading, deterministic JSON emission and atomic file writes.

Reports and tables are plain json.dumps output: Python writes each
float as its shortest repr, which parses back to the exact bit pattern,
and non-finite doubles as the Infinity/NaN tokens its parser accepts.
Every output file is written to a temporary name and renamed into place
so readers never observe a half-written file.
"""

from __future__ import annotations

import json
import os
import tempfile


def read_json(path: str, what: str, error: type[Exception]):
    """The JSON document at path; an error naming what and path when it
    cannot be read or is not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise error(f"cannot read {what} {path}: {err}") from err
    except ValueError as err:  # bad JSON or bad UTF-8
        raise error(f"malformed {what} JSON in {path}: {err}") from err


def dumps(value) -> str:
    """Indented JSON text with a trailing newline.

    Dict insertion order is preserved (not sorted): callers construct
    documents in their schema order, which keeps reruns byte-identical.
    """
    return json.dumps(value, indent=2) + "\n"


def atomic_write(path: str, write) -> None:
    """Write a file via temp-and-rename so it appears atomically.

    write(handle) writes the file's bytes to handle, the temporary file
    open for binary writing, in any order it seeks to.  If write raises,
    the file at path keeps its old bytes.  The file gets the mode open()
    would give a new one, 0o666 less the umask (mkstemp makes it 0o600).
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-slanc-")
    try:
        with os.fdopen(fd, "wb") as handle:
            umask = os.umask(0o022)  # read by setting it; slanc starts no threads
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))
