"""JSONL checkpoints shared by the explorer and the witness sweep.

A checkpoint file is a header line ``{"kind": <header>, "spec": ...}``
followed by one line per finished unit of work (a BFS level, a sweep
shard); each engine owns the shape of its own lines.  Lines are written
whole and flushed one by one, so a killed process leaves at most one
*unterminated* last line behind.  That fragment was never written: the
loader ignores it and the writer cuts the file back to the last newline
before appending, so a resumed run redoes exactly that unit.  A
malformed line anywhere else is damage, not an interrupted write, and
stays an error, named by file and line number.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, List, Type


def json_normalize(doc):
    """A document as JSON round-trips it (tuples to lists, keys to str)."""
    return json.loads(json.dumps(doc, sort_keys=True))


def load_checkpoint(
    path: str,
    header: str,
    spec_doc: dict,
    error: Type[Exception],
    what: str,
    parse: Callable[[dict], Any],
) -> List[Any]:
    """The completion lines recorded in ``path`` ([] if it does not
    exist), each as ``parse`` returns it; None drops a line.

    Every ``header`` line must record ``spec_doc`` (the spec of a
    ``what``); the comparison runs in JSON-normalized space, because
    tuple-valued spec fields survive as tuples in memory but come back
    from disk as lists.  A line that ``parse`` cannot read is malformed.
    Failures raise ``error(message)``.
    """
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        data = fh.read()
    lines: List[Any] = []
    whole = data[: data.rfind(b"\n") + 1]
    for line_no, raw in enumerate(whole.splitlines(), 1):
        if not raw.strip():
            continue
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise error(f"checkpoint {path}:{line_no} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise error(f"checkpoint {path}:{line_no} is not a JSON object")
        if doc.get("kind") == header:
            if json_normalize(doc.get("spec")) != json_normalize(spec_doc):
                raise error(
                    f"checkpoint {path} records a different {what} spec "
                    f"({doc.get('spec')!r}); delete it or change the spec"
                )
            continue
        try:
            parsed = parse(doc)
        except (AttributeError, LookupError, TypeError, ValueError, error) as exc:
            raise error(
                f"checkpoint {path}:{line_no} is not a valid {what} line "
                f"({type(exc).__name__}: {exc}); delete it to start over"
            ) from None
        if parsed is not None:
            lines.append(parsed)
    return lines


class CheckpointWriter:
    """Appends completion lines to a checkpoint file, one flush each."""

    def __init__(self, path: str, header: str, spec_doc: dict, fresh: bool) -> None:
        self._fh = open(path, "a+b")
        self._fh.seek(0)
        data = self._fh.read()
        whole = data.rfind(b"\n") + 1
        if whole != len(data):
            self._fh.truncate(whole)  # drop a torn last line
        if fresh:
            self.write({"kind": header, "spec": spec_doc})

    def write(self, doc: dict) -> None:
        self._fh.write((json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"))
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()
