"""Sending one request in-process and reducing its answer to a digest."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter

from workloads import Request

RUNTIME_FIELD = '"runtime_seconds": "'


class RequestFailed(Exception):
    """The request raised, exited nonzero or printed nothing to digest."""


def send(request: Request) -> str:
    """Run one request and return what it printed on stdout."""
    if request[0] == "lib":
        return _diagram_stream(int(request[2]))
    from chordgenus import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(request[1:]))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    if code != 0:
        raise RequestFailed(f"exit {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def _diagram_stream(n: int) -> str:
    # look the stream up at call time, so an instrumented run sees its wrapper
    import chordgenus

    counts: Counter = Counter()
    for d in chordgenus.enumerate_chord_diagrams(n):
        counts[(d.genus(), d.one_chord_count(), d.is_shape())] += 1
    rows = [[g, m, int(shape), c] for (g, m, shape), c in sorted(counts.items())]
    return json.dumps({"n": n, "genus_onechords_shape_count": rows}, sort_keys=True) + "\n"


def canonical(text: str) -> str:
    """The printed payload with the ``metadata.runtime_seconds`` line removed.

    CLI documents are printed with sorted keys, so ``metadata`` and its
    runtime field come before the payload; everything else must stay
    byte-identical for the digest to match.
    """
    at = text.find(RUNTIME_FIELD)
    if at < 0:
        return text
    start = text.rfind("\n", 0, at) + 1
    end = text.find("\n", at)
    end = len(text) if end < 0 else end + 1
    return text[:start] + text[end:]


def digest(text: str) -> str:
    if not text:
        raise RequestFailed("empty output")
    return hashlib.sha256(canonical(text).encode()).hexdigest()
