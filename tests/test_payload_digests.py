"""Every benchmark request prints the payload its reference digest records.

``perfbench/reference.json`` holds one digest per catalogue entry of the
benchmark workloads.  A request whose canonical output changes (a renamed
verify row, a reordered payload key, a different coefficient) would fail
every time the benchmark sends it, so the digests are checked here, one case
per workload, through the same ``client.send`` and ``client.digest``.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import client  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_catalogue_payloads_match_their_reference_digests(workload):
    digests = reference.load()
    wrong = [
        workloads.key(request)
        for request in workloads.catalogue(workload)
        if client.digest(client.send(request)) != digests[workloads.key(request)]
    ]
    assert wrong == []
