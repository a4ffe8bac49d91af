"""Report serialization: determinism, summaries, guard rails."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbicert.certify import Certificate
from orbicert.cli import RunConfig, dispatch
from orbicert.cliques import MuConfig, verify_clique_axioms
from orbicert.digraphs import is_connected, orbital_union_set
from orbicert.errors import EmptyUnion, ParameterTooLarge
from orbicert.report import emit_report, report_payload, sha256

from oracles import delta_connection_set, gl2_enumerate, suborbit_elements


def test_empty_report_skeleton():
    doc = json.loads(emit_report([], "json", {"command": "none"}))
    assert doc["certificates"] == []
    assert doc["summary"] == {"verified": 0, "refuted": 0, "skipped": 0}
    assert "content_hash" in doc and "tool_version" in doc


def test_single_certificate_block():
    cert = Certificate(
        claim="demo", parameters={"p": 5}, status="verified", evidence={}, elapsed_ms=12.5
    )
    doc = json.loads(emit_report([cert], "json", {}))
    block = doc["certificates"][0]
    assert block["status"] == "verified"
    assert "elapsed_ms" in block  # normalized for byte-identity
    assert block["elapsed_ms"] == 0


def test_mixed_status_summary():
    certs = [
        Certificate("a", {}, "verified"),
        Certificate("b", {}, "refuted"),
        Certificate("c", {}, "skipped"),
        Certificate("d", {}, "verified"),
    ]
    text = emit_report(certs, "text", {})
    assert "2 verified, 1 refuted, 1 skipped" in text
    payload = report_payload(certs, {})
    assert payload["summary"] == {"verified": 2, "refuted": 1, "skipped": 1}


def test_json_determinism_includes_timing_normalization():
    # the command front end times each certificate
    (a,) = dispatch("scan", RunConfig(command="scan", max_prime=100))
    (b,) = dispatch("scan", RunConfig(command="scan", max_prime=100))
    assert a.elapsed_ms != 0
    out1 = emit_report([a], "json", {"seed": 1})
    out2 = emit_report([b], "json", {"seed": 1})
    assert out1 == out2
    text = emit_report([a], "text", {"seed": 1})
    assert "ms)" in text  # real timings surface in the text format


def test_guard_rails():
    with pytest.raises(ParameterTooLarge):
        suborbit_elements("A", 2, 37)  # 37^4 > 10^6
    with pytest.raises(ParameterTooLarge):
        list(gl2_enumerate(211))
    with pytest.raises(EmptyUnion):
        orbital_union_set([], 2, 5)
    with pytest.raises(ParameterTooLarge):
        is_connected(orbital_union_set(["A"], 3, 37))  # 37^6 vertices
    # p^m > 10^6: refused before any stage runs
    for m, p in [(2, 1009), (3, 101)]:
        with pytest.raises(ParameterTooLarge):
            verify_clique_axioms(MuConfig(z=4, mus=(1, 2, 3, 4), m=m, p=p))


def test_parallel_class_action_consequence(preserves_set):
    # dual route, exhaustive over GL(2,5): a linear map preserves the union
    # of the four direction blocks iff its slope action permutes the slopes
    from orbicert.crossratio import fractional_action
    from oracles import GridMatrix, LinPart

    cfg = MuConfig(z=4, mus=(1, 2, 3, 4), m=2, p=5)
    s = delta_connection_set(cfg)
    ident = GridMatrix.identity(2, 5)
    mu_set = set(cfg.mus)
    for a in gl2_enumerate(5):
        by_set = preserves_set(LinPart(a, ident), s)
        by_slopes = {fractional_action(a, mu, 5) for mu in cfg.mus} == mu_set
        assert by_set == by_slopes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.binary(max_size=300))
# SHA-256 pads to 64-byte blocks: 55 bytes is the longest message whose
# padding fits its last block, 56 the shortest that takes one more
@example(b"")
@example(b"a" * 55)
@example(b"b" * 56)
@example(b"c" * 63)
@example(b"d" * 64)
@example(b"e" * 65)
@example(bytes(range(256)) * 390 + bytes(160))  # 10^5 bytes
def test_the_report_hash_is_hashlib_sha256(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
