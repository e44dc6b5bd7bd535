"""The benchmark's span tracer (``perfbench/tracer.py``) names relaysim
functions as ``<module>.<attribute path>``. A name that no longer resolves
breaks every traced benchmark run, so each one is checked here."""

import importlib.util
from pathlib import Path

import pytest

from relaysim import crypto, protocol

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("span", tracer.SPANS)
def test_every_span_resolves(span):
    owner, attr = tracer._resolve(span)
    # the tracer reads the function from the owner's own namespace
    assert callable(vars(owner).get(attr)), f"{span} names no function"


def test_every_non_block_digest_is_traced():
    participant = protocol.Participant("mo1", model_version=2)
    with tracer.Tracer(("serialize.digest",)) as traced:
        protocol.AbstractModels().digest(participant)
        protocol.AbstractModels().encrypt(b"pk", participant)
        crypto.model_digest(crypto.ModelWeights(2, (0.5, 1.0)))
        crypto.ciphertext_digest(crypto.Ciphertext(3, b"payload", b"tag"))
    assert [name for _, _, name, _, _ in traced.spans] == ["serialize.digest"] * 4
