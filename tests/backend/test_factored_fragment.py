"""The native ``factored_fragment`` op: refactoring synthesis in C.

On a fragment-memo miss, :func:`repro.synth.refactor.refactor_fragment` asks
the backend for the compiled synthesis and runs the Python chain
(:func:`repro.synth.refactor._factor_both_polarities`, its reference) when the
backend lacks the op or the op declines.  The op must return the chain's
fragment exactly — the same nodes in the same order and the same output
literal.  ``tests/synth/test_synthesis_golden.py`` holds the memo to recorded
fragments of 1 to 10 inputs; this file holds the op to the chain on the wider
tables ``rf -K 12`` synthesizes (11 to 14 inputs), on hypothesis tables, on
constants and single literals, and from concurrent threads.  Tests that need
the engine skip without one.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aig.truth import cached_table_var, table_mask
from repro.backend import native_kernels, use_backend
from repro.backend.native import NativeBackend
from repro.synth import refactor
from repro.synth.refactor import _factor_both_polarities


@pytest.fixture(scope="module")
def backend():
    kernels, reason = native_kernels.load_engine()
    if kernels is None:
        pytest.skip(f"no compiled engine on this install ({reason})")
    return NativeBackend()


def _formula(rng: random.Random, num_vars: int) -> int:
    """A random AND/OR formula over every variable: a cone-like function."""
    mask = table_mask(num_vars)
    terms = [cached_table_var(var, num_vars) ^ (mask if rng.random() < 0.5 else 0)
             for var in range(num_vars)]
    while len(terms) > 1:
        first = terms.pop(rng.randrange(len(terms)))
        second = terms.pop(rng.randrange(len(terms)))
        joined = first & second if rng.random() < 0.6 else first | second
        terms.append(joined ^ (mask if rng.random() < 0.3 else 0))
    return terms[0]


def _wide_tables(num_vars: int):
    """Seeded sparse, dense and formula tables of ``num_vars`` inputs."""
    rng = random.Random(2400 + num_vars)
    width = 1 << num_vars
    tables = []
    for _ in range(2):
        sparse = rng.getrandbits(width)
        dense = rng.getrandbits(width)
        for _ in range(3):
            sparse &= rng.getrandbits(width)
            dense |= rng.getrandbits(width)
        tables += [sparse, dense, _formula(rng, num_vars)]
    return tables


def _assert_same(backend, table: int, num_vars: int) -> None:
    expected = _factor_both_polarities(table & table_mask(num_vars), num_vars)
    assert backend.factored_fragment(table, num_vars) == expected, (hex(table), num_vars)


@pytest.mark.parametrize("num_vars", [11, 12, 13, 14])
def test_matches_the_python_chain_on_wide_tables(backend, num_vars):
    # Fragments of several hundred nodes exceed the op's first output
    # buffer, so the retry with a larger one runs too.
    for table in _wide_tables(num_vars):
        _assert_same(backend, table, num_vars)


tables = st.integers(min_value=1, max_value=8).flatmap(
    lambda num_vars: st.tuples(st.integers(0, table_mask(num_vars)), st.just(num_vars))
)


@settings(max_examples=300, deadline=None)
@given(case=tables)
@example(case=(0x6996, 4))
@example(case=(0x8000, 4))
def test_matches_the_python_chain_on_hypothesis_tables(backend, case):
    _assert_same(backend, *case)


@pytest.mark.parametrize("num_vars", range(1, 17))
def test_matches_the_python_chain_on_constants_and_literals(backend, num_vars):
    mask = table_mask(num_vars)
    for table in (0, mask):
        _assert_same(backend, table, num_vars)
        assert backend.factored_fragment(table, num_vars).size == 0
    for var in range(num_vars):
        literal = cached_table_var(var, num_vars)
        for table in (literal, literal ^ mask):
            _assert_same(backend, table, num_vars)
            assert backend.factored_fragment(table, num_vars).size == 0


def test_ignores_bits_above_the_table(backend):
    assert backend.factored_fragment(0b0110 | 1 << 40, 2) == _factor_both_polarities(0b0110, 2)


def test_concurrent_calls_agree(backend):
    # The kernel keeps its state per call: service threads share the memo
    # and may synthesize at the same time.
    cases = [(table, 12) for table in _wide_tables(12)] * 3
    expected = [backend.factored_fragment(table, num_vars) for table, num_vars in cases]
    results = {}

    def work(index):
        results[index] = [backend.factored_fragment(*case) for case in cases[index::4]]

    threads = [threading.Thread(target=work, args=(index,)) for index in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index in range(4):
        assert results[index] == expected[index::4]


def test_declines_outside_its_input_range(backend):
    assert backend.factored_fragment(1, 0) is None
    assert backend.factored_fragment(0b0110, 17) is None


def test_declines_without_an_engine(monkeypatch):
    monkeypatch.setattr(native_kernels, "load_engine", lambda: (None, "disabled-for-test"))
    assert NativeBackend().factored_fragment(0b0110, 2) is None


@pytest.mark.parametrize("backend_name", ["native", "reference"])
def test_a_memo_miss_takes_the_op_or_the_python_chain(backend_name, monkeypatch):
    calls = []
    with use_backend(backend_name) as selected:
        op = getattr(selected, "factored_fragment", None)
        if op is not None:
            monkeypatch.setattr(
                selected, "factored_fragment", lambda *key: calls.append(key) or op(*key)
            )
        table, num_vars = _wide_tables(11)[2], 11
        fragment = refactor._synthesize_fragment(table, num_vars)
    assert fragment == _factor_both_polarities(table, num_vars)
    assert calls == ([(table, num_vars)] if backend_name == "native" else [])
