"""Differential tests: the compiled interpreter against the reference one.

Each Hypothesis example is one seed of :func:`random_programs.random_program`.
The compiled :class:`repro.isa.machine.Machine` and the original
``if``/``elif`` interpreter kept in :mod:`reference_machine` run the same
program on copies of the same memory and must agree on the error raised (or
its absence), the final registers and memory, the :class:`ExecutionResult`,
and the collected trace's canonical text, compressed v3 bytes and
statistics.  ``pytest tests/isa --hypothesis-profile=nightly`` runs many
more seeds than the default profile.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_machine
from random_programs import random_program
from repro.errors import ExecutionError, ExecutionLimitExceeded, MemoryError_, ReproError
from repro.isa.machine import Machine
from repro.isa.opcodes import Opcode
from repro.trace.collector import collect_trace
from repro.trace.io import dumps_trace, dumps_trace_binary

#: Seeds pinned as regression cases: each hits one path the random search
#: must keep covering (see ``test_pinned_seeds_cover_their_paths``).
PINNED_SEEDS = {
    "halts": 0,
    "budget_exceeded": 19,
    "memory_error": 3,
    "leaves_program": 10,
}


def _run(machine):
    """Run ``machine``; returns ``(result, error)``, exactly one not None."""
    try:
        return machine.run(), None
    except ReproError as error:
        return None, error


def _budget(budget):
    return {} if budget is None else {"max_instructions": budget}


def _outcome(seed):
    """The error type of ``seed``'s program under the compiled interpreter."""
    program, memory, budget = random_program(seed)
    _, error = _run(Machine(program, memory=memory, **_budget(budget)))
    return type(error)


def _ordered_statistics(statistics):
    return (
        statistics.name,
        statistics.total_dynamic_instructions,
        statistics.predicted_instructions,
        statistics.static_instruction_count,
        list(statistics.category_dynamic_counts.items()),
        list(statistics.category_static_counts.items()),
    )


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=PINNED_SEEDS["halts"])
@example(seed=PINNED_SEEDS["budget_exceeded"])
@example(seed=PINNED_SEEDS["memory_error"])
@example(seed=PINNED_SEEDS["leaves_program"])
def test_compiled_interpreter_matches_reference(seed):
    program, memory, budget = random_program(seed)
    expected_machine = reference_machine.Machine(
        program, memory=copy.deepcopy(memory), **_budget(budget)
    )
    actual_machine = Machine(program, memory=copy.deepcopy(memory), **_budget(budget))
    expected, expected_error = _run(expected_machine)
    actual, actual_error = _run(actual_machine)

    assert type(actual_error) is type(expected_error), (expected_error, actual_error)
    assert actual == expected
    assert actual_machine.registers.snapshot() == expected_machine.registers.snapshot()
    assert actual_machine.memory.words == expected_machine.memory.words
    if expected_error is not None:
        return

    expected_trace, expected_result = reference_machine.collect_trace(
        program, memory=copy.deepcopy(memory), max_instructions=budget
    )
    trace, result = collect_trace(program, memory=copy.deepcopy(memory), max_instructions=budget)
    assert result == expected_result
    assert dumps_trace(trace) == dumps_trace(expected_trace)
    assert dumps_trace_binary(trace, compress=True) == dumps_trace_binary(
        expected_trace, compress=True
    )
    assert _ordered_statistics(trace.statistics()) == _ordered_statistics(
        expected_trace.statistics()
    )
    assert trace.records == expected_trace.records


@pytest.mark.parametrize(
    "path, error",
    [
        ("halts", type(None)),
        ("budget_exceeded", ExecutionLimitExceeded),
        ("memory_error", MemoryError_),
        ("leaves_program", ExecutionError),
    ],
)
def test_pinned_seeds_cover_their_paths(path, error):
    assert _outcome(PINNED_SEEDS[path]) is error


def test_generator_exercises_every_opcode_and_mostly_halts():
    outcomes = Counter()
    opcodes = set()
    for seed in range(200):
        program, _, _ = random_program(seed)
        opcodes.update(instruction.opcode for instruction in program.instructions)
        outcomes[_outcome(seed)] += 1
    assert opcodes == set(Opcode)
    assert outcomes[type(None)] >= 100
