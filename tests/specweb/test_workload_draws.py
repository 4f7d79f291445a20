"""The SPECWeb draws consume the random stream exactly like
``random.choices``.

The workload generator bisects into cumulative weights it computes once,
instead of calling ``rng.choices`` on every draw.  Every campaign's
``metrics_digest`` depends on the generator drawing the same values *and*
leaving the stream in the same state, so both are pinned here against
``random.Random(seed).choices(population, weights=w)[0]``.
"""

import random
from itertools import accumulate

import pytest

from repro.ossim.vfs import VirtualFileSystem
from repro.sim.rng import SeededRng
from repro.specweb.fileset import (
    CLASS_COUNT,
    CLASS_WEIGHTS,
    FILES_PER_CLASS,
    WITHIN_CLASS_WEIGHTS,
    SpecWebFileset,
)
from repro.specweb.workload import (
    OPERATION_MIX,
    OperationKind,
    WorkloadGenerator,
)

SEEDS = (0, 1, 7, 11, 2004, 2**62 + 3)
DRAWS = 5000

KINDS = [kind for kind, _weight in OPERATION_MIX]
KIND_WEIGHTS = [weight for _kind, weight in OPERATION_MIX]

# (generator attribute, population, weights) for the three mixes.
MIXES = {
    "kind": ("_kind_cum", KINDS, KIND_WEIGHTS),
    "class": ("_class_cum", list(range(CLASS_COUNT)), CLASS_WEIGHTS),
    "within_class": (
        "_file_cum", list(range(FILES_PER_CLASS)), WITHIN_CLASS_WEIGHTS,
    ),
}


@pytest.fixture(scope="module")
def fileset():
    fs = SpecWebFileset(directories=3)
    fs.populate(VirtualFileSystem())
    return fs


def _reference_stream(seed):
    """A bare ``random.Random`` seeded exactly like ``SeededRng(seed)``."""
    return random.Random(SeededRng(seed).seed)


@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("seed", SEEDS)
def test_each_mix_matches_random_choices(fileset, seed, mix):
    attribute, population, weights = MIXES[mix]
    generator = WorkloadGenerator(fileset, SeededRng(seed))
    reference = _reference_stream(seed)
    cumulative = getattr(generator, attribute)
    drawn = [population[generator._pick(cumulative)] for _ in range(DRAWS)]
    expected = [
        reference.choices(population, weights=weights)[0]
        for _ in range(DRAWS)
    ]
    assert drawn == expected
    assert generator.rng._random.getstate() == reference.getstate()


def _reference_operation(rng, fileset):
    """The draws of one operation, made with ``random.choices``."""
    kind = rng.choices(KINDS, weights=KIND_WEIGHTS)[0]
    if kind == OperationKind.POST:
        return kind, fileset.post_target
    class_index = rng.choices(
        range(CLASS_COUNT), weights=CLASS_WEIGHTS)[0]
    file_index = rng.choices(
        range(FILES_PER_CLASS), weights=WITHIN_CLASS_WEIGHTS)[0]
    dir_index = rng.randint(0, fileset.directories - 1)
    return kind, fileset.url_path(dir_index, class_index, file_index)


@pytest.mark.parametrize("seed", SEEDS)
def test_operation_sequence_and_stream_state_are_unchanged(fileset, seed):
    generator = WorkloadGenerator(fileset, SeededRng(seed))
    connection = generator.for_connection(3)
    reference = _reference_stream(connection.rng.seed)
    kinds = set()
    for _ in range(DRAWS):
        operation = connection.next_operation()
        assert (operation.kind, operation.request.path) == \
            _reference_operation(reference, fileset)
        kinds.add(operation.kind)
    assert connection.rng._random.getstate() == reference.getstate()
    # All three kinds came up, so file draws were compared too.
    assert kinds == set(KINDS)


def test_cumulative_weights_are_the_ones_random_choices_builds(fileset):
    generator = WorkloadGenerator(fileset, SeededRng(0))
    for attribute, _population, weights in MIXES.values():
        cum, total, hi = getattr(generator, attribute)
        assert cum == list(accumulate(weights))
        assert type(total) is float and total == cum[-1]
        assert hi == len(weights) - 1
