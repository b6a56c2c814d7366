"""Tests for the TAGE branch predictor."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import tage as tage_module
from repro.frontend.tage import TAGEPredictor, geometric_history_lengths
from repro.isa.microop import BranchKind
from tests.reference_models import FoldedHistory, ReferenceTAGEPredictor


class TestGeometricLengths:
    def test_endpoints(self):
        lengths = geometric_history_lengths(6, 2000, 12)
        assert lengths[0] == 6
        assert lengths[-1] == 2000

    def test_strictly_increasing(self):
        lengths = geometric_history_lengths(4, 640, 8)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_count(self):
        assert len(geometric_history_lengths(2, 100, 5)) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_history_lengths(6, 2000, 1)
        with pytest.raises(ValueError):
            geometric_history_lengths(0, 10, 4)
        with pytest.raises(ValueError):
            geometric_history_lengths(10, 10, 4)

    @given(
        st.integers(1, 16),
        st.integers(2, 12),
    )
    def test_dedup_keeps_increasing(self, minimum, count):
        lengths = geometric_history_lengths(minimum, minimum + 300, count)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))


class TestFoldedHistory:
    def test_tracks_fresh_fold(self):
        """Incremental folding equals folding the raw history from scratch."""
        length, width = 13, 5
        folded = FoldedHistory(length, width)
        history = [0] * length
        rng = random.Random(3)
        for _ in range(200):
            new_bit = rng.randint(0, 1)
            outgoing = history[length - 1]
            folded.update(new_bit, outgoing)
            history = [new_bit] + history[:-1]
        assert 0 <= folded.value < (1 << width)

    def test_validation(self):
        with pytest.raises(ValueError):
            FoldedHistory(0, 4)
        with pytest.raises(ValueError):
            FoldedHistory(4, 0)


def run_stream(predictor, stream):
    mispredicts = 0
    for pc, taken in stream:
        mispredicts += predictor.observe(pc, BranchKind.CONDITIONAL, taken, 0x900)
    return mispredicts / len(stream)


class TestTAGEPredictor:
    def test_learns_bias(self):
        predictor = TAGEPredictor(num_tables=4, max_history=64)
        stream = [(0x400, True)] * 2000
        assert run_stream(predictor, stream) < 0.01

    def test_learns_pattern_with_history(self):
        """Period-3 pattern T,T,N is history-predictable, not bias-predictable."""
        predictor = TAGEPredictor(num_tables=6, max_history=64)
        stream = [(0x400, i % 3 != 2) for i in range(9000)]
        run_stream(predictor, stream[:6000])
        assert run_stream(predictor, stream[6000:]) < 0.05

    def test_beats_bimodal_on_correlation(self):
        from repro.frontend.branch_predictors import BimodalPredictor

        rng = random.Random(11)
        stream = []
        for _ in range(4000):
            outcome = rng.random() < 0.5
            stream.append((0x400, outcome))
            stream.append((0x480, outcome))
        tage_rate = run_stream(TAGEPredictor(), list(stream))
        bimodal_rate = run_stream(BimodalPredictor(), list(stream))
        assert tage_rate < bimodal_rate

    def test_storage_positive(self):
        assert TAGEPredictor().storage_bits() > 0

    def test_deterministic(self):
        stream = [(0x400 + (i % 16) * 4, (i * 7) % 3 != 0) for i in range(3000)]
        assert run_stream(TAGEPredictor(), list(stream)) == run_stream(
            TAGEPredictor(), list(stream)
        )

    def test_useful_reset_does_not_crash(self):
        predictor = TAGEPredictor(reset_period=256)
        stream = [(0x400 + (i % 8) * 4, bool(i % 2)) for i in range(1024)]
        run_stream(predictor, stream)  # crosses several reset boundaries

    def test_storage_bits_table2_geometry(self):
        # 8 x 1024 entries x (11 tag + 3 counter + 2 useful) + 4096 x 2
        # bimodal + the 640-bit global history.
        assert TAGEPredictor().storage_bits() == 8 * 1024 * 16 + 4096 * 2 + 640

    def test_validation(self):
        with pytest.raises(ValueError):
            TAGEPredictor(tag_bits=1)


def _tage_state(predictor):
    """Every tagged entry as (tag or -1, counter, useful), plus the rest."""
    if isinstance(predictor, ReferenceTAGEPredictor):
        tables = [
            [
                (entry.tag if entry.valid else -1, entry.counter.value, entry.useful)
                for entry in entries
            ]
            for entries in predictor._tables
        ]
        folds = [
            (index.value, tag0.value, tag1.value)
            for index, tag0, tag1 in zip(
                predictor._folded_index, predictor._folded_tag0, predictor._folded_tag1
            )
        ]
        return (
            tables,
            [counter.value for counter in predictor._bimodal],
            predictor._use_alt.value,
            folds,
            predictor._history,
        )
    tables = [
        list(zip(tags, ctrs, useful))
        for tags, ctrs, useful in zip(
            predictor._tags, predictor._ctrs, predictor._useful
        )
    ]
    folds = [
        (
            fold & predictor._index_mask,
            (fold >> predictor._tag0_base) & predictor._tag_mask,
            fold >> predictor._tag1_base,
        )
        for fold in predictor._folds
    ]
    return (
        tables,
        predictor._bimodal,
        predictor._use_alt,
        folds,
        predictor._history,
    )


_GEOMETRY = st.fixed_dictionaries(
    {
        "num_tables": st.integers(2, 4),
        "min_history": st.integers(1, 3),
        "max_history": st.integers(8, 40),
        "table_index_bits": st.integers(3, 5),
        "tag_bits": st.sampled_from([2, 3, 5, 11]),
        "useful_bits": st.integers(1, 2),
        "reset_period": st.sampled_from([5, 31, 1 << 20]),
        "seed": st.integers(0, 1 << 16),
    }
)
_STREAM = st.lists(
    st.tuples(
        st.sampled_from([0x400, 0x404, 0x481, 0x4C2, 0x1403, 0x2400]),
        st.booleans(),
        st.sampled_from([BranchKind.CONDITIONAL] * 7 + [BranchKind.INDIRECT]),
    ),
    min_size=1,
    max_size=300,
)


class TestMatchesReferenceModel:
    """Flat TAGE changes the layout only: predictions, mispredicts and every
    table, counter and folded register must equal the object-per-entry
    model's after each branch."""

    @settings(max_examples=80, deadline=None)
    @given(geometry=_GEOMETRY, stream=_STREAM)
    def test_streams_agree(self, geometry, stream):
        flat = TAGEPredictor(**geometry)
        reference = ReferenceTAGEPredictor(**geometry)
        for pc, taken, kind in stream:
            target = pc * 3 if taken else pc + 4
            assert flat.predict(pc) == reference.predict(pc)
            assert flat.observe(pc, kind, taken, target) == reference.observe(
                pc, kind, taken, target
            )
            assert _tage_state(flat) == _tage_state(reference)

    @pytest.mark.parametrize(
        "geometry",
        [
            dict(num_tables=2, min_history=1, max_history=9, table_index_bits=1,
                 tag_bits=2, useful_bits=1, reset_period=97),
            dict(num_tables=4, min_history=2, max_history=33, table_index_bits=4,
                 tag_bits=3, reset_period=1000),
            dict(num_tables=8, max_history=200, table_index_bits=8, tag_bits=9),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_streams_agree(self, geometry, seed):
        # Long streams of biased branches and history-correlated ones:
        # entries age through allocation, decay and the useful reset, and
        # the use-alt counter reaches its bounds.
        rng = random.Random(seed)
        flat = TAGEPredictor(**geometry)
        reference = ReferenceTAGEPredictor(**geometry)
        pcs = [rng.randrange(1 << 14) for _ in range(24)]
        bias = {pc: rng.random() for pc in pcs}
        last = False
        for _ in range(6000):
            pc = rng.choice(pcs)
            if bias[pc] < 0.3:
                taken = last ^ (rng.random() < 0.1)
            else:
                taken = rng.random() < bias[pc]
            assert flat.observe(pc, BranchKind.CONDITIONAL, taken, 0) == (
                reference.observe(pc, BranchKind.CONDITIONAL, taken, 0)
            )
            last = taken
        assert _tage_state(flat) == _tage_state(reference)
        assert flat._rng.next_u64() == reference._rng.next_u64()

    def test_trace_branch_stream_agrees(self):
        """The default geometry over a generated workload's branches."""
        from repro.sim.simulator import get_trace

        trace = get_trace("502.gcc_1", 20_000)
        flat, reference = TAGEPredictor(), ReferenceTAGEPredictor()
        mispredicts = []
        branches = []
        for op in trace:
            branch = op.branch
            if branch is None:
                continue
            args = (op.pc, branch.kind, branch.taken, branch.target)
            branches.append(args)
            mispredicts.append(flat.observe(*args))
            assert mispredicts[-1] == reference.observe(*args)
        assert 0 < sum(mispredicts) < len(mispredicts)
        assert _tage_state(flat) == _tage_state(reference)
        # The same branches as one stretch, longer than a slice.
        stretched = TAGEPredictor()
        assert len(branches) > tage_module.SLICE_BRANCHES
        assert stretched.observe_stretch(branches) == mispredicts
        assert pickle.dumps(stretched) == pickle.dumps(flat)

    def test_update_matches_observe(self):
        stream = [(0x400 + (i % 16) * 4, (i * 7) % 3 != 0) for i in range(3000)]
        by_update = TAGEPredictor(reset_period=512)
        by_observe = TAGEPredictor(reset_period=512)
        reference = ReferenceTAGEPredictor(reset_period=512)
        for pc, taken in stream:
            by_update.update(pc, taken)
            by_observe.observe(pc, BranchKind.CONDITIONAL, taken, 0)
            reference.update(pc, taken)
        assert _tage_state(by_update) == _tage_state(by_observe)
        assert _tage_state(by_update) == _tage_state(reference)


_MIXED_STREAM = st.lists(
    st.tuples(
        st.sampled_from([0x400, 0x404, 0x481, 0x4C2, 0x1403, 0x2400]),
        st.booleans(),
        st.sampled_from(
            [BranchKind.CONDITIONAL] * 6
            + [BranchKind.INDIRECT, BranchKind.CALL, BranchKind.RETURN]
        ),
    ),
    min_size=1,
    max_size=300,
)


class TestStretchMatchesPerBranch:
    """``observe_stretch`` over any cut of a branch stream gives the verdicts
    and the state of observing it branch by branch, and of the reference
    model; slices as short as one branch cut stretches further."""

    @settings(max_examples=80, deadline=None)
    @given(
        geometry=_GEOMETRY,
        stream=_MIXED_STREAM,
        cuts=st.lists(st.integers(0, 300), max_size=5),
        slice_branches=st.sampled_from([1, 3, 17, tage_module.SLICE_BRANCHES]),
    )
    def test_stretches_agree(self, geometry, stream, cuts, slice_branches):
        branches = [
            (pc, kind, taken, pc * 3 if taken else pc + 4)
            for pc, taken, kind in stream
        ]
        per_branch = TAGEPredictor(**geometry)
        reference = ReferenceTAGEPredictor(**geometry)
        expected = [per_branch.observe(*branch) for branch in branches]
        assert expected == [reference.observe(*branch) for branch in branches]

        stretched = TAGEPredictor(**geometry)
        bounds = sorted({0, len(branches)} | {cut % len(branches) for cut in cuts})
        verdicts = []
        default = tage_module.SLICE_BRANCHES
        tage_module.SLICE_BRANCHES = slice_branches
        try:
            for start, stop in zip(bounds, bounds[1:]):
                # A generator, as the pipeline and the warmer pass it.
                verdicts += stretched.observe_stretch(
                    branch for branch in branches[start:stop]
                )
        finally:
            tage_module.SLICE_BRANCHES = default
        assert verdicts == expected
        assert _tage_state(stretched) == _tage_state(reference)
        assert stretched._rng.next_u64() == reference._rng.next_u64()
        per_branch._rng.next_u64()
        assert pickle.dumps(stretched) == pickle.dumps(per_branch)

    def test_empty_stretch_changes_nothing(self):
        predictor = TAGEPredictor()
        before = pickle.dumps(predictor)
        assert predictor.observe_stretch([]) == []
        assert pickle.dumps(predictor) == before
