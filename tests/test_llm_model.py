"""Tests for the generation session: divergence, teacher forcing,
realignment — driven by hand-constructed error events."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.llm.errors import ErrorEvent
from repro.llm.model import GenerationSession, TransparentLLM
from repro.llm.tokenizer import EOS, SEP, tokenize_items

from helpers import assert_traces_equal, make_instance, make_racing_db


@pytest.fixture(scope="module")
def db():
    return make_racing_db()


def session_with(llm, db, gold, events, instance_id="s1/table"):
    instance = make_instance(db, gold, instance_id=instance_id)
    return GenerationSession(llm, instance, events)


class TestCleanGeneration:
    def test_emits_gold_stream(self, llm, db):
        s = session_with(llm, db, ("races", "drivers"), [])
        s.run_to_completion()
        assert s.committed_tokens == tokenize_items(["races", "drivers"])
        assert s.decoded_items() == ["races", "drivers"]
        assert s.trace().n_branching == 0
        assert s.aligned

    def test_steps_have_hidden_states(self, llm, db):
        s = session_with(llm, db, ("races",), [])
        s.run_to_completion()
        for step in s.steps:
            assert step.hidden.shape == (llm.n_layers, llm.config.hidden.dim)
            assert 0.0 <= step.max_prob <= 1.0

    def test_propose_is_cached_until_commit(self, llm, db):
        s = session_with(llm, db, ("races",), [])
        a = s.propose()
        b = s.propose()
        assert a is b

    def test_deterministic_traces(self, db):
        llm = TransparentLLM(seed=5)
        inst = make_instance(db, ("races",), instance_id="det/table")
        t1 = llm.generate(inst)
        t2 = llm.generate(inst)
        assert t1.committed_tokens == t2.committed_tokens
        np.testing.assert_array_equal(t1.hidden_matrix(), t2.hidden_matrix())


class TestSubstitution:
    def test_free_run_emits_distractor(self, llm, db):
        events = [ErrorEvent(0, "substitute", "pit_stops")]
        s = session_with(llm, db, ("races",), events)
        s.run_to_completion()
        assert s.decoded_items() == ["pit_stops"]
        assert s.trace().n_branching == 1  # first divergence only

    def test_teacher_forcing_repairs(self, llm, db):
        events = [ErrorEvent(0, "substitute", "pit_stops")]
        inst = make_instance(db, ("races",), instance_id="tf1/table")
        s = GenerationSession(llm, inst, events)
        gold = tokenize_items(["races"])
        while not s.done:
            step = s.propose()
            if step.is_branching:
                s.force_token(gold[s.n_committed])
            else:
                s.commit()
        assert s.decoded_items() == ["races"]
        assert sum(1 for st in s.steps if st.forced) == 1

    def test_shared_prefix_divergence_mid_item(self, llm, db):
        # lap_times vs pit_stops share nothing; use drivers vs races to
        # get immediate divergence; the mid-item case uses lap_times gold
        # and a constructed same-prefix table through the racing schema:
        # 'lap_times' vs 'lap_...': not available, so assert the general
        # invariant instead: the branching position is the first token
        # where streams differ.
        events = [ErrorEvent(0, "substitute", "lap_times")]
        s = session_with(llm, db, ("drivers",), events)
        gold = tokenize_items(["drivers"])
        step = s.propose()
        assert step.is_branching
        assert step.proposed != gold[0]


class TestOmission:
    def test_free_run_drops_item(self, llm, db):
        events = [ErrorEvent(0, "omit")]
        s = session_with(llm, db, ("races", "drivers"), events)
        s.run_to_completion()
        assert s.decoded_items() == ["drivers"]

    def test_trailing_omission_diverges_at_sep(self, llm, db):
        events = [ErrorEvent(1, "omit")]
        s = session_with(llm, db, ("races", "drivers"), events)
        # Walk until the divergence: proposal EOS where gold wants SEP.
        while True:
            step = s.propose()
            if step.is_branching:
                assert step.proposed == EOS
                break
            s.commit()

    def test_teacher_forcing_restores_omitted_item(self, llm, db):
        events = [ErrorEvent(1, "omit")]
        inst = make_instance(db, ("races", "drivers"), instance_id="om1/table")
        s = GenerationSession(llm, inst, events)
        gold = tokenize_items(["races", "drivers"])
        while not s.done:
            step = s.propose()
            if step.is_branching:
                s.force_token(gold[s.n_committed])
            else:
                s.commit()
        assert s.decoded_items() == ["races", "drivers"]


class TestInsertion:
    def test_free_run_adds_spurious_item(self, llm, db):
        events = [ErrorEvent(1, "insert", "pit_stops")]
        s = session_with(llm, db, ("races", "drivers"), events)
        s.run_to_completion()
        assert s.decoded_items() == ["races", "pit_stops", "drivers"]

    def test_insert_at_eos(self, llm, db):
        events = [ErrorEvent(1, "insert", "pit_stops")]
        s = session_with(llm, db, ("races",), events)
        s.run_to_completion()
        assert s.decoded_items() == ["races", "pit_stops"]
        # Divergence was at the SEP where gold says EOS.
        branching = [st for st in s.steps if st.is_branching]
        assert branching[0].proposed == SEP

    def test_teacher_forcing_suppresses_insert(self, llm, db):
        events = [ErrorEvent(1, "insert", "pit_stops")]
        inst = make_instance(db, ("races",), instance_id="in1/table")
        s = GenerationSession(llm, inst, events)
        gold = tokenize_items(["races"])
        while not s.done:
            step = s.propose()
            if step.is_branching:
                s.force_token(gold[s.n_committed])
            else:
                s.commit()
        assert s.decoded_items() == ["races"]


class TestMultipleEvents:
    def test_two_events_two_branchings_under_forcing(self, llm, db):
        events = [
            ErrorEvent(0, "substitute", "pit_stops"),
            ErrorEvent(2, "insert", "lap_times"),
        ]
        inst = make_instance(db, ("races", "drivers"), instance_id="m1/table")
        TransparentLLM.teacher_forced_trace.__get__(llm)(inst)  # clean llm path
        # Constructed session instead (explicit events):
        s = GenerationSession(llm, inst, events)
        gold = tokenize_items(["races", "drivers"])
        n_forced = 0
        while not s.done:
            step = s.propose()
            if step.is_branching:
                s.force_token(gold[s.n_committed])
                n_forced += 1
            else:
                s.commit()
        assert s.decoded_items() == ["races", "drivers"]
        assert n_forced == 2

    def test_branching_counts_match_events_in_forced_mode(self, llm, db):
        events = [
            ErrorEvent(0, "omit"),
            ErrorEvent(1, "substitute", "pit_stops"),
        ]
        inst = make_instance(db, ("races", "drivers"), instance_id="m2/table")
        s = GenerationSession(llm, inst, events)
        gold = tokenize_items(["races", "drivers"])
        forced = 0
        while not s.done:
            step = s.propose()
            if step.is_branching:
                s.force_token(gold[s.n_committed])
                forced += 1
            else:
                s.commit()
        assert s.decoded_items() == ["races", "drivers"]
        assert forced == 2


class TestSessionAPI:
    def test_force_requires_gold_token(self, llm, db):
        events = [ErrorEvent(0, "substitute", "pit_stops")]
        s = session_with(llm, db, ("races",), events, instance_id="api1/table")
        s.propose()
        with pytest.raises(ValueError):
            s.force_token("garbage")

    def test_force_after_divergence_rejected(self, llm, db):
        events = [ErrorEvent(0, "substitute", "pit_stops")]
        s = session_with(llm, db, ("races",), events, instance_id="api2/table")
        s.commit()  # commit the wrong token -> off the gold path
        gold = tokenize_items(["races"])
        with pytest.raises(RuntimeError):
            s.force_token(gold[1] if len(gold) > 1 else gold[0])

    def test_abort_marks_trace(self, llm, db):
        s = session_with(llm, db, ("races",), [], instance_id="api3/table")
        s.propose()
        s.abort()
        assert s.done
        assert s.trace().aborted

    def test_peek_matches_future_commits(self, llm, db):
        events = [ErrorEvent(0, "substitute", "pit_stops")]
        s = session_with(llm, db, ("races", "drivers"), events, instance_id="api4/table")
        peeked = s.peek_tokens(32)
        emitted = []
        while not s.done:
            emitted.append(s.commit().committed)
        assert peeked[: len(emitted)] == emitted

    def test_propose_after_done_raises(self, llm, db):
        s = session_with(llm, db, ("races",), [], instance_id="api5/table")
        s.run_to_completion()
        with pytest.raises(RuntimeError):
            s.propose()


class TestTeacherForcedTraceAPI:
    def test_labels_equal_proposal_vs_committed(self, llm, bird_tiny):
        from repro.core.pipeline import RTSPipeline

        for example in bird_tiny.dev.examples[:10]:
            inst = RTSPipeline.instance_for(example, bird_tiny, "table")
            trace = llm.teacher_forced_trace(inst)
            # Teacher forcing always lands on the gold stream.
            assert list(trace.items) == list(inst.gold_items)
            for step in trace.steps:
                assert step.is_branching == (step.proposed != step.committed)


class TestTracePickling:
    """A vectorized trace pickles its hidden stack once and unpickles
    with every ``step.hidden`` a view of the loaded stack; any other
    trace round-trips unchanged."""

    def test_vectorized_trace_ships_the_stack_once(self, llm, bird_tiny):
        from repro.core.pipeline import RTSPipeline

        n_sized = 0
        for example in bird_tiny.dev.examples:
            inst = RTSPipeline.instance_for(example, bird_tiny, "column")
            for trace in (llm.generate(inst), llm.teacher_forced_trace(inst)):
                assert trace.hidden_stack is not None
                payload = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
                # A few hundred bytes of header and step metadata ride
                # along; past a handful of steps they stay under 5%.
                if len(trace.steps) >= 8:
                    n_sized += 1
                    assert len(payload) <= 1.05 * trace.hidden_matrix().nbytes
                loaded = pickle.loads(payload)
                assert_traces_equal(loaded, trace)
                assert loaded.hidden_matrix().tobytes() == trace.hidden_matrix().tobytes()
                for i, step in enumerate(loaded.steps):
                    assert np.shares_memory(step.hidden, loaded.hidden_stack)
                    assert step.hidden.tobytes() == loaded.hidden_stack[i].tobytes()
        assert n_sized > 0

    def test_step_by_step_trace_round_trips_unchanged(self, llm, db):
        s = session_with(llm, db, ("races", "drivers"), [])
        s.run_to_completion()
        trace = s.trace()
        assert trace.hidden_stack is None
        loaded = pickle.loads(pickle.dumps(trace))
        assert loaded.hidden_stack is None
        assert_traces_equal(loaded, trace)

    def test_rows_that_are_not_stack_views_round_trip_unchanged(self, llm, db):
        trace = llm.generate(make_instance(db, ("races", "drivers")))
        stack = trace.hidden_stack
        # Rows copied out of the stack (and one that differs from it)
        # are independent arrays: they must travel as they are.
        steps = [replace(step, hidden=stack[i].copy()) for i, step in enumerate(trace.steps)]
        steps[0].hidden[0, 0] += 1.0
        odd = replace(trace, steps=steps)
        loaded = pickle.loads(pickle.dumps(odd))
        assert_traces_equal(loaded, odd)
        assert loaded.hidden_stack.tobytes() == stack.tobytes()
        assert not np.shares_memory(loaded.steps[0].hidden, loaded.hidden_stack)
