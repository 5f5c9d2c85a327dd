"""Tests for the Corollary 7.1 derandomization transform."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import (
    BroadcastEvent,
    Engine,
    Protocol,
    ProtocolViolation,
    RunSpec,
    Transcript,
    run_protocol,
)
from repro.distributions.planted_clique import PlantedClique
from repro.prg import DerandomizedProtocol, matrix_prg_rounds


class CoinFlipBroadcast(Protocol):
    """A payload protocol: every processor broadcasts fresh random bits for
    ``rounds`` rounds and outputs the bits it drew."""

    def __init__(self, rounds=2):
        self._rounds = rounds

    def num_rounds(self, n):
        return self._rounds

    def broadcast(self, proc, round_index):
        bit = proc.coins.draw_bit()
        proc.memory.setdefault("drawn", []).append(bit)
        return bit

    def output(self, proc):
        return list(proc.memory.get("drawn", []))


class TestStructure:
    def test_round_count_is_sum(self):
        n, k, payload_rounds = 8, 4, 3
        payload = CoinFlipBroadcast(payload_rounds)
        wrapped = DerandomizedProtocol(payload, k=k, random_bits=payload_rounds)
        expected = matrix_prg_rounds(n, k, k + payload_rounds) + payload_rounds
        assert wrapped.num_rounds(n) == expected

    def test_wide_payload_rejected(self):
        class Wide(Protocol):
            message_size = 2

            def num_rounds(self, n):
                return 1

            def broadcast(self, proc, round_index):
                return 0

        with pytest.raises(ProtocolViolation):
            DerandomizedProtocol(Wide(), k=4, random_bits=4)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            DerandomizedProtocol(CoinFlipBroadcast(), k=4, random_bits=-1)


class TestExecution:
    def test_runs_and_outputs_bits(self, rng):
        payload = CoinFlipBroadcast(2)
        wrapped = DerandomizedProtocol(payload, k=4, random_bits=2)
        inputs = np.zeros((8, 1), dtype=np.uint8)
        result = run_protocol(wrapped, inputs, rng=rng)
        for out in result.outputs:
            assert len(out) == 2
            assert set(out) <= {0, 1}

    def test_payload_bits_come_from_prg(self, rng):
        """The payload's coin stream must equal the PRG output."""
        payload = CoinFlipBroadcast(3)
        k = 5
        wrapped = DerandomizedProtocol(payload, k=k, random_bits=3)
        inputs = np.zeros((10, 1), dtype=np.uint8)
        result = run_protocol(wrapped, inputs, rng=rng)
        secret = wrapped.prg.shared_matrix(result.contexts[0]).to_array()
        for proc, drawn in zip(result.contexts, result.outputs):
            seed = proc.memory["prg_seed"].to_array()
            pseudo = np.concatenate([seed, (seed @ secret) % 2])
            assert list(pseudo[: len(drawn)]) == drawn

    def test_true_randomness_is_o_of_k(self, rng):
        """Corollary 7.1's headline: each processor flips only
        k + ⌈k·R/n⌉ true coins regardless of how many the payload uses."""
        n, k, payload_bits = 16, 6, 12
        payload = CoinFlipBroadcast(payload_bits)
        wrapped = DerandomizedProtocol(payload, k=k, random_bits=payload_bits)
        inputs = np.zeros((n, 1), dtype=np.uint8)
        result = run_protocol(wrapped, inputs, rng=rng)
        cap = k + matrix_prg_rounds(n, k, k + payload_bits)
        for proc in result.contexts:
            assert wrapped.true_coins_used(proc) <= cap

    def test_exhausting_pseudo_randomness_raises(self, rng):
        from repro.core import RandomnessExhausted

        payload = CoinFlipBroadcast(5)
        # Provision fewer bits than the payload consumes.
        wrapped = DerandomizedProtocol(payload, k=2, random_bits=2)
        inputs = np.zeros((4, 1), dtype=np.uint8)
        with pytest.raises(RandomnessExhausted):
            run_protocol(wrapped, inputs, rng=rng)

    def test_deterministic_replay(self):
        """Same true-randomness seed => identical compiled execution."""
        inputs = np.zeros((6, 1), dtype=np.uint8)

        def run(seed):
            wrapped = DerandomizedProtocol(
                CoinFlipBroadcast(2), k=3, random_bits=2
            )
            return run_protocol(
                wrapped, inputs, rng=np.random.default_rng(seed)
            ).transcript.key()

        assert run(11) == run(11)
        assert run(11) != run(12) or run(13) != run(11)


def rebuilt_view(transcript, skip_rounds, n):
    """Reference payload view: rebuilt from scratch, one event at a time,
    as the transform did before the view was cached and extended."""
    view = Transcript()
    for event in transcript:
        if event.round_index >= skip_rounds:
            view.append(
                BroadcastEvent(
                    event.turn - skip_rounds * n,
                    event.round_index - skip_rounds,
                    event.sender,
                    event.message,
                    event.width,
                )
            )
    return view


class ViewCheckingPayload(Protocol):
    """Reads its transcript in every callback and checks it against the
    reference view of the live source transcript."""

    def __init__(self, rounds, skip_rounds):
        self.rounds = rounds
        self.skip_rounds = skip_rounds
        self.source = None
        self.checks = Counter()

    def _check(self, callback, n, seen):
        assert seen == rebuilt_view(self.source, self.skip_rounds, n), callback
        self.checks[callback] += 1

    def num_rounds(self, n):
        return self.rounds

    def finished(self, n, transcript, completed_rounds):
        self._check("finished", n, transcript)
        return completed_rounds >= self.rounds

    def broadcast(self, proc, round_index):
        self._check("broadcast", proc.n, proc.transcript)
        last = proc.transcript.last_round_messages()
        return (sum(e.message for e in last) + proc.coins.draw_bit()) % 2

    def receive(self, proc, round_index, messages):
        self._check("receive", proc.n, proc.transcript)
        assert messages == proc.round_messages(round_index)

    def output(self, proc):
        self._check("output", proc.n, proc.transcript)
        return proc.transcript.key()


class SourceRecording(DerandomizedProtocol):
    """Hands the payload the shared source transcript at setup."""

    def setup(self, proc):
        self.payload.source = proc.transcript
        super().setup(proc)


def clique_run(protocol, seed, n=12, k=6):
    rng = np.random.default_rng(seed)
    adjacency = PlantedClique(n, k).sample(rng)
    return run_protocol(protocol, adjacency, rng=rng)


def summary(result):
    return result.outputs, result.transcript.key(), result.cost


class TestPayloadView:
    @pytest.mark.parametrize("scheduler", ["round", "turn"])
    def test_every_callback_sees_the_reference_view(self, scheduler, rng):
        n, k, bits, rounds = 6, 3, 3, 4
        skip = matrix_prg_rounds(n, k, k + bits)
        payload = ViewCheckingPayload(rounds, skip)
        wrapped = SourceRecording(payload, k=k, random_bits=bits)
        result = run_protocol(
            wrapped, np.zeros((n, 1), dtype=np.uint8), scheduler=scheduler, rng=rng
        )
        assert payload.checks == {
            "finished": rounds,
            "broadcast": rounds * n,
            "receive": rounds * n,
            "output": n,
        }
        view = rebuilt_view(result.transcript, skip, n)
        assert result.outputs == [view.key()] * n

    def test_nested_matches_rebuild_per_callback(self, monkeypatch):
        def nested():
            inner = DerandomizedProtocol(
                PlantedCliqueSubsampleProtocol(6), k=8, random_bits=24
            )
            return DerandomizedProtocol(inner, k=4, random_bits=32)

        runs = [(nested(), seed) for seed in (3, 4)]
        results = [clique_run(wrapped, seed) for wrapped, seed in runs]
        for (wrapped, _), result in zip(runs, results):
            assert all(output for output in result.outputs)
            cap = wrapped.k + wrapped.prg.num_rounds(12)
            assert all(wrapped.true_coins_used(p) <= cap for p in result.contexts)
        monkeypatch.setattr(Transcript, "rebased", rebuilt_view)
        reference = [summary(clique_run(nested(), seed)) for seed in (3, 4)]
        assert [summary(result) for result in results] == reference

    def test_reused_instance_matches_fresh_instances(self):
        def wrapped():
            return DerandomizedProtocol(
                PlantedCliqueSubsampleProtocol(6), k=8, random_bits=24
            )

        reused = wrapped()
        twice = [summary(clique_run(reused, seed)) for seed in (7, 8)]
        fresh = [summary(clique_run(wrapped(), seed)) for seed in (7, 8)]
        assert twice == fresh


#: sha256 over each trial's outputs, transcript key and cost report,
#: recorded before the payload view was cached and extended incrementally.
GOLDEN_CLIQUE_DIGEST = (
    "2c591e30039566ce9ade05702d8498f2e316b1edf3eb1b66cf02bd9d41a9443f"
)


def test_derandomized_clique_batch_is_bit_identical_to_golden():
    spec = RunSpec(
        DerandomizedProtocol(PlantedCliqueSubsampleProtocol(6), k=8, random_bits=24),
        distribution=PlantedClique(12, 6),
        seed=20190729,
    )
    batch = Engine().run_batch(spec, 8)
    digests = []
    for trial in batch:
        outputs = [
            sorted(o) if isinstance(o, frozenset) else o for o in trial.outputs
        ]
        record = (trial.trial_index, outputs, trial.transcript_key, trial.cost)
        digests.append(hashlib.sha256(repr(record).encode()).hexdigest())
    assert len(digests) == 8
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert combined == GOLDEN_CLIQUE_DIGEST
