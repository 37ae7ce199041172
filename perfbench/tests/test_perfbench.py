"""Tests of the benchmark's own code: inputs, oracle, percentiles, smoke runs.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rolechain import codec
from rolechain.consensus import MEMPOOL_GAP_TTL_TICKS
from rolechain.ledger import build_block, new_chain
from rolechain.sco import check_permission
from rolechain.state import Permission, apply_transaction
from rolechain.store import build_genesis_state

from perfbench import gen, node, oracle, sim, stats

ROOT = Path(__file__).resolve().parents[2]


def _fingerprint(txs) -> str:
    return codec.digest([tx.to_dict() for tx in txs])


def _mixed(seed: int, n_users: int = 60):
    actors = gen.Actors(seed)
    base = gen.base_chain(actors, n_users, 0.3)
    triples = gen.check_triples(base, random.Random(seed), 50)
    streams = [gen.mixed_stream(actors, base, c, 100, 5, triples) for c in range(2)]
    return actors, base, triples, streams


def _apply_all(genesis, txs):
    state = build_genesis_state(genesis)
    tip = new_chain(state).tip
    events = []
    for start in range(0, len(txs), 20):
        batch = txs[start:start + 20]
        tip = build_block(tip.header, batch, state, genesis.validators[0], tip.header.height + 1)
        for i, tx in enumerate(batch):
            state, evs = apply_transaction(state, tx, height=tip.header.height, tx_index=i)
            events += [e.to_dict() for e in evs]
    return state, events


def test_same_seed_same_bytes_other_seed_other_bytes():
    a = gen.base_chain(gen.Actors(7), 40, 0.3)
    b = gen.base_chain(gen.Actors(7), 40, 0.3)
    c = gen.base_chain(gen.Actors(8), 40, 0.3)
    assert _fingerprint(a.txs) == _fingerprint(b.txs)
    assert _fingerprint(a.txs) != _fingerprint(c.txs)

    s1, _ = gen.sim_mix(gen.Actors(7), "0", 60)
    s2, _ = gen.sim_mix(gen.Actors(7), "0", 60)
    s3, _ = gen.sim_mix(gen.Actors(7), "1", 60)
    assert _fingerprint(s1) == _fingerprint(s2) != _fingerprint(s3)

    _, _, t1, m1 = _mixed(3)
    _, _, t2, m2 = _mixed(3)
    _, _, t3, m3 = _mixed(4)
    assert t1 == t2 != t3
    def wire(triples, streams):
        expected = dict(zip(triples, oracle.expected_answers(set(), set(), triples)))
        return [node.encode(op, expected) for s in streams for op in s]

    assert wire(t1, m1) == wire(t2, m2) != wire(t3, m3)


def test_inputs_do_not_depend_on_hash_seed():
    code = (
        "import sys; sys.path[:0]=['src','.'];"
        "from perfbench import gen; from rolechain import codec;"
        "txs,_=gen.sim_mix(gen.Actors(5),'0',80);"
        "print(codec.digest([t.to_dict() for t in txs]))"
    )
    outs = {
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": h}, check=True).stdout
        for h in ("1", "2")
    }
    assert len(outs) == 1


def test_generated_sequences_apply_cleanly_and_match_the_model():
    actors = gen.Actors(11)
    genesis = actors.genesis()
    txs, model = gen.sim_mix(actors, "0", 120)
    state, events = _apply_all(genesis, txs)  # raises on any invalid call
    assert oracle.fold_events(events) == (model.ura, model.pra)
    assert oracle.fold_transactions(tx.to_dict() for tx in txs) == (model.ura, model.pra)
    assert set(state.ura) == model.ura

    base = gen.base_chain(actors, 50, 0.3)
    state, events = _apply_all(genesis, base.txs)
    assert oracle.fold_events(events) == (base.model.ura, base.model.pra)
    assert oracle.fold_transactions(tx.to_dict() for tx in base.txs) == (base.model.ura, base.model.pra)


def test_mixed_streams_fold_to_the_model_in_any_interleaving():
    actors, base, triples, streams = _mixed(5)
    writes = [[op.tx for op in s if op.tx is not None] for s in streams]
    assert all(sum(op.tx is not None for op in s[i:i + 5]) == 1
               for s in streams for i in range(0, 100, 5))
    rng = random.Random(0)
    for _ in range(3):
        queues = [list(w) for w in writes]
        order = []
        while any(queues):
            q = rng.choice([q for q in queues if q])
            order.append(q.pop(0))
        state, events = _apply_all(actors.genesis(), base.txs + order)
        in_stream_order = base.txs + [tx for w in writes for tx in w]
        assert oracle.fold_events(events) == oracle.fold_transactions(
            tx.to_dict() for tx in in_stream_order)
        # Writes never change a queried answer.
        plain_pra = {(o, r, (p.resource, p.action)) for o, r, p in state.pra}
        for triple in triples:
            assert oracle.brute_force_check(set(state.ura), plain_pra, *triple) == \
                oracle.brute_force_check(base.model.ura, base.model.pra, *triple)


def test_oracle_agrees_with_the_program_and_the_generator():
    actors = gen.Actors(13)
    base = gen.base_chain(actors, 80, 0.4)
    state, _ = _apply_all(actors.genesis(), base.txs)
    triples = gen.check_triples(base, random.Random(1), 200)
    answers = oracle.expected_answers(base.model.ura, base.model.pra, triples)
    assert 0.3 < sum(a[0] for a in answers) / len(answers) < 0.7
    for (user, org, perm), (granted, via) in zip(triples, answers):
        got = check_permission(state, user, org, Permission(*perm))
        assert (got.granted, sorted(got.via_roles)) == (granted, via)


def test_percentile_needs_ten_samples_beyond_and_reports_the_count():
    assert stats.percentile([], 0.5) == (None, 0)
    assert stats.percentile(list(range(19)), 0.5) == (None, 19)
    assert stats.percentile(list(range(1, 21)), 0.5) == (10, 20)
    assert stats.percentile(list(range(99)), 0.9) == (None, 99)
    assert stats.percentile(list(range(1, 101)), 0.9) == (90, 100)
    assert stats.percentile(list(range(999)), 0.99) == (None, 999)
    assert stats.percentile(list(range(1, 1001)), 0.99) == (990, 1000)


def test_fault_windows_are_shorter_than_the_mempool_gap_ttl():
    for rules in sim.FAULTS.values():
        for rule in rules:
            assert rule.to_tick - rule.from_tick + 1 < MEMPOOL_GAP_TTL_TICKS


def _run(workload: str, seconds: str, trace: str = "0") -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", seconds, "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["sim_clean", "sim_faults"])
def test_sim_smoke_passes_the_gate(workload):
    result = _run(workload, "0.5")
    assert result["correct"] and result["attempted"] >= 400
    assert set(result["metrics"]) == {"setup_s", "p50_ms", "p90_ms", "ops_per_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", ["check_read", "node_mixed"])
def test_node_smoke_passes_the_gate(workload):
    result = _run(workload, "10")
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    from perfbench.layers import PER_LAYER

    result = _run("sim_clean", "0.5", trace="1")
    assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]
    assert result["metrics"]["keys.verifies_per_tx"]["value"] >= 4


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_clean", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
