"""Simulator workloads: the in-process ``consensus.Network`` that ``sim run`` drives.

A run is a sequence of episodes. Each episode builds a 4-validator network
from genesis and injects a fresh pre-signed mix of ``EPISODE_TXS`` calls,
open loop at ``RATE`` transactions per tick through rotating entry
validators, then steps to quiescence. Message delay is the simulator's own
seeded 1-2 ticks.

* ``sim_clean``: no faults.
* ``sim_faults``: ``FAULTS``: validator 3 crashed for ticks 20-79, then a
  {0,1}/{2,3} partition for ticks 100-159, then healed. Both windows are
  shorter than ``MEMPOOL_GAP_TTL_TICKS``.

A transaction that never commits counts as failed; nothing here lowers the
rate or picks inputs to avoid such losses.
"""

from __future__ import annotations

import random
import resource
import time

from rolechain import codec, consensus
from rolechain.consensus import CrashRule, Network, NetworkConfig, PartitionRule, quiescent
from rolechain.ledger import hash_header
from rolechain.sco import check_permission
from rolechain.state import Permission, state_root
from rolechain.store import build_genesis_state

from perfbench import gen, oracle
from perfbench.report import Outcome, latency_line
from perfbench.stats import percentile

EPISODE_TXS = 400
RATE = 2
SETUP_REPEATS = 10
MAX_TICKS = 5000
GATE_CHECKS = 40
FAULTS = {
    "crash_rules": [CrashRule(node=3, from_tick=20, to_tick=79)],
    "partition_rules": [PartitionRule(from_tick=100, to_tick=159, groups=((0, 1), (2, 3)))],
}


class Episode:
    """One network from genesis, one injected mix, run to quiescence."""

    def __init__(self, actors: gen.Actors, workload: str, index: int):
        self.index = index
        self.genesis = actors.genesis()
        self.txs, _ = gen.sim_mix(actors, str(index), EPISODE_TXS)
        self.by_signature = {tx.signature: i for i, tx in enumerate(self.txs)}
        faults = FAULTS if workload == "sim_faults" else {}
        self.config = NetworkConfig(
            validators=list(self.genesis.validators),
            rng_seed=random.Random(f"net:{actors.seed}:{index}").randrange(2**31),
            **faults,
        )

    def build(self) -> tuple[Network, float]:
        t0 = time.perf_counter()
        network = Network(self.config, build_genesis_state(self.genesis))
        return network, time.perf_counter() - t0

    def drive(self, network: Network) -> dict:
        """The timed part: inject on schedule, step until quiet.

        Program functions are looked up on their module at each call, so
        the tracer's wrappers see them.
        """
        txs, vals = self.txs, self.config.validators
        n = len(txs)
        injected_at = [0.0] * n
        injected_tick = [0] * n
        latencies, commit_ticks = [], []
        seen = 1
        i = 0
        start = time.perf_counter()
        while i < n or not consensus.quiescent(network):
            if network.tick >= MAX_TICKS:
                break
            for _ in range(RATE):
                if i < n:
                    injected_at[i] = time.perf_counter()
                    injected_tick[i] = network.tick
                    consensus.submit_tx(network, txs[i], via=vals[i % len(vals)])
                    i += 1
            consensus.step(network)
            best = max(len(node.chain.blocks) for node in network.nodes.values())
            if best > seen:
                now = time.perf_counter()
                chain = next(nd.chain for nd in network.nodes.values() if len(nd.chain.blocks) == best)
                for block in chain.blocks[seen:]:
                    for tx in block.transactions:
                        k = self.by_signature[tx.signature]
                        latencies.append(now - injected_at[k])
                        commit_ticks.append(network.tick - injected_tick[k])
                seen = best
        return {
            "duration": time.perf_counter() - start,
            "latencies": latencies,
            "commit_ticks": commit_ticks,
        }

    def gate(self, network: Network, outcome: Outcome) -> dict:
        """Replica agreement, oracle checks and the fingerprint of this episode."""
        problems = []
        if not quiescent(network):
            problems.append(f"not quiescent after {network.tick} ticks")
        tips = {
            (len(nd.chain.blocks) - 1, state_root(nd.state), hash_header(nd.chain.tip.header))
            for nd in network.nodes.values()
        }
        if len(tips) != 1:
            problems.append(f"replicas disagree: {sorted(tips)}")
        node = network.nodes[self.config.validators[0]]
        committed = [tx for block in node.chain.blocks for tx in block.transactions]
        ids = [self.by_signature.get(tx.signature) for tx in committed]
        if None in ids:
            problems.append("a committed transaction was never submitted")
        if len(set(ids)) != len(ids):
            problems.append("a transaction committed twice")
        events = [e.to_dict() for block in node.chain.blocks for e in block.events]
        ura, pra = oracle.fold_events(events)
        state = node.state
        plain_pra = {(o, r, (p.resource, p.action)) for o, r, p in state.pra}
        if (ura, pra) != (set(state.ura), plain_pra):
            problems.append("event fold differs from the committed relations")
        # Commit order may interleave senders differently from submission
        # order, so the committed calls themselves are the reference.
        if (ura, pra) != oracle.fold_transactions(tx.to_dict() for tx in committed):
            problems.append("event fold differs from the committed calls")
        rng = random.Random(f"gate:{self.index}")
        users = sorted({u for u, _, _ in ura})
        for _ in range(GATE_CHECKS if users else 0):
            user, org = rng.choice(users), rng.choice(gen.ORGS)
            perm = rng.choice(gen.all_permissions())
            got = check_permission(state, user, org, Permission(*perm))
            want = oracle.brute_force_check(ura, pra, user, org, perm)
            if (got.granted, sorted(got.via_roles)) != want:
                problems.append(f"check {user} {org} {perm}: {got} vs oracle {want}")
        outcome.problems += [f"episode {self.index}: {p}" for p in problems]
        tip_height, root, tip_hash = sorted(tips)[0]
        return {
            "committed": len(committed),
            "blocks": tip_height,
            "messages": len(network.trace),
            "ticks": network.tick,
            "fingerprint": (
                f"height={tip_height} tip={tip_hash} state_root={root} "
                f"trace_digest={codec.digest(network.trace)}"
            ),
        }


def run_phase(seed: int, workload: str, seconds: float, tracer=None) -> Outcome:
    """Episodes until *seconds* of driving are measured (tracing only the drive)."""
    actors = gen.Actors(seed)
    outcome = Outcome(workload)
    info = {"committed_txs": 0, "blocks": 0, "messages": 0, "ticks": [], "commit_ticks": []}
    index = 0
    while outcome.duration_s < seconds:
        episode = Episode(actors, workload, index)
        for _ in range(SETUP_REPEATS):
            network, setup = episode.build()
            outcome.setups_s.append(setup)
        if tracer is not None:
            tracer.enabled = True
        try:
            result = episode.drive(network)
        finally:
            if tracer is not None:
                tracer.enabled = False
        summary = episode.gate(network, outcome)
        outcome.duration_s += result["duration"]
        outcome.latencies_s += result["latencies"]
        outcome.completed += summary["committed"]
        outcome.attempted += len(episode.txs)
        outcome.failed += len(episode.txs) - summary["committed"]
        info["committed_txs"] += summary["committed"]
        info["blocks"] += summary["blocks"]
        info["messages"] += summary["messages"]
        info["ticks"].append(summary["ticks"])
        info["commit_ticks"] += result["commit_ticks"]
        outcome.lines.append(
            f"episode {index}: committed {summary['committed']}/{len(episode.txs)} "
            f"in {summary['ticks']} ticks, {result['duration']:.3f}s; fingerprint {summary['fingerprint']}")
        index += 1
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50, _ = percentile(info["commit_ticks"], 0.5)
    outcome.lines[:0] = [
        f"episodes: {index} x {EPISODE_TXS} txs at {RATE} tx/tick",
        latency_line("inject->commit", outcome.latencies_s),
        f"commit_tps: {outcome.completed / outcome.duration_s:.2f} tx/s; "
        f"commit ticks p50={p50} (n={len(info['commit_ticks'])})",
    ]
    outcome.layer = info
    return outcome
