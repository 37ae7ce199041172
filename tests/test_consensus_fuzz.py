"""Randomized fault-schedule fuzzing for the replication protocol.

Safety (no two nodes ever commit different bytes at the same height) must
hold under every schedule of partitions, crashes, and asymmetric drops the
config language can express. Liveness is only asserted when the run ends
quiescent: then all up nodes must have converged to one tip.
"""

import random

import pytest

from rolechain import codec
from rolechain.consensus import (
    CrashRule,
    DropRule,
    Network,
    NetworkConfig,
    PartitionRule,
    quiescent,
    step,
    submit_tx,
)
from rolechain.ledger import replay
from rolechain.state import state_root

from conftest import PASSPHRASE
from workloads import WorkloadBuilder


def _random_faults(rng, n_nodes, horizon):
    partitions = []
    for _ in range(rng.randrange(3)):
        start = rng.randrange(horizon // 2)
        nodes = list(range(n_nodes))
        rng.shuffle(nodes)
        cut = rng.randrange(1, n_nodes)
        partitions.append(PartitionRule(
            from_tick=start,
            to_tick=start + rng.randrange(10, 60),
            groups=(tuple(nodes[:cut]), tuple(nodes[cut:])),
        ))
    crashes = []
    for _ in range(rng.randrange(2)):
        start = rng.randrange(horizon // 2)
        crashes.append(CrashRule(
            node=rng.randrange(n_nodes),
            from_tick=start,
            to_tick=start + rng.randrange(10, 50),
        ))
    drops = []
    for _ in range(rng.randrange(4)):
        src, dst = rng.randrange(n_nodes), rng.randrange(n_nodes)
        start = rng.randrange(horizon // 2)
        drops.append(DropRule(src=src, dst=dst, from_tick=start,
                              to_tick=start + rng.randrange(5, 40)))
    return partitions, crashes, drops


@pytest.mark.parametrize("seed", range(20))
def test_safety_under_random_fault_schedules(seed, genesis_file, genesis_state, wallets):
    rng = random.Random(9000 + seed)
    horizon = 260
    vals = list(genesis_file.validators)
    partitions, crashes, drops = _random_faults(rng, len(vals), horizon)
    net = Network(
        NetworkConfig(
            validators=vals, rng_seed=seed,
            partition_rules=partitions, crash_rules=crashes, drop_rules=drops,
        ),
        genesis_state,
    )

    wb = WorkloadBuilder(genesis_file, seed=seed, n_users=6)
    wb.attach_admins({w.address: w for w in wallets.values()}, PASSPHRASE)
    txs = wb.generate(10)
    submit_ticks = sorted(rng.randrange(1, horizon // 2) for _ in txs)
    schedule = dict(zip(submit_ticks, txs))

    for _ in range(horizon):
        if net.tick in schedule:
            submit_tx(net, schedule[net.tick], via=vals[rng.randrange(len(vals))])
        step(net)

        by_height: dict[int, set[str]] = {}
        for v in vals:
            for block in net.nodes[v].chain.blocks[1:]:
                by_height.setdefault(block.header.height, set()).add(
                    codec.digest(block.to_dict())
                )
        for height, variants in by_height.items():
            assert len(variants) == 1, (
                f"seed {seed}: conflicting commits at height {height} tick {net.tick}"
            )

    # all fault windows end before the horizon: afterwards the network must
    # settle (committing what it can, evicting orphaned nonce gaps) and agree
    for _ in range(1200):
        if quiescent(net):
            break
        step(net)
    assert quiescent(net), f"seed {seed}: network never settled after faults cleared"
    tips = {state_root(net.nodes[v].state) for v in vals}
    assert len(tips) == 1, f"seed {seed}: quiescent but diverged"
    heights = {net.nodes[v].next_height for v in vals}
    assert len(heights) == 1
    for v in vals:
        node = net.nodes[v]
        assert state_root(replay(genesis_state, node.chain)) == state_root(node.state)
