"""Randomized fault-schedule fuzzing for the replication protocol.

Safety, checked after every tick: no two replicas hold different blocks at
one height, and no replica commit-votes two blocks in one (height, view).
It must hold under every schedule of partitions, crashes and asymmetric
drops the config language can express, and with none. Liveness: every
schedule's faults end before its horizon, and the network must then settle
with every replica on one tip.

``run_schedule(seed, *, faults=True)`` is one seeded run. Tier-1 runs a few
seeds; CI also runs a wide range:

    cd tests && PYTHONPATH=../src python -c 'from test_consensus_fuzz import run_schedule
    for seed in range(320): run_schedule(seed)'
"""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from rolechain.store import build_genesis_state

from conftest import PASSPHRASE, WALLET_NAMES, make_genesis_file, make_wallet, watch_commit_votes
from workloads import WorkloadBuilder


@functools.cache
def _setup():
    """The wallets, genesis file and genesis state of the test fixtures."""
    wallets = {name: make_wallet(name) for name in WALLET_NAMES}
    genesis_file = make_genesis_file(wallets)
    return wallets, genesis_file, build_genesis_state(genesis_file)


def _workload(seed: int, n: int) -> list:
    wallets, genesis_file, _ = _setup()
    wb = WorkloadBuilder(genesis_file, seed=seed, n_users=6)
    wb.attach_admins({w.address: w for w in wallets.values()}, PASSPHRASE)
    return wb.generate(n)


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


def check_run(config: NetworkConfig, submissions, horizon: int, label: str) -> None:
    """Run *config* for *horizon* ticks, submitting each (tick, tx, entry index) as it comes.

    Fails on a fork or a double commit vote at any tick, or if the network
    does not settle on one tip afterwards.
    """
    _, _, genesis_state = _setup()
    vals = config.validators
    due: dict[int, list] = {}
    for tick, tx, entry in submissions:
        due.setdefault(tick, []).append((tx, vals[entry]))
    with pytest.MonkeyPatch.context() as patch:
        watch_commit_votes(patch)
        net = Network(config, genesis_state)
        for _ in range(horizon):
            for tx, via in due.get(net.tick, ()):
                submit_tx(net, tx, via=via)
            step(net)

            by_height: dict[int, set[str]] = {}
            for v in vals:
                for block in net.nodes[v].chain.blocks[1:]:
                    by_height.setdefault(block.header.height, set()).add(
                        codec.digest(block.to_dict())
                    )
            for height, variants in by_height.items():
                assert len(variants) == 1, (
                    f"{label}: conflicting commits at height {height} tick {net.tick}"
                )

        # Every fault window ends before the horizon: afterwards the network
        # must settle (committing what it can, evicting orphaned nonce gaps)
        # and agree.
        for _ in range(1200):
            if quiescent(net):
                break
            step(net)
    assert quiescent(net), f"{label}: network never settled after faults cleared"
    tips = {state_root(net.nodes[v].state) for v in vals}
    assert len(tips) == 1, f"{label}: quiescent but diverged"
    heights = {net.nodes[v].next_height for v in vals}
    assert len(heights) == 1
    for v in vals:
        node = net.nodes[v]
        assert state_root(replay(genesis_state, node.chain)) == state_root(node.state)


def run_schedule(seed: int, *, faults: bool = True) -> None:
    """One seeded schedule: random faults (drawn, but left out if not *faults*), 10 txs."""
    _, genesis_file, _ = _setup()
    rng = random.Random(9000 + seed)
    horizon = 260
    vals = list(genesis_file.validators)
    partitions, crashes, drops = _random_faults(rng, len(vals), horizon)
    if not faults:
        partitions, crashes, drops = [], [], []
    config = NetworkConfig(
        validators=vals, rng_seed=seed,
        partition_rules=partitions, crash_rules=crashes, drop_rules=drops,
    )
    txs = _workload(seed, 10)
    submit_ticks = sorted(rng.randrange(1, horizon // 2) for _ in txs)
    schedule = dict(zip(submit_ticks, txs))
    submissions = [
        (tick, tx, rng.randrange(len(vals))) for tick, tx in sorted(schedule.items())
    ]
    check_run(config, submissions, horizon, f"seed {seed} faults={faults}")


# Seeds 116, 158, 191 and 253 forked when a replica commit-voted in views it
# had already left and commits were tallied across views.
@pytest.mark.parametrize("seed", [*range(20), 116, 158, 191, 253])
def test_safety_under_random_fault_schedules(seed):
    run_schedule(seed)


def test_a_fault_free_schedule_does_not_fork():
    # Seed 75's replicas entered two views a tick apart after an idle gap,
    # and the cross-view tally once finalized a different block on each side.
    run_schedule(75, faults=False)


_DROP_TICKS = 80
_DROP_TXS = 12


@st.composite
def _drop_schedules(draw):
    """Single-tick drops on a drawn few directed links, and drawn submission ticks.

    Each schedule may cut only its own subset of links (swarm testing): some
    hammer one link, others spread thin drops over several. Submissions are
    drawn as gaps, so idle spells near the view timeout are common.
    """
    links = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4, unique=True,
    ))
    drops = draw(st.lists(
        st.tuples(st.sampled_from(links), st.integers(1, _DROP_TICKS)), max_size=40,
    ))
    gaps = draw(st.lists(st.integers(0, 16), min_size=1, max_size=_DROP_TXS))
    entries = draw(st.lists(st.integers(0, 3), min_size=len(gaps), max_size=len(gaps)))
    rules = [DropRule(src=s, dst=d, from_tick=t, to_tick=t) for (s, d), t in drops]
    ticks = [1 + sum(gaps[: i + 1]) for i in range(len(gaps))]
    return rules, list(zip(ticks, entries))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=_drop_schedules(), rng_seed=st.integers(0, 2**16))
def test_no_fork_under_drawn_drop_schedules(schedule, rng_seed):
    rules, timed = schedule
    _, genesis_file, _ = _setup()
    config = NetworkConfig(
        validators=list(genesis_file.validators), rng_seed=rng_seed, drop_rules=rules,
    )
    txs = _workload(0, _DROP_TXS)
    submissions = [(tick, tx, entry) for (tick, entry), tx in zip(timed, txs)]
    horizon = max([r.to_tick for r in rules] + [tick for tick, _ in timed]) + 1
    check_run(config, submissions, horizon, f"drops {rules} rng_seed {rng_seed}")
