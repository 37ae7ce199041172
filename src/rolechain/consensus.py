"""Deterministic in-process simulation of the validator network.

Replication protocol (crash faults and partitions in scope, equivocation out
of scope, per the trusted-validator setting):

* Round-robin proposer per (height, view): ``validators[(h + v) mod N]``.
  A view times out after a fixed number of ticks without progress, rotating
  the proposer past crashed or partitioned nodes. A proposal, vote or commit
  from a later view at the replica's height moves it to that view and
  restarts its timer (Tendermint's round skip; one message is enough, since
  validators do not equivocate).
* Three rules, each applied to the replica's current view only, with quorum
  ⌊2N/3⌋+1: vote once for the view's proposal (only for the lock, if the
  replica holds one); on a vote quorum, commit-vote once and lock the block;
  on a commit quorum, finalize. Safety is the lock argument: a commit quorum
  in view v means a quorum locked the block in v, and every vote quorum of
  a later view shares a member with it, who votes only for its lock, so no
  other block gathers votes there and none can be finalized at the height.
* Transactions enter through any node and gossip to every reachable peer;
  voters also adopt the transactions of valid proposals, so any block that
  gathered votes can be re-proposed by whoever becomes proposer next.
* Lagging replicas catch up by requesting missing blocks and validating
  them by full replay. When a fault window closes (partition heals, node
  revives) every node announces its tip once, modeling the handshake of a
  re-established connection; that exchange triggers the block sync.
* Replicas in one process share one execution of a block. Message bodies
  carry the sender's own frozen records (the gossiped tx, the proposed or
  committed block, the synced blocks), so the recipients of one broadcast
  hold the same objects, and each still runs its own checks. A block keeps
  its fold's post-state as ``_post``: the proposer's seal sets it, and so
  does a replica that executes a block without one (a decoded block or a
  ``dataclasses.replace`` copy has none). A replica checks a block's height,
  link and ``tx_root`` with ``check_link`` (the link pins the history, so
  the pre-state); then a ``_post`` is the answer, its events being the ones
  its fold produced or ``execute_block`` compared. Every replica drops it
  from the block it finalizes; the first at a height appends the block, and
  the others take its chain and state. Audits and cold-start replay
  re-execute every block. Only ``submit_tx`` makes gossip, after the
  envelope check, and every fold checks the envelope again.

Everything is a pure function of (config, workload, seed): messages carry a
global sequence number and deliver in (tick, sender, sequence) order, and
per-message latency comes from one seeded RNG. Two runs with equal inputs
produce byte-identical message traces and reports. The trace is kept as a
count and, unless ``trace_digest=False`` (a serving node), a running digest
(``codec.DigestLog``); such a network digests each body once, when it sends.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from . import codec
from .errors import ChainError, SimTimeout, TransactionError
from .ledger import (
    Block, Chain, check_link, execute_block, hash_header, new_chain, replay,
    seal_block,
)
from .payloads import SignedTransaction
from .state import Event, WorldState, execute_transaction, expected_nonce, state_root
from .wallet import verify_envelope

VIEW_TIMEOUT_TICKS = 12   # must exceed a full propose/vote/commit exchange
MAX_BLOCK_TXS = 100
MAX_SYNC_BLOCKS = 100
# A transaction whose nonce stays ahead of its sender's committed nonce for
# this long is an orphan (its predecessor was lost, not delayed) and is
# evicted so the network can go quiet instead of churning views forever.
MEMPOOL_GAP_TTL_TICKS = 100

PROPOSAL = "Proposal"
VOTE = "Vote"
COMMIT = "Commit"
TX_GOSSIP = "TxGossip"
STATUS = "Status"
SYNC_REQUEST = "SyncRequest"
SYNC_RESPONSE = "SyncResponse"


def _require_ints(rule, *names: str) -> None:
    """Refuse a fault rule whose field *name* (a tick or a node index) is not an exact int."""
    for name in names:
        codec.require_int(getattr(rule, name), f"{type(rule).__name__} {name}")


@dataclass(frozen=True)
class CrashRule:
    """Node is down for ticks in [from_tick, to_tick]; to_tick None = forever."""

    node: int
    from_tick: int
    to_tick: int | None = None

    def __post_init__(self):
        _require_ints(self, "node", "from_tick")
        if self.to_tick is not None:
            _require_ints(self, "to_tick")

    def active(self, tick: int) -> bool:
        return tick >= self.from_tick and (self.to_tick is None or tick <= self.to_tick)


@dataclass(frozen=True)
class PartitionRule:
    """During [from_tick, to_tick], messages pass only within a group.

    Nodes not listed in any group are isolated for the window.
    """

    from_tick: int
    to_tick: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(map(tuple, self.groups)))
        _require_ints(self, "from_tick", "to_tick")
        for node in (i for group in self.groups for i in group):
            codec.require_int(node, "PartitionRule group member")

    def active(self, tick: int) -> bool:
        return self.from_tick <= tick <= self.to_tick

    def blocks(self, a: int, b: int) -> bool:
        for group in self.groups:
            if a in group and b in group:
                return False
        return True


@dataclass(frozen=True)
class DropRule:
    """Drop messages from src to dst during [from_tick, to_tick]."""

    src: int
    dst: int
    from_tick: int
    to_tick: int

    def __post_init__(self):
        _require_ints(self, "src", "dst", "from_tick", "to_tick")

    def blocks(self, a: int, b: int, tick: int) -> bool:
        return a == self.src and b == self.dst and self.from_tick <= tick <= self.to_tick


@dataclass
class NetworkConfig:
    validators: list[str]
    rng_seed: int = 0
    crash_rules: list[CrashRule] = field(default_factory=list)
    partition_rules: list[PartitionRule] = field(default_factory=list)
    drop_rules: list[DropRule] = field(default_factory=list)

    def __post_init__(self):
        codec.require_int(self.rng_seed, "rng_seed")
        named = [r.node for r in self.crash_rules]
        named += [i for r in self.partition_rules for group in r.groups for i in group]
        named += [i for r in self.drop_rules for i in (r.src, r.dst)]
        for i in named:
            if not 0 <= i < len(self.validators):
                raise ValueError(f"a fault rule names node {i}, not a validator index")

    @property
    def quorum(self) -> int:
        n = len(self.validators)
        return (2 * n) // 3 + 1


@dataclass
class Message:
    kind: str
    sender: str
    recipient: str
    body: dict
    deliver_at_tick: int
    seq: int
    # codec.digest(body), taken once per broadcast by a network that keeps its trace digest.
    body_digest: str | None = field(default=None, repr=False, compare=False)

    def fingerprint(self) -> dict:
        return {
            "body": self.body_digest or codec.digest(self.body),
            "kind": self.kind,
            "recipient": self.recipient,
            "sender": self.sender,
            "seq": self.seq,
            "tick": self.deliver_at_tick,
        }


@dataclass
class Round:
    """A replica's voting state at its current height; replaced whole when the height commits."""

    view: int = 0
    entered: int = 0                                    # tick the current view began
    sent: set = field(default_factory=set)              # (kind, view) of each message sent
    tally: dict = field(default_factory=dict)           # (kind, view, hash) -> set of senders
    proposals: dict = field(default_factory=dict)       # hash -> (Block, post_state)
    proposal_views: dict = field(default_factory=dict)  # view -> hash
    lock: str | None = None                             # hash of locked block

    def pending(self) -> bool:
        return bool(self.lock or self.proposals or self.tally)


@dataclass
class ValidatorNode:
    """One replica: committed chain and state, mempool (tx id -> (tx, arrival tick)), round."""

    id: str
    chain: Chain
    state: WorldState
    mempool: dict[str, tuple[SignedTransaction, int]] = field(default_factory=dict)
    round: Round = field(default_factory=Round)
    tx_heights: dict = field(default_factory=dict)      # tx id -> committed height
    sync_inflight_until: int = -1

    @property
    def next_height(self) -> int:
        return len(self.chain.blocks)

    def on_chain(self, tx_id: str) -> bool:
        return self.tx_heights.get(tx_id, self.next_height) < self.next_height

    def admit(self, tx: SignedTransaction, tick: int) -> None:
        """Queue *tx* unless it is queued or on chain already."""
        tx_id = tx.tx_id
        if tx_id not in self.mempool and not self.on_chain(tx_id):
            self.mempool[tx_id] = tx, tick


class Network:
    """The simulated validator set plus its in-flight messages."""

    def __init__(
        self, config: NetworkConfig, genesis_state: WorldState, *, trace_digest: bool = True
    ):
        if not config.validators:
            raise ValueError("at least one validator is required")
        self.config = config
        # Serializes the node service's writes and reads; the simulator never takes it.
        self.lock = threading.Lock()
        self.tick = 0
        self.queue: list[Message] = []
        self.seq = 0
        self.rng = random.Random(config.rng_seed)
        # Message fingerprints, kept only as their count and (if traced) running digest.
        self.trace = codec.DigestLog(keep_digest=trace_digest)
        # Committed height of every tx id. Finality is unique, so every
        # replica shares this one index: a tx is on a replica's chain iff its
        # height is below the replica's next height.
        self.tx_heights: dict[str, int] = {}
        # Validator id -> its index, the name the fault rules use.
        self._index = {v: i for i, v in enumerate(config.validators)}
        # Chains are immutable (finalizing builds a new one), so the replicas share one genesis.
        genesis = new_chain(genesis_state)
        self.nodes: dict[str, ValidatorNode] = {
            v: ValidatorNode(id=v, chain=genesis, state=genesis_state, tx_heights=self.tx_heights)
            for v in config.validators
        }
        # Ticks at which connectivity changes back: every node announces its
        # tip then, standing in for a transport-level reconnect handshake.
        rules = (*config.partition_rules, *config.drop_rules, *config.crash_rules)
        self.handshake_ticks = {r.to_tick + 1 for r in rules if r.to_tick is not None}

    # --- fault model -------------------------------------------------------

    def crashed(self, node_id: str, tick: int) -> bool:
        if not self.config.crash_rules:
            return False
        idx = self._index[node_id]
        return any(r.node == idx and r.active(tick) for r in self.config.crash_rules)

    def link_open(self, sender: str, recipient: str, tick: int) -> bool:
        if not (self.config.partition_rules or self.config.drop_rules):
            return True
        a, b = self._index[sender], self._index[recipient]
        for rule in self.config.partition_rules:
            if rule.active(tick) and rule.blocks(a, b):
                return False
        return not any(rule.blocks(a, b, tick) for rule in self.config.drop_rules)

    def up_nodes(self) -> list[ValidatorNode]:
        return [
            self.nodes[v]
            for v in self.config.validators
            if not self.crashed(v, self.tick)
        ]

    # --- messaging ---------------------------------------------------------

    def _send(self, kind: str, sender: str, recipients: list | tuple, body: dict) -> None:
        digest = codec.digest(body) if self.trace.keep_digest else None
        for recipient in recipients:
            self.seq += 1
            latency = 1 + self.rng.randrange(2)
            self.queue.append(Message(
                kind, sender, recipient, body, self.tick + latency, self.seq, digest,
            ))

    def broadcast(self, kind: str, sender: str, body: dict) -> None:
        # Includes the sender itself: every node handles every message the same way.
        self._send(kind, sender, self.config.validators, body)

    def proposer_for(self, height: int, view: int) -> str:
        vals = self.config.validators
        return vals[(height + view) % len(vals)]


def submit_tx(network: Network, tx: SignedTransaction, via: str | None = None):
    """Inject a transaction at one entry node; it gossips from there.

    Returns (accepted: bool, reason: str | None, tx_id: str | None).
    Only stateless checks run here — state-dependent validation happens when
    a proposer builds a block. A crashed entry node cannot take submissions,
    so the first up validator stands in when *via* is down or unspecified.
    """
    if not verify_envelope(tx):
        return False, "BadSignature", None
    entry = via if via is not None and not network.crashed(via, network.tick) else next(
        (v for v in network.config.validators if not network.crashed(v, network.tick)),
        None,
    )
    if entry is None:
        return False, "Unavailable", None
    network.broadcast(TX_GOSSIP, entry, {"tx": tx})
    return True, None, tx.tx_id


def step(network: Network) -> Network:
    """Advance the simulation one tick: deliver due messages, then let nodes act."""
    network.tick += 1
    tick = network.tick

    due = sorted(
        (m for m in network.queue if m.deliver_at_tick <= tick),
        key=lambda m: (m.deliver_at_tick, m.sender, m.seq),
    )
    network.queue = [m for m in network.queue if m.deliver_at_tick > tick]
    for msg in due:
        if network.crashed(msg.recipient, tick):
            continue
        if not network.link_open(msg.sender, msg.recipient, tick):
            continue
        network.trace.append(msg.fingerprint() if network.trace.keep_digest else None)
        _handle(network, network.nodes[msg.recipient], msg)

    announce = tick in network.handshake_ticks
    for vid in network.config.validators:
        if network.crashed(vid, tick):
            continue
        node = network.nodes[vid]
        if announce:
            network.broadcast(STATUS, vid, {"height": node.next_height - 1})
        _local_actions(network, node)
    return network


def restart(network: Network, genesis_state: WorldState, chain: Chain) -> None:
    """Start every replica from *chain*, audited by one full replay from *genesis_state*.

    A failed audit raises ReplayDivergence and changes nothing. The replicas
    share the one chain and post-state, which none of them mutates.
    """
    state = replay(genesis_state, chain)
    for node in network.nodes.values():
        node.chain, node.state = chain, state
    for block in chain.blocks:
        _index_txs(network, block)


def _index_txs(network: Network, block: Block) -> None:
    for tx in block.transactions:
        network.tx_heights.setdefault(tx.tx_id, block.header.height)


def _finalize(network: Network, node: ValidatorNode, block: Block, post: WorldState) -> None:
    # Take the chain and state objects of a peer that finalized this block
    # already (finality is unique, and equal roots mean equal states): only
    # the first replica at a height appends and indexes it. Every replica
    # drops the block's post-state (a late replica may have set it again by
    # executing the block), so a chain block holds one only while a round does.
    block.__dict__.pop("_post", None)
    height = block.header.height
    for peer in network.nodes.values():
        if peer.next_height == height + 1 and peer.chain.tip.header == block.header:
            chain, post = peer.chain, peer.state
            break
    else:
        # No check_link here: every block in node.round.proposals passed
        # _validate_proposal against the current tip, since finalizing
        # replaces the round, and a synced block is validated just before.
        chain = Chain(blocks=(*node.chain.blocks, block))
        _index_txs(network, block)
    node.chain = chain
    node.state = post
    node.round = Round(entered=network.tick)
    # Walking the whole mempool drops every transaction that can never apply.
    _select_txs(node, limit=len(node.mempool))


def _validate_proposal(node: ValidatorNode, block: Block) -> WorldState | None:
    """The post-state of *block* on *node*, or None; kept on the block as ``_post``."""
    try:
        check_link(node.chain.tip.header, block)
        if "_post" not in block.__dict__:
            block.__dict__["_post"] = execute_block(node.state, block)
    except ChainError:
        return None
    return block.__dict__["_post"]


def _adopt_block(network: Network, node: ValidatorNode, block: Block) -> bool:
    """Validate and finalize a block learned through sync."""
    post = _validate_proposal(node, block)
    if post is None:
        return False
    _finalize(network, node, block, post)
    return True


def _request_sync(network: Network, node: ValidatorNode, peer: str) -> None:
    if network.tick < node.sync_inflight_until:
        return
    node.sync_inflight_until = network.tick + VIEW_TIMEOUT_TICKS
    network._send(SYNC_REQUEST, node.id, (peer,), {"from_height": node.next_height})


def _send_blocks(network: Network, node: ValidatorNode, peer: str, start: int) -> None:
    """Send *peer* up to MAX_SYNC_BLOCKS of this node's blocks from height *start*."""
    blocks = node.chain.blocks[start : start + MAX_SYNC_BLOCKS]
    network._send(SYNC_RESPONSE, node.id, (peer,), {"blocks": blocks})


def _handle(network: Network, node: ValidatorNode, msg: Message) -> None:
    kind, body = msg.kind, msg.body

    if kind == TX_GOSSIP:
        node.admit(body["tx"], network.tick)
        return

    if kind == STATUS:
        theirs = body["height"]
        mine = node.next_height - 1
        if theirs > mine:
            _request_sync(network, node, msg.sender)
        elif theirs < mine:
            _send_blocks(network, node, msg.sender, theirs + 1)
        return

    if kind == SYNC_REQUEST:
        start = body["from_height"]
        if start < node.next_height:
            _send_blocks(network, node, msg.sender, start)
        return

    if kind == SYNC_RESPONSE:
        node.sync_inflight_until = -1
        for block in body["blocks"]:
            if block.header.height >= node.next_height and not _adopt_block(network, node, block):
                return
        return

    height, rnd = body.get("height"), node.round
    if height is None:
        return
    if height > node.next_height:
        _request_sync(network, node, msg.sender)
        return
    if height < node.next_height:
        if kind in (PROPOSAL, VOTE) and height >= 1:
            # The sender is behind; hand it the blocks it is missing.
            _send_blocks(network, node, msg.sender, height)
        return

    view = body["view"]
    if view > rnd.view:  # round skip: a later view's message moves the replica there
        rnd.view, rnd.entered = view, network.tick
    if kind == PROPOSAL:
        if body["proposer"] != network.proposer_for(height, view):
            return
        block_hash = _learn(network, node, body["block"])
        if block_hash is None:
            return
        rnd.proposal_views[view] = block_hash
    else:
        block_hash = body["block_hash"]
        # A commit counts for the block whose header it carries, before that block validates.
        if kind == COMMIT and hash_header(body["block"].header) != block_hash:
            return
        rnd.tally.setdefault((kind, view, block_hash), set()).add(msg.sender)
        if kind == COMMIT:
            _learn(network, node, body["block"])
    _advance(network, node)


def _learn(network: Network, node: ValidatorNode, block: Block) -> str | None:
    """The header hash of *block*, once it is valid in the node's round."""
    rnd, block_hash = node.round, hash_header(block.header)
    if block_hash not in rnd.proposals:
        post = _validate_proposal(node, block)
        if post is None:
            return None
        rnd.proposals[block_hash] = (block, post)
        for tx in block.transactions:
            # Adopt the block's transactions so a later proposer can rebuild
            # an equivalent block if this one stalls.
            node.admit(tx, network.tick)
    return block_hash


def _advance(network: Network, node: ValidatorNode) -> None:
    """Apply the vote, commit-vote and finalize rules to the node's current view."""
    quorum, rnd = network.config.quorum, node.round
    view, height = rnd.view, node.next_height
    proposal = rnd.proposal_views.get(view)
    if (VOTE, view) not in rnd.sent and proposal in rnd.proposals and rnd.lock in (None, proposal):
        rnd.sent.add((VOTE, view))
        network.broadcast(VOTE, node.id, {"height": height, "view": view, "block_hash": proposal})
    for block_hash, (block, post) in sorted(rnd.proposals.items()):
        votes, commits = (len(rnd.tally.get((k, view, block_hash), ())) for k in (VOTE, COMMIT))
        if votes >= quorum and (COMMIT, view) not in rnd.sent:
            rnd.sent.add((COMMIT, view))
            rnd.lock = block_hash
            body = {"height": height, "view": view, "block_hash": block_hash, "block": block}
            network.broadcast(COMMIT, node.id, body)
        if commits >= quorum:
            _finalize(network, node, block, post)
            return


def _local_actions(network: Network, node: ValidatorNode) -> None:
    height, rnd = node.next_height, node.round

    for tx_id, (tx, arrived) in list(node.mempool.items()):
        if (
            tx.nonce > expected_nonce(node.state, tx.sender)
            and network.tick - arrived >= MEMPOOL_GAP_TTL_TICKS
        ):
            del node.mempool[tx_id]

    if (node.mempool or rnd.pending()) and network.tick - rnd.entered >= VIEW_TIMEOUT_TICKS:
        rnd.view += 1
        rnd.entered = network.tick

    if network.proposer_for(height, rnd.view) != node.id or (PROPOSAL, rnd.view) in rnd.sent:
        return

    if rnd.lock is not None:  # a lock is always one of the round's proposals
        block = rnd.proposals[rnd.lock][0]
    else:
        txs, post, events = _select_txs(node)
        if not txs:
            return
        block = seal_block(node.chain.tip.header, txs, post, events, node.id, network.tick)
        block.__dict__["_post"] = post
    rnd.sent.add((PROPOSAL, rnd.view))
    network.broadcast(
        PROPOSAL, node.id,
        {"height": height, "view": rnd.view, "proposer": node.id, "block": block},
    )


def _select_txs(node: ValidatorNode, limit: int = MAX_BLOCK_TXS) -> tuple[list, WorldState, list]:
    """Greedily pick up to *limit* mempool transactions that apply cleanly, dropping dead ones.

    Returns them with the post-state and events of their fold as the next block.
    The fold copies ``node.state`` just before its first execute, if any.
    """
    selected: list[SignedTransaction] = []
    work = node.state
    events: list[Event] = []
    dead: list[str] = []
    for tx_id, (tx, _) in node.mempool.items():
        if len(selected) >= limit:
            break
        if node.on_chain(tx_id):
            dead.append(tx_id)
            continue
        expected = expected_nonce(work, tx.sender)
        if tx.nonce > expected:
            continue  # may become valid after earlier nonces land
        if tx.nonce < expected:
            dead.append(tx_id)
            continue
        if work is node.state:
            work = work.clone()
        try:
            events += execute_transaction(work, tx, height=node.next_height, tx_index=len(selected))
            selected.append(tx)
        except TransactionError:
            dead.append(tx_id)  # it wrote nothing, so the copy stays good
    for tx_id in dead:
        del node.mempool[tx_id]
    return selected, work, events


def quiescent(network: Network) -> bool:
    if network.queue:
        return False
    if any(h > network.tick for h in network.handshake_ticks):
        return False  # a fault window is still due to close and wake nodes up
    return not any(node.mempool or node.round.pending() for node in network.up_nodes())


def report(network: Network) -> dict:
    """Snapshot of per-node tips plus the committed event log of the best node."""
    nodes = {}
    best = None
    for vid in network.config.validators:
        node = network.nodes[vid]
        nodes[vid] = {
            "height": node.next_height - 1,
            "state_root": state_root(node.state),
            "status": "crashed" if network.crashed(vid, network.tick) else "up",
        }
        if best is None or node.next_height > best.next_height:
            best = node
    events = [
        e.to_dict() for block in best.chain.blocks for e in block.events
    ]
    return {
        "tick": network.tick,
        "quiescent": quiescent(network),
        "nodes": nodes,
        "committed_events": events,
        "trace_digest": codec.digest(network.trace),
    }


def step_until_quiescent(network: Network, max_ticks: int) -> bool:
    """Step until nothing is pending anywhere, at most *max_ticks* times; say if it got there."""
    for _ in range(max_ticks):
        if quiescent(network):
            return True
        step(network)
    return quiescent(network)


def run_until_quiescent(network: Network, max_ticks: int) -> dict:
    """Step until nothing is pending anywhere and report, or raise SimTimeout at the budget."""
    if max_ticks > 0 and step_until_quiescent(network, max_ticks):
        return report(network)
    raise SimTimeout(max_ticks, report(network))
