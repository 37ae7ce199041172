"""Hash-linked block chain.

Headers commit to the ordered transaction list (``tx_root``), to the world
state after applying it (``state_root``), and to the previous header
(``prev_hash``), so any byte of committed history is covered by some digest
a verifier recomputes. Timestamps are logical ticks handed in by consensus;
nothing here reads a clock or remembers a block it built or executed, so
every audit re-executes. A block may carry the post-state consensus keeps
on it as ``_post``; nothing here reads it. A replay marks a block whose
signatures it checked in bulk as ``_signed``, which only its own fold reads.
Empty blocks are legal.

One caveat is inherent to hash chains: the tip header's own non-root fields
(proposer, timestamp) are only pinned by the *next* block. ``verify_chain``,
the verdict of the one audit ``replay``, therefore accepts an optional
externally trusted tip digest, which auditors should record out of band.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import codec
from .errors import (
    ChainError, HeightGap, InvalidTransaction, LinkMismatch, ReplayDivergence, RootMismatch,
    TransactionError,
)
from .payloads import SignedTransaction
from .state import Event, WorldState, execute_transaction, state_root

GENESIS_PREV_HASH = codec.ZERO_DIGEST


@dataclass(frozen=True)
class BlockHeader(codec.Record):
    height: int
    prev_hash: str
    tx_root: str
    state_root: str
    proposer: str
    timestamp: int

    def __post_init__(self):
        if codec.require_int(self.height, "height") < 0:
            raise ValueError("height must be non-negative")
        codec.require_hex(self.prev_hash, 32, "prev_hash")
        codec.require_hex(self.tx_root, 32, "tx_root")
        codec.require_hex(self.state_root, 32, "state_root")
        codec.require_hex(self.proposer, 20, "proposer")
        codec.require_int(self.timestamp, "timestamp")


@dataclass(frozen=True)
class Block(codec.Record):
    header: BlockHeader
    transactions: tuple[SignedTransaction, ...]
    events: tuple[Event, ...]


@dataclass(frozen=True)
class Chain:
    blocks: tuple[Block, ...]

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.tip.header.height

    def __len__(self) -> int:
        return len(self.blocks)


def hash_header(header: BlockHeader) -> str:
    # Hashed once per object, as SignedTransaction.tx_id is; two threads that
    # race here store the same digest.
    if "_hash" not in header.__dict__:
        header.__dict__["_hash"] = codec.digest(header)
    return header.__dict__["_hash"]


def tx_root(transactions) -> str:
    # The digest of the list's canonical bytes, joined from each tx's own,
    # which also give a tx without an id its id.
    return codec.sha256_hex(b"[%s]" % b",".join(tx.wire_bytes() for tx in transactions))


def _block_tx_root(block: Block) -> str:
    # Computed once per block object, as hash_header is, and seeded by
    # seal_block; dataclasses.replace makes a new object without it.
    if "_tx_root" not in block.__dict__:
        block.__dict__["_tx_root"] = tx_root(block.transactions)
    return block.__dict__["_tx_root"]


def genesis_block(genesis_state: WorldState) -> Block:
    header = BlockHeader(
        height=0,
        prev_hash=GENESIS_PREV_HASH,
        tx_root=tx_root(()),
        state_root=state_root(genesis_state),
        proposer=codec.ZERO_ADDRESS,
        timestamp=0,
    )
    return Block(header=header, transactions=(), events=())


def new_chain(genesis_state: WorldState) -> Chain:
    return Chain(blocks=(genesis_block(genesis_state),))


def _apply_all(
    state: WorldState, transactions, height: int, signed: bool = False
) -> tuple[WorldState, list[Event]]:
    """The post-state and events of *transactions* on one copy of *state*."""
    work = state.clone()
    events: list[Event] = []
    for i, tx in enumerate(transactions):
        try:
            events += execute_transaction(work, tx, height=height, tx_index=i, signed=signed)
        except TransactionError as exc:
            raise InvalidTransaction(i, exc.code) from exc
    return work, events


def build_block(
    prev: BlockHeader,
    txs: list[SignedTransaction],
    state: WorldState,
    proposer: str,
    tick: int,
) -> Block:
    """Assemble the block at ``prev.height + 1``; all-or-nothing over *txs*."""
    post, events = _apply_all(state, txs, prev.height + 1)
    return seal_block(prev, txs, post, events, proposer, tick)


def seal_block(prev: BlockHeader, txs, post: WorldState, events, proposer: str, tick: int) -> Block:
    """The block at ``prev.height + 1`` over *txs*, whose fold already gave *post* and *events*."""
    root = tx_root(txs)
    header = BlockHeader(
        height=prev.height + 1,
        prev_hash=hash_header(prev),
        tx_root=root,
        state_root=state_root(post),
        proposer=proposer,
        timestamp=tick,
    )
    block = Block(header=header, transactions=tuple(txs), events=tuple(events))
    block.__dict__["_tx_root"] = root
    return block


def check_link(parent: BlockHeader, block: Block) -> None:
    """Raise HeightGap, LinkMismatch or RootMismatch unless *block* is the child of *parent*."""
    h = block.header.height
    if h != parent.height + 1:
        raise HeightGap(f"expected height {parent.height + 1}, block claims {h}")
    if block.header.prev_hash != hash_header(parent):
        raise LinkMismatch(f"block at height {h} does not link to tip")
    if _block_tx_root(block) != block.header.tx_root:
        raise RootMismatch(f"tx root mismatch at height {h}")


def execute_block(state: WorldState, block: Block) -> WorldState:
    """Replay *block*, which passed :func:`check_link`, on its parent's post-state *state*.

    Raises RootMismatch / InvalidTransaction when its events or state root
    do not withstand recomputation; returns the post-state on success.
    """
    h = block.header.height
    post, events = _apply_all(state, block.transactions, h, block.__dict__.get("_signed", False))
    if tuple(events) != tuple(block.events):
        raise RootMismatch(f"event log does not match transaction replay at height {h}")
    if state_root(post) != block.header.state_root:
        raise RootMismatch(f"state root mismatch at height {h}")
    return post


def append_block(chain: Chain, block: Block) -> Chain:
    """Extend the chain by one block that passes :func:`check_link`; prior blocks are shared."""
    check_link(chain.tip.header, block)
    return Chain(blocks=(*chain.blocks, block))


def replay(genesis_state: WorldState, chain: Chain) -> WorldState:
    """The tip's post-state of *chain*, by the full audit of every block.

    Checks the genesis block, then links, roots, signatures and event logs by
    deterministic replay. Raises ReplayDivergence with the first failing
    height and its reason. A broken hash link between consecutive headers is
    attributed to the earlier height, since either side of the link may be
    the corrupted one. The signatures of all blocks are checked first, in
    parallel where that pays (:func:`_mark_signed`); a block with a failing
    one folds with every check, so it fails as it would without that step.
    """
    blocks = chain.blocks
    if not blocks or blocks[0].transactions or blocks[0].events or (
        blocks[0].header != genesis_block(genesis_state).header
    ):
        raise ReplayDivergence(0, "genesis block does not match the genesis state")
    _mark_signed(blocks[1:])
    state = genesis_state
    for h in range(1, len(blocks)):
        try:
            check_link(blocks[h - 1].header, blocks[h])
            state = execute_block(state, blocks[h])
        except LinkMismatch:
            raise ReplayDivergence(h - 1, f"hash link broken between heights {h - 1} and {h}")
        except ChainError as exc:
            raise ReplayDivergence(h, str(exc))
    return state


def _mark_signed(blocks) -> None:
    """Set each block's ``_signed`` mark: True iff every envelope it holds checks.

    The fold of a marked block skips only the envelope check (``execute_block``);
    a ``dataclasses.replace`` copy makes a new object without the mark.
    """
    from .wallet import verify_envelopes  # wallet imports store, which imports this module

    marks = verify_envelopes([tx for block in blocks for tx in block.transactions])
    start = 0
    for block in blocks:
        end = start + len(block.transactions)
        block.__dict__["_signed"] = all(marks[start:end])
        start = end


def verify_chain(
    chain: Chain, genesis_state: WorldState, expected_tip_hash: str | None = None
) -> ReplayDivergence | None:
    """The verdict of :func:`replay`: None when everything holds, else its ReplayDivergence.

    With *expected_tip_hash*, a tip header that does not hash to it fails at the tip.
    """
    try:
        replay(genesis_state, chain)
    except ReplayDivergence as exc:
        return exc
    if expected_tip_hash is not None and hash_header(chain.tip.header) != expected_tip_hash:
        return ReplayDivergence(len(chain) - 1, "tip header does not match the trusted anchor")
    return None
