"""Durable chain storage and the genesis file.

The block store is one JSONL file per chain, blocks in height order, each
line carrying a CRC32 of the canonical block bytes it holds, checked on the
bytes as read from disk. A torn final line (the classic crash artifact) is
detected and logged: a reader leaves it out, and the writer truncates it
away. A damaged interior line means real corruption and is reported as such,
never skipped.

The genesis file fixes everything a network must agree on before it starts:
chain id, the validator set, and each organization with its admins and role
catalog. All nodes of a network must load byte-identical genesis files — the
genesis state root pins that.
"""

from __future__ import annotations

import logging
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from . import codec
from .errors import CorruptStore
from .ledger import Block, Chain
from .state import OrgRecord, WorldState

logger = logging.getLogger(__name__)

CHAIN_FILE = "chain.jsonl"


# --- genesis -----------------------------------------------------------------

@dataclass(frozen=True)
class GenesisFile(codec.Record):
    chain_id: str
    validators: tuple[str, ...]
    orgs: tuple[OrgRecord, ...] = field(default=())

    decoders = {"validators": lambda vs: tuple(codec.require_hex(v, 20, "validator address") for v in vs)}


def build_genesis_state(genesis: GenesisFile) -> WorldState:
    """The initial world state, once the genesis-wide rules hold (each record checked its own)."""
    if not genesis.chain_id:
        raise ValueError("chain_id must be non-empty")
    if not genesis.validators:
        raise ValueError("genesis must list at least one validator")
    if len(set(genesis.validators)) != len(genesis.validators):
        raise ValueError("duplicate validator addresses in genesis")
    orgs: dict[str, OrgRecord] = {}
    for org in genesis.orgs:
        if org.org_id in orgs:
            raise ValueError(f"duplicate org {org.org_id!r} in genesis")
        orgs[org.org_id] = org
    return WorldState(orgs=orgs)


def save_genesis(genesis: GenesisFile, path: str | Path) -> None:
    Path(path).write_text(codec.canonical_dumps(genesis) + "\n", encoding="utf-8")


def load_genesis(path: str | Path) -> GenesisFile:
    return GenesisFile.from_dict(codec.loads(Path(path).read_text(encoding="utf-8")))


# --- block store ---------------------------------------------------------------

def fsync_dir(path: Path) -> None:
    """Make the entries of directory *path* (a file created or renamed there) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Store:
    """Append-only block file; one writer, crash-safe appends.

    ``height`` is the height of the last block the file holds: -1 for an
    empty file, None for a non-empty one until :func:`load_chain` reads it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        created = [d for d in self.path.parents if not d.exists()]  # deepest first
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch(exist_ok=True)
        for entry in (self.path, *created):  # the file's entry, then each new directory's
            fsync_dir(entry.parent)
        self.height: int | None = -1 if self.path.stat().st_size == 0 else None

    def extend(self, chain: Chain) -> None:
        """Append the blocks of *chain* above the last one this store holds."""
        if self.height is None:
            raise ValueError(f"{self.path} holds blocks not read yet; load its chain first")
        for block in chain.blocks[self.height + 1:]:
            self.append(block)

    def append(self, block: Block) -> None:
        text = codec.canonical_bytes(block)
        # canonical_bytes({"block": block, "crc32": crc}) with one encode: "block" < "crc32".
        line = b'{"block":%s,"crc32":"%08x"}\n' % (text, zlib.crc32(text))
        with open(self.path, "ab") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        self.height = block.header.height


_LINE = re.compile(rb'\{"block":(.*),"crc32":"([0-9a-f]{8})"\}')  # as Store.append writes it


def _read_lines(path: Path) -> tuple[list[Block], int | None]:
    """The blocks of *path*'s sound lines, and the byte length to cut a torn final line to.

    A line must be framed exactly as :meth:`Store.append` writes it, match the
    CRC of the block bytes it holds, decode to one block from those bytes and
    hold height i at line i; whether the blocks link and replay is the audit's
    job (``ledger.replay``). Block bytes that are not canonical but decode and
    match their CRC are read as the block they decode to. An append is durable
    only once its full line, newline included, hit the disk. A final segment
    without its newline, or one that is framed otherwise or fails its CRC, is
    a torn write: it is left out with a warning (the length is None when
    nothing is torn). Damage earlier, or a line that matches its CRC but holds
    no block, raises CorruptStore with its height.
    """
    segments = path.read_bytes().split(b"\n")
    torn_tail = segments[-1] != b""  # a clean file always ends with a newline
    if not torn_tail:
        segments.pop()

    blocks: list[Block] = []
    for i, segment in enumerate(segments):
        last = i == len(segments) - 1
        whole = False  # newline-framed JSON under its CRC: written whole, so durable
        try:
            if last and torn_tail:
                raise ValueError("no trailing newline")
            framed = _LINE.fullmatch(segment)
            if framed is None:
                raise ValueError("not framed as a block line")
            body, crc = framed.groups()
            if crc != b"%08x" % zlib.crc32(body):
                raise ValueError("crc mismatch")
            whole = True
            block = Block.from_dict(codec.loads(body))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            if last and not whole:
                logger.warning("leaving out torn final line %d of %s (%s)", i, path, exc)
                return blocks, sum(len(s) + 1 for s in segments[:i])
            raise CorruptStore(i, f"store line {i} unreadable: {exc}") from exc
        if block.header.height != i:
            raise CorruptStore(i, f"height {block.header.height} at store line {i}")
        blocks.append(block)
    return blocks, None


def _as_chain(blocks: list[Block]) -> Chain:
    if not blocks:
        raise CorruptStore(0, "store holds no usable blocks")
    return Chain(blocks=tuple(blocks))


def read_chain(path: str | Path) -> Chain:
    """The chain stored at *path*, checked as :func:`_read_lines` does, without a write."""
    return _as_chain(_read_lines(Path(path))[0])


def load_chain(store: Store) -> Chain:
    """The writer's read of :func:`read_chain`: a torn final line is also truncated away."""
    blocks, good_bytes = _read_lines(store.path)
    if good_bytes is not None:
        logger.warning("truncating torn final line of %s to %d bytes", store.path, good_bytes)
        with open(store.path, "r+b") as fh:
            fh.truncate(good_bytes)
            os.fsync(fh.fileno())
    chain = _as_chain(blocks)
    store.height = chain.height
    return chain


# --- data directory conventions ---------------------------------------------

def chain_path(data_dir: str | Path) -> Path:
    return Path(data_dir) / CHAIN_FILE
