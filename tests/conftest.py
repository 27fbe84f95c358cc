"""Shared fixtures: wallets, blocks, small ledgers and deployments."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.chain.block import Block, build_block
from repro.chain.chainstore import Ledger
from repro.chain.genesis import make_genesis
from repro.chain.transaction import make_signed_transfer
from repro.chain.validation import ValidationLimits
from repro.crypto.keys import KeyPair

# Bounded, derandomized profile for the workflow's property-fuzz smoke
# step, selected with HYPOTHESIS_PROFILE=ci.
settings.register_profile(
    "ci", derandomize=True, max_examples=25, deadline=None
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

#: Small consensus limits so unit tests stay fast.
TEST_LIMITS = ValidationLimits(
    max_block_body_bytes=50_000, max_tx_bytes=10_000
)


@pytest.fixture
def alice() -> KeyPair:
    return KeyPair.from_seed(0)


@pytest.fixture
def bob() -> KeyPair:
    return KeyPair.from_seed(1)


@pytest.fixture
def carol() -> KeyPair:
    return KeyPair.from_seed(2)


@pytest.fixture
def genesis(alice: KeyPair) -> Block:
    """Genesis paying the whole supply to alice."""
    return make_genesis([alice.address])


@pytest.fixture
def ledger(genesis: Block) -> Ledger:
    return Ledger(genesis=genesis, limits=TEST_LIMITS)


def make_transfer_block(
    ledger: Ledger,
    sender: KeyPair,
    recipient: KeyPair,
    amount: int,
    miner: KeyPair | None = None,
) -> Block:
    """Seal a valid next block containing one transfer."""
    spendable = ledger.utxos.outpoints_of(sender.address)
    tx = make_signed_transfer(
        sender=sender,
        spendable=spendable,
        recipient_address=recipient.address,
        amount=amount,
    )
    miner = miner or sender
    from repro.chain.transaction import make_coinbase

    height = ledger.height + 1
    coinbase = make_coinbase(
        reward=TEST_LIMITS.block_reward,
        miner_address=miner.address,
        height=height,
    )
    tip = ledger.tip
    assert tip is not None
    return build_block(
        height=height,
        prev_hash=tip.block_hash,
        transactions=[coinbase, tx],
        timestamp=tip.timestamp + 1.0,
    )


@pytest.fixture
def chain_of_three(
    ledger: Ledger, alice: KeyPair, bob: KeyPair, carol: KeyPair
) -> list[Block]:
    """Three applied blocks on top of genesis (alice→bob→carol payments)."""
    blocks = []
    block1 = make_transfer_block(ledger, alice, bob, 1_000)
    ledger.accept_block(block1)
    blocks.append(block1)
    block2 = make_transfer_block(ledger, bob, carol, 400)
    ledger.accept_block(block2)
    blocks.append(block2)
    block3 = make_transfer_block(ledger, alice, carol, 2_000)
    ledger.accept_block(block3)
    blocks.append(block3)
    return blocks
