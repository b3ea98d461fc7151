"""Provable broadcast: proofs, equivocation, and withholding."""
import pytest

from slimabc.crypto import Ciphertext, key_setup
from slimabc.ppb import (
    NotCommitteeMemberError,
    PpbReceiver,
    PpbSender,
    ppb_sign_bytes,
    verify_proof,
)


def setup(n=4, seed=3, members=(0, 1)):
    provider = key_setup(128, n, seed)
    handles = [provider.party_handle(i) for i in range(n)]
    return provider, handles, members


def test_happy_path_yields_transferable_proof():
    provider, handles, committee = setup()
    ct = provider.tpke_enc(b"batch")
    sender = PpbSender(1, handles[0], committee, ct)
    receivers = [PpbReceiver(1, h, committee) for h in handles]
    proof = None
    for i, r in enumerate(receivers):
        share = r.on_payload(0, ct)
        assert share is not None
        got = sender.on_share(i, share)
        if got is not None:
            proof = got
    assert proof is not None
    # n-f = 3 shares suffice, so the last countersign returned None
    assert sender.on_share(3, receivers[3].on_payload(0, ct)) is None
    # transferable: any handle verifies it against the ciphertext
    for h in handles:
        assert verify_proof(h, 1, 0, ct, proof)


def test_proof_binds_instance_slot_and_payload():
    provider, handles, committee = setup()
    ct, other = provider.tpke_enc(b"a"), provider.tpke_enc(b"b")
    sender = PpbSender(1, handles[0], committee, ct)
    for i in range(3):
        sender.on_share(i, handles[i].sig_share(ppb_sign_bytes(1, 0, ct.ct_digest())))
    sig = sender.proof
    assert verify_proof(handles[2], 1, 0, ct, sig)
    assert not verify_proof(handles[2], 1, 0, other, sig)
    assert not verify_proof(handles[2], 2, 0, ct, sig)
    assert not verify_proof(handles[2], 1, 1, ct, sig)


def test_non_member_cannot_broadcast():
    provider, handles, committee = setup()
    with pytest.raises(NotCommitteeMemberError):
        PpbSender(1, handles[2], committee, provider.tpke_enc(b"x"))


def test_receiver_ignores_non_member_payload():
    provider, handles, committee = setup()
    r = PpbReceiver(1, handles[3], committee)
    assert r.on_payload(2, provider.tpke_enc(b"x")) is None


def test_equivocation_cannot_assemble_two_proofs():
    """A sender pushing two payloads gets countersigns for at most one
    digest per receiver, so at most one of them can ever reach n-f."""
    provider, handles, committee = setup()
    ct_a, ct_b = provider.tpke_enc(b"left"), provider.tpke_enc(b"right")
    receivers = [PpbReceiver(1, h, committee) for h in handles]
    shares_a, shares_b = [], []
    for i, r in enumerate(receivers):
        payload = ct_a if i % 2 == 0 else ct_b
        share = r.on_payload(0, payload)
        assert share is not None
        (shares_a if i % 2 == 0 else shares_b).append((i, share))
        # the second, diverging payload is never countersigned
        assert r.on_payload(0, ct_b if i % 2 == 0 else ct_a) is None
    sender_a = PpbSender(1, handles[0], committee, ct_a)
    sender_b = PpbSender(1, handles[0], committee, ct_b)
    for i, s in shares_a:
        sender_a.on_share(i, s)
    for i, s in shares_b:
        sender_b.on_share(i, s)
    assert sender_a.proof is None and sender_b.proof is None


def test_withholding_blocks_proof():
    provider, handles, committee = setup()
    ct = provider.tpke_enc(b"quiet")
    sender = PpbSender(1, handles[0], committee, ct)
    # only f parties countersign: below n-f forever
    for i in range(1):
        sender.on_share(i, handles[i].sig_share(ppb_sign_bytes(1, 0, ct.ct_digest())))
    assert sender.proof is None


def test_sender_rejects_bad_and_duplicate_shares():
    provider, handles, committee = setup()
    ct = provider.tpke_enc(b"dup")
    sender = PpbSender(1, handles[0], committee, ct)
    wrong = handles[1].sig_share(b"unrelated bytes")
    assert sender.on_share(1, wrong) is None
    good = handles[1].sig_share(ppb_sign_bytes(1, 0, ct.ct_digest()))
    assert sender.on_share(1, good) is None  # 1 of 3
    assert sender.on_share(1, good) is None  # duplicate sender ignored
    assert len(sender._shares) == 1


def test_receiver_validator_gates_countersigning():
    provider, handles, committee = setup()
    r = PpbReceiver(1, handles[2], committee)
    assert r.on_payload(0, Ciphertext(b"junk", 4)) is None
    assert r.on_payload(0, provider.tpke_enc(b"ok")) is not None
