"""Committee selection: agreement, buffering, and fault cases."""
from slimabc.committee import CsState, committee_coin_name
from slimabc.crypto import CoinShare, key_setup


def make_states(n=4, seed=5, instance=1):
    provider = key_setup(128, n, seed)
    return [CsState(instance, provider.party_handle(i)) for i in range(n)]


def run_selection(states, senders=None):
    """Deliver every state's own share to all; returns committees."""
    shares = {s.crypto.party: s.own for s in states}
    for st in states:
        for pid, share in shares.items():
            if senders is None or pid in senders:
                st.on_share(pid, share)
    return [st.committee for st in states]


def test_all_parties_agree_on_committee():
    committees = run_selection(make_states())
    assert all(c is not None for c in committees)
    assert len(set(committees)) == 1
    assert len(committees[0]) == 2  # kappa = f+1


def test_committee_from_any_quorum():
    # f+1 = 2 senders suffice; every 2-subset yields the same members
    n = 4
    seen = set()
    for senders in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        states = make_states(n)
        committees = run_selection(states, senders=set(senders))
        for st, c in zip(states, committees):
            if st.crypto.party in senders:
                assert c is not None
                seen.add(c)
    assert len(seen) == 1


def test_instances_select_differently():
    # not guaranteed per instance pair, but 8 instances should not collide
    members = set()
    for instance in range(1, 9):
        c = run_selection(make_states(instance=instance))[0]
        members.add(c)
    assert len(members) > 1


def test_invalid_and_duplicate_shares_ignored():
    states = make_states()
    st = states[0]
    garbage = CoinShare(2, b"\x00" * 8)
    assert st.on_share(2, garbage) is None
    assert st.committee is None
    real = states[2].crypto.coin_share(committee_coin_name(1))
    # duplicate sender: second delivery is a no-op but the first completes
    assert st.on_share(2, real) is not None
    assert st.on_share(2, real) == st.committee


def test_wrong_instance_share_rejected():
    states = make_states(instance=1)
    st = states[0]
    other = states[1].crypto.coin_share(committee_coin_name(9))
    assert st.on_share(1, other) is None
    assert st.committee is None
