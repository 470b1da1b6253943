"""Channel keystream lookahead: a window of records per AES batch, and
not one wire byte, tag check or sequencing rule different for it.

Count- and byte-based only.  Bytes are checked against the spec-literal
AES-GCM kept in ``tests/crypto/test_gcm_kernels.py`` (which shares no
code with :mod:`repro.crypto`) or, where thousands of records make that
too slow, against a plain per-record :class:`AesGcm` that the kernel
tests hold to the same reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ctr
from repro.crypto.aes import AES128
from repro.crypto.gcm import AesGcm
from repro.errors import ChannelError
from repro.net.channel import ChannelEndpoint
from repro.sgx.cost_model import SimClock
from tests.crypto import test_gcm_kernels as kernels

C2S, S2C = bytes(range(16)), bytes(range(16, 32))
BUDGET_BYTES = 1024 * 16  # the docstring's 16 KiB of keystream per direction


def pair() -> tuple[ChannelEndpoint, ChannelEndpoint]:
    clock = SimClock()
    return (ChannelEndpoint(clock, send_key=C2S, recv_key=S2C, label=0),
            ChannelEndpoint(clock, send_key=S2C, recv_key=C2S, label=1))


def spec_iv(label: int, seq: int) -> bytes:
    return bytes([label, 0, 0, 0]) + seq.to_bytes(8, "big")


def spec_aad(seq: int) -> bytes:
    return b"speed/record" + seq.to_bytes(8, "big")


def record_by(encrypt, label: int, seq: int, payload: bytes) -> bytes:
    """The record ``protect`` owes for ``(label, seq, payload)``, sealed by
    ``encrypt(iv, payload, aad)``."""
    ct, tag = encrypt(spec_iv(label, seq), payload, spec_aad(seq))
    return seq.to_bytes(8, "big") + tag + ct


def reference_record(key: bytes, label: int, seq: int, payload: bytes) -> bytes:
    return record_by(lambda *args: kernels.ref_gcm_encrypt(key, *args), label, seq, payload)


def pattern(size: int, salt: int) -> bytes:
    return bytes((salt + 7 * i) % 251 for i in range(size))


def keystream_held(endpoint: ChannelEndpoint) -> list[int]:
    return [len(cipher._ahead._keystream) for cipher in (endpoint._send, endpoint._recv)]


@pytest.fixture
def aes_batch_sizes(monkeypatch):
    """Rows of every ``encrypt_blocks`` call, in order."""
    sizes = []
    real = AES128.encrypt_blocks

    def spy(self, blocks):
        sizes.append(len(blocks))
        return real(self, blocks)

    monkeypatch.setattr(AES128, "encrypt_blocks", spy)
    return sizes


# -- (1) every byte is the reference's ------------------------------------------
class TestBytes:
    def test_records_equal_the_spec_literal_reference(self, aes_batch_sizes):
        client, server = pair()
        # 80 B sets a stride of 1 + 5 blocks; 64 / 80 / 96 B are that
        # stride -1 / 0 / +1; twenty records cross a window edge (16); the
        # 64 KiB record is past any window the budget allows.
        sizes = [80, 0, 1, 15, 16, 17, 64, 80, 96, 81] + [80] * 10 + [33, 65536, 80, 80, 5]
        for seq, size in enumerate(sizes):
            payload = pattern(size, seq)
            record = client.protect(payload)
            assert record == reference_record(C2S, 0, seq, payload), (seq, size)
            assert server.unprotect(record) == payload
        # The lookahead was in play, not bypassed: far fewer AES batches
        # than the 2 x 25 records, and a whole window in one of them.
        assert len(aes_batch_sizes) < len(sizes)
        assert 16 * 6 in aes_batch_sizes

    def test_both_directions_interoperate_with_a_plain_per_record_cipher(self):
        client, _ = pair()
        plain_c2s, plain_s2c = AesGcm(C2S), AesGcm(S2C)
        for seq in range(40):
            payload = pattern(1100 if seq % 3 else 70, seq)
            record = client.protect(payload)
            assert record == record_by(plain_c2s.encrypt, 0, seq, payload)
            assert plain_c2s.decrypt(
                spec_iv(0, seq), record[24:], record[8:24], spec_aad(seq)) == payload
            reply = record_by(plain_s2c.encrypt, 1, seq, payload[::-1])
            assert client.unprotect(reply) == payload[::-1]

    def test_the_last_sequence_numbers_match_the_reference_then_exhaust(self):
        client, server = pair()
        client._send_seq = 2**64 - 20
        for seq in range(2**64 - 20, 2**64):
            payload = pattern(40, seq % 251)
            record = client.protect(payload)
            assert record == reference_record(C2S, 0, seq, payload), 2**64 - seq
            assert server.unprotect(record) == payload
        with pytest.raises(ChannelError, match="sequence space exhausted"):
            client.protect(b"one too many")
        assert max(keystream_held(client) + keystream_held(server)) <= BUDGET_BYTES


# -- (2) what it buys, as a count --------------------------------------------------
def test_64_equal_records_cost_a_handful_of_aes_batches_on_each_end(aes_batch_sizes):
    client, server = pair()
    payload = pattern(80, 1)
    before = ctr.aes_batches
    records = [client.protect(payload) for _ in range(64)]
    sealing = len(aes_batch_sizes)
    assert sealing <= 5                      # one per record without lookahead: 64
    assert [server.unprotect(record) for record in records] == [payload] * 64
    assert len(aes_batch_sizes) - sealing <= 5
    assert ctr.aes_batches - before == len(aes_batch_sizes)


def test_a_large_record_leaves_the_small_records_after_it_small_slots(aes_batch_sizes):
    client, server = pair()
    small = pattern(80, 1)                                    # E(J0) + 5 blocks: a stride of 6
    large = pattern(16 * ctr._AHEAD_MAX_RECORD + 1, 2)        # one block over the slot limit
    records = [client.protect(small)]                        # fills slots for seq 0 .. 15
    before, computed = ctr.aes_batches, len(aes_batch_sizes)
    records.append(client.protect(large))
    assert aes_batch_sizes[computed:] == [1 + ctr._AHEAD_MAX_RECORD + 1]   # ctr_stream, alone
    records += [client.protect(small) for _ in range(46)]    # seq 2 .. 47
    # Seq 2 .. 15 from the window filled before; 16 .. 47 in two refills
    # of 16 slots still sized for 80 B (a 130-block stride: 5 refills of 7).
    assert aes_batch_sizes[computed + 1:] == [16 * 6, 16 * 6]
    assert ctr.aes_batches - before == 3
    opened = len(aes_batch_sizes)
    assert [server.unprotect(record) for record in records] == [small, large] + [small] * 46
    assert aes_batch_sizes[opened:] == [16 * 6, 1 + ctr._AHEAD_MAX_RECORD + 1, 16 * 6, 16 * 6]
    assert records[1] == reference_record(C2S, 0, 1, large)


# -- (3) any schedule ----------------------------------------------------------------
STEP = st.one_of(
    st.tuples(st.just("protect"), st.sampled_from([0, 1, 40, 80, 81, 300, 1100, 1300])),
    st.tuples(st.just("oversize"), st.sampled_from([16 * 1024, 20000])),
    st.tuples(st.just("deliver"), st.integers(1, 20)),
    st.tuples(st.just("drop"), st.integers(1, 40)),       # gaps inside and beyond a window
    st.tuples(st.just("duplicate"), st.just(0)),
    st.tuples(st.just("corrupt"), st.sampled_from(["ct", "tag", "seq"])),
    st.tuples(st.just("reseal"), st.integers(1, 20)),
)


def corrupted(record: bytes, where: str) -> bytes:
    if where == "seq":  # claim another number in the same window
        return (int.from_bytes(record[:8], "big") + 1).to_bytes(8, "big") + record[8:]
    at = {"tag": 8}.get(where, len(record) - 1 if len(record) > 24 else 23)
    return record[:at] + bytes([record[at] ^ 0x40]) + record[at + 1:]


@given(st.lists(STEP, min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_any_schedule_keeps_every_byte_every_check_and_the_budget(steps):
    client, server = pair()
    plain = AesGcm(C2S)
    sealed_from_a_slot = []
    real = ctr.KeystreamAhead.stream

    def spy(self, iv, data, once):
        out = real(self, iv, data, once)
        if once and out is not None:
            sealed_from_a_slot.append((id(self), bytes(iv)))
        return out

    flight: list[tuple[bytes, bytes]] = []
    ctr.KeystreamAhead.stream = spy
    try:
        for seq_salt, (kind, arg) in enumerate(steps):
            if kind in ("protect", "oversize"):
                payload = pattern(arg, seq_salt)
                seq = client.records_protected
                record = client.protect(payload)
                assert record == record_by(plain.encrypt, 0, seq, payload)
                flight.append((record, payload))
            elif kind == "deliver":
                for record, payload in flight[:arg]:
                    assert server.unprotect(record) == payload
                del flight[:arg]
            elif kind == "drop":
                del flight[:arg]
            elif kind == "duplicate" and flight:
                record, payload = flight.pop(0)
                assert server.unprotect(record) == payload
                with pytest.raises(ChannelError, match="replayed"):
                    server.unprotect(record)
            elif kind == "corrupt" and flight:
                record, payload = flight.pop(0)
                with pytest.raises(ChannelError):
                    server.unprotect(corrupted(record, arg))
                assert server.unprotect(record) == payload   # forged k, then genuine k
            elif kind == "reseal" and client.records_protected:
                # A caller that breaks the rule and asks the sending
                # cipher for an old IV gets the per-record answer.
                seq = max(0, client.records_protected - arg)
                served = len(sealed_from_a_slot)
                again = client._send.encrypt(spec_iv(0, seq), b"again", spec_aad(seq))
                assert again == plain.encrypt(spec_iv(0, seq), b"again", spec_aad(seq))
                assert len(sealed_from_a_slot) == served
            assert max(keystream_held(client) + keystream_held(server)) <= BUDGET_BYTES
    finally:
        ctr.KeystreamAhead.stream = real
    assert len(set(sealed_from_a_slot)) == len(sealed_from_a_slot)


# -- (4) a slot-served record is checked like any other ----------------------------
@pytest.mark.parametrize("where", ["ct", "tag", "seq"])
def test_tampering_with_a_slot_served_record_is_rejected_before_any_plaintext(where):
    client, server = pair()
    records = [client.protect(pattern(80, seq)) for seq in range(4)]
    assert server.unprotect(records[0]) == pattern(80, 0)   # fills the window
    before = ctr.aes_batches
    with pytest.raises(ChannelError, match="authentication failed"):
        server.unprotect(corrupted(records[1], where))
    assert ctr.aes_batches == before                         # ... which served this one
    assert [server.unprotect(r) for r in records[1:]] == [pattern(80, s) for s in (1, 2, 3)]
