"""Golden digests of the bytes the simulated devices emit.

One SHA-256 per profile x device seed x rekey_on_restart covers, in order:

- the companion session's capture: each frame's direction, logical
  timestamp, TCP sequence number and payload;
- one more OBVERSE and one more REVERSE command, as capture records;
- two cycles of: restart, the answers a fresh connection handler gives
  to the requests of that pre-restart OBVERSE command (and the state they
  leave), then trigger_state OBVERSE and REVERSE.

Ports are left out, since the OS assigns the device's. A separate digest
pins every byte records_to_capture writes for a hand-built record list.
The digests were computed by a simulator that derived every ack, tag and
keystream afresh for each message, so any caching a device does must
leave its output byte-identical.
"""

import hashlib
import struct

import pytest

from replaycheck import pcap
from replaycheck.capture import Endpoint, PacketRecord, Transport, records_to_capture
from replaycheck.simdevices import (
    DEFAULT_APP_ENDPOINT,
    Behavior,
    DeviceState,
    companion_session,
    default_profile,
    query_state,
    restart_device,
    spawn_device,
    trigger_state,
)

SEEDS = (0, 5905, 8222)

GOLDEN = {
    "cleartext_echo-0-rekey": "357d050e5503b94e13fa7de7e9e1c5264de72a2cccd251ef441f7990d76c46c3",
    "cleartext_echo-0-keep": "357d050e5503b94e13fa7de7e9e1c5264de72a2cccd251ef441f7990d76c46c3",
    "cleartext_echo-5905-rekey": "157c6be8036269bb2a9d468165a49070889e689d0a8f88ffb029b87885fd72a5",
    "cleartext_echo-5905-keep": "157c6be8036269bb2a9d468165a49070889e689d0a8f88ffb029b87885fd72a5",
    "cleartext_echo-8222-rekey": "0810b92ebf2ea0966d000f52a5095d3efe15bb2cb4c0bf07c304a4d44baab7bf",
    "cleartext_echo-8222-keep": "0810b92ebf2ea0966d000f52a5095d3efe15bb2cb4c0bf07c304a4d44baab7bf",
    "signed_cleartext-0-rekey": "4b9507d681b5a73510d6ee7474889a883f0cc3b22323cace5fed84839b1e3a7a",
    "signed_cleartext-0-keep": "4b9507d681b5a73510d6ee7474889a883f0cc3b22323cace5fed84839b1e3a7a",
    "signed_cleartext-5905-rekey": "b294e05b1cc174a852da94727a37976ff875e21732eb733dff0d99c7c40e637f",
    "signed_cleartext-5905-keep": "b294e05b1cc174a852da94727a37976ff875e21732eb733dff0d99c7c40e637f",
    "signed_cleartext-8222-rekey": "995ced440caa24e5aca579718bdc98af40310ecb8c9af6bd4bd5fcad74f6347c",
    "signed_cleartext-8222-keep": "995ced440caa24e5aca579718bdc98af40310ecb8c9af6bd4bd5fcad74f6347c",
    "encoded_fixed-0-rekey": "97b8db2a683d2bf742c1b2ce843d9fb4333ae4f9dee3eaa524029a7a2aa38a55",
    "encoded_fixed-0-keep": "97b8db2a683d2bf742c1b2ce843d9fb4333ae4f9dee3eaa524029a7a2aa38a55",
    "encoded_fixed-5905-rekey": "aee6360ac137d3635993d1fa5632a1831b986a098676386c5cab81635df16c57",
    "encoded_fixed-5905-keep": "aee6360ac137d3635993d1fa5632a1831b986a098676386c5cab81635df16c57",
    "encoded_fixed-8222-rekey": "4bcfc9016eab0c384d9d9260330cc35a4c35795379841c4851c1a4a2176d394b",
    "encoded_fixed-8222-keep": "4bcfc9016eab0c384d9d9260330cc35a4c35795379841c4851c1a4a2176d394b",
    "session_key-0-rekey": "a499b8f01f55a2965fd67d30a28e3a85c2107e5033323c87f30361627991e30f",
    "session_key-0-keep": "73c72fe187898ecd1f7cfe3c74ccfddd0ba693db1cb8bb68b6ed81541d5a974a",
    "session_key-5905-rekey": "a14eda1fc025ec04b180d47a1e09c4d653ad33400c3f7996ca59c8c8c0af260e",
    "session_key-5905-keep": "06a4a514bf6e97e09812ff1fb2ea241202a7cbac12c22ee127b2a41fda5a8e08",
    "session_key-8222-rekey": "4ba9e190068818a9165454c97a5cd0e8903cbcf74893cd91e7a1b95a38793df9",
    "session_key-8222-keep": "ba31ce7e405410f3ee4b6c2ebf6dd228607c5dae9b3540482d02f43e004b03fa",
    "tls_like-0-rekey": "71e78047c9d154dc1750629804af5ce14a81a561b15aec0466eb055386136e61",
    "tls_like-0-keep": "71e78047c9d154dc1750629804af5ce14a81a561b15aec0466eb055386136e61",
    "tls_like-5905-rekey": "cf1b0df5e3951a341fe496206cdde3ebf74fa6b88b3ef30ee8e66df5d4e6ff2a",
    "tls_like-5905-keep": "cf1b0df5e3951a341fe496206cdde3ebf74fa6b88b3ef30ee8e66df5d4e6ff2a",
    "tls_like-8222-rekey": "eefbed535177d0d546ad24443cc8867eb8ffbe967b365fa757480b3706a03280",
    "tls_like-8222-keep": "eefbed535177d0d546ad24443cc8867eb8ffbe967b365fa757480b3706a03280",
    "silent-0-rekey": "42c340a6b62814d56b28065619c6f54d613b41a18d7295bd98168da84c13dadc",
    "silent-0-keep": "42c340a6b62814d56b28065619c6f54d613b41a18d7295bd98168da84c13dadc",
    "silent-5905-rekey": "966731cca166ebafbb668a85ca44122bcc0c7a89da879030e48140514e9c4b5e",
    "silent-5905-keep": "966731cca166ebafbb668a85ca44122bcc0c7a89da879030e48140514e9c4b5e",
    "silent-8222-rekey": "96b0310a1355bd36415672df725e0fa51b933ac0f0e8289a6b2df420dafbe67c",
    "silent-8222-keep": "96b0310a1355bd36415672df725e0fa51b933ac0f0e8289a6b2df420dafbe67c",
}


def _add(digest, is_request: bool, timestamp: int, payload: bytes, extra: int = -1) -> None:
    digest.update(struct.pack(">?qqI", is_request, timestamp, extra, len(payload)) + payload)


def _add_records(digest, records: list[PacketRecord]) -> None:
    for record in records:
        _add(digest, record.src == DEFAULT_APP_ENDPOINT, record.timestamp, record.payload)


def device_digest(behavior: Behavior, seed: int, rekey: bool) -> str:
    """The digest described in the module docstring, for one device."""
    digest = hashlib.sha256()
    profile = default_profile(
        behavior, seed=seed, rekey_on_restart=rekey, post_restart_delay_s=0
    )
    with spawn_device(profile) as device:
        for ts_us, frame in pcap.read_frames(companion_session(device)):
            segment = pcap.decode_frame(frame)
            is_request = (segment.dst_addr, segment.dst_port) == (
                device.endpoint.address,
                device.endpoint.port,
            )
            seq = -1 if segment.tcp_seq is None else segment.tcp_seq
            _add(digest, is_request, ts_us, segment.payload, seq)
        command = trigger_state(device, DeviceState.OBVERSE)
        _add_records(digest, command)
        _add_records(digest, trigger_state(device, DeviceState.REVERSE))
        requests = [r.payload for r in command if r.src == DEFAULT_APP_ENDPOINT]
        for _ in range(2):
            restart_device(device)
            handle = device._new_handler()
            for payload in requests:
                for answer in handle(payload)[0]:
                    _add(digest, False, -1, answer)
            digest.update(query_state(device).value.encode())
            _add_records(digest, trigger_state(device, DeviceState.OBVERSE))
            _add_records(digest, trigger_state(device, DeviceState.REVERSE))
    return digest.hexdigest()


def _cell(behavior: Behavior, seed: int, rekey: bool) -> str:
    return f"{behavior.value}-{seed}-{'rekey' if rekey else 'keep'}"


CELLS = [(b, s, r) for b in Behavior for s in SEEDS for r in (True, False)]


def test_every_cell_has_a_digest():
    assert set(GOLDEN) == {_cell(*cell) for cell in CELLS}


@pytest.mark.parametrize("behavior,seed,rekey", CELLS, ids=[_cell(*c) for c in CELLS])
def test_device_bytes_are_pinned(behavior, seed, rekey):
    assert device_digest(behavior, seed, rekey) == GOLDEN[_cell(behavior, seed, rekey)]


def test_capture_framing_is_pinned():
    """Sequence numbers advance per direction of each (address, port) pair:
    two app ports on one address and one device port on two addresses
    make three pairs, each numbered on its own."""
    app_a, app_b = Endpoint("10.77.0.2", 38200), Endpoint("10.77.0.2", 38201)
    dev_a, dev_b = Endpoint("127.0.0.1", 4001), Endpoint("127.0.0.2", 4001)
    records = [
        PacketRecord(0, app_a, dev_a, Transport.TCP, b"one"),
        PacketRecord(5, dev_a, app_a, Transport.TCP, b"ack one"),
        PacketRecord(9, app_b, dev_a, Transport.TCP, b"two"),
        PacketRecord(12, app_a, dev_b, Transport.TCP, b"three"),
        PacketRecord(20, app_a, dev_a, Transport.TCP, b"one"),
        PacketRecord(21, dev_b, app_a, Transport.TCP, b"ack three"),
        PacketRecord(30, dev_a, app_b, Transport.TCP, b"ack two"),
        PacketRecord(31, app_a, dev_a, Transport.UDP, b"datagram"),
        PacketRecord(40, app_b, dev_a, Transport.TCP, b"two again"),
    ]
    digest = hashlib.sha256(records_to_capture(records)).hexdigest()
    assert digest == "6ff95d9c2c3dc52fa36315d2993bcf85d959799d13fa0fe24f066b3a44068139"
