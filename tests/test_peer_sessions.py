"""Peer sessions in check clearing (Fig. 5): a bank keeps one AP session
per peer bank for every check it clears there, and re-establishes it only
when the peer reports the session dead (``SessionError``)."""

import pytest

from repro.clock import SimulatedClock
from repro.durability import DurabilityStore
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    AuthorizationDenied,
    InsufficientFundsError,
    ServiceError,
    SessionError,
)
from repro.net.message import encode_error, raise_if_error
from repro.services.client import ServiceClient
from repro.testbed import Realm


class Banks:
    """Payor at bank A, payee at bank B, with every ticket and the
    payee's own session warm, so only clearing traffic remains."""

    def __init__(self, tmp_path=None, seed=b"peer-sessions") -> None:
        self.tmp_path = tmp_path
        self.realm = Realm(seed=seed)
        self.payor = self.realm.user("payor")
        self.payee = self.realm.user("payee")
        self.bank_a = self.realm.accounting_server(
            "bank-a", **self._store("bank-a")
        )
        self.bank_b = self.realm.accounting_server(
            "bank-b", **self._store("bank-b")
        )
        self.bank_a.create_account(
            "payor", self.payor.principal, {"dollars": 1000}
        )
        self.bank_b.create_account("payee", self.payee.principal)
        self.payor_client = self.payor.accounting_client(self.bank_a.principal)
        self.payee_client = self.payee.accounting_client(self.bank_b.principal)
        self.payee_client.service.establish_session()
        self.payee.kerberos.get_ticket(self.bank_a.principal)
        self.bank_b.kerberos.get_ticket(self.bank_a.principal)
        self.sent = []
        self.realm.network.add_tap(
            lambda m: self.sent.append((m.source, m.destination, m.msg_type))
        )

    def _store(self, name):
        if self.tmp_path is None:
            return {}
        return {"durability": DurabilityStore(str(self.tmp_path / name))}

    def write(self, amount=1):
        return self.payor_client.write_check(
            "payor", self.payee.principal, "dollars", amount
        )

    def deposit(self, check):
        del self.sent[:]
        return self.payee_client.deposit_check(check, "payee")

    def between_banks(self, msg_type):
        """How many ``msg_type`` messages bank B sent bank A last deposit."""
        pair = (self.bank_b.principal, self.bank_a.principal)
        return sum(
            1 for s, d, t in self.sent if (s, d) == pair and t == msg_type
        )

    def restart_bank_a(self):
        self.realm.network.unregister(self.bank_a.principal)
        self.bank_a = self.realm.restart_accounting_server(
            "bank-a", **self._store("bank-a")
        )


def sessions_for(server, peer):
    return [s for s in server.sessions.values() if s.client == peer.principal]


def test_one_session_per_peer_for_many_checks():
    banks = Banks()
    for _ in range(5):
        assert banks.deposit(banks.write())["cleared"]
    assert len(sessions_for(banks.bank_a, banks.bank_b)) == 1
    assert banks.bank_a.accounts["payor"].balance("dollars") == 995
    assert banks.bank_b.accounts["payee"].balance("dollars") == 5


def test_first_clearing_costs_six_messages_and_later_ones_four():
    banks = Banks()
    checks = [banks.write() for _ in range(3)]
    banks.deposit(checks[0])
    assert len(banks.sent) == 6
    assert banks.between_banks("ap-request") == 1
    for check in checks[1:]:
        banks.deposit(check)
        assert len(banks.sent) == 4
        assert banks.between_banks("ap-request") == 0
        assert banks.between_banks("request") == 1


def test_restarted_payor_bank_gets_one_new_session(tmp_path):
    banks = Banks(tmp_path)
    banks.deposit(banks.write())
    check = banks.write(7)
    banks.restart_bank_a()
    assert banks.bank_a.sessions == {}
    result = banks.deposit(check)
    assert result["paid"] == 7
    # The dead session is refused, re-established once, and resent.
    assert banks.between_banks("request") == 2
    assert banks.between_banks("ap-request") == 1
    assert len(sessions_for(banks.bank_a, banks.bank_b)) == 1
    assert banks.bank_a.accounts["payor"].balance("dollars") == 992
    assert banks.bank_b.accounts["payee"].balance("dollars") == 8
    # The new session is reused from then on.
    banks.deposit(banks.write())
    assert banks.between_banks("ap-request") == 0


def test_expired_peer_session_is_re_established_once():
    banks = Banks()
    banks.deposit(banks.write())
    (session,) = sessions_for(banks.bank_a, banks.bank_b)
    clock = banks.realm.clock
    assert isinstance(clock, SimulatedClock)
    clock.advance(session.expires_at - clock.now() + 1.0)
    result = banks.deposit(banks.write(3))
    assert result["paid"] == 3
    assert banks.between_banks("request") == 2
    assert banks.between_banks("ap-request") == 1
    (fresh,) = sessions_for(banks.bank_a, banks.bank_b)
    assert fresh.expires_at > clock.now()


def test_refused_check_is_not_resent():
    banks = Banks()
    banks.deposit(banks.write())
    with pytest.raises(InsufficientFundsError):
        banks.deposit(banks.write(5000))
    assert banks.between_banks("request") == 1
    assert banks.between_banks("ap-request") == 0


def test_routed_clearing_keeps_one_session_per_hop():
    banks = Banks()
    bank_c = banks.realm.accounting_server("bank-c")
    banks.bank_b.routes[banks.bank_a.principal] = bank_c.principal
    for _ in range(3):
        assert banks.deposit(banks.write())["cleared"]
    # Warm: the deposit and one request per hop, two messages each.
    assert len(banks.sent) == 6
    assert len(sessions_for(bank_c, banks.bank_b)) == 1
    assert len(sessions_for(banks.bank_a, bank_c)) == 1
    assert sessions_for(banks.bank_a, banks.bank_b) == []
    assert banks.bank_b.accounts["payee"].balance("dollars") == 3


class _ErrorNetwork:
    """Answers every request with one transported error."""

    def __init__(self, error: Exception) -> None:
        self.error = error
        self.sent = []

    def send(self, source, destination, msg_type, payload):
        self.sent.append(msg_type)
        return encode_error(self.error)


class _Agent:
    principal = PrincipalId("client")

    def __init__(self, network) -> None:
        self.network = network


@pytest.mark.parametrize(
    "error",
    [
        ServiceError("session closed by policy"),
        AuthorizationDenied("no rights in this session"),
        InsufficientFundsError("insufficient funds"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_only_a_session_error_is_resent(error):
    network = _ErrorNetwork(error)
    client = ServiceClient(_Agent(network), PrincipalId("server"))
    client._session_id = b"live-session"
    with pytest.raises(type(error)):
        client.request("op")
    assert network.sent == ["request"]


def test_session_error_crosses_the_wire_by_kind():
    payload = encode_error(SessionError("unknown session id"))
    assert payload["__error__"]["kind"] == "session"
    with pytest.raises(SessionError, match="unknown session id"):
        raise_if_error(payload)
