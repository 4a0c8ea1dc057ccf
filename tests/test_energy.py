"""Per-packet energy model against hand-computed values.

Oracles: power = current_mA x volts gives milliwatts; multiplied by
airtime bits/bandwidth gives millijoules. With the default profile
(440 mA / 260 mA at 5 V over 6 Mbit/s):
  send(bits)  = 2200 * bits / 6e6 mJ
  recv(bits)  = 1300 * bits / 6e6 mJ
  bcast(b, r) = send(b) + r * recv(b)
"""

import pytest

from olsrtune.sim import (
    broadcast_energy,
    default_nic,
    energy_recv,
    energy_send,
    packet_airtime,
)

NIC = default_nic()
REL = 1e-9

# (bits, expected send mJ, expected recv mJ)
POINT_ORACLES = [
    (0, 0.0, 0.0),
    (4096, 2200.0 * 4096 / 6e6, 1300.0 * 4096 / 6e6),  # 1.501866..., 0.887466...
    (6_000_000, 2200.0, 1300.0),
]


@pytest.mark.parametrize("bits,send_mj,recv_mj", POINT_ORACLES)
def test_send_recv_oracles(bits, send_mj, recv_mj):
    assert energy_send(NIC, bits) == pytest.approx(send_mj, rel=REL, abs=1e-15)
    assert energy_recv(NIC, bits) == pytest.approx(recv_mj, rel=REL, abs=1e-15)


@pytest.mark.parametrize("bits,send_mj,recv_mj", POINT_ORACLES)
@pytest.mark.parametrize("receivers", [0, 1, 3])
def test_broadcast_oracles(bits, send_mj, recv_mj, receivers):
    expected = send_mj + receivers * recv_mj
    assert broadcast_energy(NIC, bits, receivers) == pytest.approx(expected, rel=REL, abs=1e-15)


def test_literal_spot_values():
    # frozen literals, computed by hand before the model was written
    assert energy_send(NIC, 4096) == pytest.approx(1.5018666666666667, rel=REL)
    assert energy_recv(NIC, 4096) == pytest.approx(0.8874666666666667, rel=REL)
    assert broadcast_energy(NIC, 4096, 3) == pytest.approx(4.164266666666667, rel=REL)


def test_airtime():
    assert packet_airtime(6_000_000, 6e6) == pytest.approx(1.0)
    assert packet_airtime(512 * 8, 6e6) == pytest.approx(4096 / 6e6)


def test_energy_scales_linearly_in_size():
    assert energy_send(NIC, 8192) == pytest.approx(2 * energy_send(NIC, 4096), rel=REL)


def test_default_profile_values():
    assert (NIC.i_send, NIC.v_send, NIC.i_recv, NIC.v_recv, NIC.bandwidth) == (
        440.0,
        5.0,
        260.0,
        5.0,
        6e6,
    )
