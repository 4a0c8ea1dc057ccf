"""Per-packet energy model against hand-computed values.

Oracles: power = current_mA x volts gives milliwatts; multiplied by
airtime bits/bandwidth gives millijoules. With the default profile
(440 mA / 260 mA at 5 V) over the default 6 Mbit/s:
  send(bits)  = 2200 * bits / 6e6 mJ
  recv(bits)  = 1300 * bits / 6e6 mJ
  bcast(b, r) = send(b) + r * recv(b)
"""

import pytest

from olsrtune.errors import ConfigurationError
from olsrtune.sim import default_nic, frame_cost

NIC = default_nic()
REL = 1e-9
BW = 6e6


def send(bits, bandwidth=BW):
    return frame_cost(NIC, bits, bandwidth)[0]


def recv(bits, bandwidth=BW):
    return frame_cost(NIC, bits, bandwidth)[1]


def broadcast(bits, receivers):
    return send(bits) + receivers * recv(bits)

# (bits, expected send mJ, expected recv mJ)
POINT_ORACLES = [
    (0, 0.0, 0.0),
    (4096, 2200.0 * 4096 / 6e6, 1300.0 * 4096 / 6e6),  # 1.501866..., 0.887466...
    (6_000_000, 2200.0, 1300.0),
]


@pytest.mark.parametrize("bits,send_mj,recv_mj", POINT_ORACLES)
def test_send_recv_oracles(bits, send_mj, recv_mj):
    assert send(bits) == pytest.approx(send_mj, rel=REL, abs=1e-15)
    assert recv(bits) == pytest.approx(recv_mj, rel=REL, abs=1e-15)


@pytest.mark.parametrize("bits,send_mj,recv_mj", POINT_ORACLES)
@pytest.mark.parametrize("receivers", [0, 1, 3])
def test_broadcast_oracles(bits, send_mj, recv_mj, receivers):
    expected = send_mj + receivers * recv_mj
    assert broadcast(bits, receivers) == pytest.approx(expected, rel=REL, abs=1e-15)


def test_literal_spot_values():
    # frozen literals, computed by hand before the model was written
    assert send(4096) == pytest.approx(1.5018666666666667, rel=REL)
    assert recv(4096) == pytest.approx(0.8874666666666667, rel=REL)
    assert broadcast(4096, 3) == pytest.approx(4.164266666666667, rel=REL)


def test_airtime():
    assert frame_cost(NIC, 6_000_000, 6e6)[2] == pytest.approx(1.0)
    assert frame_cost(NIC, 512 * 8, 6e6)[2] == pytest.approx(4096 / 6e6)


def test_energy_scales_linearly_in_size():
    assert send(8192) == pytest.approx(2 * send(4096), rel=REL)


def test_default_profile_values():
    assert (NIC.i_send, NIC.v_send, NIC.i_recv, NIC.v_recv) == (440.0, 5.0, 260.0, 5.0)
    # the scenario's bandwidth is the only one: the profile has none
    assert not hasattr(NIC, "bandwidth")


def test_energy_and_airtime_use_one_bandwidth():
    # 1 Mbit/s: 6x the airtime and 6x the 6 Mbit/s energies
    assert frame_cost(NIC, 4096, 1e6) == pytest.approx((9.0112, 5.3248, 0.004096), rel=REL)
    for bandwidth in (1.0, 1e6, 54e6):
        send_mj, recv_mj, airtime = frame_cost(NIC, 4096, bandwidth)
        assert send_mj == pytest.approx(2200.0 * airtime, rel=REL)
        assert recv_mj == pytest.approx(1300.0 * airtime, rel=REL)
        assert send(4096, bandwidth) * bandwidth == pytest.approx(send(4096) * BW, rel=REL)


@pytest.mark.parametrize(
    "bits,bandwidth", [(-1, 6e6), (4096, 0.0), (4096, -1.0), (float("nan"), 6e6)]
)
def test_bad_frame_rejected(bits, bandwidth):
    with pytest.raises(ConfigurationError):
        frame_cost(NIC, bits, bandwidth)
