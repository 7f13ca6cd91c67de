"""Deployment scenarios: device placements in named environments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.channel.environment import ENVIRONMENTS, Environment
from repro.devices.device import Device, make_device
from repro.devices.models import SAMSUNG_S9, DeviceModel
from repro.errors import ConfigurationError
from repro.geometry.transforms import angle_of


@dataclass(frozen=True)
class PointingModel:
    """How accurately the leader points at the visible diver.

    The paper's human study (Fig. 16) found a mean pointing error of
    about 5 degrees across users and distances; we model the error as
    zero-mean Gaussian with that scale.
    """

    error_std_deg: float = 5.0

    def sample_azimuth(
        self, true_azimuth_rad: float, rng: np.random.Generator
    ) -> float:
        """A noisy pointing azimuth around the true direction."""
        return true_azimuth_rad + np.deg2rad(rng.normal(0.0, self.error_std_deg))


@dataclass
class Scenario:
    """A full deployment: environment + devices + leader pointing.

    Attributes
    ----------
    environment:
        The water body.
    devices:
        Device list; index 0 is the leader, index 1 the pointed diver.
    pointing:
        The leader's pointing accuracy model.
    occluded_links:
        Pairs whose direct path is blocked.
    max_range_m:
        Acoustic range limit; longer links are disconnected.
    """

    environment: Environment
    devices: List[Device]
    pointing: PointingModel = field(default_factory=PointingModel)
    occluded_links: List[Tuple[int, int]] = field(default_factory=list)
    max_range_m: float = 32.0

    def __post_init__(self):
        if len(self.devices) < 2:
            raise ConfigurationError("scenario needs at least 2 devices")
        ids = [d.device_id for d in self.devices]
        if ids != list(range(len(ids))):
            raise ConfigurationError("devices must be ordered by id 0..N-1")
        depth_limit = self.environment.water_depth_m
        for dev in self.devices:
            if not 0 <= dev.depth_m <= depth_limit:
                raise ConfigurationError(
                    f"device {dev.device_id} depth {dev.depth_m} outside water column"
                )

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def positions(self) -> np.ndarray:
        """(N, 3) true positions."""
        return np.vstack([d.position for d in self.devices])

    @property
    def depths(self) -> np.ndarray:
        """True depths of all devices."""
        return self.positions[:, 2]

    def true_distances(self) -> np.ndarray:
        """True pairwise 3D distance matrix."""
        pts = self.positions
        diff = pts[:, None, :] - pts[None, :, :]
        return np.linalg.norm(diff, axis=-1)

    def true_pointing_azimuth(self) -> float:
        """World azimuth from the leader to the pointed diver (user 1)."""
        rel = self.devices[1].position[:2] - self.devices[0].position[:2]
        return angle_of(rel)

    def connectivity(self) -> np.ndarray:
        """Boolean in-range matrix (occlusions stay connected: the
        devices still hear each other through reflections)."""
        d = self.true_distances()
        conn = d <= self.max_range_m
        np.fill_diagonal(conn, False)
        return conn

    def is_occluded(self, i: int, j: int) -> bool:
        """Whether the (i, j) direct path is blocked."""
        pair = (min(i, j), max(i, j))
        return any((min(a, b), max(a, b)) == pair for a, b in self.occluded_links)

    def sound_speed(self) -> float:
        """Sound speed at the mean device depth."""
        return self.environment.sound_speed(float(np.mean(self.depths)))


def testbed_scenario(
    environment: str | Environment,
    num_devices: int = 5,
    rng: Optional[np.random.Generator] = None,
    model: DeviceModel = SAMSUNG_S9,
    min_link_m: float = 3.0,
    max_link_m: float = 25.0,
    occluded_links: Optional[List[Tuple[int, int]]] = None,
) -> Scenario:
    """A testbed layout like the paper's Fig. 17 deployments.

    The paper chose topologies whose *pairwise* distances span 3-25 m —
    i.e. every pair of devices is within acoustic range, not just the
    leader's links. Positions are rejection-sampled until all pairwise
    distances fall inside ``[min_link_m / 2, max_link_m]``; user 1 is
    placed close to the leader (it must be visible). Depths are drawn
    within the water column. If a partial layout leaves no valid spot
    for the next device, the whole layout is redrawn; a scenario whose
    constraints cannot be met raises :class:`ConfigurationError`
    instead of returning an invalid topology.
    """
    env = ENVIRONMENTS[environment] if isinstance(environment, str) else environment
    rng = rng or np.random.default_rng(0)
    if num_devices < 3:
        raise ConfigurationError("testbed needs at least 3 devices")

    depth_hi = min(env.water_depth_m, 3.0)
    leader_pos = np.array([0.0, 0.0, rng.uniform(0.5, depth_hi)])

    # User 1 close to the leader (4-9 m), remaining users spread out to
    # max_link_m, all inside the site's horizontal extent, with every
    # pairwise distance inside the acoustic range.
    horizontal_cap = min(max_link_m, env.length_m / 2.0)
    min_separation = max(min_link_m / 2.0, 1.5)
    for _restart in range(8):
        devices: List[Device] = [make_device(0, leader_pos, rng, model=model)]
        placed = [leader_pos]
        wedged = False
        for i in range(1, num_devices):
            for _attempt in range(200):
                if i == 1:
                    radius = rng.uniform(4.0, min(9.0, horizontal_cap))
                else:
                    radius = rng.uniform(min_link_m, horizontal_cap)
                azimuth = rng.uniform(0, 2 * np.pi)
                pos = leader_pos + np.array(
                    [radius * np.cos(azimuth), radius * np.sin(azimuth), 0.0]
                )
                pos[2] = rng.uniform(0.5, depth_hi)
                gaps = [float(np.linalg.norm(pos[:2] - p[:2])) for p in placed]
                if min(gaps) >= min_separation and max(gaps) <= max_link_m:
                    break
            else:
                wedged = True  # no valid spot left; redraw the layout
                break
            placed.append(pos)
            devices.append(make_device(i, pos, rng, model=model))
        if not wedged:
            break
    else:
        raise ConfigurationError(
            f"could not place {num_devices} devices with pairwise distances "
            f"in [{min_separation:.1f}, {max_link_m:.1f}] m"
        )

    return Scenario(
        environment=env,
        devices=devices,
        occluded_links=list(occluded_links or []),
    )


def fleet_scenario(
    num_devices: int,
    rng: Optional[np.random.Generator] = None,
    area_xy_m: float = 120.0,
    max_range_m: float = 32.0,
    min_separation_m: float = 2.0,
    water_depth_m: float = 20.0,
    model: DeviceModel = SAMSUNG_S9,
) -> Scenario:
    """A large multi-hop fleet for DES campaigns (beyond the paper).

    Unlike :func:`testbed_scenario` — which keeps *every* pair inside
    acoustic range — a fleet spans an area several times the range
    limit. Devices are placed by cluster growth: each new device
    anchors to a uniformly chosen placed device at a radius within
    ~80% of ``max_range_m``, so the connectivity graph stays connected
    while most pairs are multiple hops apart. The leader sits at the
    centre; clocks and audio offsets are randomised per device as in
    the testbeds.
    """
    rng = rng or np.random.default_rng(0)
    if num_devices < 2:
        raise ConfigurationError("fleet needs at least 2 devices")
    env = Environment(
        name="open_water",
        water_depth_m=water_depth_m,
        length_m=area_xy_m,
        water=ENVIRONMENTS["dock"].water,
        bottom_coeff=ENVIRONMENTS["dock"].bottom_coeff,
        noise=ENVIRONMENTS["dock"].noise,
    )
    half = area_xy_m / 2.0
    depth_hi = min(water_depth_m, 10.0)
    # Placed positions live in one preallocated (N, 3) buffer so the
    # minimum-gap test is a single vectorized norm over every placed
    # device instead of a per-device python loop: each norm reduces two
    # squared components exactly like the scalar 2-vector norm did, so
    # the accept/reject decisions (and hence the rng draw sequence and
    # the resulting layout) are unchanged at any fleet size.
    placed = np.empty((num_devices, 3), dtype=float)
    placed[0] = (0.0, 0.0, rng.uniform(0.5, depth_hi))
    anchor_radius_hi = 0.8 * max_range_m
    # Depth is drawn near the anchor's depth (scaled to the range
    # limit) and the anchor link is checked in 3D, so connectedness
    # holds for short-range fleets too, not just the 32 m default.
    depth_jitter = 0.3 * max_range_m
    for count in range(1, num_devices):
        for _attempt in range(400):
            anchor = placed[int(rng.integers(count))]
            radius = rng.uniform(min_separation_m, anchor_radius_hi)
            azimuth = rng.uniform(0.0, 2.0 * np.pi)
            pos = anchor + np.array(
                [radius * np.cos(azimuth), radius * np.sin(azimuth), 0.0]
            )
            pos[:2] = np.clip(pos[:2], -half, half)
            pos[2] = float(
                np.clip(
                    anchor[2] + rng.uniform(-depth_jitter, depth_jitter),
                    0.5,
                    depth_hi,
                )
            )
            gaps = np.linalg.norm(placed[:count, :2] - pos[:2], axis=1)
            if (
                float(gaps.min()) >= min_separation_m
                and float(np.linalg.norm(pos - anchor)) <= 0.9 * max_range_m
            ):
                break
        else:
            raise ConfigurationError(
                f"could not place {num_devices} fleet devices with "
                f"{min_separation_m:.1f} m separation in a "
                f"{area_xy_m:.0f} m area"
            )
        placed[count] = pos
    devices = [
        make_device(i, placed[i].copy(), rng, model=model)
        for i in range(num_devices)
    ]
    return Scenario(environment=env, devices=devices, max_range_m=max_range_m)

