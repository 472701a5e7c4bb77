"""2.4/5 GHz channel plans and cross-channel interference (§3.4.5).

In an IEEE 802.11b/g/n network 13 channels are available in the 2.4 GHz band
(Japan), and two BSSIDs on channels closer than five apart interfere due to
overlapping bandwidth. Public providers plan around channels 1/6/11; home APs
historically default to channel 1 and only later gained auto-selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.constants import CHANNEL_SEPARATION, NUM_24GHZ_CHANNELS
from repro.errors import ConfigurationError

#: 2.4 GHz channels usable in Japan for 802.11b/g/n.
CHANNELS_24GHZ: Tuple[int, ...] = tuple(range(1, NUM_24GHZ_CHANNELS + 1))

#: The classic non-overlapping trio providers plan around.
NON_OVERLAPPING_24GHZ: Tuple[int, ...] = (1, 6, 11)

#: Common Japanese W52/W53 5 GHz channels (a representative subset).
CHANNELS_5GHZ: Tuple[int, ...] = (36, 40, 44, 48, 52, 56, 60, 64)


def channels_interfere(ch_a: int, ch_b: int) -> bool:
    """Whether two 2.4 GHz channels overlap enough to interfere.

    At least a five-channel interval is necessary to avoid cross-channel
    interference (§3.4.5).
    """
    _validate_24(ch_a)
    _validate_24(ch_b)
    return abs(ch_a - ch_b) < CHANNEL_SEPARATION


def interference_pairs(channels: Iterable[int]) -> Iterator[Tuple[int, int]]:
    """Yield every interfering (index, index) pair from a channel sequence.

    Input is a sequence of channel assignments (one per AP in a neighbourhood);
    the output pairs index into that sequence.
    """
    chans = list(channels)
    for i in range(len(chans)):
        for j in range(i + 1, len(chans)):
            if channels_interfere(chans[i], chans[j]):
                yield (i, j)


def _validate_24(channel: int) -> None:
    if channel not in CHANNELS_24GHZ:
        raise ConfigurationError(
            f"not a 2.4GHz channel: {channel} (valid: 1..{NUM_24GHZ_CHANNELS})"
        )


@dataclass(frozen=True)
class ChannelPlanner:
    """Assigns 2.4 GHz channels to APs under a given selection behaviour.

    Three behaviours observed in the paper (Figure 16):

    - ``"default"``: the AP ships on channel 1 and the owner never changes it
      (the 2013 home-AP pattern).
    - ``"planned"``: the operator deploys on the non-overlapping 1/6/11 trio
      (public providers).
    - ``"auto"``: the AP picks a channel to avoid local interference (recent
      home APs); approximated as a uniform draw over all 13 channels with a
      preference for the non-overlapping trio.

    ``default_share`` tunes the mix: probability an AP uses the default
    behaviour instead of the planner's nominal behaviour, which is how the
    2013 -> 2015 home-channel dispersal is expressed.
    """

    mode: str = "planned"
    default_share: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("default", "planned", "auto"):
            raise ConfigurationError(f"unknown channel mode: {self.mode!r}")
        if not 0.0 <= self.default_share <= 1.0:
            raise ConfigurationError(
                f"default_share must be in [0, 1]: {self.default_share}"
            )

    def assign(self, rng: np.random.Generator) -> int:
        """Pick one channel."""
        if self.mode != "default" and rng.random() < self.default_share:
            return 1
        if self.mode == "default":
            return 1
        # ``rng.choice`` over the trio would build an array per call; an
        # index draw takes the same single ``integers(0, 3)`` from the stream.
        if self.mode == "planned":
            return NON_OVERLAPPING_24GHZ[int(rng.integers(0, 3))]
        # auto: mostly the trio, sometimes any channel (neighbour avoidance).
        if rng.random() < 0.6:
            return NON_OVERLAPPING_24GHZ[int(rng.integers(0, 3))]
        return int(rng.integers(1, NUM_24GHZ_CHANNELS + 1))

    def assign_many(self, n: int, rng: np.random.Generator) -> List[int]:
        """Assign channels for ``n`` APs."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0: {n}")
        return [self.assign(rng) for _ in range(n)]


def interference_fraction(channels: Sequence[int]) -> float:
    """Fraction of AP pairs that interfere, for a neighbourhood channel list."""
    chans = list(channels)
    n = len(chans)
    if n < 2:
        return 0.0
    total = n * (n - 1) // 2
    bad = sum(1 for _ in interference_pairs(chans))
    return bad / total


def cross_channel_interference_fraction(channels: Sequence[int]) -> float:
    """Fraction of AP pairs in *cross-channel* interference.

    Same-channel pairs are excluded: co-channel APs share the medium via
    CSMA, which planned deployments accept; the harmful case the paper calls
    out is partial spectral overlap (0 < separation < 5 channels).
    """
    chans = list(channels)
    n = len(chans)
    if n < 2:
        return 0.0
    total = n * (n - 1) // 2
    bad = 0
    for i in range(n):
        for j in range(i + 1, n):
            separation = abs(chans[i] - chans[j])
            if 0 < separation < CHANNEL_SEPARATION:
                bad += 1
    return bad / total
