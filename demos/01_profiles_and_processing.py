"""From raw WiFi scans to publishable range profiles.

A device scans nearby access points and stores (hashed AP id, RSSI) pairs.
This walk-through builds the two publishable artifacts by hand: the interval
profile of a confirmed case who had the app installed, and the aggregated
profile of a surveyed infected area.
"""

from wifitrace import (
    LifespanSchedule,
    SignalProfile,
    SignalVector,
    build_area_profile,
    build_case_profile,
    hash_mac,
    parse_profile,
    serialize_profile,
)

SALT = b"deployment-salt-2026"

# Hash the AP MAC addresses: one-way, salted, deterministic.
cafe_ap = hash_mac("AA:17:C2:00:41:0B", SALT)
lobby_ap = hash_mac("AA:17:C2:00:41:0C", SALT)
street_ap = hash_mac("5E:90:00:3D:11:27", SALT)
print("hashed ids (hex prefixes):",
      cafe_ap.hex[:12], lobby_ap.hex[:12], street_ap.hex[:12])

# Four scans, one minute apart, as the case sits in a cafe.
scans = SignalProfile([
    SignalVector({cafe_ap: -48, lobby_ap: -71}, timestamp=0),
    SignalVector({cafe_ap: -52, lobby_ap: -74, street_ap: -88}, timestamp=60),
    SignalVector({cafe_ap: -50, street_ap: -84}, timestamp=120),
    SignalVector({cafe_ap: -47, lobby_ap: -69}, timestamp=180),
], device_tag="case phone")

# Consecutive scans become RSSI ranges; each range stays valid until the
# next scan plus the virus lifespan (30 min here).
case_profile = build_case_profile(
    scans, LifespanSchedule(default=1800), case_label="case-001")
print(f"\ncase profile: {len(case_profile)} segments")
for seg in case_profile.segments:
    spans = ", ".join(
        f"{sid.hex[:8]}:{lo}..{hi}" for sid, (lo, hi) in sorted(
            seg.vector.ranges.items()))
    print(f"  [{seg.t_start:>4} .. {seg.t_end:>4}] {spans}")
print("note: an id missing from one of the two scans opens its range at the")
print("weak-signal floor (-100), e.g. the street AP above.")

# Infected-area path: a staff member walks the venue, every observation of
# an id widens its range; no floor padding here.
survey = SignalProfile([
    SignalVector({cafe_ap: -50, lobby_ap: -80}, 0),
    SignalVector({cafe_ap: -62}, 30),
    SignalVector({cafe_ap: -55, lobby_ap: -73}, 60),
])
area_profile = build_area_profile(
    survey, stay_start=0, stay_end=3600, lifespan=1800,
    case_label="cafe-survey")
seg = area_profile.segments[0]
print(f"\narea profile: window [{seg.t_start}, {seg.t_end}] "
      f"(stay end + lifespan)")
for sid, (lo, hi) in sorted(seg.vector.ranges.items()):
    print(f"  {sid.hex[:8]}: {lo}..{hi}")

# The file format round-trips byte for byte.
blob = serialize_profile(case_profile)
print("\nserialized case profile:")
print(blob.decode(), end="")
assert parse_profile(blob) == case_profile
print("round trip: OK")
