"""The decentralized publish/fetch loop, in one process.

A health officer publishes a confirmed case's processed profile to the
relay server; user devices periodically pull everything new and match
locally. The server never sees a user's scans: a sync request carries only
the fetch cursor.
"""

import tempfile
from pathlib import Path

from wifitrace import (
    DetectionConfig,
    LifespanSchedule,
    build_case_profile,
    serialize_profile,
)
from wifitrace.exchange import (
    ProfileStore,
    SyncState,
    client_sync,
    fetch_since,
    publish,
    serve_in_thread,
)
from wifitrace.simulator import make_site, simulate_profile, stationary

env, layout = make_site("office", seed=21)
venue = layout.center

with tempfile.TemporaryDirectory() as workdir:
    store = ProfileStore(Path(workdir) / "server-data")
    server = serve_in_thread(store)
    # the port is ephemeral, so the demo's output names none
    print("relay listening on a local port")

    # the confirmed case's 15 minutes at the venue, published with lifespan
    case_walk = simulate_profile(env, stationary(venue, 0, 900), 60, stream=0)
    blob = serialize_profile(build_case_profile(
        case_walk, LifespanSchedule(default=1800), case_label="case-001"))
    record_id = publish(server.endpoint, blob)
    print(f"published case profile as record {record_id} "
          f"({len(blob)} bytes); re-publishing is idempotent: "
          f"{publish(server.endpoint, blob) == record_id}")

    # a user device that visited the venue 10 minutes after the case left
    user = simulate_profile(env, stationary(venue, 1500, 2100), 60, stream=5)
    state = SyncState(Path(workdir) / "phone-state")
    report = client_sync(state, server.endpoint, user, DetectionConfig())
    print(f"\nsync #1: cursor -> {state.last_record_id}, "
          f"episodes: {len(report.episodes)}")
    for episode in report.episodes:
        print(f"  exposure [{episode.start} .. {episode.end}] to "
              f"{episode.case_label}: {episode.contact_minutes:.0f} minutes")

    # nothing new on the second sync: no fetch beyond the cursor, no match
    report = client_sync(state, server.endpoint, user, DetectionConfig())
    print(f"sync #2: nothing new (flags={len(report.flags)})")

    # raw fetch, as any device would do it
    records = fetch_since(server.endpoint, 0)
    print(f"\nfetch_since(0): {len(records)} record(s), "
          f"byte-identical: {records[0].profile_bytes == blob}")
    server.shutdown()
print("\nThe user's scans never left the device; only the cursor did.")
