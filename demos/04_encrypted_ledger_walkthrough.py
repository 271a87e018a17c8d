"""The privacy machinery, step by step.

Builds the envelope keypair, packs phone numbers into integers, fills a
device ledger with encrypted encounters, then walks the one-time-key
dance between the two authority servers: the device scores its peers,
the dispatch server ranks them and splits them at its own capacity
threshold, and nothing readable leaks in between: only the server's
notification sink ever sees a phone number.
"""

from proximity_sim.authority import DispatchServer, DoctorCredential, KeyIssuer
from proximity_sim.crypto import (
    decode_contact,
    decrypt,
    encode_contact,
    encrypt,
    generate_keypair,
)
from proximity_sim.device import DeviceState

# -- key material ------------------------------------------------------------
# 2048-bit deployment keys; the secret half lives only on the dispatch server.
print("generating the deployment keypair (2048 bit) ...")
pair = generate_keypair(seed=2024, bit_length=2048)
print(f"  key tag {pair.key_tag} (fingerprint devices embed in envelopes)")

# -- what a device stores ----------------------------------------------------
alice = DeviceState("user-0001", "+393330000001", retention_window=14 * 86400.0)
for contact, duration, distance in (
    ("+393330000002", 1800.0, 1.0),   # long lunch, close by
    ("+393330000003", 300.0, 2.0),    # short chat
    ("+393330000004", 60.0, 2.8),     # passed in a corridor
):
    packed = encode_contact(contact)
    envelope = encrypt(pair.public, packed)
    alice.record_encounter(envelope, started_at=0.0, duration=duration,
                           mean_rssi=-60.0, estimated_distance=distance)
    print(f"  {contact} -> packed {packed} -> ciphertext {str(envelope.ciphertext)[:24]}...")

print("the ledger alone is unreadable: it holds ciphertexts, never numbers")

# -- the two-server dance ------------------------------------------------------
issuer = KeyIssuer(secret=b"issuer-demo-secret")
notifications = []
server = DispatchServer(
    keypair=pair,
    issuer=issuer,
    secret=b"dispatch-demo-secret",
    notify=lambda contact, msg: notifications.append((contact, msg.level.value)),
    capacity=2,
)

doctor = DoctorCredential("doctor-0007", certified=True)
key = issuer.issue_activation_key(doctor, "user-0001")
print(f"doctor obtains a one-time activation token: {key.token[:16]}...")

result = alice.activate_alert_mode(key.token, server, now=100.0)
print(f"upload accepted: {len(result.sent)} alerts sent, "
      f"{len(result.waitlisted)} waitlisted, tag {result.origin_tag}")
print(f"  the server ranks priority scores (duration x closeness): capacity 2 "
      f"sends {[round(r.score, 1) for r in result.sent]} and waitlists "
      f"{[round(r.score, 1) for r in result.waitlisted]}")
for contact, level in notifications:
    print(f"  {level} alert -> {contact} (origin tag only, sender never named)")

# replay is refused: the token died with the upload (even on a fresh
# handset claiming the same user)
try:
    DeviceState("user-0001", "+393330000001", 14 * 86400.0).activate_alert_mode(
        key.token, server, now=101.0
    )
except Exception as error:
    print(f"token replay refused: {error}")

# the waitlisted contact goes out later, when capacity frees up
server.release_waitlist(result.origin_tag, additional_capacity=1, now=200.0)
contact, level = notifications[-1]
print(f"waitlist release: {level} alert -> {contact} later")

# round-trip sanity of the packing itself
sample = encode_contact("+393330000002")
assert decode_contact(decrypt(pair, encrypt(pair.public, sample))) == "+393330000002"
print("decrypt(encrypt(packed contact)) round-trips exactly")
