"""From a narration to generalized roles and encryption patterns.

Role extraction projects the protocol onto each participant, routes the
messages through the intruder-controlled network, and replaces whatever a
participant cannot verify in a received message by a variable. The
encryption-rooted payloads of the full roles, one per canonical form and
renamed apart with the tag of their first step, form the pattern set that
the lower bound later searches for candidate sources; the level scan
searches the same patterns, plus any nested encryption of a form no
pattern has.
"""

import pathlib

from wfcheck import (
    encryption_patterns,
    extract_roles,
    format_message,
    load_context,
    load_narration,
)
from wfcheck.protocol import full_roles

corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"
ctx = load_context(corpus / "woolam_modified.ctx")
narr = load_narration(corpus / "woolam_modified.proto", ctx)

print(f"narration {narr.name}:")
for step in narr.steps:
    print("  ", step)
print()

roles = extract_roles(narr, ctx)
print("generalized roles (one per send, plus the full view of the last receiver):")
for role in roles:
    print(f"  {role.label}:")
    for line in role.describe():
        print("    ", line)
print()

print("full-role payloads (each owner's longest role; duplicates kept):")
steps = [step for role in full_roles(roles).values() for step in role.steps]
for tag, step in enumerate(steps, 1):
    print(f"   {tag:2}: {format_message(step.payload)}")
print()

patterns = encryption_patterns(roles)
print("encryption patterns (one per canonical form, renamed with its first step's tag):")
for i, (p, form) in enumerate(patterns.items(), 1):
    print(f"   P{i}: {format_message(p):36} form {form}")
