"""Every pinned bit of this implementation, read by name from pins.json: a
pin is {"sha256": hex} over its chunks in order, or {"values": [...]} kept at
rel 1e-12, with a one-line "covers".  A failing pin prints what it now reads;
to re-pin, copy that into pins.json."""

import hashlib
import json
from pathlib import Path

import pytest

PINS = json.loads(Path(__file__).with_name("pins.json").read_text(encoding="utf-8"))


def digest(chunks) -> str:
    """sha256 over chunks: a str as UTF-8, an array by its bytes."""
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode("utf-8") if isinstance(c, str) else c.tobytes())
    return h.hexdigest()


def check_pin(name: str, chunks) -> None:
    """Fail with "pin <name>: sha256 <new digest>" (or its new values) unless chunks match it."""
    pin = PINS[name]
    if "values" in pin:
        if (got := [float(c) for c in chunks]) != pytest.approx(pin["values"], rel=1e-12):
            pytest.fail(f"pin {name}: values {got}")
    elif (got := digest(chunks)) != pin["sha256"]:
        pytest.fail(f"pin {name}: sha256 {got}")
