"""The pin layer: each pin has one pin-marked test, and a moved bit names its pin."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from _pins import PINS, check_pin, digest


def test_each_pin_has_one_test_and_no_digest_lives_outside_pins_json():
    owners = {name: [] for name in PINS}
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"[0-9a-f]{64}", text), path.name
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_"):
                named = {c.value for c in ast.walk(fn) if isinstance(c, ast.Constant) and c.value in PINS}
                marked = "pytest.mark.pin" in map(ast.unparse, fn.decorator_list)
                assert marked == bool(named), (path.name, fn.name, named)
                for name in named:
                    owners[name].append(fn.name)
    assert all(len(tests) == 1 for tests in owners.values()), owners


def test_moved_bits_fail_naming_the_pin_and_its_new_reading(monkeypatch):
    chunks = ["table,csv\n", np.arange(3.0)]
    monkeypatch.setitem(PINS, "probe.hash", {"sha256": digest(chunks)})
    monkeypatch.setitem(PINS, "probe.values", {"values": [1.0, 2.0]})
    check_pin("probe.hash", chunks)
    check_pin("probe.values", [1.0 + 1e-13, 2.0])
    moved = [chunks[0], np.nextafter(chunks[1], 4.0)]
    with pytest.raises(pytest.fail.Exception, match=f"^pin probe.hash: sha256 {digest(moved)}$"):
        check_pin("probe.hash", moved)
    with pytest.raises(pytest.fail.Exception, match=r"^pin probe.values: values \[1.0, 2.000000001\]$"):
        check_pin("probe.values", [1.0, 2.000000001])
