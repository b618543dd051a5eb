import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "exact.py"
_SPEC = importlib.util.spec_from_file_location("exact", _PATH)
exact = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(exact)


def test_compare_lists_every_differing_item():
    """An item that differs and an item that exists in one tree only are
    both counted and listed in sorted order; equal probes list nothing."""
    base = {"gcnn": {"values": "a", "scale/gc_norm": "b", "policy/loss": "c"},
            "run-root": {"x.json": "1"}}
    head = {"gcnn": {"values": "a", "scale/gc_norm": "B", "value/loss": "d",
                     "policy/loss": "c"},
            "run-root": {"x.json": "1"}}
    summary = exact.compare(base, head)
    assert summary["gcnn"] == {"equal": 2, "differ": 2, "first": "scale/gc_norm",
                               "items": ["scale/gc_norm", "value/loss"]}
    assert summary["run-root"] == {"equal": 1, "differ": 0, "first": None, "items": []}
    assert summary["solve-small"] == {"equal": 0, "differ": 0, "first": None, "items": []}


def test_compare_caps_the_listed_items():
    base = {"gcnn": {f"k{i:02d}": "a" for i in range(30)}}
    head = {"gcnn": {f"k{i:02d}": "b" for i in range(30)}}
    probe = exact.compare(base, head)["gcnn"]
    assert probe["differ"] == 30
    assert probe["items"] == [f"k{i:02d}" for i in range(exact.LISTED)]
