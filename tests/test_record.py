"""The output record: the runs listed in tests/record/bounds.json are made
again and compared, field by field, with the outputs recorded beside it.

Floats that bounds.json names match within their bound; every other value,
and every CSV header, must match exactly.  After a change that moves a
number, rewrite the record and list what moved:

    PYTHONPATH=src python tests/test_record.py
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from spinlift.cli import main

RECORD = Path(__file__).resolve().parent / "record"
BOUNDS = json.loads((RECORD / "bounds.json").read_text())


def regenerate(out: Path) -> None:
    """Make every run of the record under out."""
    for run in BOUNDS["runs"]:
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(["run", *run["args"], "--out", str(out / run["dir"])])
        assert status == 0, f"spinlift run {' '.join(run['args'])} exited {status}"


def record_files(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                  if p.is_file() and p.name != "bounds.json")


def fields(path: Path) -> dict[str, list]:
    """A record file as {field: values}: a JSON file's dotted paths to their
    leaves (a list's elements in order), or a CSV file's columns of cells
    plus its header line."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = text.splitlines()
        cells = [row.split(",") for row in rows]
        columns = {name: [row[i] for row in cells] for i, name in enumerate(header.split(","))}
        return {"header": [header], **columns}
    out: dict[str, list] = {}

    def walk(node, at):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{at}.{key}" if at else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, at)
        else:
            out.setdefault(at, []).append(node)

    walk(json.loads(text), "")
    return out


def bounds(name: str, field: str, old: dict[str, list]) -> list[float] | None:
    """The bound on each value of a field from bounds.json; None where the
    field must match exactly."""
    entry = BOUNDS["fields"].get(name, {}).get(field)
    if entry is None:
        return None
    cls, arg = (entry, None) if isinstance(entry, str) else entry
    spec = BOUNDS["classes"][cls]
    values = [float(v) for v in old[field]]
    sigmas = [float(v) for v in old[arg]] if cls == "fit" else [0.0] * len(values)
    n = arg if cls == "propagated" and arg is not None else 1
    return [spec.get("abs", 0.0) * n + spec.get("rel", 0.0) * abs(v)
            + spec.get("sigma", 0.0) * abs(s) for v, s in zip(values, sigmas)]


def moves(name: str, old: dict[str, list], new: dict[str, list]) -> list[tuple]:
    """(field, old, new, bound) of every bounded float of a file that moved;
    AssertionError on any difference outside the bounded floats."""
    assert new.keys() == old.keys(), f"{name}: fields {sorted(new.keys() ^ old.keys())}"
    moved = []
    for field, olds in old.items():
        news = new[field]
        assert len(news) == len(olds), f"{name} {field}: {len(news)} values, recorded {len(olds)}"
        limit = bounds(name, field, old)
        if limit is None:
            same = [(type(v), v) for v in news] == [(type(v), v) for v in olds]
            assert same, f"{name} {field}: {news[:4]} against the recorded {olds[:4]}"
            continue
        moved += [(field, float(o), float(n), b)
                  for o, n, b in zip(olds, news, limit) if float(n) != float(o)]
    return moved


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("record")
    regenerate(out)
    return out


def test_same_files(regenerated):
    assert record_files(regenerated) == record_files(RECORD)


def test_bounds_name_recorded_fields():
    for name, entries in BOUNDS["fields"].items():
        recorded = fields(RECORD / name)
        for field, entry in entries.items():
            assert field in recorded, f"{name} {field}"
            if not isinstance(entry, str) and entry[0] == "fit":
                assert entry[1] in recorded, f"{name} {entry[1]}"


@pytest.mark.parametrize("name", record_files(RECORD))
def test_matches_record(regenerated, name):
    found = moves(name, fields(RECORD / name), fields(regenerated / name))
    over = [m for m in found if not abs(m[2] - m[1]) <= m[3]]
    assert not over, f"{name}: (field, recorded, now, bound) {over[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
        for name in record_files(Path(tmp)):
            if (RECORD / name).exists():
                try:
                    for field, old, new, bound in moves(name, fields(RECORD / name),
                                                        fields(Path(tmp) / name)):
                        print(f"{name} {field}: {old!r} -> {new!r} "
                              f"(moved {abs(new - old):.3g}, bound {bound:.3g})")
                except AssertionError as exc:
                    print(f"changed: {exc}", file=sys.stderr)
            (RECORD / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / name, RECORD / name)
