import hashlib
import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughgg._util import atomic_write_text, dumps_json, format_float
from roughgg.dmfield import sample_field
from roughgg.domain import preset_set
from roughgg.errors import InputError, InvariantViolation
from roughgg.fields import slit_jump_field
from roughgg.io import flux_field_bytes, pgm_bytes, read_trace_csv, trace_csv_text, write_trace_csv


def test_float_formatting_17_digits():
    s = format_float(math.pi)
    assert len(s.replace(".", "").lstrip("0")) >= 16
    assert float(s) == math.pi


def test_dumps_json_round_trip():
    floats = [1.0 / 3.0, 1.0, -0.0, 1e16, 0.05]
    obj = {"a": floats, "b": [1, True, None, "x"], "c": {"d": -0.0}}
    back = json.loads(dumps_json(obj))
    # every float reads back as a float with the same bits, sign included
    assert [struct.pack("<d", v) for v in back["a"]] == [struct.pack("<d", v) for v in floats]
    assert all(type(v) is float for v in back["a"]) and type(back["c"]["d"]) is float
    assert math.copysign(1.0, back["c"]["d"]) == -1.0
    assert back["b"] == [1, True, None, "x"]


def test_pgm_header_and_shape():
    levels = np.arange(12, dtype=np.uint8).reshape(3, 4)
    data = pgm_bytes(levels)
    assert data.startswith(b"P5\n3 4\n255\n")
    assert len(data) == len(b"P5\n3 4\n255\n") + 12


def test_flux_field_binary_layout(slit_square_32):
    """The DMF1 bytes ``solve-div --flux`` writes: the header fields, one
    f64 per facet per axis, the record count, and one record per side of
    every crack and boundary facet; the digest pins every byte."""
    grid, top = slit_square_32.grid, slit_square_32.topology
    n = grid.n
    data = flux_field_bytes(sample_field(slit_jump_field(), slit_square_32, 1.0))
    assert data[:4] == b"DMF1"
    assert struct.unpack_from(f"<B{n}Qd{n}dd", data, 4) == (
        n, *grid.extents, grid.spacing, *grid.origin, 1.0)
    header = 4 + 1 + 8 * n + 8 + 8 * n + 8
    arrays = sum(8 * math.prod(grid.facet_shape(a)) for a in range(n))
    (records,) = struct.unpack_from("<Q", data, header + arrays)
    assert records == 2 * sum(int((top.crack[a] | top.boundary[a]).sum()) for a in range(n))
    assert len(data) == header + arrays + 8 + records * (2 + 8 * n + 8)
    assert hashlib.sha256(data).hexdigest() == (
        "d81b2b93f0626271bec03db79bd4ee810d29152c07f0f127889a53b31915c22c")


def test_flux_field_binary_deterministic(slit_square_32):
    F = sample_field(slit_jump_field(), slit_square_32, 1.0)
    assert flux_field_bytes(F) == flux_field_bytes(F)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dumps_json_rejects_non_finite(bad):
    with pytest.raises(InvariantViolation):
        dumps_json({"rows": [{"gap": 1.0}, {"gap": bad}]})


def test_trace_csv_round_trip(tmp_path, slit_square_32):
    from roughgg.dmfield import trace_measure

    F = sample_field(slit_jump_field(), slit_square_32, 1.0)
    tm = trace_measure(F)
    path = os.path.join(tmp_path, "tr.csv")
    write_trace_csv(path, tm.side_weights, slit_square_32.grid)
    back = read_trace_csv(path, slit_square_32)
    for (_, _, mask, arr), (*_, expected) in zip(back.slots(), tm.slots()):
        assert not arr[~mask].any()
        assert arr == pytest.approx(np.where(mask, expected, 0.0))


def test_trace_csv_read_peak_stays_near_the_trace_arrays(tmp_path):
    """Reading a trace CSV holds little beyond the ``TraceData`` it fills:
    duplicates are found by the rows read, not by per-facet line arrays."""
    from roughgg.dmfield import trace_measure

    set_ = preset_set("slit-square", 1.0 / 256.0, margin_cells=4)
    tm = trace_measure(sample_field(slit_jump_field(), set_, 1.0))
    path = os.path.join(tmp_path, "tr.csv")
    write_trace_csv(path, tm.side_weights, set_.grid)
    tracemalloc.start()
    try:
        read_trace_csv(path, set_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * np.prod(set_.grid.extents)


def test_trace_csv_malformed(tmp_path, square_32):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as handle:
        handle.write("axis,i0,i1,side,g\n0,1\n")
    with pytest.raises(InputError):
        read_trace_csv(path, square_32)
    with open(path, "w") as handle:
        handle.write("nope\n")
    with pytest.raises(InputError):
        read_trace_csv(path, square_32)
    with open(path, "w") as handle:
        handle.write("axis,i0,i1,side,g\n0,1,1,7,0.5\n")
    with pytest.raises(InputError):
        read_trace_csv(path, square_32)


@pytest.mark.parametrize("repeat", ["0.5", "-0.5"], ids=["same-value", "conflicting-value"])
def test_trace_csv_repeated_side(tmp_path, square_32, repeat):
    # two legal sides: the MINUS (lower-cell) sides of reduced axis-0 facets
    first, second = (f"0,{i},{j},0" for i, j in np.argwhere(square_32.topology.minus[0])[:2])
    path = os.path.join(tmp_path, "dup.csv")
    with open(path, "w") as handle:
        handle.write(f"axis,i0,i1,side,g\n{first},0.5\n{second},0.5\n{first},{repeat}\n")
    with pytest.raises(InputError, match="line 4.*line 2"):
        read_trace_csv(path, square_32)


def test_atomic_write_leaves_no_partial(tmp_path):
    target = os.path.join(tmp_path, "out.json")
    atomic_write_text(target, "content")
    with open(target) as handle:
        assert handle.read() == "content"
    # writing into a missing directory fails without creating the target
    missing = os.path.join(tmp_path, "nodir", "out.json")
    with pytest.raises(InputError):
        atomic_write_text(missing, "x")
    assert not os.path.exists(missing)
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-roughgg")]
    assert leftovers == []


@pytest.fixture(scope="module")
def slit_16_trace_csv(tmp_path_factory):
    """The lines of a slit-square 1/16 trace CSV (the slit field's trace)
    and a path to write edited copies to."""
    from roughgg.dmfield import trace_measure

    set_ = preset_set("slit-square", 1.0 / 16.0, margin_cells=4)
    tm = trace_measure(sample_field(slit_jump_field(), set_, 1.0))
    lines = trace_csv_text(tm.side_weights, set_.grid).splitlines()
    return lines, str(tmp_path_factory.mktemp("fuzz") / "edited.csv")


_CSV_FIELD = (st.integers(-3, 40).map(str) | st.floats().map(repr) | st.text(max_size=6)
              | st.sampled_from(["", "nan", "-inf", "1e999", " 1", "0x1", "1_0", "axis"]))
_CSV_EDIT = st.one_of(
    st.tuples(st.just("edit"), st.integers(0, 1 << 16), st.integers(0, 5), _CSV_FIELD),
    st.tuples(st.just("add"), st.integers(0, 1 << 16), st.lists(_CSV_FIELD, max_size=6)),
    st.tuples(st.just("drop"), st.integers(0, 1 << 16)),
    st.tuples(st.just("repeat"), st.integers(0, 1 << 16)),
)


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(_CSV_EDIT, min_size=1, max_size=4))
def test_trace_csv_fuzz(slit_16_trace_csv, edits):
    """Fields and rows edited, added, dropped or repeated: ``solve-div``
    exits 0, 2 or 3 and raises nothing."""
    from roughgg import cli

    base, path = slit_16_trace_csv
    lines = list(base)
    for kind, row, *args in edits:
        if kind == "add":
            lines.insert(row % (len(lines) + 1), ",".join(args[0]))
            continue
        if not lines:
            continue
        at = row % len(lines)
        if kind == "edit":
            fields = lines[at].split(",")
            fields[args[0] % len(fields)] = args[1]
            lines[at] = ",".join(fields)
        elif kind == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    assert cli.main(["solve-div", "--preset", "slit-square", "--grid", "16",
                     "--trace", path]) in (0, 2, 3)
