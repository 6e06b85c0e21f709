import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughgg._util import atomic_write_text, dumps_json, format_float
from roughgg.dmfield import sample_field
from roughgg.domain import preset_set
from roughgg.errors import InputError, InvariantViolation
from roughgg.fields import slit_jump_field
from roughgg.io import (
    flux_field_bytes,
    pgm_bytes,
    read_flux_field,
    read_trace_csv,
    trace_csv_text,
    write_flux_field,
    write_trace_csv,
)

from conftest import random_facet_noise


def test_float_formatting_17_digits():
    import math

    s = format_float(math.pi)
    assert len(s.replace(".", "").lstrip("0")) >= 16
    assert float(s) == math.pi


def test_dumps_json_round_trip():
    obj = {"a": 1.0 / 3.0, "b": [1, True, None, "x"], "c": {"d": -0.0}}
    text = dumps_json(obj)
    back = json.loads(text)
    assert back["a"] == 1.0 / 3.0
    assert back["b"] == [1, True, None, "x"]


def test_pgm_header_and_shape():
    levels = np.arange(12, dtype=np.uint8).reshape(3, 4)
    data = pgm_bytes(levels)
    assert data.startswith(b"P5\n3 4\n255\n")
    assert len(data) == len(b"P5\n3 4\n255\n") + 12


def test_flux_field_binary_round_trip(tmp_path, slit_square_32):
    # values at the bound, as in a sampled slit field or a tightened one,
    # read back as well as values below it
    for F in (random_facet_noise(slit_square_32, seed=9),
              random_facet_noise(slit_square_32, seed=3).tighten(),
              sample_field(slit_jump_field(), slit_square_32, 1.0)):
        path = os.path.join(tmp_path, "field.dmf")
        write_flux_field(path, F)
        G = read_flux_field(path, slit_square_32)
        for a in range(2):
            assert np.array_equal(F.vminus[a], G.vminus[a])
            assert np.array_equal(F.vplus[a], G.vplus[a])
        assert G.sup_bound == F.sup_bound


def test_flux_field_binary_deterministic(slit_square_32):
    F = sample_field(slit_jump_field(), slit_square_32, 1.0)
    assert flux_field_bytes(F) == flux_field_bytes(F)


def test_flux_field_grid_mismatch(tmp_path, slit_square_32, disk_64):
    F = sample_field(slit_jump_field(), slit_square_32, 1.0)
    path = os.path.join(tmp_path, "field.dmf")
    write_flux_field(path, F)
    with pytest.raises(InputError):
        read_flux_field(path, disk_64)


def test_flux_field_bad_magic(tmp_path, slit_square_32):
    path = os.path.join(tmp_path, "junk.dmf")
    with open(path, "wb") as handle:
        handle.write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(InputError):
        read_flux_field(path, slit_square_32)


def _record_offset(grid) -> int:
    """Byte offset of the first two-sided record in a DMF1 file."""
    header = 4 + 1 + 8 * grid.n + 8 + 8 * grid.n + 8
    arrays = sum(8 * int(np.prod(grid.facet_shape(a))) for a in range(grid.n))
    return header + arrays + 8


@pytest.mark.parametrize("cut", ["header", "array", "records"])
def test_flux_field_truncated(tmp_path, slit_square_32, cut):
    data = flux_field_bytes(random_facet_noise(slit_square_32, seed=9))
    end = {"header": 20, "array": 200,
           "records": len(data) - 5}[cut]
    path = os.path.join(tmp_path, "cut.dmf")
    with open(path, "wb") as handle:
        handle.write(data[:end])
    with pytest.raises(InputError, match="truncated"):
        read_flux_field(path, slit_square_32)


@pytest.mark.parametrize("field,value", [("axis", 2), ("index", 10_000),
                                          ("side", 2)])
def test_flux_field_record_out_of_range(tmp_path, slit_square_32, field, value):
    grid = slit_square_32.grid
    data = bytearray(flux_field_bytes(random_facet_noise(slit_square_32, seed=9)))
    off = _record_offset(grid)  # record: u8 axis, n x u64 index, u8 side, f64
    at = {"axis": off, "index": off + 1, "side": off + 1 + 8 * grid.n}[field]
    width = 8 if field == "index" else 1
    data[at:at + width] = value.to_bytes(width, "little")
    path = os.path.join(tmp_path, "bad.dmf")
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(InputError, match="names no facet side"):
        read_flux_field(path, slit_square_32)


def _sup_bound_offset(n) -> int:
    return 4 + 1 + 8 * n + 8 + 8 * n


def _live_array_offset(set_) -> int:
    """Byte offset of the value of the first interior axis-0 facet."""
    flat = int(np.flatnonzero(set_.topology.interior[0])[0])
    return _sup_bound_offset(set_.grid.n) + 8 + 8 * flat


_BAD_FILE_ERRORS = {
    "nan-sup-bound": "non-finite float in the flux-field header",
    "inf-array-value": "non-finite value in the axis-0",
    "inf-record-value": "non-finite value in flux-field record",
    "above-bound": "exceeds declared bound",
    "trailing-bytes": "3 bytes after the last flux-field record",
}


@pytest.mark.parametrize("kind", list(_BAD_FILE_ERRORS))
def test_flux_field_rejects_bad_values(tmp_path, slit_square_32, kind):
    grid = slit_square_32.grid
    data = bytearray(flux_field_bytes(random_facet_noise(slit_square_32, seed=9)))
    f64 = {"nan-sup-bound": (_sup_bound_offset(grid.n), float("nan")),
           "inf-array-value": (_live_array_offset(slit_square_32), float("inf")),
           "inf-record-value": (_record_offset(grid) + 2 + 8 * grid.n, -float("inf")),
           "above-bound": (_live_array_offset(slit_square_32), 1.5)}
    if kind in f64:
        at, value = f64[kind]
        data[at:at + 8] = struct.pack("<d", value)
    else:
        data += b"\x00\x01\x02"
    path = os.path.join(tmp_path, "bad.dmf")
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(InputError, match=_BAD_FILE_ERRORS[kind]):
        read_flux_field(path, slit_square_32)


@pytest.fixture(scope="module")
def slit_16_dmf1(tmp_path_factory):
    """A slit-square 1/16 rough set, a valid DMF1 file of its slit field,
    and a path to write mutated copies to."""
    set_ = preset_set("slit-square", 1.0 / 16.0, margin_cells=4)
    data = flux_field_bytes(sample_field(slit_jump_field(), set_, 1.0))
    return set_, data, str(tmp_path_factory.mktemp("fuzz") / "mutated.dmf")


# a byte position favours the header and the record table as often as the
# arrays between them
_POSITION = st.integers(0, 64) | st.integers(0, 1 << 20) | st.integers(-64, -1)
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), _POSITION, st.integers(1, 255)),
    st.tuples(st.just("cut"), _POSITION),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=32)),
)


@settings(max_examples=200, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=4))
def test_flux_field_fuzz(slit_16_dmf1, mutations):
    """Flipped, cut or appended bytes: ``read_flux_field`` raises
    InputError or returns a field within its bound, never anything else."""
    set_, data, path = slit_16_dmf1
    data = bytearray(data)
    for kind, *args in mutations:
        if kind == "flip" and data:
            data[args[0] % len(data)] ^= args[1]
        elif kind == "cut":
            del data[args[0] % (len(data) + 1):]
        elif kind == "append":
            data += args[0]
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    try:
        F = read_flux_field(path, set_)
    except InputError:
        return
    F.check_bound()


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
