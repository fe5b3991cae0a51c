"""The shared CSV writer against `csv.writer`, and its refusal of cells it
cannot write unquoted."""

import csv

import numpy as np
import pytest

from sawsps._csvfile import cell_text, write_csv
from sawsps.cascade import CascadeModel, Transient
from sawsps.detector import write_axes_csv, write_transient_csv
from sawsps.emitter import (PHOTON_CSV_HEADER, PHOTON_DTYPE, read_photon_csv,
                            sample_cascade_from_loads, write_photon_csv)
from sawsps.rng import substream

# shortest reprs at the edges of float64, and what g2_summary.csv can hold
EDGE_FLOATS = [-0.0, 5e-324, 1e300, float("nan"), 0.1, -1.0 / 3.0]
BIG_INTS = [2 ** 62, -2 ** 63, 10 ** 20, 7, 2 ** 64 - 1, 0]


def reference_csv(path, header, rows):
    """How the writers wrote before sharing one writer: csv.writer rows with
    floats given as their repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


def assert_same_bytes(tmp_path, write, header, rows):
    write(tmp_path / "new.csv")
    reference_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() \
        == (tmp_path / "ref.csv").read_bytes()


def test_transient_rows(tmp_path):
    t = np.array([-5.0, -0.0, 5e-324, 0.1, 1e300])
    y = np.array([-0.0, 5e-324, 1e300, 0.1, -1.0 / 3.0])
    assert_same_bytes(tmp_path,
                      lambda p: write_transient_csv(p, Transient(t, y)),
                      ["t_ns", "intensity"], zip(t.tolist(), y.tolist()))


def test_transients_sharing_a_time_axis(tmp_path):
    # as fig4 writes them: several traces on one axis, rendered once, and
    # one on its own axis, each file as if written alone
    t = np.array([-5.0, -0.0, 5e-324, 0.1, 1e300])
    own = np.array(sorted(v for v in EDGE_FLOATS if np.isfinite(v)))
    shared = cell_text(t)
    for time, y, text in [(t, t[::-1], shared),
                          (own, own[::-1], cell_text(own)),
                          (t, -0.5 * t, shared), (t, 1e-300 * t, shared)]:
        assert_same_bytes(tmp_path,
                          lambda p: write_transient_csv(p, Transient(time, y),
                                                        text),
                          ["t_ns", "intensity"],
                          zip(time.tolist(), y.tolist()))
    assert shared == cell_text(t)
    with pytest.raises(ValueError, match="one time cell per sample"):
        write_transient_csv(tmp_path / "short.csv", Transient(own, own),
                            shared[:-1])
    assert not (tmp_path / "short.csv").exists()


def test_axes_rows(tmp_path):
    rows, cols = EDGE_FLOATS, [870.0, 1e-7, 3]
    assert_same_bytes(tmp_path,
                      lambda p: write_axes_csv(p, rows, cols),
                      ["axis", "index", "value"],
                      [("row_center_um", i, v) for i, v in enumerate(rows)]
                      + [("col_center_nm", i, float(v))
                         for i, v in enumerate(cols)])


def test_photon_rows(tmp_path):
    photons = np.zeros(6, PHOTON_DTYPE)
    photons["time_ns"] = EDGE_FLOATS
    photons["transition"] = ["1X", "2X", "", "XX+", "ü", "3X"]
    photons["emitter_id"] = [2 ** 62, -2 ** 63, 7, 0, -1, 2 ** 63 - 1]
    photons["x_um"] = EDGE_FLOATS[::-1]
    photons["y_um"] = 1e-310
    assert_same_bytes(tmp_path, lambda p: write_photon_csv(p, photons),
                      ["time_ns", "transition", "emitter_id", "x_um", "y_um"],
                      photons.tolist())



def test_photon_positions_match_plain_path(tmp_path):
    # positions are formatted once per distinct value: -0.0 and 0.0 differ
    xs = [-0.0, 0.0, 7.0, -0.0, 0.0, 7.0, 5e-324, float("nan"), 7.0]
    photons = np.zeros(len(xs), PHOTON_DTYPE)
    photons["time_ns"] = np.arange(len(xs)) * 0.1
    photons["transition"] = "1X"
    photons["x_um"] = xs
    photons["y_um"] = xs[::-1]
    write_photon_csv(tmp_path / "photons.csv", photons)
    write_csv(tmp_path / "plain.csv", PHOTON_CSV_HEADER,
              [photons[name] for name in PHOTON_CSV_HEADER])
    assert (tmp_path / "photons.csv").read_bytes() \
        == (tmp_path / "plain.csv").read_bytes()
    rows = (tmp_path / "photons.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == list(map(str, xs))


def test_table_rows(tmp_path):
    header = ["count", "value", "label", "big"]
    counts = np.arange(6, dtype=np.int64) * 2 ** 60
    labels = ["a", "b_c", "d-e", "1X", "", "g"]
    assert_same_bytes(tmp_path,
                      lambda p: write_csv(p, header,
                                          [counts, EDGE_FLOATS, labels,
                                           BIG_INTS]),
                      header,
                      zip(counts.tolist(), EDGE_FLOATS, labels, BIG_INTS))


def test_header_only_and_single_rows(tmp_path):
    assert_same_bytes(tmp_path,
                      lambda p: write_csv(p, ["transition", "slope"], [[], []]),
                      ["transition", "slope"], [])
    assert_same_bytes(tmp_path,
                      lambda p: write_csv(p, ["n", "ratio"],
                                          [[500], [float("nan")]]),
                      ["n", "ratio"], [(500, float("nan"))])


def test_long_columns_span_write_chunks(tmp_path):
    values = np.linspace(-1.0, 1.0, 150_001)
    assert_same_bytes(tmp_path,
                      lambda p: write_csv(p, ["i", "v"],
                                          [np.arange(values.size), values]),
                      ["i", "v"], enumerate(values.tolist()))


@pytest.mark.parametrize("label", ["a,b", 'say "x"', "line\nbreak", "cr\r"])
def test_unsafe_cells_rejected(tmp_path, label):
    photons = np.zeros(2, PHOTON_DTYPE)
    photons["transition"] = ["1X", label]
    path = tmp_path / "photons.csv"
    with pytest.raises(ValueError, match="does not quote"):
        write_photon_csv(path, photons)
    assert not path.exists()
    with pytest.raises(ValueError, match="does not quote"):
        write_csv(path, ["n", label], [[1], [2.0]])
    assert not path.exists()


def test_unsafe_model_label_rejected(tmp_path):
    # CascadeModel takes any label; the photon writer must not split rows
    model = CascadeModel((1.5, 0.9), ("1X", "X,X"))
    photons = sample_cascade_from_loads([model], np.arange(20) * 10.0,
                                        np.full(20, 2), [substream(3, 0)])
    with pytest.raises(ValueError):
        write_photon_csv(tmp_path / "photons.csv", photons)
    safe = photons[photons["transition"] == "1X"]
    write_photon_csv(tmp_path / "photons.csv", safe)
    assert np.array_equal(read_photon_csv(tmp_path / "photons.csv"), safe)


def test_mismatched_columns_rejected(tmp_path):
    with pytest.raises(ValueError, match="column"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1.0]])
    with pytest.raises(ValueError, match="column"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2]])
