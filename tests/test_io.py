import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgespan.errors import DuplicatePointError, InstanceParseError, TooFewPointsError
from wedgespan.gadget import orient_triplet
from wedgespan.geom import Point, check_distinct, coordinates
from wedgespan.io import (
    Instance,
    ResultDoc,
    emit_instance,
    emit_result,
    emit_svg,
    _sig_repr,
    parse_instance,
    parse_result,
    round_sig,
)

from reference import edges_of, emit_instance_json, emit_result_json, points_of, wedges_of


class TestParseInstance:
    def test_json(self):
        inst = parse_instance('{"points": [[0, 0], [1, 0]]}')
        assert list(inst.points) == [Point(0, 0), Point(1, 0)]

    def test_csv(self):
        inst = parse_instance("0,0\n1,0\n")
        assert list(inst.points) == [Point(0, 0), Point(1, 0)]

    def test_points_are_one_read_only_array(self):
        points = parse_instance('{"points": [[0, 0], [1, 0.5]]}').points
        xy = coordinates(points)
        assert coordinates(points) is xy
        assert not xy.flags.writeable
        assert xy.dtype == np.float64 and xy.tolist() == [[0.0, 0.0], [1.0, 0.5]]
        assert points[1] == Point(1.0, 0.5) and points[1] is points[1]

    def test_duplicate_rejected_by_default(self):
        with pytest.raises(DuplicatePointError):
            parse_instance('{"points": [[0, 0], [0, 0]]}')

    def test_meta_preserved(self):
        inst = parse_instance('{"points": [[0, 0]], "meta": {"seed": 7}}')
        assert inst.meta == {"seed": 7}

    def test_json_error_position(self):
        with pytest.raises(InstanceParseError) as err:
            parse_instance('{"points": [[0, 0], ')
        assert err.value.line is not None

    def test_csv_error_line(self):
        with pytest.raises(InstanceParseError) as err:
            parse_instance("0,0\n1,zap\n")
        assert err.value.line == 2

    def test_csv_wrong_arity(self):
        with pytest.raises(InstanceParseError):
            parse_instance("0,0,0\n")

    def test_nonfinite_rejected(self):
        with pytest.raises(InstanceParseError):
            parse_instance('{"points": [[0, 0], [1, Infinity]]}')

    def test_empty(self):
        with pytest.raises(InstanceParseError):
            parse_instance("   ")

    @pytest.mark.parametrize(
        "pair, message",
        [
            (["0", 1], "points[1]: coordinates must be numbers"),
            ([True, 1], "points[1]: coordinates must be numbers"),
            ([None, 1], "points[1]: coordinates must be numbers"),
            ([10**400, 1], "points[1]: coordinates must be finite"),
            ([1, -(10**400)], "points[1]: coordinates must be finite"),
            ([1, 2, 3], "points[1]: expected a [x, y] pair, got [1, 2, 3]"),
            ([math.nan, 1], "points[1]: coordinates must be finite"),
            ([1, -math.inf], "points[1]: coordinates must be finite"),
            ({"x": 0, "y": 1}, "points[1]: expected a [x, y] pair, got {'x': 0, 'y': 1}"),
            ("0,1", "points[1]: expected a [x, y] pair, got '0,1'"),
        ],
    )
    def test_coordinate_messages(self, pair, message):
        with pytest.raises(InstanceParseError) as err:
            parse_instance(json.dumps({"points": [[0, 0], pair]}))
        assert str(err.value) == message


_FINITE = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))
# Any value json.dumps writes, NaN and infinities among the floats.
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=4)),
    lambda items: st.one_of(st.lists(items, max_size=3), st.dictionaries(st.text(max_size=4), items, max_size=3)),
    max_leaves=8,
)


class TestInstanceRoundTrip:
    def test_json_round_trip(self):
        inst = Instance(points=[Point(0.1, 0.2), Point(1 / 3, 2 / 3)], meta={"k": 1})
        text = emit_instance(inst)
        back = parse_instance(text)
        text2 = emit_instance(Instance(points=back.points, meta=back.meta))
        assert text == text2

    def test_csv_round_trip(self):
        inst = Instance(points=[Point(0.25, -1.5), Point(3.0, 4.0)])
        back = parse_instance(emit_instance(inst, fmt="csv"))
        assert list(back.points) == inst.points

    def test_byte_stability(self):
        inst = Instance(points=[Point(math.pi, math.e)])
        assert emit_instance(inst) == emit_instance(inst)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_FINITE, _FINITE), max_size=8), st.dictionaries(st.text(max_size=4), _JSON))
    def test_json_matches_json_dumps(self, xy, meta):
        inst = Instance(points=[Point(x, y) for x, y in xy], meta=meta)
        assert emit_instance(inst) == emit_instance_json(inst)


def _result_doc():
    return ResultDoc(
        wedges=np.array([[0.123456789012345, 120.0, math.inf], [240.0, 120.0, 7.0]]),
        edges=np.array([[0, 1]]),
        summary={
            "alpha": 120.0,
            "weight": 1.4142135623730951,
            "mst_weight": 1.4142135623730951,
            "ratio": 1.0,
            "max_spread_deg": 0.0,
        },
        verification={"passed": True},
    )


class TestResultRoundTrip:

    def test_parse_emit_identity_on_canonical(self):
        text = emit_result(_result_doc())
        doc = parse_result(text)
        assert doc.wedges.tolist() == [[0.123456789012, 120.0, math.inf], [240.0, 120.0, 7.0]]
        assert doc.edges.tolist() == [[0, 1]]
        assert emit_result(doc) == text

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 360.0, exclude_max=True),
                st.floats(1e-6, 360.0),
                st.one_of(st.just(math.inf), st.floats(1e-9, 1e9)),
            ),
            max_size=8,
        ),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=8),
    )
    def test_emit_parse_emit_is_identity(self, wedges, edges):
        text = emit_result(ResultDoc(np.array(wedges).reshape(-1, 3), np.reshape(edges, (-1, 2)), {"alpha": 120.0}))
        assert emit_result(parse_result(text)) == text

    def test_radius_omitted_when_absent(self):
        obj = json.loads(emit_result(_result_doc()))
        assert "radius" not in obj["wedges"][0]
        assert obj["wedges"][1]["radius"] == 7.0

    def test_byte_stability(self):
        doc = _result_doc()
        assert emit_result(doc) == emit_result(doc)

    def test_wedges_are_three_float_columns(self):
        doc = parse_result(emit_result(_result_doc()))
        assert doc.wedges.dtype == np.float64 and doc.wedges.shape == (2, 3)
        assert doc.wedges[:, 2].tolist() == [math.inf, 7.0]
        assert parse_result(emit_result(ResultDoc(np.empty((0, 3)), np.empty((0, 2), int), {}))).wedges.shape == (0, 3)

    def test_malformed_result(self):
        with pytest.raises(InstanceParseError):
            parse_result('{"edges": []}')


class TestResultWriter:
    """``emit_result`` writes json.dumps(indent=2)'s bytes (``emit_result_json``)
    and refuses a wedge value that JSON cannot hold."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_FINITE, _FINITE, st.one_of(st.just(math.inf), _FINITE)), max_size=8),
        st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**62)), max_size=8),
        st.dictionaries(st.text(max_size=6), _JSON, max_size=5),
        st.one_of(st.none(), st.dictionaries(st.text(max_size=6), _JSON, max_size=5)),
    )
    def test_matches_json_dumps(self, wedges, edges, summary, verification):
        doc = ResultDoc(np.array(wedges).reshape(-1, 3), np.array(edges, dtype=np.int64).reshape(-1, 2), summary,
                        verification)
        want = emit_result_json(doc)
        assert emit_result(doc) == want
        out = io.StringIO()
        assert emit_result(doc, out) is None
        assert out.getvalue() == want

    # Values the writer formats once per column: signed zeros, an integral
    # angle, values at and past 12 significant digits, the least subnormal.
    _POOL = st.sampled_from([-0.0, 0.0, 90.0, 1e16, 123456789012.0, 5e-324, -5e-324, 120.0, 0.1])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_POOL, _POOL, st.one_of(st.just(math.inf), _POOL)), max_size=12),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4),
    )
    def test_repeated_values_match_json_dumps(self, wedges, edges):
        doc = ResultDoc(np.array(wedges).reshape(-1, 3), np.reshape(edges, (-1, 2)), {"alpha": 120.0})
        want = emit_result_json(doc)
        assert emit_result(doc) == want
        out = io.StringIO()
        assert emit_result(doc, out) is None
        assert out.getvalue() == want

    def test_large_result_is_written_in_chunks(self):
        class Writes(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        sizes = []
        edges = np.arange(40000).reshape(-1, 2)
        doc = ResultDoc(np.tile([10.0, 120.0, math.inf], (20000, 1)), edges, {"alpha": 120.0})
        out = Writes()
        emit_result(doc, out)
        assert out.getvalue() == emit_result_json(doc)
        assert len(sizes) > 4 and max(sizes) < len(out.getvalue()) / 4

    @pytest.mark.parametrize(
        "row, column, value, key",
        [
            (1, 0, math.nan, "bisector_deg"),
            (0, 1, math.inf, "aperture_deg"),
            (1, 2, math.nan, "radius"),
            (0, 2, -math.inf, "radius"),
        ],
    )
    def test_non_finite_wedge_value_is_refused(self, row, column, value, key):
        doc = _result_doc()
        doc.wedges[row, column] = value
        with pytest.raises(ValueError, match=rf"^wedges\[{row}\]\.{key} is {value!r}; wedge values must be finite$"):
            emit_result(doc, io.StringIO())


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class TestSigRepr:
    """``_sig_repr`` gives ``repr(round_sig(x))`` for every float."""

    @settings(max_examples=3000, deadline=None)
    @given(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e11, 1e12, 1e16, 1e17, 1e-4, 1e-5, 0.1, 120.0]),
        st.integers(-(10**17), 10**17).map(float),
        st.floats(1e11, 1e17), st.floats(-1e17, -1e11),
        st.floats(1e-6, 1e-3), st.floats(-1e-3, -1e-6),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
        st.integers(0, 2**64 - 1).map(_bits_float),
    ))
    def test_equals_the_round_trip(self, x):
        assert _sig_repr(x) == repr(round_sig(x))

    def test_every_magnitude(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate((
            rng.uniform(-1, 1, 20000) * 10.0 ** rng.integers(-320, 309, 20000),
            rng.integers(0, 2**63, 20000, dtype=np.int64).view(np.float64),
        ))
        for x in xs.tolist():
            assert _sig_repr(x) == repr(round_sig(x)), x


class TestStrictResultValues:
    """Wedge values must be finite JSON numbers and edge ends JSON integers."""

    @staticmethod
    def _text(wedge=None, edge=None):
        obj = json.loads(emit_result(_result_doc()))
        obj["wedges"][1].update(wedge or {})
        if edge is not None:
            obj["edges"][0] = edge
        return json.dumps(obj)

    @pytest.mark.parametrize(
        "edge", [["0", 1], [0.4, 1], [True, 1], [0, 1.0], [0], [0, 1, 2], {"u": 0}, "0-1"]
    )
    def test_edge_ends_must_be_integers(self, edge):
        with pytest.raises(InstanceParseError, match=r"^edges\[0\]: expected a pair of integer indices"):
            parse_result(self._text(edge=edge))

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("bisector_deg", "240", "numbers"),
            ("aperture_deg", True, "numbers"),
            ("radius", None, "numbers"),
            ("radius", [7.0], "numbers"),
            ("aperture_deg", 10**400, "finite"),
            ("bisector_deg", math.inf, "finite"),
            ("radius", math.nan, "finite"),
            ("radius", -math.inf, "finite"),
            ("bisector_deg", -(10**400), "finite"),
            ("aperture_deg", {"deg": 120}, "numbers"),
        ],
        ids=["string", "true", "null", "array", "huge-int", "inf", "nan", "minus-inf", "huge-negative-int",
             "object"],
    )
    def test_wedge_values_must_be_finite_numbers(self, key, value, problem):
        with pytest.raises(InstanceParseError) as err:
            parse_result(self._text(wedge={key: value}))
        assert str(err.value) == f"wedges[1].{key}: wedge values must be {problem}"

    def test_integer_wedge_values_become_floats(self):
        doc = parse_result(self._text(wedge={"bisector_deg": 240, "aperture_deg": 120, "radius": 7}))
        assert doc.wedges.dtype == np.float64
        assert doc.wedges[1].tolist() == [240.0, 120.0, 7.0]

    def test_wedge_record_needs_its_angles(self):
        obj = json.loads(self._text())
        del obj["wedges"][0]["aperture_deg"]
        with pytest.raises(InstanceParseError, match=r"^wedges\[0\]: expected an object"):
            parse_result(json.dumps(obj))

    @pytest.mark.parametrize("key", ["wedges", "edges", "summary"])
    def test_top_level_shapes(self, key):
        obj = json.loads(self._text())
        obj[key] = "x"
        with pytest.raises(InstanceParseError, match=f'^"{key}" must be an'):
            parse_result(json.dumps(obj))

    def test_integer_past_digit_limit(self):
        with pytest.raises(InstanceParseError, match="digits"):
            parse_result(self._text().replace("240.0", "1" * 5000))


# Values the per-record parsers (tests/reference.py) accept: JSON floats and
# ints, ints above 2**53 among them; and what they reject in place of a value
# or of a whole [x, y] pair or wedge record.
_GOOD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.integers(2**53, 2**64),
)
_BAD = st.sampled_from([True, False, "1.5", None, 10**400, -(10**400), math.nan, math.inf, -math.inf])
_BAD_RECORD = st.sampled_from([[1.0, 2.0, 3.0], {"x": 1.0, "y": 2.0}, "1,2", None, 5, [1.0]])


def _outcome(parse):
    """The parse's rows, floats in exact hex, or its error's type and message."""
    try:
        return [[x.hex() if type(x) is float else x for x in row] for row in parse()]
    except (InstanceParseError, DuplicatePointError) as exc:
        return type(exc).__name__, str(exc)


def _reference_points(text):
    points = points_of(json.loads(text)["points"])
    check_distinct(points)
    return [(p.x, p.y) for p in points]


def _reference_wedges(text):
    return [(b, a, math.inf if r is None else r) for b, a, r in wedges_of(json.loads(text)["wedges"])]


@st.composite
def _with_bad(draw, good, bad):
    """A list of ``good`` items, up to two of them replaced by ``bad`` ones."""
    items = draw(st.lists(good, max_size=12))
    for _ in range(draw(st.integers(0, 2)) if items else 0):
        items[draw(st.integers(0, len(items) - 1))] = draw(bad)
    return items


_PAIR = st.tuples(_GOOD, _GOOD).map(list)
_BAD_PAIR = st.one_of(st.tuples(_GOOD, _BAD).map(list), st.tuples(_BAD, _GOOD).map(list), _BAD_RECORD)
_WEDGE = st.fixed_dictionaries({"bisector_deg": _GOOD, "aperture_deg": _GOOD}, optional={"radius": _GOOD})
_BAD_WEDGE = st.one_of(
    st.fixed_dictionaries({"bisector_deg": _BAD, "aperture_deg": _GOOD}),
    st.fixed_dictionaries({"bisector_deg": _GOOD, "aperture_deg": _BAD}),
    st.fixed_dictionaries({"bisector_deg": _GOOD, "aperture_deg": _GOOD, "radius": _BAD}),
    st.fixed_dictionaries({"bisector_deg": _GOOD, "radius": _GOOD}),
    _BAD_RECORD,
)


class TestColumnarParseMatchesReference:
    """``parse_instance`` and ``parse_result`` read every value at once; on
    any input they must give the per-record parsers' values bit for bit, or
    raise their error with the same message."""

    @settings(max_examples=300, deadline=None)
    @given(_with_bad(_PAIR, _BAD_PAIR))
    def test_instance_points(self, raw):
        text = json.dumps({"points": raw})
        want = _outcome(lambda: _reference_points(text))
        assert _outcome(lambda: coordinates(parse_instance(text).points).tolist()) == want

    @settings(max_examples=200, deadline=None)
    @given(
        _with_bad(
            st.tuples(st.integers(-(2**64), 2**64), st.integers(0, 2**64)).map(list),
            st.sampled_from([[True, 1], [0, 1.0], ["0", 1], [0, None], [0, 1, 2], [0], {"u": 0}, "0-1"]),
        )
    )
    def test_result_edges(self, raw):
        text = json.dumps({"wedges": [], "edges": raw, "summary": {}})
        want = _outcome(lambda: edges_of(json.loads(text)["edges"]))
        assert _outcome(lambda: parse_result(text).edges.tolist()) == want

    @settings(max_examples=300, deadline=None)
    @given(_with_bad(_WEDGE, _BAD_WEDGE))
    def test_result_wedges(self, recs):
        text = json.dumps({"wedges": recs, "edges": [], "summary": {}})
        want = _outcome(lambda: _reference_wedges(text))
        assert _outcome(lambda: parse_result(text).wedges.tolist()) == want


class TestSvg:
    def test_points_only(self):
        svg = emit_svg([Point(0, 0), Point(1, 1)])
        assert svg.startswith("<?xml")
        assert svg.count("<circle") == 2
        assert "<line" not in svg

    def test_gadget_sectors(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.4, 0.7)]
        tri = orient_triplet(pts, [(0, 1, 2)])
        rows = np.column_stack((tri.bisectors[0], [120.0] * 3, [math.inf] * 3))
        svg = emit_svg(pts, rows, tri.tree_edges[0])
        assert svg.count("<path") == 3
        assert svg.count("<line") == 2

    def test_deterministic(self):
        pts = [Point(0, 0), Point(2, 1)]
        wedges = np.array([[30.0, 90.0, 2.0], [200.0, 90.0, math.inf]])
        assert emit_svg(pts, wedges) == emit_svg(pts, wedges)

    def test_empty_rejected(self):
        with pytest.raises(TooFewPointsError):
            emit_svg([])
