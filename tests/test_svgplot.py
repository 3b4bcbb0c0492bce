"""Deterministic SVG box plot rendering."""

import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pifmap.errors import EmptyInput
from pifmap.svgplot import box_stats, render_boxplot

# lists of 1 to 40 finite values drawn from a pool of at most 8, so values
# repeat, at any magnitude
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_LISTS = st.lists(_FLOATS, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


def _bits(values):
    return [float(v).hex() for v in values]


class TestBoxStats:
    def test_hand_case(self):
        q1, med, q3 = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (q1, med, q3) == (2.0, 3.0, 4.0)

    def test_interpolated_quartiles(self):
        q1, med, q3 = box_stats([0.0, 1.0, 2.0, 3.0])
        assert q1 == pytest.approx(0.75)
        assert med == pytest.approx(1.5)
        assert q3 == pytest.approx(2.25)

    def test_single_value(self):
        assert box_stats([7.0]) == (7.0, 7.0, 7.0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            box_stats([])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            box_stats([1.0, float("nan")])

    @settings(max_examples=400)
    @given(_LISTS)
    @example([-0.0])
    @example([1e308, -1e308, 1e308])
    @example([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    def test_equals_numpy_percentile_bit_for_bit(self, values):
        # numpy's partition leaves 0.0 and -0.0 in no set order
        signs = {np.copysign(1.0, v) for v in values if v == 0.0}
        if len(signs) == 2:
            values = [abs(v) if v == 0.0 else v for v in values]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.percentile(np.array(values), [25.0, 50.0, 75.0])
        quartiles = box_stats(values)
        assert all(type(q) is float for q in quartiles)
        assert _bits(quartiles) == _bits(expected)


class TestRenderBoxplot:
    def test_well_formed_xml(self):
        svg = render_boxplot("title", "mae", [("sf", [1.0, 2.0, 3.0])])
        document = xml.dom.minidom.parseString(svg)
        assert document.documentElement.tagName == "svg"

    def test_fixed_canvas(self):
        svg = render_boxplot("t", "y", [("a", [1.0, 2.0])])
        assert 'width="480.00"' in svg
        assert 'height="320.00"' in svg
        assert 'viewBox="0 0 480.00 320.00"' in svg

    def test_byte_deterministic(self):
        groups = [("sf", [3.0, 1.0, 2.0]), ("spif", [0.5, 0.6, 0.4])]
        assert render_boxplot("x", "y", groups) == render_boxplot("x", "y", groups)

    def test_one_rect_per_group_plus_background(self):
        groups = [("a", [1.0, 2.0]), ("b", [2.0, 3.0]), ("c", [3.0, 4.0])]
        svg = render_boxplot("t", "y", groups)
        assert svg.count("<rect") == 1 + len(groups)

    def test_labels_rendered(self):
        svg = render_boxplot("Skill", "hss", [("spif", [0.5, 0.6])])
        assert ">Skill</text>" in svg
        assert ">spif</text>" in svg
        assert ">hss</text>" in svg

    def test_linear_axis_for_narrow_spread(self):
        svg = render_boxplot("t", "mae", [("a", [1.0, 2.0, 3.0])])
        assert "(log scale)" not in svg

    def test_log_axis_for_wide_positive_spread(self):
        svg = render_boxplot(
            "t", "mae", [("a", [1.0, 2.0, 3.0]), ("b", [1e4, 2e4, 3e4])]
        )
        assert "(log scale)" in svg

    def test_no_log_axis_when_nonpositive(self):
        svg = render_boxplot(
            "t", "mae", [("a", [-1.0, 0.0, 1.0]), ("b", [1e4, 2e4, 3e4])]
        )
        assert "(log scale)" not in svg

    def test_markup_in_labels_escaped(self):
        svg = render_boxplot("a<b", 'y&"z', [("<g>", [1.0])])
        assert "a&lt;b" in svg
        assert "y&amp;" in svg
        assert "&lt;g&gt;" in svg
        xml.dom.minidom.parseString(svg)  # still parses

    def test_degenerate_constant_values(self):
        svg = render_boxplot("t", "y", [("a", [2.0, 2.0, 2.0])])
        xml.dom.minidom.parseString(svg)
        assert svg.count("<rect") == 2

    def test_empty_groups_rejected(self):
        with pytest.raises(EmptyInput):
            render_boxplot("t", "y", [])

    def test_a_group_with_no_values_is_drawn_undefined(self):
        svg = render_boxplot("t", "tss", [("a", []), ("b", [1.0, 3.0])])
        xml.dom.minidom.parseString(svg)
        assert svg.count("<rect") == 2  # the background and b's box
        assert ">a (undefined)</text>" in svg and ">b</text>" in svg
        alone = render_boxplot("t", "tss", [("a", [])])
        assert alone.count("<rect") == 1 and ">a (undefined)</text>" in alone

    def test_coordinates_fixed_precision(self):
        # every numeric attribute uses two decimals: no float repr noise
        rng = np.random.Generator(np.random.PCG64(1))
        svg = render_boxplot(
            "t", "y", [("a", list(rng.random(17))), ("b", list(rng.random(11)))]
        )
        for chunk in svg.split('"'):
            if chunk.count(".") == 1 and chunk.replace(".", "").replace("-", "").isdigit():
                whole, frac = chunk.split(".")
                assert len(frac) == 2, chunk

    def test_tick_label_styles(self):
        # tiny and huge magnitudes fall back to scientific notation
        svg_small = render_boxplot("t", "y", [("a", [1e-7, 2e-7])])
        assert "e-0" in svg_small
        svg_mid = render_boxplot("t", "y", [("a", [1.0, 2.0])])
        assert "e+0" not in svg_mid
