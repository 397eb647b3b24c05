from qpswf.svgplot import SvgFigure


def test_render_returns_on_a_span_below_double_spacing():
    # two values 4.4e-16 apart near 1: a tick step fit to their span would not
    # advance a float at 1.0, so the span is widened like a zero span
    fig = SvgFigure("narrow", "x", "y")
    fig.add_scatter([0.0, 1.0], [0.9999999999999996, 1.0], "points")
    svg = fig.render()
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<circle") == 2
    assert svg.count("<line") <= 30

