"""Hand-rolled SVG portrait of the parameter plane: integer lines of both
facets (solid when polar, dashed otherwise), exceptional parameters, the
negated columns, and the convergence wedge of the defining integral.

Output is fully deterministic: fixed sizes, two-decimal coordinates, and
stable element order.
"""

from .curve import FACET_0, FACET_K, rank_jumping_parameters, resonant_lines

VIEW = 600.0
MARGIN = 60.0
SIZE = VIEW + 2 * MARGIN

_COLORS = {FACET_0: "#2b6cb0", FACET_K: "#b03a2b"}


def _mapper(window):
    W = float(window)

    def to_px(b1, b2):
        x = MARGIN + (b1 + W) * VIEW / (2 * W)
        y = MARGIN + (W - b2) * VIEW / (2 * W)
        return x, y

    return to_px


def _fmt(v):
    return f"{v:.2f}"


def build_svg(A, window=5):
    W = int(window)
    to_px = _mapper(W)
    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(SIZE)}" '
        f'height="{_fmt(SIZE)}" viewBox="0 0 {_fmt(SIZE)} {_fmt(SIZE)}">'
    )
    parts.append(f'<rect x="0" y="0" width="{_fmt(SIZE)}" height="{_fmt(SIZE)}" fill="#ffffff"/>')

    # convergence wedge: b2 <= 0 and k*b1 - b2 <= 0 cut the window square
    # down to this quadrilateral, whose first two vertices agree when k = 1
    wedge = [(-W, -W), (-W / A.k, -W), (0, 0), (-W, 0)]
    pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(b1, b2) for b1, b2 in wedge))
    parts.append(f'<polygon points="{pts}" fill="#dce9f5" stroke="none"/>')

    def line(p, q, color, width, dashed=False):
        (x0, y0), (x1, y1) = to_px(*p), to_px(*q)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        return (
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="{color}" stroke-width="{width}"{dash}/>'
        )

    # axes
    parts.append(line((0, -W), (0, W), "#999999", "1"))
    parts.append(line((-W, 0), (W, 0), "#999999", "1"))

    # facet-0 lines are horizontal; facet-k lines have slope k
    for L in resonant_lines(A, FACET_0, (-W, W)):
        parts.append(line((-W, L.level), (W, L.level), _COLORS[FACET_0], "1.5", not L.polar))
    for L in resonant_lines(A, FACET_K, (-A.k * W - W, A.k * W + W)):
        # b2 = k*b1 - N inside the window square
        lo = max(-W, (L.level - W) / A.k)
        hi = min(W, (L.level + W) / A.k)
        if lo >= hi:
            continue
        parts.append(line((lo, A.k * lo - L.level), (hi, A.k * hi - L.level), _COLORS[FACET_K], "1.5", not L.polar))

    # negated columns
    for i in range(A.n):
        b1, b2 = -1, -A.exponents[i]
        if abs(b1) > W or abs(b2) > W:
            continue
        cx, cy = to_px(b1, b2)
        parts.append(
            f'<rect x="{_fmt(cx - 4)}" y="{_fmt(cy - 4)}" width="8.00" height="8.00" '
            f'fill="#444444"/>'
        )

    # exceptional parameters
    for b1, b2 in rank_jumping_parameters(A):
        if abs(b1) > W or abs(b2) > W:
            continue
        cx, cy = to_px(b1, b2)
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="6.00" fill="#e8b923" '
            f'stroke="#000000" stroke-width="1.5"/>'
        )

    label = "A = [" + ", ".join(str(v) for v in A.exponents) + "]"
    parts.append(
        f'<text x="{_fmt(MARGIN)}" y="{_fmt(MARGIN - 20)}" font-family="monospace" '
        f'font-size="16">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
