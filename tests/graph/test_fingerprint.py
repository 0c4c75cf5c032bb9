"""Canonical graph fingerprints: what must and must not change them.

A serve ``plan`` job's result names the graph it priced by
``graph_fingerprint``, so these invariances are load-bearing: two
spellings of the same network must share a fingerprint, and any change
that affects planning must produce a different one.
"""

from repro.graph import GraphBuilder, graph_fingerprint, node_fingerprints
from repro.layers import Add, Conv2D, ReLU
from repro.models import build_model


def _diamond(name, order="ab", names=("a", "b", "add")):
    """conv/conv -> add diamond; branch construction order is a knob."""
    b = GraphBuilder(name, (2, 3, 8, 8))
    if order == "ab":
        left = b.add(Conv2D(4, 3, pad=1), b.input, name=names[0])
        right = b.add(Conv2D(4, 3, pad=1), b.input, name=names[1])
    else:
        right = b.add(Conv2D(4, 3, pad=1), b.input, name=names[1])
        left = b.add(Conv2D(4, 3, pad=1), b.input, name=names[0])
    merged = b.add(Add(), [left, right], name=names[2])
    b.add(ReLU(), merged, name="out")
    return b.build()


class TestGraphFingerprint:
    def test_deterministic_across_builds(self):
        g1 = build_model("tiny_cnn", batch_size=4)
        g2 = build_model("tiny_cnn", batch_size=4)
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_batch_size_changes_fingerprint(self):
        g4 = build_model("tiny_cnn", batch_size=4)
        g8 = build_model("tiny_cnn", batch_size=8)
        assert graph_fingerprint(g4) != graph_fingerprint(g8)

    def test_models_distinct(self):
        g = build_model("tiny_cnn", batch_size=4)
        h = build_model("scaled_vgg", batch_size=4)
        assert graph_fingerprint(g) != graph_fingerprint(h)

    def test_node_names_do_not_matter(self):
        g1 = _diamond("g1", names=("a", "b", "add"))
        g2 = _diamond("g2", names=("left", "right", "merge"))
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_construction_order_does_not_matter(self):
        # Same DAG, branches added in opposite order: the node ids are
        # permuted but the fingerprint must not move.
        g1 = _diamond("g", order="ab")
        g2 = _diamond("g", order="ba")
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_layer_params_matter(self):
        b1 = GraphBuilder("g", (2, 3, 8, 8))
        b1.add(Conv2D(4, 3, pad=1), b1.input, name="c")
        b2 = GraphBuilder("g", (2, 3, 8, 8))
        b2.add(Conv2D(8, 3, pad=1), b2.input, name="c")
        assert graph_fingerprint(b1.build()) != graph_fingerprint(b2.build())

    def test_input_order_matters(self):
        # Add(a, b) and Add(b, a) are different programs for ordered-
        # input ops, so they must hash differently at the node level...
        b = GraphBuilder("g", (2, 3, 8, 8))
        a = b.add(Conv2D(4, 3, pad=1), b.input, name="a")
        c = b.add(Conv2D(4, 5, pad=2), b.input, name="c")
        b.add(Add(), [a, c], name="add")
        g1 = b.build()
        b = GraphBuilder("g", (2, 3, 8, 8))
        a = b.add(Conv2D(4, 3, pad=1), b.input, name="a")
        c = b.add(Conv2D(4, 5, pad=2), b.input, name="c")
        b.add(Add(), [c, a], name="add")
        g2 = b.build()
        assert graph_fingerprint(g1) != graph_fingerprint(g2)

    def test_node_fingerprints_cover_graph(self):
        g = build_model("tiny_cnn", batch_size=4)
        digests = node_fingerprints(g)
        assert set(digests) == {node.node_id for node in g.nodes}
        assert all(len(d) == 64 for d in digests.values())
