"""Fuzz `recolor` subcommands with valid, corrupted and random input files.

The contract: `main` returns an exit code in {0, 1, 2, 3}, or argparse
exits with 2; no other exception escapes. Every vertex count and palette
stays at 12 or less and the state cap at 10^4 or less, so no run can
allocate or enumerate much.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from recolor import RecolorError, best_choice_sequence, gen_instance, gen_random_coloring
from recolor import io as rio
from recolor.cli import main
from recolor.generators import FAMILIES

small_ints = st.integers(min_value=-2, max_value=12)
# int() reads numeric strings, so strings stay too short to read as more than 12.
small_texts = st.text(alphabet="ab1- ", max_size=2)
keys = st.sampled_from(
    ["n", "adj", "edges", "graph", "palette", "start", "steps", "bags", "tree_edges",
     "decomposition", "order", "ordering"]
) | small_texts

json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats() | small_texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=10,
)


@st.composite
def instances(draw):
    """A palette, a palette wide enough for the pipeline (2k+1 at width k),
    and valid file contents for one random instance, keyed by role."""
    family = draw(st.sampled_from(FAMILIES))
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=k + 1, max_value=10))
    g, ordering, td, d = gen_instance(family, n, k, draw(st.integers(0, 1000)))
    t = draw(st.integers(min_value=d + 1, max_value=min(12, 2 * k + 2)))
    alpha, beta = (gen_random_coloring(g, ordering, t, draw(st.integers(0, 1000)))
                   for _ in range(2))
    try:
        seq = rio.sequence_to_json(best_choice_sequence(g, ordering, alpha, beta))
    except RecolorError:
        seq = {"palette": t, "start": list(alpha.colors), "steps": [[0, 1]]}
    graph = draw(st.sampled_from([
        rio.graph_to_json(g),
        {"n": n, "edges": [list(e) for e in g.edges()]},
        {"graph": rio.graph_to_json(g)},
    ]))
    bags = rio.decomposition_to_json(td) if td else {"bags": [list(range(n))],
                                                     "tree_edges": []}
    return t, max(t, min(12, 2 * k + 1)), {
        "graph": graph,
        "alpha": list(alpha.colors),
        "beta": list(beta.colors),
        "seq": seq,
        "ord": list(ordering.order),
        "td": bags,
        "graph text": rio.graph_to_text(g),
    }


@st.composite
def corrupted(draw, obj):
    """obj with one field or element replaced or dropped, or a random JSON
    value."""
    how = draw(st.sampled_from(["replace", "drop", "random"]))
    if how == "random" or not obj:
        return draw(json_values)
    obj = dict(obj) if isinstance(obj, dict) else list(obj)
    key = draw(st.sampled_from(list(obj) if isinstance(obj, dict) else range(len(obj))))
    if how == "replace":
        obj[key] = draw(json_values)
    else:
        del obj[key]
    return obj


COMMANDS = {
    "peo": ["graph"],
    "recolor": ["graph", "t", "alpha", "beta", "ord"],
    "analyze": ["graph", "seq", "ord"],
    "oracle": ["graph", "t", "cap", "from", "to"],
    "pipeline": ["graph", "t", "cap", "alpha", "beta", "td"],
}


@st.composite
def invocations(draw):
    """argv entries, each a plain value or (flag, file contents, inline),
    with at most one argument made bad."""
    t, t_wide, files = draw(instances())
    files["from"], files["to"] = files["alpha"], files["beta"]
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    if command == "oracle":
        argv.append(draw(st.sampled_from(["distance", "connected", "diameter"])))
    if command == "pipeline":
        t = t_wide
        argv += ["--bridge", draw(st.sampled_from(["oracle", "none"]))]
    bad = draw(st.sampled_from([None, *COMMANDS[command]]))
    for role in COMMANDS[command]:
        if role == "t":
            argv += ["--t", str(draw(st.sampled_from([0, -1, 12, "x"])) if bad == role else t)]
        elif role == "cap":
            cap = st.sampled_from([-1, "x"]) if bad == role else st.integers(0, 10_000)
            argv += ["--state-cap", str(draw(cap))]
        elif role in ("ord", "from", "to") and bad != role and draw(st.booleans()):
            continue
        elif role == "graph" and draw(st.booleans()):
            text = files["graph text"]
            if bad == role:
                text = draw(st.sampled_from([text.rsplit("\n", 2)[0], text.replace(" ", " x")]))
            argv.append(("--graph", text, False))
        else:
            obj = draw(corrupted(files[role])) if bad == role else files[role]
            text = json.dumps(obj)
            inline = text.startswith("[") and role in ("alpha", "beta", "from", "to")
            argv.append((f"--{role}", text, inline and draw(st.booleans())))
    return argv


@given(invocations())
@settings(max_examples=300, deadline=None)
def test_main_exits_with_a_known_code(invocation):
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for i, arg in enumerate(invocation):
            if isinstance(arg, str):
                argv.append(arg)
                continue
            flag, text, inline = arg
            if not inline:
                path = Path(tmp) / f"arg{i}.json"
                path.write_text(text)
                text = str(path)
            argv += [flag, text]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as e:
                code = "argparse" if e.code == 2 else e.code
    assert code in (0, 1, 2, 3, "argparse")
