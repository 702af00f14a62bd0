"""The pipeline's graph commands run on numpy alone: neither scipy (about
21 MB resident) nor numpy.ma (0.7 MB, pulled in by the first np.unique call)
is imported.  Runs in a fresh interpreter so other tests' imports don't
count."""

import json
import subprocess
import sys

SCRIPT = """
import json, os, sys
from versegraph import cli, io
work = sys.argv[1]
path = lambda name: os.path.join(work, name)
io.dump_json({"routers": 8, "servers": 3, "devices": 10, "users": 15, "admins": 2,
              "items": 6, "edge_prob": 0.3}, path("gen.json"))
io.dump_json({"layer": "network", "k": 2}, path("cdn.json"))
codes = [
    cli.run(["gen", "--scenario", "multilayer", "--seed", "3", "--params", path("gen.json"),
             "--out", path("g.json")]),
    cli.run(["analyze", "--in", path("g.json"), "--metrics", "betweenness",
             "--out", path("a.csv")]),
    cli.run(["partition", "--in", path("g.json"), "--k", "4", "--out", path("p.json")]),
    cli.run(["simulate", "--kind", "cdn", "--in", path("g.json"), "--params", path("cdn.json"),
             "--out", path("c.json")]),
    cli.run(["simulate", "--kind", "consistency", "--in", path("g.json"), "--out", path("s.json")]),
]
print(json.dumps({"codes": codes, "loaded": sorted(m for m in ("scipy", "numpy.ma")
                                                   if m in sys.modules)}))
"""


def test_graph_commands_import_neither_scipy_nor_numpy_ma(tmp_path):
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0, 0], "loaded": []}
