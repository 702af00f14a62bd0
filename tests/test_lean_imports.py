"""The pipeline's graph commands, and the traversals on ``kernels.bfs``, run
on numpy alone: neither scipy (about 21 MB resident) nor numpy.ma (0.7 MB,
pulled in by the first plain np.unique call) is imported.  Runs in a fresh
interpreter so other tests' imports don't count.  The partition's multigrid
coarsens only views above ``MAX_COARSE`` rows, more than the small graph
has, so the script lowers it to reach that loop too."""

import json
import subprocess
import sys

SCRIPT = """
import json, os, sys
from versegraph import cli, io, partition
partition.MAX_COARSE = 8
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
# the traversals that run on kernels.bfs, which must not call np.unique either
from versegraph import analytics, netopt, scenario
snap = io.import_graph(path("g.json")).snapshot_at(0)
net = snap.layer_subgraph(next(i for i, name in snap.layers.items() if name == "network"))
a, b = net.vertices[0], net.vertices[-1]
analytics.bfs_order(net, a)
scenario.trust_path(snap.flatten(), a, b)
netopt.max_flow_min_cut(net, a, b)
netopt.augment_redundancy(net, netopt.minimum_spanning_tree(net), 3)
levels, _ = partition._build_multigrid(partition.laplacian(snap.flatten()))
print(json.dumps({"codes": codes, "coarsened": len(levels) > 0,
                  "loaded": sorted(m for m in ("scipy", "numpy.ma") if m in sys.modules)}))
"""


def test_graph_commands_import_neither_scipy_nor_numpy_ma(tmp_path):
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0, 0], "coarsened": True, "loaded": []}
