"""
Files, JSON schemas, and the command line
==========================================

Everything the library computes can round-trip through plain JSON and
CSV, and the same operations are scriptable without Python via the
``hyperdp`` command.  Float masses are serialized with ``repr`` so a
round trip is bit-exact.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from hyperdp import (
    DiscreteMeasure,
    ProductSpace,
    measure_from_dict,
    measure_to_dict,
    uniform_measure,
)

space = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
measure = DiscreteMeasure(space, {(0, 0): 0.1, (0, 1): 1 / 3, (1, 0): 0.3, (1, 1): 0.5})

payload = measure_to_dict(measure)
print("one serialized point:", payload["points"][0])
back = measure_from_dict(json.loads(json.dumps(payload)))
print("bit-exact round trip:", back.mass == measure.mass)

# The command line speaks the same schema.
spec = {
    "graph": {"vertices": ["I", "J", "K"], "edges": [["I", "J"], ["J", "K"]]},
    "nu": 4.0,
    "clique_bases": [
        measure_to_dict(uniform_measure(space)),
        measure_to_dict(
            DiscreteMeasure(
                ProductSpace.from_domains(("J", "K"), {"J": (0, 1), "K": (0, 1)}),
                {(0, 0): 0.5, (1, 1): 0.5},
            )
        ),
    ],
}
with tempfile.TemporaryDirectory() as workdir:
    spec_path = Path(workdir) / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    out = subprocess.run(
        [sys.executable, "-m", "hyperdp", "diagnose", "--spec", str(spec_path), "--samples", "3", "--seed", "1"],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(out.stdout)
    print("\ndiagnose says the spec is usable:", report["passed"])
    for check in report["checks"]:
        print("  ", check["name"], "->", "ok" if check["passed"] else check["detail"])

    # Draws stream out as one JSON document per line, fully seeded.
    out = subprocess.run(
        [sys.executable, "-m", "hyperdp", "sample-hdp", "--spec", str(spec_path), "--replicates", "2", "--seed", "9"],
        capture_output=True, text=True, check=True,
    )
    for line in out.stdout.splitlines():
        doc = json.loads(line)
        print(f"replicate {doc['replicate']}: {len(doc['atoms'])} atoms,",
              f"heaviest weight {max(doc['weights']):.3f}")
