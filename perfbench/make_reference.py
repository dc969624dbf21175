"""Record the paper_sweep reference from the current program.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs `safefl reproduce-paper` once and writes, per run, its safe verdict,
step count and a CSV reference (see oracle.csv_reference) to
perfbench/reference/paper_sweep.json. Record it only from a commit whose
outputs are known to be right: every later run is checked against it.
"""

import contextlib
import io
import json
from pathlib import Path

import oracle
from safefl import cli
from workloads import REFERENCE

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    out = ROOT / ".bench_work" / "reference_sweep"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["reproduce-paper", "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"reproduce-paper exited with {rc}")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    runs = {}
    for entry in summary["runs"]:
        header, data = oracle.read_csv(out / f"{entry['label']}.csv")
        runs[entry["label"]] = {
            "safe": entry["safe"],
            "steps": entry["steps"],
            "csv": oracle.csv_reference(header, data),
        }
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({"runs": runs}) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
