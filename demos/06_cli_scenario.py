"""The scenario harness end to end, driven through the CLI entry points.

Equivalent shell commands:

    sensorsched run     --config demos/configs/small_tracking.json --output-dir /tmp/run
    sensorsched certify --config demos/configs/small_tracking.json --output-dir /tmp/cert
"""

import pathlib
import tempfile

from sensorsched.cli import run_scenario

configs = pathlib.Path(__file__).parent / "configs"
with tempfile.TemporaryDirectory(prefix="sensorsched-demo-") as tmp:
    out = pathlib.Path(tmp)
    paths = run_scenario(configs / "small_tracking.json", out / "run")
    print("run outputs:")
    for name, path in paths.items():
        print(f"  {name:8s} {path}")

    print("\nresults.csv:")
    print(paths["results"].read_text())
    print("trace.csv (greedy picks):")
    print(paths["trace"].read_text())

    # identical config + seed always reproduces the same bytes
    again = run_scenario(configs / "small_tracking.json", out / "run2")
    print("re-run byte-identical:",
          paths["results"].read_bytes() == again["results"].read_bytes())
