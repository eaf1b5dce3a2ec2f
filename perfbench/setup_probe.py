"""Time hazgate's set-up in a fresh interpreter and print it as one JSON object.

Set-up is what every workload pays before its first verdict: importing the
hazgate modules the workloads use, then loading the model, the executive
config, the deviation catalog and the UCA catalog.

    python3 perfbench/setup_probe.py <checkout root>
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    root = Path(sys.argv[1]).resolve()
    data = root / "src" / "hazgate" / "data"
    sys.path.insert(0, str(root / "src"))
    clock = time.perf_counter
    start = clock()
    import hazgate.acceptance  # noqa: F401  (pulls in campaign, reach, simulate, ...)
    import hazgate.reporting  # noqa: F401
    from hazgate.executive import ExecConfig
    from hazgate.model import load_model
    from hazgate.shard import load_shard_catalog
    from hazgate.stpa import load_uca_catalog

    imported = clock()
    load_model(data / "mammobot.proc")
    ExecConfig.load(data / "exec_config.json")
    model_loaded = clock()
    load_shard_catalog(data / "shard_catalog.csv")
    shard_loaded = clock()
    load_uca_catalog(data / "uca_catalog.csv")
    end = clock()
    if not Path(hazgate.__file__).resolve().is_relative_to(root / "src"):
        print(f"hazgate imported from {hazgate.__file__}, not this checkout", file=sys.stderr)
        return 2
    print(json.dumps({
        "setup_s": end - start,
        "setup.import_s": imported - start,
        "model.load_s": model_loaded - imported,
        "shard.load_s": shard_loaded - model_loaded,
        "stpa.load_s": end - shard_loaded,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
