"""Set-up probe, run in a fresh interpreter by the traced run.

Stamps ``time.monotonic()`` around ``import repro.cli``, the predictor
bundle ``aarohi predict`` builds, the scanner load from the warm
artifact cache, and a cold scanner compile (cache bypassed), and prints
the five stamps as one JSON list.
"""

import json
import time


def main() -> None:
    t0 = time.monotonic()
    import repro.cli

    t1 = time.monotonic()
    from repro.logsim import ClusterLogGenerator, system_by_name

    args = repro.cli.build_parser().parse_args(["predict", "--log", "-"])
    gen = ClusterLogGenerator(system_by_name(args.system), seed=args.seed)
    t2 = time.monotonic()
    keep = gen.chains.token_set
    gen.store.compile_scanner(keep=keep, backend=args.scan_backend)
    t3 = time.monotonic()
    gen.store.compile_scanner(keep=keep, backend=args.scan_backend,
                              cache=False)
    t4 = time.monotonic()
    print(json.dumps([t0, t1, t2, t3, t4]))


if __name__ == "__main__":
    main()
