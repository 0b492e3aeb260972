"""Privacy guard for the benchmark's own output; runs in about half a minute.

    python3 bench/privacy_check.py

Runs every workload at tiny size, untraced and traced, then checks that:

- each run exits 0 with a correct result whose metric names equal the
  ``end_to_end`` (untraced) or ``per_layer`` (traced) names in
  BENCHMARK.json;
- no file the benchmark wrote (results, span files, daemon stderr, the
  randomness cache) and neither output stream contains a submitted tag,
  value or share encoding, in raw bytes or in hex, nor a loopback address
  or port field, which would identify a peer.  Binary ``.bin`` files hold
  random bytes, where a short value or word would match by chance, so
  they are checked for tags and share encodings only.

Exits 1 and names the first violation it finds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs as input_builder  # noqa: E402
from run import WORK  # noqa: E402

from nebula import multidim, sharing, wire  # noqa: E402
from nebula.encode import Submission  # noqa: E402

SEED = 7
PEER = re.compile(rb"127\.0\.0\.1|localhost|\bport\b", re.IGNORECASE)


def _secrets(workload: str) -> set[bytes]:
    """Tags, values and share encodings of one tiny round, raw and hex."""
    digest = input_builder.source_digest(ROOT / "src" / "nebula")
    inp = input_builder.build(workload, SEED, "tiny", WORK / "cache", digest)
    payloads = [c.expected_payload for c in inp.clients]
    offset = 0
    while offset < len(inp.stream):
        _, length = wire.parse_header(inp.stream[offset:offset + wire.HEADER_SIZE])
        start = offset + wire.HEADER_SIZE
        payloads.append(inp.stream[start:start + length])
        offset = start + length
    if inp.chained:
        subs = [multidim.SuperSubmission.from_bytes(p).layer1 for p in payloads]
        values = {f"L{level}v{idx:03d}".encode()
                  for level, size in enumerate(inp.size.branching) for idx in range(size)}
    else:
        subs = [Submission.from_bytes(p) for p in payloads]
        values = set(input_builder.single_domain(inp.size.values))
    found = set(values)
    for sub in subs:
        found.add(sub.tag)
        found.add(sharing.encode_element(sub.share.x_coord))
        found.add(sharing.encode_element(sub.share.y_coord))
    return found | {s.hex().encode() for s in found if len(s) >= 16}


def _written_files() -> list[Path]:
    return [p for p in WORK.rglob("*") if p.is_file()]


def _leak(data: bytes, secrets: set[bytes]) -> bytes | None:
    """A secret contained in ``data``; long ones are found via 16-byte windows."""
    windows = {data[i:i + 16] for i in range(len(data) - 15)}
    for secret in secrets:
        if len(secret) >= 16 and secret[:16] not in windows:
            continue
        if secret in data:
            return secret
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        secrets = _secrets(workload)
        for trace in (0, 1):
            # Only this run's outputs (and the randomness cache) are scanned.
            shutil.rmtree(WORK / "runs", ignore_errors=True)
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                 "--scale", "tiny"],
                cwd=ROOT, capture_output=True, timeout=170)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"{where}: exit {proc.returncode}\n{proc.stderr.decode()}")
                return 1
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{where}: incorrect result")
                return 1
            if set(result["metrics"]) != expected[trace]:
                print(f"{where}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(result['metrics']) ^ expected[trace])}")
                return 1
            blobs = {"stdout": proc.stdout, "stderr": proc.stderr}
            blobs.update({str(p.relative_to(ROOT)): p.read_bytes() for p in _written_files()})
            for name, data in blobs.items():
                binary = name.endswith(".bin")
                if not binary and PEER.search(data):
                    print(f"{where}: {name} names a peer address or port")
                    return 1
                checked = {s for s in secrets if len(s) >= 16} if binary else secrets
                leaked = _leak(data, checked)
                if leaked is not None:
                    print(f"{where}: {name} contains submitted bytes {leaked.hex()}")
                    return 1
            print(f"{where}: ok ({len(blobs)} outputs, {len(secrets)} secrets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
