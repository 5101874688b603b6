#!/usr/bin/env python3
"""End-to-end smoke test of the maxev_serve protocol.

Usage: serve_smoke.py [path/to/maxev_serve]

Drives the serving binary through its line-delimited JSON protocol:

  1. `--emit-demo` produces the didactic scenario with a stream-typed
     source plus the full token set.
  2. `--golden` runs the same scenario ONE-SHOT (token tables, no session
     machinery) and prints the complete traces.
  3. The protocol run submits the scenario, feeds the tokens across
     several feed/poll rounds, checkpoints mid-stream, restores the
     checkpoint into a fresh session, and finishes feeding there. The
     restore must be a program-cache hit: the server decodes and compiles
     each scenario document once.
  4. Hostile lines must come back as in-band `ok: false` errors, and the
     same process must still answer `stats`: HOSTILE_DEPTH unclosed '[';
     and, right after the restore, a feed with its members reordered and a
     token repeating `earliest_ps`, a token with 3 params, and a restore
     from a checkpoint cut to 3 params. None of them may feed anything.
  5. A twin session on the same scenario, fed every token SHIFT_PS later,
     must reproduce the golden traces shifted by SHIFT_PS, while the first
     session is still live: sessions on one document share its template
     and program but never each other's tokens.

The accumulated poll deltas (original session up to the checkpoint, the
restored session after it) must reassemble, instant for instant and busy
interval for busy interval, into exactly the golden traces — the paper's
bit-identical resume contract, exercised across a serialization boundary.

Exit code 0 on success; 1 with a diff summary otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

ROUNDS = 4  # feed/poll rounds; the checkpoint happens after round 2
HOSTILE_DEPTH = 200_000  # far past the parser's nesting bound
SHIFT_PS = 3_000_000  # the twin session's release offset


def fail(msg):
    print(f"serve_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def expect_error(server, line, what, needle):
    """Send a line the server must reject in band with \p needle."""
    reply = server.send_line(line, what)
    if reply.get("ok") is not False:
        fail(f"{what} was not rejected in band: {reply}")
    if needle not in reply.get("error", ""):
        fail(f"{what}: error {reply.get('error')!r} lacks {needle!r}")


def hostile_lines(server, ckpt, source, token):
    """Reject malformed feeds and restores without feeding anything."""
    # Members in reverse order, and a token that repeats a key: the
    # duplicate is written by hand, since a dict cannot hold it.
    body = json.dumps(token)[:-1] + ', "earliest_ps": ' + str(
        token["earliest_ps"]
    )
    expect_error(
        server,
        '{"tokens": [' + body + '}], "source": ' + str(source)
        + ', "session": "smoke", "cmd": "feed"}',
        "feed repeating earliest_ps",
        "duplicate object key",
    )
    short = dict(token)
    short["attrs"] = dict(token["attrs"], params=token["attrs"]["params"][:3])
    expect_error(
        server,
        json.dumps(
            {"cmd": "feed", "session": "smoke", "source": source,
             "tokens": [short]}
        ),
        "feed with 3 params",
        "params must be an array of 4",
    )
    doc = json.loads(ckpt)
    cut = next(s for s in doc["streams"] if s["attrs"])
    cut["attrs"][0]["params"] = cut["attrs"][0]["params"][:3]
    expect_error(
        server,
        json.dumps(
            {"cmd": "restore", "session": "cut",
             "checkpoint": json.dumps(doc)}
        ),
        "restore with 3 params",
        "params must be an array of 4",
    )


class Server:
    """One maxev_serve process driven line-by-line."""

    def __init__(self, binary):
        self.proc = subprocess.Popen(
            [binary], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def send_line(self, text, what):
        """Send one protocol line; return the parsed reply."""
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            fail(f"server died on request {what}")
        return json.loads(line)

    def request(self, obj, expect_ok=True):
        reply = self.send_line(json.dumps(obj), obj.get("cmd"))
        if expect_ok and not reply.get("ok"):
            fail(f"request {obj.get('cmd')} failed: {reply.get('error')}")
        return reply

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def accumulate(state, delta):
    """Fold one poll delta into {series: [instants]} / {resource: columns}."""
    for s in delta["instants"]:
        arr = state["instants"].setdefault(s["series"], [])
        if s["start_k"] != len(arr):
            fail(
                f"series {s['series']}: delta starts at k={s['start_k']}, "
                f"have {len(arr)} instants"
            )
        arr.extend(s["instants_ps"])
    for u in delta["usage"]:
        cols = state["usage"].setdefault(
            u["resource"],
            {"starts_ps": [], "ends_ps": [], "ops": [], "labels": []},
        )
        if u["start_index"] != len(cols["starts_ps"]):
            fail(
                f"resource {u['resource']}: delta starts at "
                f"{u['start_index']}, have {len(cols['starts_ps'])}"
            )
        for key in ("starts_ps", "ends_ps", "ops", "labels"):
            cols[key].extend(u[key])


def run_twin(server, scenario, tokens):
    """Open a second session on the scenario, feed it every token SHIFT_PS
    later, poll it to completion and close it; return its traces."""
    state = {"instants": {}, "usage": {}}
    server.request({"cmd": "submit", "session": "twin", "scenario": scenario})
    for stream in tokens["streams"]:
        shifted = [
            dict(t, earliest_ps=t["earliest_ps"] + SHIFT_PS)
            for t in stream["tokens"]
        ]
        server.request(
            {"cmd": "feed", "session": "twin", "source": stream["source"],
             "tokens": shifted}
        )
    delta = server.request({"cmd": "poll", "session": "twin"})
    accumulate(state, delta)
    if not delta["completed"]:
        fail(f"twin session did not complete (stop={delta['stop']})")
    server.request({"cmd": "close", "session": "twin"})
    state["now_ps"] = delta["now_ps"]
    return state


def check_twin(twin, golden):
    """The twin's traces are the golden ones, every instant SHIFT_PS later."""
    want_instants = {
        s["series"]: [t + SHIFT_PS for t in s["instants_ps"]]
        for s in golden["instants"]
    }
    want_usage = {
        u["resource"]: {
            "starts_ps": [t + SHIFT_PS for t in u["starts_ps"]],
            "ends_ps": [t + SHIFT_PS for t in u["ends_ps"]],
            "ops": u["ops"],
            "labels": u["labels"],
        }
        for u in golden["usage"]
    }
    if twin["instants"] != want_instants:
        fail("the shifted twin's instants differ from the shifted golden")
    if twin["usage"] != want_usage:
        fail("the shifted twin's usage differs from the shifted golden")
    if twin["now_ps"] != golden["now_ps"] + SHIFT_PS:
        fail(f"twin end time {twin['now_ps']} != shifted golden "
             f"{golden['now_ps'] + SHIFT_PS}")


def main():
    binary = sys.argv[1] if len(sys.argv) > 1 else "./build/maxev_serve"
    if not os.path.exists(binary):
        fail(f"binary not found: {binary}")

    demo = json.loads(
        subprocess.run(
            [binary, "--emit-demo"], check=True, capture_output=True, text=True
        ).stdout
    )
    scenario, tokens = demo["scenario"], demo["tokens"]

    with tempfile.TemporaryDirectory() as tmp:
        spath = os.path.join(tmp, "scenario.json")
        tpath = os.path.join(tmp, "tokens.json")
        with open(spath, "w") as f:
            json.dump(scenario, f)
        with open(tpath, "w") as f:
            json.dump(tokens, f)
        golden = json.loads(
            subprocess.run(
                [binary, "--golden", spath, tpath],
                check=True,
                capture_output=True,
                text=True,
            ).stdout
        )

    # Split every stream's tokens into ROUNDS contiguous chunks.
    chunks = []  # [round][stream] -> (source, tokens)
    for r in range(ROUNDS):
        per_round = []
        for stream in tokens["streams"]:
            toks = stream["tokens"]
            lo = len(toks) * r // ROUNDS
            hi = len(toks) * (r + 1) // ROUNDS
            per_round.append((stream["source"], toks[lo:hi]))
        chunks.append(per_round)

    state = {"instants": {}, "usage": {}}
    server = Server(binary)
    sub = server.request(
        {"cmd": "submit", "session": "smoke", "scenario": scenario}
    )
    if not sub["stream_sources"]:
        fail("submitted scenario has no stream sources")

    polls = 0
    for r in range(ROUNDS):
        for source, toks in chunks[r]:
            if toks:
                server.request(
                    {
                        "cmd": "feed",
                        "session": "smoke",
                        "source": source,
                        "tokens": toks,
                    }
                )
        delta = server.request({"cmd": "poll", "session": "smoke"})
        accumulate(state, delta)
        polls += 1

        if r == 1:  # checkpoint mid-stream, restore into a fresh session
            ckpt = server.request({"cmd": "checkpoint", "session": "smoke"})
            server.request({"cmd": "close", "session": "smoke"})
            server.request(
                {
                    "cmd": "restore",
                    "session": "smoke",
                    "checkpoint": ckpt["checkpoint"],
                }
            )
            hits = server.request({"cmd": "stats"})["cache"]["hits"]
            if hits < 1:
                fail(f"restoring a submitted scenario missed the cache "
                     f"({hits} hits)")
            source, toks = next((c for c in chunks[r + 1] if c[1]))
            hostile_lines(server, ckpt["checkpoint"], source, toks[0])
            twin = run_twin(server, scenario, tokens)

    # Every stream is fully fed now: a final poll runs to completion.
    delta = server.request({"cmd": "poll", "session": "smoke"})
    accumulate(state, delta)
    polls += 1
    if not delta["completed"]:
        fail(f"scenario did not complete (stop={delta['stop']})")
    hostile = server.send_line("[" * HOSTILE_DEPTH, "hostile nesting")
    if hostile.get("ok") is not False:
        fail(f"a {HOSTILE_DEPTH}-deep line was not rejected in band")
    stats = server.request({"cmd": "stats"})
    server.request({"cmd": "close", "session": "smoke"})
    server.close()

    golden_instants = {
        s["series"]: s["instants_ps"] for s in golden["instants"]
    }
    golden_usage = {
        u["resource"]: {
            k: u[k] for k in ("starts_ps", "ends_ps", "ops", "labels")
        }
        for u in golden["usage"]
    }
    if state["instants"] != golden_instants:
        for name in sorted(set(state["instants"]) | set(golden_instants)):
            got = state["instants"].get(name)
            want = golden_instants.get(name)
            if got != want:
                print(f"  series {name}:\n    got  {got}\n    want {want}")
        fail("streamed instants differ from the one-shot golden")
    if state["usage"] != golden_usage:
        fail("streamed usage differs from the one-shot golden")
    if delta["now_ps"] != golden["now_ps"]:
        fail(f"end time {delta['now_ps']} != golden {golden['now_ps']}")
    check_twin(twin, golden)

    n_instants = sum(len(v) for v in state["instants"].values())
    print(
        f"serve_smoke: OK — {n_instants} instants over "
        f"{len(state['instants'])} series, {polls} polls, "
        f"1 checkpoint/restore, bit-identical to one-shot, a shifted twin "
        f"session matches the shifted golden, hostile lines rejected in "
        f"band (cache: {stats['cache']})"
    )


if __name__ == "__main__":
    main()
