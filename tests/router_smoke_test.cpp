// End-to-end smoke for the sharded serving tier (src/router/ +
// tools/batmap_router.cpp), the CI router-smoke gate:
//
//  * Topology parity — the same mixed I/S/T/K/R/A/D stream answered
//    through a 1-shard router, a 3-shard router, and a plain single
//    batmap_serve over the unsharded corpus must be byte-identical,
//    including the rolled-up FINGERPRINT (STATS excluded: shard count
//    and router counters differ by design).
//  * A fleet at default flags answers cross-shard queries whose hops
//    carry several KiB of elements exactly like a single server.
//  * Zero dropped-but-acked queries across a mid-load RELOAD that
//    stalls one shard's snapshot swap (REPRO_FAULT=swap_stall_ms):
//    every concurrent client must get exactly one reply per request,
//    none of them ERR UNAVAILABLE.
//
// Orchestration runs through generated bash scripts: shards bind
// ephemeral ports (--port 0) and hand them back via the LISTENING
// stdout contract, concurrent clients speak TCP via bash's /dev/tcp.
// Binary paths are injected by CMake, as in service_smoke_test.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#ifndef BATMAP_CLI_PATH
#define BATMAP_CLI_PATH "./batmap_cli"
#endif
#ifndef BATMAP_SERVE_PATH
#define BATMAP_SERVE_PATH "./batmap_serve"
#endif
#ifndef BATMAP_ROUTER_PATH
#define BATMAP_ROUTER_PATH "./batmap_router"
#endif

namespace {

struct RunResult {
  int exit_code;
  std::string out;
};

RunResult run(const std::string& cmd) {
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (!pipe) return {-1, ""};
  while (fgets(buf.data(), buf.size(), pipe)) out += buf.data();
  const int status = pclose(pipe);
  return {WEXITSTATUS(status), out};
}

std::size_t count_of(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

/// Common bash prelude: builds the corpus + snapshot + shard splits under
/// $D and defines spawn_shard/await_port helpers. Every path lives under
/// the per-test scratch dir so parallel ctest runs cannot collide.
std::string prelude(const std::string& tag) {
  std::string s = "set -u\nD=/tmp/router_smoke_" + tag + "\n";
  s += "rm -rf $D && mkdir -p $D && cd $D\n";
  s += std::string("CLI=") + BATMAP_CLI_PATH + "\n";
  s += std::string("SERVE=") + BATMAP_SERVE_PATH + "\n";
  s += std::string("ROUTER=") + BATMAP_ROUTER_PATH + "\n";
  s += R"SH(
$CLI gen --items 80 --total 8000 --density 0.08 --out c.fimi >/dev/null
$CLI build --fimi c.fimi --out c.store >/dev/null
$CLI snapshot --store c.store --out c.snap --epoch 1 >/dev/null
$CLI shard-split --store c.store --shards 1 --out-prefix one --epoch 1 >/dev/null
$CLI shard-split --store c.store --shards 3 --out-prefix three --epoch 1 >/dev/null

# spawn_shard <name> <snapshot> [env...]: starts a shard on an ephemeral
# port, remembers its pid, echoes nothing. await_port <name> prints the
# LISTENING port (waits up to 5s).
spawn_shard() {
  local name=$1 snap=$2; shift 2
  env "$@" $SERVE --snapshot $snap --port 0 --max-line 1048576 \
    < /dev/null > $name.out 2> $name.err &
  echo $! > $name.pid
}
await_port() {
  for _ in $(seq 1 100); do
    local p=$(awk '/^LISTENING/{print $2; exit}' $1.out 2>/dev/null)
    if [ -n "$p" ]; then echo $p; return 0; fi
    sleep 0.05
  done
  echo "MISSING-PORT-$1" >&2; return 1
}
cleanup() { for f in *.pid; do kill $(cat $f) 2>/dev/null; done; wait 2>/dev/null; }
trap cleanup EXIT
)SH";
  return s;
}

// The parity stream: every verb, duplicate operands, cache-hitting
// repeats, cross-shard k-way up to k=8, zero-result intersections, a
// write/flush/read cycle, and non-folding errors sprinkled through —
// the fingerprint only matches if every OK reply matched byte for byte.
const char* kParityStream = R"SH(
{
  for a in 0 7 13 41; do for b in 1 19 63 79; do
    echo "I $a $b"; echo "S $a $b"
  done; done
  echo "I 3 3"
  echo "T 3 5"; echo "T 5 10"; echo "T 1 79"
  echo "K 3 0 1 2"; echo "K 4 5 6 7 8"; echo "K 8 0 5 10 20 30 40 50 79"
  echo "K 3 11 11 12"
  echo "R 3 0 1 2"; echo "R 5 3 9 27 45 66"; echo "R 2 14 14"
  echo "I 0 1"
  echo "bogus line"
  echo "I 999999 0"
  echo "T 0 5"
  echo "A 2 7777"; echo "D 2 7777"; echo "A 5 1"; echo "FLUSH"
  echo "I 1 2"; echo "S 2 5"; echo "T 3 5"
  echo "FINGERPRINT"
  echo "QUIT"
} > stream.txt
)SH";

TEST(RouterSmokeTest, TopologyParityIncludingFingerprint) {
  std::string sh = prelude("parity");
  sh += kParityStream;
  sh += R"SH(
$SERVE --snapshot c.snap --max-line 1048576 < stream.txt 2>/dev/null \
  | grep -v '^STATS' > oracle.txt

spawn_shard s1 one.0.snap
p1=$(await_port s1) || exit 1
$ROUTER --shards $p1 --max-line 1048576 < stream.txt 2>/dev/null \
  | grep -v '^STATS' > one.txt

spawn_shard t0 three.0.snap
spawn_shard t1 three.1.snap
spawn_shard t2 three.2.snap
ports=$(await_port t0),$(await_port t1),$(await_port t2) || exit 1
$ROUTER --shards $ports --max-line 1048576 < stream.txt 2>/dev/null \
  | grep -v '^STATS' > three.txt

echo "=== oracle vs 1-shard"
diff -u oracle.txt one.txt && echo PARITY1-OK
echo "=== oracle vs 3-shard"
diff -u oracle.txt three.txt && echo PARITY3-OK
echo "=== replies"
grep -c '^OK' oracle.txt
grep '^FP' oracle.txt
)SH";
  std::ofstream("/tmp/router_smoke_parity.sh") << sh;
  const auto res = run("bash /tmp/router_smoke_parity.sh");
  ASSERT_EQ(res.exit_code, 0) << res.out;
  EXPECT_EQ(count_of(res.out, "PARITY1-OK"), 1u) << res.out;
  EXPECT_EQ(count_of(res.out, "PARITY3-OK"), 1u) << res.out;
  // The stream really exercised the engine: plenty of OK replies and a
  // folded fingerprint that all three topologies agreed on.
  EXPECT_EQ(count_of(res.out, "FP "), 1u) << res.out;
  EXPECT_EQ(count_of(res.out, "ERR UNAVAILABLE"), 0u) << res.out;
}

// Every process at its default flags: cross-shard hops carry whole element
// lists (~1000 elements, several KiB per line here), which the shards must
// accept, so the router's answers equal a single server's.
TEST(RouterSmokeTest, DefaultFlagFleetServesLongCrossShardHops) {
  std::string sh = prelude("longhops");
  sh += R"SH(
$CLI gen --items 20 --total 20000 --density 0.5 --out big.fimi >/dev/null
$CLI build --fimi big.fimi --out big.store >/dev/null
$CLI snapshot --store big.store --out big.snap --epoch 1 >/dev/null
$CLI shard-split --store big.store --shards 2 --out-prefix big --epoch 1 >/dev/null
{
  for a in 0 1 2 3; do for b in 1 2 3 4 5 6 7; do
    echo "I $a $b"; echo "S $a $b"
  done; done
  echo "T 0 3"; echo "T 1 3"; echo "T 2 5"
  echo "K 3 0 1 2"; echo "R 4 0 1 2 3"
  echo "FINGERPRINT"; echo "QUIT"
} > big.txt
$SERVE --snapshot big.snap < big.txt 2>/dev/null > single.txt
for s in 0 1; do
  $SERVE --snapshot big.$s.snap --port 0 < /dev/null > b$s.out 2>/dev/null &
  echo $! > b$s.pid
done
ports=$(await_port b0),$(await_port b1) || exit 1
$ROUTER --shards $ports < big.txt 2>/dev/null > routed.txt
echo "errors=$(grep -c '^ERR' routed.txt)"
diff -u single.txt routed.txt && echo LONGHOPS-OK
)SH";
  std::ofstream("/tmp/router_smoke_longhops.sh") << sh;
  const auto res = run("bash /tmp/router_smoke_longhops.sh");
  ASSERT_EQ(res.exit_code, 0) << res.out;
  EXPECT_EQ(count_of(res.out, "errors=0"), 1u) << res.out;
  EXPECT_EQ(count_of(res.out, "LONGHOPS-OK"), 1u) << res.out;
}

TEST(RouterSmokeTest, MidLoadReloadDropsNoAckedQueries) {
  std::string sh = prelude("reload");
  sh += R"SH(
$CLI shard-split --store c.store --shards 3 --out-prefix swap --epoch 2 >/dev/null

# Shard 1 stalls inside its snapshot swap: the RELOAD window is wide
# open while clients keep querying it.
spawn_shard t0 three.0.snap
spawn_shard t1 three.1.snap REPRO_FAULT=swap_stall_ms=200
spawn_shard t2 three.2.snap
ports=$(await_port t0),$(await_port t1),$(await_port t2) || exit 1
$ROUTER --shards $ports --port 0 --max-line 1048576 \
  < /dev/null > router.out 2> router.err &
echo $! > router.pid
rp=$(await_port router) || exit 1

# One client: pipelines its whole stream, counts replies. Every request
# line must produce exactly one reply line — a dropped query shows up as
# a short count, a cascading failure as ERR UNAVAILABLE in the output.
client() {
  local id=$1 n=$2
  { for i in $(seq 1 $n); do
      echo "I $(( (id * 31 + i) % 80 )) $(( (id * 17 + i * 3) % 80 ))"
      echo "T 3 $(( i % 80 ))"
      echo "K 3 $(( i % 80 )) $(( (i + 7) % 80 )) $(( (i + 31) % 80 ))"
    done
    echo "QUIT"
  } > client$id.in
  exec 3<>/dev/tcp/127.0.0.1/$rp || { echo "CONNECT-FAIL $id"; return 1; }
  cat client$id.in >&3
  cat <&3 > client$id.outp
  exec 3<&- 3>&-
  local want=$(( 3 * n ))
  local got=$(wc -l < client$id.outp)
  local unavailable=$(grep -c 'ERR UNAVAILABLE' client$id.outp || true)
  echo "client $id: want=$want got=$got unavailable=$unavailable"
}
cpids=""
for c in 1 2 3 4; do client $c 120 & cpids="$cpids $!"; done
sleep 0.2
# Mid-load: swap every shard to the epoch-2 split while queries fly.
exec 4<>/dev/tcp/127.0.0.1/$rp
printf 'RELOAD swap\nQUIT\n' >&4
cat <&4 > reload.outp
exec 4<&- 4>&-
echo "reload: $(cat reload.outp)"
wait $cpids
for c in 1 2 3 4; do cat client$c.outp >> all_clients.outp; done
echo "total-unavailable=$(grep -c 'ERR UNAVAILABLE' all_clients.outp || true)"
)SH";
  std::ofstream("/tmp/router_smoke_reload.sh") << sh;
  const auto res = run("bash /tmp/router_smoke_reload.sh");
  ASSERT_EQ(res.exit_code, 0) << res.out;
  EXPECT_EQ(count_of(res.out, "RELOADED epoch=2"), 1u) << res.out;
  for (int c = 1; c <= 4; ++c) {
    const std::string line = "client " + std::to_string(c) +
                             ": want=360 got=360 unavailable=0";
    EXPECT_EQ(count_of(res.out, line), 1u) << res.out;
  }
  EXPECT_EQ(count_of(res.out, "CONNECT-FAIL"), 0u) << res.out;
  EXPECT_EQ(count_of(res.out, "total-unavailable=0"), 1u) << res.out;
}

}  // namespace
