// End-to-end smoke test for the serving stack: batmap_cli builds a store
// and converts it to a snapshot, batmap_serve answers a scripted query
// stream over its stdin line protocol, and the batched server's responses
// (including the connection fingerprint) must be byte-identical to a
// --naive server run on the same snapshot. Binary paths are injected by
// CMake, as in cli_test.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#ifndef BATMAP_CLI_PATH
#define BATMAP_CLI_PATH "./batmap_cli"
#endif
#ifndef BATMAP_SERVE_PATH
#define BATMAP_SERVE_PATH "./batmap_serve"
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

const char* kScript =
    "I 0 1\\n"
    "I 1 2\\n"
    "S 0 1\\n"
    "T 3 5\\n"
    "I 0 1\\n"      // repeat: must hit the cache, same answer
    "bogus line\\n" // -> ERR, must not advance the fingerprint
    "I 999999 0\\n" // out of range -> ERR
    "FINGERPRINT\\n"
    "STATS\\n"
    "QUIT\\n";

std::string serve(const std::string& snap, const std::string& extra_flags) {
  const auto res = run("printf '" + std::string(kScript) + "' | " +
                       BATMAP_SERVE_PATH + " --snapshot " + snap + " " +
                       extra_flags);
  EXPECT_EQ(res.exit_code, 0) << res.out;
  return res.out;
}

/// Builds a deterministic store (a tiny one by default) under /tmp and
/// returns its path; snapshots at any epoch can then be cut from it with
/// cut_snapshot().
std::string build_store(
    const std::string& tag,
    const std::string& gen = "--items 60 --total 6000 --density 0.08") {
  const std::string fimi = "/tmp/service_smoke_" + tag + ".fimi";
  const std::string store = "/tmp/service_smoke_" + tag + ".store";
  EXPECT_EQ(run(std::string(BATMAP_CLI_PATH) + " gen " + gen + " --out " +
                fimi)
                .exit_code,
            0);
  EXPECT_EQ(run(std::string(BATMAP_CLI_PATH) + " build --fimi " + fimi +
                " --out " + store)
                .exit_code,
            0);
  std::remove(fimi.c_str());
  return store;
}

std::string cut_snapshot(const std::string& store, const std::string& tag,
                         int epoch, const std::string& flags = "") {
  const std::string snap = "/tmp/service_smoke_" + tag + "_e" +
                           std::to_string(epoch) + ".snap";
  EXPECT_EQ(run(std::string(BATMAP_CLI_PATH) + " snapshot --store " + store +
                " --out " + snap + " --epoch " + std::to_string(epoch) + " " +
                flags)
                .exit_code,
            0);
  return snap;
}

/// batmap_serve's stdout for `script` (printf escapes): every reply line,
/// without the stderr banner lines run() interleaves.
std::string serve_replies(const std::string& snap, const std::string& script,
                          const std::string& flags = "") {
  const auto res = run("printf '" + script + "' | " + BATMAP_SERVE_PATH +
                       " --snapshot " + snap + " " + flags);
  EXPECT_EQ(res.exit_code, 0) << res.out;
  std::string out;
  std::size_t pos = 0;
  while (pos < res.out.size()) {
    std::size_t end = res.out.find('\n', pos);
    if (end == std::string::npos) end = res.out.size();
    const std::string line = res.out.substr(pos, end - pos);
    if (line.rfind("batmap_serve:", 0) != 0) out += line + "\n";
    pos = end + 1;
  }
  return out;
}

// The 300-set corpus (items 300, total 40000, density 0.06) the CI serve
// gates script against.
const char* kCiCorpus = "--items 300 --total 40000 --density 0.06";

/// Count occurrences of `needle` in `s`.
std::size_t count_of(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(ServiceSmokeTest, ServeAnswersAndMatchesNaiveRun) {
  const std::string fimi = "/tmp/service_smoke.fimi";
  const std::string store = "/tmp/service_smoke.store";
  const std::string snap = "/tmp/service_smoke.snap";

  ASSERT_EQ(run(std::string(BATMAP_CLI_PATH) +
                " gen --items 60 --total 6000 --density 0.08 --out " + fimi)
                .exit_code,
            0);
  ASSERT_EQ(run(std::string(BATMAP_CLI_PATH) + " build --fimi " + fimi +
                " --out " + store)
                .exit_code,
            0);
  const auto snap_res = run(std::string(BATMAP_CLI_PATH) + " snapshot --store " +
                            store + " --out " + snap + " --epoch 7");
  ASSERT_EQ(snap_res.exit_code, 0) << snap_res.out;
  EXPECT_NE(snap_res.out.find("checksummed"), std::string::npos);

  const std::string batched = serve(snap, "");
  const std::string naive = serve(snap, "--naive");

  // Per-line protocol shape on the batched run.
  EXPECT_NE(batched.find("OK "), std::string::npos) << batched;
  EXPECT_NE(batched.find("FP "), std::string::npos) << batched;
  EXPECT_NE(batched.find("STATS queries="), std::string::npos) << batched;
  EXPECT_NE(batched.find("ERR "), std::string::npos) << batched;

  // The batched and naive servers must produce identical replies for every
  // query line — including the rolled-up fingerprint. Compare the reply
  // block only: the startup banner (stderr) and the STATS line
  // legitimately differ between modes.
  const auto replies = [](const std::string& s) {
    const auto from = s.find("\nOK ");
    return s.substr(from, s.find("STATS ") - from);
  };
  ASSERT_NE(batched.find("\nOK "), std::string::npos);
  ASSERT_NE(naive.find("\nOK "), std::string::npos);
  ASSERT_NE(batched.find("STATS "), std::string::npos);
  ASSERT_NE(naive.find("STATS "), std::string::npos);
  EXPECT_EQ(replies(batched), replies(naive))
      << "batched:\n" << batched << "\nnaive:\n" << naive;

  // The repeated "I 0 1" was a cache hit on the batched server. (Stats
  // publication trails request completion by one batch at most; two
  // protocol round trips have passed since the hit, but accept any
  // nonzero count rather than an exact one.)
  const auto hits_pos = batched.find("cache_hits=");
  ASSERT_NE(hits_pos, std::string::npos) << batched;
  EXPECT_NE(batched[hits_pos + std::string("cache_hits=").size()], '0')
      << batched;

  // A corrupted snapshot is rejected at startup. Byte 200 is the low byte
  // of a directory offset — always a multiple of 64, never 0xab.
  ASSERT_EQ(run("printf '\\xab' | dd of=" + snap +
                " bs=1 count=1 seek=200 conv=notrunc status=none")
                .exit_code,
            0);
  const auto bad = run(std::string(BATMAP_SERVE_PATH) + " --snapshot " + snap +
                       " < /dev/null");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.out.find("checksum mismatch"), std::string::npos) << bad.out;

  std::remove(fimi.c_str());
  std::remove(store.c_str());
  std::remove(snap.c_str());
}

std::string first_ok_line(const std::string& s) {
  const auto pos = s.find("\nOK ");
  if (pos == std::string::npos) return "";
  const auto end = s.find('\n', pos + 1);
  return s.substr(pos + 1, end == std::string::npos ? end : end - pos - 1);
}

// Satellite: every malformed input class gets a typed ERR reply with a
// machine-parseable first token, and none of them kill the connection.
TEST(ServiceSmokeTest, TypedErrorsForMalformedAndOversizedLines) {
  const std::string store = build_store("typed");
  const std::string snap = cut_snapshot(store, "typed", 3);

  const std::string long_line(80, 'x');
  const std::string script = "I 0 1\\n" + long_line +
                             "\\nV 1 2\\nI 0\\nX 1 2\\nT 999999 5\\nI 0 1\\n"
                             "QUIT\\n";
  const auto res = run("printf '" + script + "' | " + BATMAP_SERVE_PATH +
                       " --snapshot " + snap + " --max-line 32");
  EXPECT_EQ(res.exit_code, 0) << res.out;

  // Oversized line (80 > --max-line 32) -> BADREQ; bogus op and missing
  // operand -> BADREQ; malformed shard-internal X -> its own BADREQ;
  // out-of-range set id -> RANGE. Valid queries before and after the
  // garbage still answer.
  EXPECT_EQ(count_of(res.out, "ERR BADREQ line too long"), 1u) << res.out;
  EXPECT_EQ(count_of(res.out, "ERR BADREQ expected:"), 2u) << res.out;
  EXPECT_EQ(count_of(res.out, "ERR BADREQ bad X request"), 1u) << res.out;
  EXPECT_EQ(count_of(res.out, "ERR RANGE"), 1u) << res.out;
  EXPECT_EQ(count_of(res.out, "\nOK "), 2u) << res.out;

  std::remove(store.c_str());
  std::remove(snap.c_str());
}

// Tentpole: serving from an adaptive-layout snapshot is byte-identical to
// serving from the all-batmap snapshot of the same store — every reply
// line including the rolled-up fingerprint. snapshot-info reports the
// per-layout split and the size saving.
TEST(ServiceSmokeTest, AdaptiveLayoutSnapshotServesIdentically) {
  const std::string store = build_store("layout");
  const std::string snap_bm = cut_snapshot(store, "layout_bm", 4);
  const std::string snap_auto = "/tmp/service_smoke_layout_auto.snap";
  const auto cut = run(std::string(BATMAP_CLI_PATH) + " snapshot --store " +
                       store + " --out " + snap_auto +
                       " --epoch 4 --layout auto");
  ASSERT_EQ(cut.exit_code, 0) << cut.out;

  // Pair, support, top-k, and conjunctive queries all flow through the
  // cross-layout kernels on the auto snapshot; the reply block (everything
  // up to STATS, whose layout gauges legitimately differ) must match.
  const std::string script =
      "I 0 1\\nI 1 2\\nS 0 1\\nS 5 9\\nT 3 5\\nK 3 1 2 3\\nR 3 4 5 6\\n"
      "I 0 1\\nFINGERPRINT\\nSTATS\\nQUIT\\n";
  const auto serve_script = [&](const std::string& snap) {
    const auto res = run("printf '" + script + "' | " + BATMAP_SERVE_PATH +
                         " --snapshot " + snap);
    EXPECT_EQ(res.exit_code, 0) << res.out;
    return res.out;
  };
  const std::string from_bm = serve_script(snap_bm);
  const std::string from_auto = serve_script(snap_auto);
  const auto replies = [](const std::string& s) {
    const auto from = s.find("\nOK ");
    return s.substr(from, s.find("STATS ") - from);
  };
  ASSERT_NE(from_bm.find("\nOK "), std::string::npos) << from_bm;
  ASSERT_NE(from_auto.find("\nOK "), std::string::npos) << from_auto;
  EXPECT_EQ(replies(from_bm), replies(from_auto))
      << "batmap:\n" << from_bm << "\nauto:\n" << from_auto;
  EXPECT_NE(from_bm.find("FP "), std::string::npos) << from_bm;

  // snapshot-info on both: the batmap file saves nothing vs itself; both
  // report the accounting lines.
  const auto info_bm = run(std::string(BATMAP_CLI_PATH) +
                           " snapshot-info --snapshot " + snap_bm);
  EXPECT_EQ(info_bm.exit_code, 0) << info_bm.out;
  EXPECT_NE(info_bm.out.find("saved 0 bytes (0.0%)"), std::string::npos)
      << info_bm.out;
  const auto info_auto = run(std::string(BATMAP_CLI_PATH) +
                             " snapshot-info --snapshot " + snap_auto);
  EXPECT_EQ(info_auto.exit_code, 0) << info_auto.out;
  EXPECT_NE(info_auto.out.find("vs all-batmap:"), std::string::npos)
      << info_auto.out;

  std::remove(store.c_str());
  std::remove(snap_bm.c_str());
  std::remove(snap_auto.c_str());
}

// Tentpole: RELOAD hot-swaps the snapshot mid-stream. Answers are
// identical across the swap (same store, new epoch), a bad path or a
// non-advancing epoch is rejected with a typed ERR RELOAD while the
// current snapshot keeps serving, and STATS reports the swap.
TEST(ServiceSmokeTest, ReloadSwapsMidStreamAndRejectsBadPaths) {
  const std::string store = build_store("reload");
  const std::string s7 = cut_snapshot(store, "reload", 7);
  const std::string s9 = cut_snapshot(store, "reload", 9);

  const std::string script = "I 0 1\\nRELOAD " + s9 +
                             "\\nI 0 1\\nRELOAD /nonexistent.snap\\nI 0 1"
                             "\\nRELOAD " + s7 + "\\nI 0 1\\nSTATS\\nQUIT\\n";
  const auto res = run("printf '" + script + "' | " + BATMAP_SERVE_PATH +
                       " --snapshot " + s7);
  EXPECT_EQ(res.exit_code, 0) << res.out;

  EXPECT_NE(res.out.find("RELOADED epoch=9"), std::string::npos) << res.out;
  // Missing file and the stale epoch-7 snapshot (9 -> 7 goes backwards)
  // are both rejected; serving continues on epoch 9 either way.
  EXPECT_EQ(count_of(res.out, "ERR RELOAD"), 2u) << res.out;
  EXPECT_EQ(count_of(res.out, "\nOK "), 4u) << res.out;

  // All four answers to the same query are byte-identical: the swap to a
  // same-store snapshot must not perturb results.
  const std::string ok = first_ok_line(res.out);
  ASSERT_FALSE(ok.empty()) << res.out;
  EXPECT_EQ(count_of(res.out, "\n" + ok + "\n"), 4u) << res.out;

  const auto stats_pos = res.out.find("STATS queries=");
  ASSERT_NE(stats_pos, std::string::npos) << res.out;
  const std::string stats = res.out.substr(stats_pos);
  EXPECT_NE(stats.find(" swaps=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" epoch=9"), std::string::npos) << stats;

  std::remove(store.c_str());
  std::remove(s7.c_str());
  std::remove(s9.c_str());
}

// Satellite: SIGTERM while a client connection is open drains admitted
// work, prints a final STATS line to stderr, and exits 0.
TEST(ServiceSmokeTest, SigtermDrainsAndPrintsFinalStats) {
  const std::string store = build_store("term");
  const std::string snap = cut_snapshot(store, "term", 2);

  // The writer answers one query then idles holding the pipe open; the
  // TERM at 0.5s must not wait for the writer's EOF.
  const std::string cmd =
      std::string("sh -c '( printf \"I 0 1\\n\"; sleep 1.2 ) | ") +
      BATMAP_SERVE_PATH + " --snapshot " + snap +
      " & pid=$!; sleep 0.5; kill -TERM $pid; wait $pid; echo rc=$?'";
  const auto res = run(cmd);

  EXPECT_NE(res.out.find("\nOK "), std::string::npos) << res.out;
  EXPECT_NE(res.out.find("rc=0"), std::string::npos) << res.out;
  EXPECT_NE(res.out.find("batmap_serve: STATS queries="), std::string::npos)
      << res.out;

  std::remove(store.c_str());
  std::remove(snap.c_str());
}

// Tentpole acceptance: SIGKILL while a swap is stalled mid-publish. The
// already-acknowledged reply must have reached the client before the
// kill, the stalled RELOAD must never have been acknowledged, and a
// restarted server on the original snapshot must answer the same query
// byte-identically — zero dropped-but-acknowledged queries.
TEST(ServiceSmokeTest, KillDuringSwapNeverDropsAcknowledgedWork) {
  const std::string store = build_store("kill9");
  const std::string s1 = cut_snapshot(store, "kill9", 5);
  const std::string s2 = cut_snapshot(store, "kill9", 6);
  const std::string out_file = "/tmp/service_smoke_kill9.out";

  // swap_stall_ms=2000 parks the swap after validation but before
  // publish; the kill at 1.0s lands inside the [0.4s, 2.4s] stall window.
  const std::string cmd =
      std::string("sh -c '( printf \"I 0 1\\n\"; sleep 0.4; "
                  "printf \"RELOAD ") + s2 + "\\n\"; sleep 1.5 ) | " +
      "env REPRO_FAULT=swap_stall_ms=2000 " + BATMAP_SERVE_PATH +
      " --snapshot " + s1 + " > " + out_file +
      " & pid=$!; sleep 1; kill -9 $pid; wait $pid; echo rc=$?; "
      "echo ---; cat " + out_file + "'";
  const auto res = run(cmd);

  EXPECT_NE(res.out.find("rc=137"), std::string::npos) << res.out;  // SIGKILL
  const auto marker = res.out.find("---");
  ASSERT_NE(marker, std::string::npos) << res.out;
  const std::string acked = res.out.substr(marker);
  EXPECT_NE(acked.find("\nOK "), std::string::npos) << res.out;
  // The swap stalled before publish, so the reload was never acknowledged
  // anywhere — not to the client, not in the server log.
  EXPECT_EQ(res.out.find("RELOADED"), std::string::npos) << res.out;
  EXPECT_EQ(res.out.find("swapped to epoch"), std::string::npos) << res.out;

  // Recovery: the original snapshot is untouched by the aborted swap and
  // replays the acked answer byte-for-byte.
  const auto again = run("printf 'I 0 1\\nQUIT\\n' | " +
                         std::string(BATMAP_SERVE_PATH) + " --snapshot " + s1);
  EXPECT_EQ(again.exit_code, 0) << again.out;
  const std::string before = first_ok_line(acked);
  const std::string after = first_ok_line(again.out);
  ASSERT_FALSE(before.empty()) << res.out;
  EXPECT_EQ(before, after) << res.out << "\n---restart---\n" << again.out;

  std::remove(store.c_str());
  std::remove(s1.c_str());
  std::remove(s2.c_str());
  std::remove(out_file.c_str());
}

// Satellite: the strict protocol tokenizer. The old sscanf parser accepted
// "I 1 -2" (%u silently wraps the sign to 4294967294) and ignored trailing
// garbage ("I 1 2 junk" parsed as a clean pair); both are BADREQ now, as
// are wrong token counts, signs, hex, and numbers that do not fit u32.
TEST(ServiceSmokeTest, StrictParserRejectsNegativeAndTrailingGarbage) {
  const std::string store = build_store("strict");
  const std::string snap = cut_snapshot(store, "strict", 4);

  const std::string script =
      "I 0 1\\n"
      "I 1 -2\\n"                 // negative id
      "I 1 2 junk\\n"             // trailing garbage
      "I +1 2\\n"                 // explicit sign
      "I 0x1 2\\n"                // hex
      "I 1 2 3 4\\n"              // too many operands
      "K 1 0\\n"                  // k below 2
      "K 9 0 1 2 3 4 5 6 7 8\\n"  // k above kMaxKwayIds
      "K 3 0 1\\n"                // id list shorter than k
      "K 2 0 99999999999\\n"      // id does not fit u32
      "K 2 0 1\\n"                // valid k-way after all the garbage
      "QUIT\\n";
  const auto res = run("printf '" + script + "' | " + BATMAP_SERVE_PATH +
                       " --snapshot " + snap);
  EXPECT_EQ(res.exit_code, 0) << res.out;
  EXPECT_EQ(count_of(res.out, "ERR BADREQ expected:"), 9u) << res.out;
  EXPECT_EQ(count_of(res.out, "\nOK "), 2u) << res.out;

  std::remove(store.c_str());
  std::remove(snap.c_str());
}

// Satellite: --naive mode enforces deadlines exactly like the batched
// engine. A 40 ms injected stall makes the 5 ms request expire in both
// modes; replies — including the fingerprint, which errors never advance —
// must be byte-identical.
TEST(ServiceSmokeTest, NaiveModeHonorsDeadlinesLikeBatched) {
  const std::string store = build_store("dl");
  const std::string snap = cut_snapshot(store, "dl", 2);

  const std::string script =
      "I 0 1 5\\nI 0 1 2000\\nI 0 1\\nFINGERPRINT\\nQUIT\\n";
  const auto serve_stalled = [&](const char* flags) {
    return run("printf '" + script + "' | env REPRO_FAULT=worker_stall_ms=40 " +
               BATMAP_SERVE_PATH + " --snapshot " + snap + " " + flags);
  };
  const auto batched = serve_stalled("");
  const auto naive = serve_stalled("--naive");
  EXPECT_EQ(batched.exit_code, 0) << batched.out;
  EXPECT_EQ(naive.exit_code, 0) << naive.out;

  // Reply block: the timed-out request, the two served ones, and the FP.
  const auto block = [](const std::string& s) {
    const auto from = s.find("\nERR TIMEOUT");
    EXPECT_NE(from, std::string::npos) << s;
    const auto fp = s.find("\nFP ", from);
    EXPECT_NE(fp, std::string::npos) << s;
    const auto end = s.find('\n', fp + 1);
    return from == std::string::npos || fp == std::string::npos
               ? s
               : s.substr(from, end - from);
  };
  EXPECT_EQ(block(batched.out), block(naive.out))
      << "batched:\n" << batched.out << "\nnaive:\n" << naive.out;
  EXPECT_EQ(count_of(batched.out, "ERR TIMEOUT"), 1u) << batched.out;
  EXPECT_EQ(count_of(batched.out, "\nOK "), 2u) << batched.out;

  std::remove(store.c_str());
  std::remove(snap.c_str());
}

// Tentpole: a mixed I/S/T/K/R stream is answered identically by the
// batched planner and the --naive brute-force path, fingerprint included,
// and the k-way pair case agrees with the pair query.
TEST(ServiceSmokeTest, KwayStreamMatchesNaiveByteForByte) {
  const std::string store = build_store("kway");
  const std::string snap = cut_snapshot(store, "kway", 5);

  const std::string script =
      "I 0 1\\n"
      "K 2 0 1\\n"          // same pair through the k-way planner
      "K 5 0 1 2 3 4\\n"
      "R 3 0 1 2\\n"
      "S 1 2\\n"
      "T 2 4\\n"
      "K 4 3 3 4 5\\n"      // duplicate operand dedups
      "K 2 0 1 50\\n"       // with a (generous) deadline
      "FINGERPRINT\\nSTATS\\nQUIT\\n";
  const auto go = [&](const char* flags) {
    return run("printf '" + script + "' | " + BATMAP_SERVE_PATH +
               " --snapshot " + snap + " " + flags);
  };
  const auto batched = go("");
  const auto naive = go("--naive");
  EXPECT_EQ(batched.exit_code, 0) << batched.out;
  EXPECT_EQ(naive.exit_code, 0) << naive.out;

  const auto replies = [](const std::string& s) {
    const auto from = s.find("\nOK ");
    return s.substr(from, s.find("STATS ") - from);
  };
  ASSERT_NE(batched.out.find("\nOK "), std::string::npos) << batched.out;
  ASSERT_NE(naive.out.find("\nOK "), std::string::npos) << naive.out;
  EXPECT_EQ(replies(batched.out), replies(naive.out))
      << "batched:\n" << batched.out << "\nnaive:\n" << naive.out;

  // "I 0 1" and "K 2 0 1" are the same query; their replies must match.
  const std::string pair_ok = first_ok_line(batched.out);
  ASSERT_FALSE(pair_ok.empty()) << batched.out;
  EXPECT_GE(count_of(batched.out, "\n" + pair_ok + "\n"), 2u) << batched.out;
  // k-way queries show up in the batched stats.
  const auto kpos = batched.out.find(" kway=");
  ASSERT_NE(kpos, std::string::npos) << batched.out;
  EXPECT_NE(batched.out[kpos + 6], '0') << batched.out;

  std::remove(store.c_str());
  std::remove(snap.c_str());
}

// Acceptance: a deterministic malformed-input fuzz stream produces only
// typed replies — no crash, no silently accepted or silently dropped
// lines — while planted valid queries keep answering throughout.
TEST(ServiceSmokeTest, MalformedFuzzYieldsOnlyTypedErrors) {
  const std::string store = build_store("fuzz");
  const std::string snap = cut_snapshot(store, "fuzz", 6);
  const std::string input = "/tmp/service_smoke_fuzz.in";

  // Charset deliberately lacks the letters of QUIT/STATS/RELOAD/
  // FINGERPRINT so no random line becomes a control command; random
  // K/I/R/S/T lines that happen to parse are fine (they answer OK).
  const char charset[] = "KIRST0123456789 -+x.";
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  std::FILE* f = std::fopen(input.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::size_t planted = 0;
  for (int i = 0; i < 220; ++i) {
    if (i % 20 == 0) {
      std::fputs("I 0 1\n", f);
      ++planted;
      continue;
    }
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t len = 1 + (x >> 33) % 30;
    std::string line;
    std::uint64_t y = x;
    for (std::size_t j = 0; j < len; ++j) {
      y = y * 6364136223846793005ull + 1442695040888963407ull;
      line += charset[(y >> 35) % (sizeof(charset) - 1)];
    }
    std::fputs((line + "\n").c_str(), f);
  }
  std::fputs("FINGERPRINT\nQUIT\n", f);
  std::fclose(f);

  const auto res = run(std::string(BATMAP_SERVE_PATH) + " --snapshot " + snap +
                       " < " + input);
  EXPECT_EQ(res.exit_code, 0) << res.out;

  // Every reply line is typed. (ERR TIMEOUT can only come from a randomly
  // well-formed query with a tiny random deadline; it is typed too.)
  std::size_t replies = 0, badreq = 0;
  std::size_t pos = 0;
  while (pos < res.out.size()) {
    auto end = res.out.find('\n', pos);
    if (end == std::string::npos) end = res.out.size();
    const std::string line = res.out.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line.rfind("batmap_serve:", 0) == 0) continue;
    ++replies;
    badreq += line.rfind("ERR BADREQ", 0) == 0;
    const bool typed = line.rfind("OK ", 0) == 0 ||
                       line.rfind("ERR BADREQ", 0) == 0 ||
                       line.rfind("ERR RANGE", 0) == 0 ||
                       line.rfind("ERR TIMEOUT", 0) == 0 ||
                       line.rfind("FP ", 0) == 0;
    EXPECT_TRUE(typed) << "untyped reply: '" << line << "'";
  }
  // One reply per non-empty request line (nothing silently swallowed):
  // 220 fuzz/planted lines + FINGERPRINT; QUIT closes without a reply.
  EXPECT_EQ(replies, 221u) << res.out;
  EXPECT_GE(count_of(res.out, "\nOK "), planted) << res.out;
  EXPECT_GT(badreq, 100u) << res.out;  // garbage dominates the stream

  std::remove(store.c_str());
  std::remove(snap.c_str());
  std::remove(input.c_str());
}

// Live updates: a mixed read/write stream with a FLUSH compaction in the
// middle answers byte-identically on the batched and --naive servers —
// merged reads before the flush, compacted reads after it, fingerprint
// included — and the compaction is visible as FLUSHED epoch=2 plus the
// delta/compaction STATS gauges.
TEST(ServiceSmokeTest, LiveWriteStreamMatchesNaiveAcrossFlush) {
  const std::string store = build_store("live");
  const std::string snap = cut_snapshot(store, "live", 1);

  const std::string script =
      "I 0 1\\n"
      "A 0 2 3 4\\n"      // adds are visible to every following read
      "I 0 1\\n"
      "A 1 2 3\\n"
      "D 0 2\\n"          // tombstone: removed from the merged view
      "I 0 1\\n"
      "S 0 1\\n"
      "T 0 4\\n"
      "K 3 0 1 2\\n"
      "R 3 0 1 2\\n"
      "FLUSH\\n"          // compacts the delta into epoch 2
      "I 0 1\\n"
      "S 0 1\\n"
      "T 0 4\\n"
      "FINGERPRINT\\nSTATS\\nQUIT\\n";
  const auto go = [&](const std::string& flags, const std::string& prefix) {
    const auto res = run("printf '" + script + "' | " + BATMAP_SERVE_PATH +
                         " --snapshot " + snap + " --compact-prefix " +
                         prefix + " " + flags);
    EXPECT_EQ(res.exit_code, 0) << res.out;
    std::remove((prefix + ".e2").c_str());
    return res.out;
  };
  const std::string batched = go("", "/tmp/service_smoke_live_b");
  const std::string naive = go("--naive", "/tmp/service_smoke_live_n");

  EXPECT_NE(batched.find("FLUSHED epoch=2"), std::string::npos) << batched;
  const auto replies = [](const std::string& s) {
    const auto from = s.find("\nOK ");
    return s.substr(from, s.find("STATS ") - from);
  };
  ASSERT_NE(batched.find("\nOK "), std::string::npos) << batched;
  ASSERT_NE(naive.find("\nOK "), std::string::npos) << naive;
  EXPECT_EQ(replies(batched), replies(naive))
      << "batched:\n" << batched << "\nnaive:\n" << naive;

  // The delta drained into the new epoch and the gauges say so.
  const auto stats_pos = batched.find("STATS queries=");
  ASSERT_NE(stats_pos, std::string::npos) << batched;
  const std::string stats = batched.substr(stats_pos);
  EXPECT_NE(stats.find(" epoch=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" compactions=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" delta_elements=0"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" writes="), std::string::npos) << stats;

  std::remove(store.c_str());
  std::remove(snap.c_str());
}

// Legacy v1 snapshots: snapshot-info must say the file is v1 and that the
// all-batmap serving plan comes from the format, not from layout tags.
TEST(ServiceSmokeTest, SnapshotInfoReportsFormatVersion) {
  const std::string store = build_store("v1info");
  const std::string snap = cut_snapshot(store, "v1info", 2);

  const auto info = run(std::string(BATMAP_CLI_PATH) +
                        " snapshot-info --snapshot " + snap);
  EXPECT_EQ(info.exit_code, 0) << info.out;
  EXPECT_NE(info.out.find("format v3"), std::string::npos) << info.out;
  // A v3 file must NOT carry the legacy note.
  EXPECT_EQ(info.out.find("legacy v1"), std::string::npos) << info.out;

  std::remove(store.c_str());
  std::remove(snap.c_str());
}

// A scripted I/S/T/K/R stream over the 300-set corpus: the batched and
// --naive servers reply byte-identically, connection fingerprint included.
TEST(ServiceSmokeTest, CiCorpusScriptMatchesNaiveByteForByte) {
  const std::string store = build_store("ci_naive", kCiCorpus);
  const std::string snap = cut_snapshot(store, "ci_naive", 1);
  const std::string script =
      "I 0 1\\nI 1 2\\nS 2 3\\nT 4 5\\nK 3 0 1 2\\nK 5 4 5 6 7 8\\n"
      "R 3 0 1 2\\nK 2 0 1\\nI 0 1\\nFINGERPRINT\\nQUIT\\n";
  const std::string batched = serve_replies(snap, script);
  EXPECT_EQ(batched, serve_replies(snap, script, "--naive"));
  EXPECT_EQ(count_of(batched, "OK "), 9u) << batched;
  EXPECT_EQ(count_of(batched, "\nFP "), 1u) << batched;
  std::remove(store.c_str());
  std::remove(snap.c_str());
}

// The same corpus on an adaptive-layout snapshot replies byte-identically
// to the all-batmap one, fingerprint included.
TEST(ServiceSmokeTest, CiCorpusAutoLayoutsMatchAllBatmap) {
  const std::string store = build_store("ci_auto", kCiCorpus);
  const std::string bm = cut_snapshot(store, "ci_auto_bm", 1);
  const std::string au = cut_snapshot(store, "ci_auto", 1, "--layout auto");
  const std::string script =
      "I 0 1\\nI 1 2\\nS 2 3\\nT 4 5\\nK 3 0 1 2\\nR 3 0 1 2\\nI 0 1\\n"
      "FINGERPRINT\\nQUIT\\n";
  const std::string from_bm = serve_replies(bm, script);
  EXPECT_EQ(from_bm, serve_replies(au, script));
  EXPECT_EQ(count_of(from_bm, "OK "), 7u) << from_bm;
  EXPECT_EQ(count_of(from_bm, "\nFP "), 1u) << from_bm;
  std::remove(store.c_str());
  std::remove(bm.c_str());
  std::remove(au.c_str());
}

// A scripted A/D/FLUSH stream over a 120-item corpus (total 12000): the
// batched and --naive servers reply byte-identically before and after the
// FLUSH compaction into epoch 2, fingerprint included.
TEST(ServiceSmokeTest, CiCorpusWriteStreamMatchesNaiveAcrossFlush) {
  const std::string store =
      build_store("ci_live", "--items 120 --total 12000");
  const std::string snap = cut_snapshot(store, "ci_live", 1);
  const std::string script =
      "I 0 1\\nA 0 3 4 5\\nI 0 1\\nD 1 3\\nS 0 1\\nT 0 4\\nK 3 0 1 2\\n"
      "FLUSH\\nI 0 1\\nS 0 1\\nFINGERPRINT\\nQUIT\\n";
  const std::string b = "/tmp/service_smoke_ci_live_b";
  const std::string n = "/tmp/service_smoke_ci_live_n";
  const std::string batched =
      serve_replies(snap, script, "--compact-prefix " + b);
  EXPECT_EQ(batched,
            serve_replies(snap, script, "--compact-prefix " + n + " --naive"));
  EXPECT_NE(batched.find("\nFLUSHED epoch=2\n"), std::string::npos)
      << batched;
  EXPECT_EQ(count_of(batched, "\nFP "), 1u) << batched;
  std::remove((b + ".e2").c_str());
  std::remove((n + ".e2").c_str());
  std::remove(store.c_str());
  std::remove(snap.c_str());
}

}  // namespace
